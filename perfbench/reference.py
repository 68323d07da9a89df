"""A fixed reference computation that tracks how fast the host runs now.

The benchmark shares a few cores of a busy host whose speed drifts by
15-40 % over minutes: runs of the same code minutes apart differ by that
much, however long each run is.  So the benchmark times bursts of this
computation between the workload's commands and reports the workload's
time in units of one burst.  A drift that slows both cancels in the
ratio; a change to preproj moves only the workload's side, since nothing
here imports it.

A burst is mod-p row reduction of two fixed int64 matrices with numpy,
the kind of work the program's elimination layer does.  On a 2-core Xeon
VM a burst's time correlated with that of the A3 verify and A4 atlas
commands next to it at 0.8 and 0.67.  In sets of ten runs there,
dividing by it cut the spread between runs (quartile distance over
median) from 15-27 % to 5-11 % on a4-build and from 6-18 % to 4-9 % on
a3-all.
"""

from __future__ import annotations

import time

import numpy as np

P = 32003
REPS = 14  # one burst: about 1 s on one core of a 2-core Xeon VM
_SHAPES = ((90, 130), (140, 180))
EXPECTED_CHECKSUM = REPS * sum(rows for rows, _cols in _SHAPES)


def _matrices() -> list:
    rng = np.random.default_rng(20130117)
    return [rng.integers(0, P, size=shape, dtype=np.int64) for shape in _SHAPES]


def _rank(m: np.ndarray) -> int:
    r = m % P
    nrows, ncols = r.shape
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        src = row + int(nz[0])
        if src != row:
            r[[row, src]] = r[[src, row]]
        r[row] = (r[row] * pow(int(r[row, col]), P - 2, P)) % P
        colvals = r[:, col].copy()
        colvals[row] = 0
        mask = np.nonzero(colvals)[0]
        if mask.size:
            r[mask] = (r[mask] - np.outer(colvals[mask], r[row])) % P
        row += 1
    return row


def burst() -> float:
    """Run one burst and return its wall time in seconds.

    Raises RuntimeError if the ranks differ from the expected full ranks,
    so that a burst which skipped work shows.
    """
    mats = _matrices()
    t0 = time.perf_counter()
    check = 0
    for _ in range(REPS):
        for m in mats:
            check += _rank(m)
    wall = time.perf_counter() - t0
    if check != EXPECTED_CHECKSUM:
        raise RuntimeError(f"reference burst checksum {check}, expected {EXPECTED_CHECKSUM}")
    return wall
