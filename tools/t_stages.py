"""Time the End(T) stages of the T pass in process, per T.

    python3 tools/t_stages.py --type A4 --passes 5 --out stages.json

Builds the atlas, its maximal rigid modules and mutation graph in process
(untimed), then runs every stage once over the chosen T as a warm pass
and times `--passes` passes more.  The T are all 14 on A3 and every 24th
of the 672 on A4.  Per T and pass the stages are:

* images: `BoundAlgebra(atlas, T)` and the Hom(-, T) image of every
  atlas module;
* presentations: `endo.presentation` of every image;
* hom_b: `endo.hom_b` of the presentations with relations against every
  image, and the `PrimeField.ranks` of its stack;
* relative_ext: `endo.relative_ext(atlas, T)`;
* coresolution_check: `endo.coresolution_check` against T's first
  neighbour in the mutation graph, as theorem1 runs it.

The JSON gives, per stage, the milliseconds per T of each timed pass and
their median.  Only the public API of `preproj` is used, so the script
runs on any checkout that has it.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from preproj.atlas import enumerate_indecomposables  # noqa: E402
from preproj.endo import BoundAlgebra, coresolution_check, hom_b, presentation, relative_ext  # noqa: E402
from preproj.linalg import PrimeField  # noqa: E402
from preproj.rigidgraph import enumerate_maximal_rigid, mutation_graph  # noqa: E402

STAGES = ("images", "presentations", "hom_b", "relative_ext", "coresolution_check")
STRIDE = {"A3": 1, "A4": 24}
FIELD_CHAR = 32003  # the default main prime


def one_pass(atlas, rigids, t_indices, neighbour) -> dict:
    """Seconds per stage, summed over the T of t_indices."""
    spent = dict.fromkeys(STAGES, 0.0)
    clock = time.perf_counter
    for ti in t_indices:
        t = rigids[ti]
        t0 = clock()
        algebra = BoundAlgebra(atlas, t)
        images = [algebra.hom_image(mid) for mid in range(atlas.size)]
        t1 = clock()
        pres = [presentation(m) for m in images]
        t2 = clock()
        related = [pr for pr in pres if pr.relations]
        if related:
            mats = hom_b(related, images)
            atlas.field.ranks(mats.reshape(-1, *mats.shape[2:]))
        t3 = clock()
        relative_ext(atlas, t)
        t4 = clock()
        coresolution_check(atlas, t, rigids[neighbour[ti]])
        t5 = clock()
        for stage, (lo, hi) in zip(STAGES, [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)]):
            spent[stage] += hi - lo
    return spent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--type", choices=sorted(STRIDE), default="A4")
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--out", help="JSON file to write (default: stdout)")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    atlas = enumerate_indecomposables(args.type, PrimeField(FIELD_CHAR))
    rigids = enumerate_maximal_rigid(atlas)
    graph = mutation_graph(rigids, atlas.dq.nv)
    # mutation_graph sorts its vertices; coresolution_check pairs T with its first neighbour there
    rigids = graph.vertices
    neighbour: dict[int, int] = {}
    for i, j in graph.edges:
        neighbour.setdefault(i, j)
        neighbour.setdefault(j, i)
    t_indices = list(range(0, len(rigids), STRIDE[args.type]))
    one_pass(atlas, rigids, t_indices, neighbour)  # warm: Γ, memos, numpy paths
    passes = [one_pass(atlas, rigids, t_indices, neighbour) for _ in range(args.passes)]
    per_t = {stage: [1e3 * p[stage] / len(t_indices) for p in passes] for stage in STAGES}
    report = {
        "type": args.type,
        "field_char": FIELD_CHAR,
        "t_indices": t_indices,
        "passes": args.passes,
        "host": {"python": platform.python_version(), "numpy": np.__version__},
        "ms_per_t": {stage: {"passes": ms, "median": statistics.median(ms)} for stage, ms in per_t.items()},
    }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
