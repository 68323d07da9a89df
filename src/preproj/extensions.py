"""Degree-one extensions at cocycle level: construction, the Hom and Ext
tables, and exactness of a sequence under Hom(-, N).

An extension class of x by y (sequences 0 -> y -> E -> x -> 0) is stored
as one matrix C_a per arrow; the middle term acts by the block matrices
[[Y_a, C_a], [0, X_a]].  Coboundaries are the cocycles Y_a f - f X_a
coming from arbitrary vertex maps f: x -> y.

Hom(-, N) keeps such a sequence exact if and only if its connecting map
Hom(y, N) -> Ext^1(x, N), f -> [f C], is zero (Auslander-Solberg): f C
must be a coboundary for every f in a basis of Hom(y, N).  That map is
linear in the class, so the classes exact under Hom(-, T) are the kernel
of one matrix, `connecting_matrix` stacked over the summands N of T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError
from .modules import (
    Representation,
    ScatterPlan,
    _hom_system,
    _map_offsets,
    _scatter_plan,
    arrow_pairs,
    hom_basis,
    hom_dim,
    intertwiner_system,
)


@dataclass
class ExtSpace:
    """Extensions of x by y: a basis of cocycles modulo coboundaries."""

    x: Representation
    y: Representation
    dim: int
    representatives: list  # one cocycle (tuple of per-arrow matrices) per class

    def cocycle(self, coeffs):
        fld = self.x.field
        if len(coeffs) != self.dim:
            raise InputError(f"need {self.dim} coefficients")
        dq = self.x.dq
        mats = [
            fld.zeros(self.y.dims[a.target - 1], self.x.dims[a.source - 1])
            for a in dq.arrows
        ]
        for c, rep in zip(coeffs, self.representatives):
            c = int(c) % fld.p
            if c == 0:
                continue
            for k in range(len(mats)):
                mats[k] = (mats[k] + c * rep[k]) % fld.p
        return mats


def _cocycle_columns(dq, x_dims, y_dims):
    """Shapes and offsets for the stacked cocycle coordinate vector."""
    shapes = [(y_dims[a.target - 1], x_dims[a.source - 1]) for a in dq.arrows]
    sizes = [r * c for r, c in shapes]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    return shapes, offs


def _coboundary_residues(x: Representation, y: Representation, vecs: np.ndarray) -> np.ndarray:
    """Residues of cocycle coordinate vectors of (x, y), given as columns,
    modulo coboundaries: the free coordinates left after eliminating against
    the reduced echelon form of the coboundary space.  The map is linear,
    and a column's residue is zero exactly when the column is a coboundary.
    """
    fld = x.field
    # coboundaries f -> (Y_a f_s - f_t X_a)_a form the negated Hom system,
    # whose rows are the cocycle coordinates in arrow order: same column space
    red, pivots = fld.rref(_hom_system(x, y).T)
    free = np.ones(red.shape[1], dtype=bool)
    free[pivots] = False
    return (vecs[free] - fld.mul(red[: len(pivots), free].T, vecs[pivots])) % fld.p


@lru_cache(maxsize=None)
def _cocycle_plan(dq, x_dims: tuple, y_dims: tuple) -> ScatterPlan:
    """ScatterPlan of _cocycle_condition, built on first use per (double
    quiver, x dims, y dims), with X and Y the per-arrow matrices of x and y.

    Each arrow b: v -> w, with its partner b*: w -> v, gives the term
    sgn (Y_b* C_b + C_b* X_b) of the relation at v, sgn = +1 for a base
    arrow and -1 for a starred one."""
    _, offs = _cocycle_columns(dq, x_dims, y_dims)
    # offsets of the arrow matrices of x and of y in their flat vectors
    (_, xo), (_, yo) = _cocycle_columns(dq, x_dims, x_dims), _cocycle_columns(dq, y_dims, y_dims)
    row0 = _map_offsets(x_dims, y_dims)  # the block of vertex v
    x_terms, y_terms = [], []
    for b, a in enumerate(dq.arrows):
        v, w, pb = a.source - 1, a.target - 1, dq.partner[b]
        xv, yv, xw, yw = x_dims[v], y_dims[v], x_dims[w], y_dims[w]
        sgn = 1 if b < dq.n_base else -1
        # row (i, j) of Y C is Σ_k Y[i, k] C[k, j], of C X is Σ_k C[i, k] X[k, j]
        y_terms.append((yv, xv, yw, row0[v], offs[b], 0, 1, xv, yo[pb], yw, 0, 1, sgn))
        x_terms.append((yv, xv, xw, row0[v], offs[pb], xw, 0, 1, xo[b], 0, 1, xv, sgn))
    return _scatter_plan(row0[-1], offs[-1], x_terms, y_terms)


def _cocycle_condition(fld, dq, x_dims, y_dims, xs, ys) -> np.ndarray:
    """The cocycle condition of a pair (x, y), given by dimension vectors
    and per-arrow matrices flattened as Representation.flat holds them: a
    matrix whose kernel is the cocycle space Z^1 in the stacked coordinates
    of _cocycle_columns; the defining relation linearized at each vertex.

    The entries are scattered by the cached _cocycle_plan.  xs and ys may
    carry leading batch axes as in modules.ScatterPlan.apply: x stacked
    as (kx, 1, n) against y as (1, ky, m) gives the conditions of all
    kx * ky pairs, of shape (kx, ky, rows, columns)."""
    return _cocycle_plan(dq, tuple(x_dims), tuple(y_dims)).apply(fld, xs, ys)


# padded cells of one stacked rank in pair_tables: stacks of this size keep
# the elimination's temporaries small; a larger matrix is ranked alone
STACK_CELLS = 8192


def _stacked_ranks(fld, mats) -> np.ndarray:
    """Rank of each 2-D matrix in mats, from PrimeField.ranks on stacks of
    matrices sorted by shape and zero-padded to a common shape of at most
    STACK_CELLS cells in all.  Zero rows and columns leave a rank as it is."""
    out = np.zeros(len(mats), dtype=np.int64)
    order = sorted(range(len(mats)), key=lambda i: mats[i].shape)
    start = 0
    while start < len(order):
        end, (r, c) = start + 1, mats[order[start]].shape
        while end < len(order):
            nr, nc = (max(u, v) for u, v in zip((r, c), mats[order[end]].shape))
            if (end - start + 1) * nr * nc > STACK_CELLS:
                break
            end, r, c = end + 1, nr, nc
        stack = np.zeros((end - start, r, c), dtype=np.int64)
        for b, i in enumerate(order[start:end]):
            m = mats[i]
            stack[b, : m.shape[0], : m.shape[1]] = m
        out[order[start:end]] = fld.ranks(stack)
        start = end
    return out


def pair_tables(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Tables (hom, ext) of dim Hom(x, y) and dim Ext^1(x, y) over x in xs
    and y in ys, int64 arrays of shape (len xs, len ys), from two ranks per
    pair and no kernel.

    With r the rank of the Hom system, dim Hom = Σ_i x_i y_i - r.  The
    coboundaries are the image of that system (negated), so they have
    dimension r, and dim Ext^1 = dim Z^1 - r, where dim Z^1 is the corank
    of the cocycle condition.  The modules are grouped by dimension vector;
    each pair of groups builds both systems in one broadcast call, and all
    the ranks come from _stacked_ranks."""
    xs, ys = list(xs), list(ys)
    hom = np.zeros((len(xs), len(ys)), dtype=np.int64)
    ext = np.zeros_like(hom)
    if not xs or not ys:
        return hom, ext
    fld, dq = xs[0].field, xs[0].dq
    if any(m.dq != dq for m in xs + ys):
        raise InputError("representations live on different double quivers")

    def groups(mods, axis):
        """(dims, ids, Representation.flat stacked on the batch axis) per
        dimension vector, in order of first appearance"""
        ids: dict[tuple, list[int]] = {}
        for i, m in enumerate(mods):
            ids.setdefault(m.dims, []).append(i)
        return [(dims, got, np.expand_dims(np.stack([mods[i].flat for i in got]), axis)) for dims, got in ids.items()]

    mats, blocks = [], []
    pairs = arrow_pairs(dq)
    y_groups = groups(ys, 0)
    for x_dims, ix, x_flat in groups(xs, 1):
        for y_dims, iy, y_flat in y_groups:
            system = intertwiner_system(fld, x_dims, y_dims, pairs, x_flat, y_flat)
            cond = _cocycle_condition(fld, dq, x_dims, y_dims, x_flat, y_flat)
            mats += list(system.reshape(len(ix) * len(iy), *system.shape[2:]))
            mats += list(cond.reshape(len(ix) * len(iy), *cond.shape[2:]))
            blocks.append((np.ix_(ix, iy), system.shape[-1], cond.shape[-1]))
    ranks = _stacked_ranks(fld, mats)
    start = 0
    for cell, h_cols, z_cols in blocks:
        n = 2 * cell[0].size * cell[1].size
        r_h, r_c = ranks[start : start + n].reshape(2, cell[0].size, cell[1].size)
        hom[cell] = h_cols - r_h
        ext[cell] = z_cols - r_c - r_h
        start += n
    return hom, ext


def ext1_cocycle(x: Representation, y: Representation) -> ExtSpace:
    """Extension space of x by y, with explicit class representatives."""
    if x.dq != y.dq:
        raise InputError("representations live on different double quivers")
    fld = x.field
    dq = x.dq
    shapes, offs = _cocycle_columns(dq, x.dims, y.dims)
    z_basis = fld.kernel_basis(_cocycle_condition(fld, dq, x.dims, y.dims, x.flat, y.flat))

    # the pivot columns of the residues are the cocycles kept as class
    # representatives: each is outside the span of the columns before it
    _, pivots = fld.rref(_coboundary_residues(x, y, z_basis))
    reps = [
        tuple(z_basis[offs[k] : offs[k + 1], c].reshape(shapes[k]) for k in range(len(dq.arrows)))
        for c in pivots
    ]
    return ExtSpace(x=x, y=y, dim=len(reps), representatives=reps)


def build_extension(e: ExtSpace, coeffs) -> Representation:
    """Middle term E of the class with these coefficients, 0 -> y -> E -> x -> 0,
    acting by the block matrices [[Y_a, C_a], [0, X_a]].  Representation
    checks the defining relation, which holds exactly when C is a cocycle."""
    fld = e.x.field
    dq = e.x.dq
    x, y = e.x, e.y
    c = e.cocycle(coeffs)
    dims = tuple(y.dims[i] + x.dims[i] for i in range(dq.nv))
    mats = []
    for k, a in enumerate(dq.arrows):
        s, t = a.source - 1, a.target - 1
        m = fld.zeros(dims[t], dims[s])
        m[: y.dims[t], : y.dims[s]] = y.mats[k]
        m[: y.dims[t], y.dims[s] :] = c[k]
        m[y.dims[t] :, y.dims[s] :] = x.mats[k]
        mats.append(m)
    return Representation(dq, fld, dims, mats)


# -- exactness under Hom(-, N) -------------------------------------------


def is_hom_exact(space: ExtSpace, coeffs, n: Representation) -> bool:
    """Whether Hom(-, n) keeps exact the sequence 0 -> y -> E -> x -> 0 of
    the class with these coefficients: whether its connecting map
    Hom(y, n) -> Ext^1(x, n) is zero, the column connecting_matrix gives
    it.  With Hom(y, n) = 0 there is no connecting map to check."""
    if not hom_dim(space.y, n):
        return True
    fld = space.x.field
    coeffs = np.asarray(coeffs, dtype=np.int64).reshape(-1, 1) % fld.p
    return not fld.mul(connecting_matrix(space, n, hom_basis(space.y, n)), coeffs).any()


def _stacked_residues(x: Representation, y: Representation, parts) -> np.ndarray:
    """Residues of cocycles of (x, y) given per arrow, in arrow order, as
    arrays indexed (block, class, entry): one row block per block, one
    column per class."""
    h, d = parts[0].shape[:2]
    vecs = np.concatenate(parts, axis=2).reshape(h * d, -1).T
    res = _coboundary_residues(x, y, vecs)
    return res.reshape(-1, h, d).transpose(1, 0, 2).reshape(-1, d)


def connecting_matrix(space: ExtSpace, n: Representation, homs) -> np.ndarray:
    """Matrix of the connecting maps Hom(y, n) -> Ext^1(x, n) of the classes.

    Column i stacks, over the basis homs of Hom(y, n) (tuples of vertex
    maps), the residue of f C_i modulo the coboundaries of (x, n), where C_i
    is the i-th class representative.  Its kernel is the space of classes
    whose sequences 0 -> y -> E -> x -> 0 stay exact under Hom(-, n); a
    change of basis of Hom(y, n) acts invertibly on the row blocks, so the
    kernel and the rank do not depend on the basis.
    """
    x, y = space.x, space.y
    fld = x.field
    if not homs or not space.dim:
        return fld.zeros(0, space.dim)
    h, d = len(homs), space.dim
    parts = []
    for k, a in enumerate(x.dq.arrows):
        s, t = a.source - 1, a.target - 1
        # rows (f, row of f_t), columns (class, column of C_i) of all f_t C_i
        fs = np.stack([f[t] for f in homs]).reshape(h * n.dims[t], y.dims[t])
        cs = np.stack([rep[k] for rep in space.representatives], axis=1)
        prod = fld.mul(fs, cs.reshape(y.dims[t], d * x.dims[s]))
        prod = prod.reshape(h, n.dims[t], d, x.dims[s]).transpose(0, 2, 1, 3)
        parts.append(prod.reshape(h, d, n.dims[t] * x.dims[s]))
    return _stacked_residues(x, n, parts)


def pullback_matrix(space: ExtSpace, maps) -> np.ndarray:
    """Matrix of the pullbacks of the classes along endomorphisms r of x.

    One block per r in maps (tuples of vertex maps x -> x): column i holds
    the residue of the cocycle (C_i,a r_s(a))_a, the class pulled back
    along r, modulo the coboundaries of (x, y).  Its kernel is the space of
    classes killed by pulling back along every r.
    """
    x, y = space.x, space.y
    fld = x.field
    if not maps or not space.dim:
        return fld.zeros(0, space.dim)
    h, d = len(maps), space.dim
    parts = []
    for k, a in enumerate(x.dq.arrows):
        s, t = a.source - 1, a.target - 1
        # rows (class, row of C_i), columns (r, column of r_s) of all C_i r_s
        cs = np.stack([rep[k] for rep in space.representatives])
        rs = np.concatenate([r[s] for r in maps], axis=1)
        prod = fld.mul(cs.reshape(d * y.dims[t], x.dims[s]), rs)
        prod = prod.reshape(d, y.dims[t], h, x.dims[s]).transpose(2, 0, 1, 3)
        parts.append(prod.reshape(h, d, y.dims[t] * x.dims[s]))
    return _stacked_residues(x, y, parts)

