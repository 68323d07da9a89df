"""Degree-one extensions at cocycle level: construction, the Hom and Ext
tables, and exactness of a sequence under Hom(-, N).

An extension class of x by y (sequences 0 -> y -> E -> x -> 0) is stored
as one matrix C_a per arrow; the middle term acts by the block matrices
[[Y_a, C_a], [0, X_a]].  Coboundaries are the cocycles Y_a f - f X_a
coming from arbitrary vertex maps f: x -> y.

Hom(-, N) keeps such a sequence exact if and only if its connecting map
Hom(y, N) -> Ext^1(x, N), f -> [f C], is zero (Auslander-Solberg): f C
must be a coboundary for every f in a basis of Hom(y, N).  That map is
linear in the class, so the classes exact under Hom(-, N) are the kernel
of one matrix, `connecting_matrix`; is_hom_exact tests one class with it.
The suites over maximal rigid T need only the dimension of the classes
exact under Hom(-, T), which endo.relative_ext reads from Hom dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .modules import (
    Representation,
    _before,
    _hom_system,
    _intertwiner_terms,
    _terms,
    arrow_pairs,
    hom_basis,
    hom_dim,
    scatter_plans,
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


def coboundary_echelon(x: Representation, y: Representation) -> tuple[np.ndarray, list[int]]:
    """(red, pivots): the nonzero rows and pivot columns of the reduced
    echelon form of the coboundaries of (x, y), in cocycle coordinates,
    from one elimination."""
    # coboundaries f -> (Y_a f_s - f_t X_a)_a form the negated Hom system,
    # whose rows are the cocycle coordinates in arrow order: same column space
    red, pivots = x.field.rref(_hom_system(x, y).T)
    return red[: len(pivots)], pivots


def _coboundary_residues(fld, echelon, vecs: np.ndarray) -> np.ndarray:
    """Residues of cocycle coordinate vectors of a pair, given as columns,
    modulo its coboundaries: the free coordinates left after eliminating
    against echelon, the pair's coboundary_echelon.  The map is linear, and
    a column's residue is zero exactly when the column is a coboundary."""
    red, pivots = echelon
    free = np.ones(red.shape[1], dtype=bool)
    free[pivots] = False
    return (vecs[free] - fld.mul(red[:, free].T, vecs[pivots])) % fld.p


def _cocycle_terms(dq, xd: np.ndarray, yd: np.ndarray) -> tuple:
    """Shapes and scatter terms of the transposed _cocycle_condition for
    the dimension vectors in the rows of xd and yd, vectorised over rows
    and arrows; its shape is that of the pair's Hom system.

    Each arrow b: v -> w, with its partner b*: w -> v, gives the term
    sgn (Y_b* C_b + C_b* X_b) of the relation at v, sgn = +1 for a base
    arrow and -1 for a starred one, where (Y_b* C_b)[i, j] is
    Σ_k Y_b*[i, k] C_b[k, j] and (C_b* X_b)[i, j] is Σ_k C_b*[i, k] X_b[k, j].
    In the transpose, the cell of condition row row0[v] + x_v i + j and
    cocycle coordinate c is c * width + row0[v] + x_v i + j."""
    v, w = np.array(arrow_pairs(dq)).T
    pb, sgn = list(dq.partner), np.where(np.arange(len(v)) < dq.n_base, 1, -1)
    sizes = xd * yd
    width, row0 = sizes.sum(axis=1)[:, None], _before(sizes)[:, v]
    xv, yv, xw, yw = xd[:, v], yd[:, v], xd[:, w], yd[:, w]
    offs, xo, yo = _before(yw * xv) * width, _before(xw * xv), _before(yw * yv)  # offs: C_b starts, times width
    y_side = (yv, xv, yw, offs + row0, xv, width + 1, xv * width, yo[:, pb], yw, 0, 1, sgn)
    x_side = (yv, xv, xw, offs[:, pb] + row0, xw * width + xv, 1, width, xo, 0, 1, xv, sgn)
    return np.stack([(yw * xv).sum(axis=1), width[:, 0]], axis=1), _terms(x_side, y_side)


def _cocycle_condition(fld, dq, x_dims, y_dims, xs, ys) -> np.ndarray:
    """The cocycle condition of a pair (x, y), given by dimension vectors
    and per-arrow matrices flattened as Representation.flat holds them: a
    matrix whose kernel is the cocycle space Z^1 in the coordinates of the
    C_a flattened row-major and stacked in arrow order; the defining
    relation linearized at each vertex.  The entries are scattered by the
    cached plan of _cocycle_terms."""
    plan = scatter_plans([(_cocycle_terms, dq, tuple(x_dims), tuple(y_dims))])[0]
    return np.ascontiguousarray(plan.apply(fld, xs, ys).T)


def _pair_systems(xs: list, ys: list, known: int) -> tuple:
    """The Hom system and the transposed cocycle condition of each pair
    (xs[i], ys[j]) outside the leading known x known block, scattered in
    one step from the modules' concatenated Representation.flat into
    zero-padded stacks.

    Returns (i, j, shapes, stacks): the pairs, as two index arrays; the
    shape of each system, the Hom systems of the pairs first, then their
    cocycle conditions; and one (members, stack) per width, the stack of
    the systems listed in members, zero rows padding each to the largest
    height.  The plans of all the pairs' dimension vectors come from one
    scatter_plans call."""
    mods = xs + ys
    ids: dict[tuple, int] = {}
    group = np.array([ids.setdefault(m.dims, len(ids)) for m in mods])
    dims, g = list(ids), len(ids)
    i, j = np.nonzero((np.arange(len(xs)) >= known)[:, None] | (np.arange(len(ys)) >= known))
    keys, key = np.unique(group[i] * g + group[len(xs) + j], return_inverse=True)
    kinds = ((_intertwiner_terms, arrow_pairs(xs[0].dq)), (_cocycle_terms, xs[0].dq))
    plans = scatter_plans([(*kind, dims[q // g], dims[q % g]) for kind in kinds for q in keys.tolist()])
    plan = np.concatenate([key, key + len(keys)])  # of each system
    shapes = np.array([p.shape for p in plans], dtype=np.int64)[plan]
    # a stack per width, its systems in order, each padded to its height
    order = np.argsort(shapes[:, 1], kind="stable")
    widths, starts, counts = np.unique(shapes[order, 1], return_index=True, return_counts=True)
    heights = np.maximum.reduceat(shapes[order, 0], starts)
    cells = heights * widths  # of each padded system
    firsts = np.cumsum(counts * cells) - counts * cells
    base = np.empty(len(plan), dtype=np.int64)  # where each system starts
    base[order] = np.repeat(firsts - starts * cells, counts) + np.arange(len(plan)) * np.repeat(cells, counts)
    flat = np.concatenate([m.flat for m in mods])
    lens = np.array([m.flat.size for m in mods])
    begins = np.cumsum(lens) - lens  # where each module's entries start in flat
    out = np.zeros(int((counts * cells).sum()), dtype=np.int64)
    for side, owner in enumerate(begins[np.tile([i, len(xs) + j], 2)]):  # x's, then y's
        # every entry of this side of every system, read off its plan
        parts = [p.y if side else p.x for p in plans]
        n = np.array([e.shape[1] for e in parts])
        per = n[plan]
        system = np.repeat(np.arange(len(plan)), per)
        at = np.arange(len(system)) + np.repeat((np.cumsum(n) - n)[plan] - (np.cumsum(per) - per), per)
        dst, src, sign = np.concatenate(parts, axis=1)[:, at]
        vals = flat[owner[system] + src] * sign
        if side:
            out[base[system] + dst] += vals
        else:
            out[base[system] + dst] = vals
    out %= xs[0].field.p
    stacks = [
        (order[s : s + c], out[f : f + c * h * w].reshape(c, h, w))
        for s, c, f, h, w in zip(starts, counts, firsts, heights, widths)
    ]
    return i, j, shapes, stacks


def pair_tables(xs, ys, known: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Tables (hom, ext) of dim Hom(x, y) and dim Ext^1(x, y) over x in xs
    and y in ys, int64 arrays of shape (len xs, len ys), from two ranks per
    pair and no kernel.  The pairs in the leading known x known block are
    skipped and read zero: a closure pass that grows its tables from the
    first known modules to all of them computes old x new and new x all in
    one call.

    With r the rank of the Hom system, dim Hom = Σ_i x_i y_i - r.  The
    coboundaries are the image of that system (negated), so they have
    dimension r, and dim Ext^1 = dim Z^1 - r, where dim Z^1 is the corank
    of the cocycle condition.  The condition is ranked transposed: its
    shape is then that of the Hom system, whose Σ_i x_i y_i columns are
    the elimination's steps.  Both systems of every pair come from one
    scatter (_pair_systems) into stacks of one width, and each stack is
    one PrimeField.ranks call."""
    xs, ys = list(xs), list(ys)
    hom = np.zeros((len(xs), len(ys)), dtype=np.int64)
    ext = np.zeros_like(hom)
    if not xs or not ys or max(len(xs), len(ys)) <= known:
        return hom, ext
    if any(m.dq != xs[0].dq for m in xs + ys):
        raise InputError("representations live on different double quivers")
    i, j, shapes, stacks = _pair_systems(xs, ys, known)
    ranks = np.zeros(len(shapes), dtype=np.int64)
    for members, stack in stacks:
        if stack.size:
            ranks[members] = xs[0].field.ranks(stack)
    (r_h, r_c), (rows, width) = ranks.reshape(2, -1), shapes[: len(i)].T
    hom[i, j] = width - r_h
    ext[i, j] = rows - r_c - r_h
    return hom, ext


def ext1_cocycle(x: Representation, y: Representation) -> ExtSpace:
    """Extension space of x by y, with explicit class representatives."""
    if x.dq != y.dq:
        raise InputError("representations live on different double quivers")
    fld = x.field
    dq = x.dq
    shapes = [(y.dims[a.target - 1], x.dims[a.source - 1]) for a in dq.arrows]
    offs = np.cumsum([0, *(r * c for r, c in shapes)])  # where each C_a starts
    z_basis = fld.kernel_basis(_cocycle_condition(fld, dq, x.dims, y.dims, x.flat, y.flat))

    # the pivot columns of the residues are the cocycles kept as class
    # representatives: each is outside the span of the columns before it
    _, pivots = fld.rref(_coboundary_residues(fld, coboundary_echelon(x, y), z_basis))
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
    return not fld.mul(connecting_matrix(space, n), coeffs).any()


def _stacked_residues(fld, echelon, parts) -> np.ndarray:
    """Residues of cocycles of a pair with coboundary_echelon echelon,
    given per arrow, in arrow order, as arrays indexed (block, class,
    entry): one row block per block, one column per class."""
    h, d = parts[0].shape[:2]
    vecs = np.concatenate(parts, axis=2).reshape(h * d, -1).T
    res = _coboundary_residues(fld, echelon, vecs)
    return res.reshape(-1, h, d).transpose(1, 0, 2).reshape(-1, d)


def connecting_matrix(space: ExtSpace, n: Representation) -> np.ndarray:
    """Matrix of the connecting maps Hom(y, n) -> Ext^1(x, n) of the classes.

    Column i stacks, over the hom_basis of Hom(y, n), the residue of f C_i
    modulo the coboundaries of (x, n), where C_i is the i-th class
    representative.  Its kernel is the space of classes whose sequences
    0 -> y -> E -> x -> 0 stay exact under Hom(-, n); a change of basis of
    Hom(y, n) acts invertibly on the row blocks, so the kernel and the rank
    do not depend on the basis.
    """
    x, y = space.x, space.y
    fld = x.field
    homs = hom_basis(y, n)
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
    return _stacked_residues(fld, coboundary_echelon(x, n), parts)


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
    return _stacked_residues(fld, coboundary_echelon(x, y), parts)

