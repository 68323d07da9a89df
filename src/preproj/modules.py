"""Modules over the bound double-quiver algebra: Hom spaces, decomposition,
radicals, projective covers, syzygies.

A representation assigns a space k^d_i to each vertex and a matrix to each
double-quiver arrow, subject to the vertex-wise defining relation.  A map
between representations is a tuple of vertex matrices commuting with every
arrow action; no map object is kept, only such tuples.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InputError, NonSplitResidueError, StructureError
from .linalg import PrimeField
from .quivers import DoubleQuiver, PreprojectiveBasis


class Representation:
    """Immutable representation of the bound algebra on a double quiver."""

    def __init__(self, dq: DoubleQuiver, field: PrimeField, dims, mats, validate=True):
        self.dq = dq
        self.field = field
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != dq.nv:
            raise InputError("dimension vector length mismatch")
        if any(d < 0 for d in self.dims):
            raise InputError("negative dimension")
        if len(mats) != len(dq.arrows):
            raise InputError("one matrix per double-quiver arrow required")
        fixed = []
        for k, a in enumerate(dq.arrows):
            m = np.asarray(mats[k], dtype=np.int64) % field.p
            want = (self.dims[a.target - 1], self.dims[a.source - 1])
            if m.shape != want:
                raise InputError(f"matrix for {a.name} has shape {m.shape}, want {want}")
            m.flags.writeable = False
            fixed.append(m)
        self.mats = tuple(fixed)
        # the matrices flattened row-major and concatenated in arrow order:
        # the entries the linear systems of modules scatter
        self.flat = np.concatenate([np.zeros(0, dtype=np.int64)] + [m.reshape(-1) for m in fixed])
        self.flat.flags.writeable = False
        self._end_dim = None
        if validate and not check_relations(self):
            raise InputError("matrices violate the defining relation")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def end_dim(self) -> int:
        """dim End(self), computed once: the matrices are read-only."""
        if self._end_dim is None:
            self._end_dim = hom_dim(self, self)
        return self._end_dim

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def relation_defect(rep: Representation, v: int) -> np.ndarray:
    """Value of the defining relation at vertex v (a d_v x d_v matrix)."""
    dq, fld = rep.dq, rep.field
    d = rep.dims[v - 1]
    out = fld.zeros(d, d)
    for k in range(dq.n_base):
        a = dq.arrows[k]
        ks = dq.partner[k]
        if a.source == v:
            out = (out + fld.mul(rep.mats[ks], rep.mats[k])) % fld.p
        if a.target == v:
            out = (out - fld.mul(rep.mats[k], rep.mats[ks])) % fld.p
    return out


def check_relations(rep: Representation) -> bool:
    return all(not np.any(relation_defect(rep, v)) for v in rep.dq.vertices)


def zero_rep(dq: DoubleQuiver, field: PrimeField) -> Representation:
    dims = (0,) * dq.nv
    mats = [field.zeros(0, 0) for _ in dq.arrows]
    return Representation(dq, field, dims, mats, validate=False)


def simple(dq: DoubleQuiver, field: PrimeField, i: int) -> Representation:
    dims = tuple(1 if v == i else 0 for v in dq.vertices)
    mats = [
        field.zeros(dims[a.target - 1], dims[a.source - 1]) for a in dq.arrows
    ]
    return Representation(dq, field, dims, mats, validate=False)


def direct_sum(dq: DoubleQuiver, field: PrimeField, reps) -> Representation:
    reps = list(reps)
    if not reps:
        return zero_rep(dq, field)
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(dq.nv))
    mats = []
    for k, a in enumerate(dq.arrows):
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        m = field.zeros(rows, cols)
        ro = co = 0
        for r in reps:
            rr, cc = r.dims[a.target - 1], r.dims[a.source - 1]
            m[ro : ro + rr, co : co + cc] = r.mats[k]
            ro += rr
            co += cc
        mats.append(m)
    return Representation(dq, field, dims, mats, validate=False)


# -- Hom spaces ---------------------------------------------------------


def _map_offsets(x_dims, y_dims) -> list[int]:
    """Offsets of the vertex maps k^x_i -> k^y_i in a stacked vector."""
    offs = [0]
    for xd, yd in zip(x_dims, y_dims):
        offs.append(offs[-1] + yd * xd)
    return offs


class ScatterPlan:
    """Where the entries of two lists of matrices land in a linear system.

    Each cell of a system built from matrices X_1, X_2, ... and Y_1, Y_2,
    ... is zero, a signed entry of some X or Y, or, on a loop (s == t), the
    sum of one of each.  Each side, a triple (destinations, sources, signs)
    from _scatter_plan, lists the flat cell each entry of that side's
    matrices lands in, its position in those matrices flattened row-major
    and concatenated in order, and its sign.  Within one side no
    destination repeats, so the X entries are placed and the Y entries
    added onto them.
    """

    def __init__(self, rows: int, cols: int, x_side: tuple, y_side: tuple):
        self.shape = (int(rows), int(cols))
        self.x, self.y = x_side, y_side
        for a in (*x_side, *y_side):  # shared through the caches below
            a.flags.writeable = False

    def apply(self, fld: PrimeField, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The system of the flattened matrices xs and ys, reduced mod p.
        Their leading batch axes broadcast: X stacked as (kx, 1, n) against
        Y as (1, ky, m) gives the systems of all kx * ky pairs, of shape
        (kx, ky, rows, columns)."""
        batch = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
        out = np.zeros(batch + (self.shape[0] * self.shape[1],), dtype=np.int64)
        dst, src, sign = self.x
        out[..., dst] = xs[..., src] * sign
        dst, src, sign = self.y
        out[..., dst] += ys[..., src] * sign
        out %= fld.p
        return out.reshape(batch + self.shape)


def _scatter_plan(rows: int, cols: int, x_terms: list, y_terms: list) -> ScatterPlan:
    """A ScatterPlan from the terms of its X and Y sides.

    A term (I, J, K, row0, col0, ci, cj, ck, src0, si, sj, sk, sign)
    places, for i < I, j < J and k < K, the entry at flat source position
    src0 + si i + sj j + sk k of its side, times sign, in the cell of row
    row0 + J i + j and column col0 + ci i + cj j + ck k."""
    terms = np.array(x_terms + y_terms, dtype=np.int64).reshape(-1, 13)
    I, J, K, row0, col0, ci, cj, ck, src0, si, sj, sk, sign = terms.T
    # (offset, step in i, in j, in k) of the flat destination and source
    coef = np.stack([[row0 * cols + col0, J * cols + ci, cols + cj, ck], [src0, si, sj, sk]])
    counts = I * J * K
    term = np.repeat(np.arange(len(terms)), counts)  # the term of each entry
    q = np.arange(len(term)) - np.repeat(np.cumsum(counts) - counts, counts)
    jk = (J * K)[term]
    i, j, k = q // jk, q % jk // K[term], q % K[term]
    c = coef[:, :, term]
    dst, src = c[:, 0] + c[:, 1] * i + c[:, 2] * j + c[:, 3] * k
    nx = int(counts[: len(x_terms)].sum())
    sign = sign[term]
    return ScatterPlan(rows, cols, (dst[:nx], src[:nx], sign[:nx]), (dst[nx:], src[nx:], sign[nx:]))


@lru_cache(maxsize=None)
def _intertwiner_plan(x_dims: tuple, y_dims: tuple, pairs: tuple) -> ScatterPlan:
    """ScatterPlan of intertwiner_system for actions between the vertex
    pairs (s, t), built on first use per (x dims, y dims, pairs) and kept:
    a run meets few such keys (about 300 building the A4 atlas)."""
    offs = _map_offsets(x_dims, y_dims)
    x_terms, y_terms = [], []
    r0 = xo = yo = 0
    for s, t in pairs:
        xs, xt, ys, yt = x_dims[s], x_dims[t], y_dims[s], y_dims[t]
        # row (i, j) of f_t X_a is Σ_k f_t[i, k] X_a[k, j], of Y_a f_s is
        # Σ_k Y_a[i, k] f_s[k, j]
        x_terms.append((yt, xs, xt, r0, offs[t], xt, 0, 1, xo, 0, 1, xs, 1))
        y_terms.append((yt, xs, ys, r0, offs[s], 0, 1, xs, yo, ys, 0, 1, -1))
        r0, xo, yo = r0 + yt * xs, xo + xt * xs, yo + yt * ys
    return _scatter_plan(r0, offs[-1], x_terms, y_terms)


def intertwiner_system(fld: PrimeField, x_dims, y_dims, pairs, xs, ys) -> np.ndarray:
    """Matrix of f -> (f_t X_a - Y_a f_s)_a, whose kernel is Hom(x, y).

    The unknowns are the row-major vectors of the vertex maps
    f_i: k^x_i -> k^y_i, stacked in vertex order.  pairs lists the 0-based
    vertices (s, t) of each action a; the row blocks follow its order, an
    empty block for each action with y_t * x_s = 0.  xs and ys hold the X_a
    and the Y_a flattened row-major and concatenated in that order, as
    Representation.flat holds a module's arrow matrices, with leading
    batch axes as in ScatterPlan.apply.  The entries are scattered by the
    cached _intertwiner_plan; on a loop (s == t) the cells (i, j), (i, j)
    of f_t X_a and Y_a f_s coincide, and get the difference.
    """
    return _intertwiner_plan(tuple(x_dims), tuple(y_dims), tuple(pairs)).apply(fld, xs, ys)


def arrow_pairs(dq: DoubleQuiver) -> tuple:
    """The 0-based vertices (s, t) of each arrow, in arrow order."""
    return tuple((a.source - 1, a.target - 1) for a in dq.arrows)


def kernel_maps(fld: PrimeField, x_dims, y_dims, system: np.ndarray) -> list[tuple]:
    """Kernel basis of an intertwiner_system, one tuple of vertex maps per vector."""
    ker = fld.kernel_basis(system)
    offs = _map_offsets(x_dims, y_dims)
    return [
        tuple(
            ker[offs[i] : offs[i + 1], c].reshape(y_dims[i], x_dims[i])
            for i in range(len(x_dims))
        )
        for c in range(ker.shape[1])
    ]


def _hom_system(x: Representation, y: Representation) -> np.ndarray:
    if x.dq is not y.dq and x.dq != y.dq:
        raise InputError("representations live on different double quivers")
    return intertwiner_system(x.field, x.dims, y.dims, arrow_pairs(x.dq), x.flat, y.flat)


def hom_basis(x: Representation, y: Representation) -> list[tuple]:
    """A basis of Hom(x, y), tuples of vertex maps: the kernel of all
    intertwining conditions, solved as one stacked system."""
    return kernel_maps(x.field, x.dims, y.dims, _hom_system(x, y))


def hom_dim(x: Representation, y: Representation) -> int:
    """dim Hom(x, y) from the rank of the intertwining system alone."""
    a = _hom_system(x, y)
    return a.shape[1] - x.field.rank(a)


# -- subquotients -------------------------------------------------------


def sub_representation(rep: Representation, vertex_bases) -> Representation:
    """Restrict to the invariant subspace spanned by the given vertex bases."""
    fld = rep.field
    dq = rep.dq
    dims = tuple(b.shape[1] for b in vertex_bases)
    mats = []
    for k, a in enumerate(dq.arrows):
        s, t = a.source - 1, a.target - 1
        img = fld.mul(rep.mats[k], vertex_bases[s])
        coords = fld.solve(vertex_bases[t], img)
        if coords is None:
            raise InputError("subspaces are not invariant under the arrow action")
        mats.append(coords)
    return Representation(dq, fld, dims, mats, validate=False)


def _incoming(rep: Representation, i: int) -> np.ndarray:
    """The actions of the arrows into vertex i + 1, side by side: their
    column space is the radical of rep at that vertex."""
    mats = [rep.mats[k] for k in rep.dq.arrows_in(rep.dq.vertices[i])]
    return np.concatenate(mats, axis=1) if mats else rep.field.zeros(rep.dims[i], 0)


def radical(rep: Representation) -> Representation:
    """Sum of the images of all arrow actions, as a subrepresentation."""
    fld = rep.field
    bases = []
    for i in range(rep.dq.nv):
        r, pivots = fld.rref(_incoming(rep, i).T)
        bases.append(r[: len(pivots)].T.copy())
    return sub_representation(rep, bases)


def top_dims(rep: Representation) -> tuple[int, ...]:
    """Dimension vector of rep / rad rep: each dimension minus the rank of
    the incoming arrow actions."""
    return tuple(rep.dims[i] - rep.field.rank(_incoming(rep, i)) for i in range(rep.dq.nv))


def socle_dims(rep: Representation) -> tuple[int, ...]:
    """Dimension vector of the joint kernel of all outgoing arrow actions:
    dual_twist makes them the incoming actions, transposed."""
    return top_dims(dual_twist(rep))


# -- projectives, covers, syzygies --------------------------------------


def projective_module(basis: PreprojectiveBasis, i: int) -> Representation:
    """Left module on the path classes starting at vertex i.

    The component at vertex j is spanned by the basis classes i -> j,
    ordered by (degree, path); the class of the empty path is position 0
    of the vertex-i component, and generates.
    """
    dq, fld = basis.dq, basis.field
    if i not in dq.vertices:
        raise InputError(f"no vertex {i}")
    comps = basis.classes_from(i)
    order = {
        j: {dp: idx for idx, dp in enumerate(comps[j])} for j in dq.vertices
    }
    dims = tuple(len(comps[j]) for j in dq.vertices)
    mats = []
    for k, a in enumerate(dq.arrows):
        m = fld.zeros(dims[a.target - 1], dims[a.source - 1])
        for col, (deg, pos) in enumerate(comps[a.source]):
            w = basis.basis_paths[deg][(i, a.source)][pos]
            coords = basis.reduce_path(w + (k,), i, a.target)
            for tpos in range(coords.shape[0]):
                if coords[tpos, 0]:
                    row = order[a.target][(deg + 1, tpos)]
                    m[row, col] = coords[tpos, 0]
        mats.append(m)
    rep = Representation(dq, fld, dims, mats)
    return rep


def path_action(rep: Representation, path: tuple[int, ...], v_start: int) -> np.ndarray:
    """Matrix of a path acting on rep, from the component of its source vertex."""
    fld = rep.field
    dq = rep.dq
    out = fld.eye(rep.dims[v_start - 1])
    v = v_start
    for k in path:
        out = fld.mul(rep.mats[k], out)
        v = dq.arrows[k].target
    return out


def projective_cover(rep: Representation, basis: PreprojectiveBasis) -> tuple[Representation, tuple]:
    """Minimal projective cover P -> rep via lifts of a basis of the top:
    the module P and the vertex maps of the cover."""
    fld = rep.field
    dq = rep.dq
    # standard-coordinate lifts of the top: the coordinates left free by
    # the radical at each vertex
    lifts = []  # (vertex id, column vector in rep at that vertex)
    for i, v in enumerate(dq.vertices):
        _, pivots = fld.rref(_incoming(rep, i).T)
        free = sorted(set(range(rep.dims[i])).difference(pivots))
        for c in free:
            vec = fld.zeros(rep.dims[i], 1)
            vec[c, 0] = 1
            lifts.append((v, vec))
    summands = [projective_module(basis, v) for v, _ in lifts]
    cover_rep = direct_sum(dq, fld, summands)
    cols = {j: [] for j in dq.vertices}
    for (v, vec), proj in zip(lifts, summands):
        comps = basis.classes_from(v)
        for j in dq.vertices:
            block = fld.zeros(rep.dims[j - 1], len(comps[j]))
            for col, (deg, pos) in enumerate(comps[j]):
                w = basis.basis_paths[deg][(v, j)][pos]
                block[:, col : col + 1] = fld.mul(path_action(rep, w, v), vec)
            cols[j].append(block)
    mats = tuple(
        np.concatenate(cols[j], axis=1) if cols[j] else fld.zeros(rep.dims[j - 1], 0)
        for j in dq.vertices
    )
    return cover_rep, mats


def syzygy(rep: Representation, basis: PreprojectiveBasis) -> Representation:
    """Kernel of the projective cover; zero for projectives.  The cover must
    be onto: at each vertex its columns minus its kernel's are the
    dimension of rep (StructureError if not)."""
    fld = rep.field
    cover_rep, mats = projective_cover(rep, basis)
    kers = [fld.kernel_basis(m) for m in mats]
    if any(m.shape[1] - k.shape[1] != d for m, k, d in zip(mats, kers, rep.dims)):
        raise StructureError("projective cover is not surjective")
    return sub_representation(cover_rep, kers)


def dual_twist(rep: Representation) -> Representation:
    """Transpose duality composed with the star involution; an exact
    contravariant self-equivalence exchanging projectives and injectives."""
    dq = rep.dq
    mats = [rep.mats[dq.partner[k]].T for k in range(len(dq.arrows))]
    return Representation(dq, rep.field, rep.dims, mats, validate=False)


def cosyzygy(rep: Representation, basis: PreprojectiveBasis) -> Representation:
    return dual_twist(syzygy(dual_twist(rep), basis))


# -- isomorphism and decomposition ---------------------------------------


def is_isomorphic(x: Representation, y: Representation) -> bool:
    """Isomorphism test for x or y indecomposable: dimension fast paths,
    then a scan of the basis of Hom(x, y) for an invertible map.

    The scan is exact under that precondition: if x and y are isomorphic
    and one is indecomposable, the non-invertible maps form a proper
    subspace of Hom(x, y), which cannot contain a whole basis.  Two
    decomposable modules may be isomorphic with no invertible basis map.
    """
    if x is y:
        return True
    if x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    if x.end_dim != y.end_dim:
        return False
    hxy = hom_basis(x, y)
    if not hxy or len(hxy) != x.end_dim:
        return False
    fld = x.field
    return any(all(fld.is_invertible(m) for m in b) for b in hxy)


def _stable_power(fld: PrimeField, m: np.ndarray) -> np.ndarray:
    """m^(2^k) for the least 2^k >= size of m: its kernel is the generalized
    kernel of m, and it is zero exactly when m is nilpotent."""
    for _ in range(max(m.shape[0] - 1, 0).bit_length()):
        m = fld.mul(m, m)
    return m


def block_diagonal(rep: Representation, vertex_mats) -> np.ndarray:
    """An endomorphism of rep as one total_dim square matrix, its vertex
    maps on the diagonal blocks in vertex order."""
    fld = rep.field
    off = np.concatenate([[0], np.cumsum(rep.dims)])
    big = fld.zeros(rep.total_dim, rep.total_dim)
    for i in range(rep.dq.nv):
        big[off[i] : off[i + 1], off[i] : off[i + 1]] = vertex_mats[i]
    return big


def _split_spaces(rep: Representation, end_mats) -> list[list[np.ndarray]]:
    """Vertex-wise generalized eigenspace bases of an endomorphism, one
    entry per coprime factor of its minimal polynomial (only factors with
    nonzero total dimension are returned); [] when there is one factor.

    Shortcut: when p does not divide n = total_dim, an endomorphism E with
    a single eigenvalue has it at lam = tr(E)/n.  If every vertex block
    E_i - lam*I is nilpotent, the minimal polynomial is (t - lam)^k, one
    factor, and [] is returned without factoring.  Otherwise, and always
    when p divides n, the minimal polynomial is factored."""
    fld = rep.field
    nv = rep.dq.nv
    nonzero = [i for i in range(nv) if rep.dims[i] > 0]
    if not nonzero:
        return []
    n = rep.total_dim
    if n % fld.p:
        lam = sum(int(np.trace(end_mats[i])) for i in nonzero) * fld.inv_scalar(n) % fld.p
        shifted = ((end_mats[i] - lam * fld.eye(rep.dims[i])) % fld.p for i in nonzero)
        if not any(np.any(_stable_power(fld, m)) for m in shifted):
            return []
    factors = fld.coprime_factors(block_diagonal(rep, end_mats))
    if len(factors) <= 1:
        return []
    out = []
    for f in factors:
        bases = []
        for i in range(nv):
            d = rep.dims[i]
            m = fld.poly_eval_matrix(f, end_mats[i]) if d else fld.zeros(0, 0)
            bases.append(fld.kernel_basis(_stable_power(fld, m)))
        if sum(b.shape[1] for b in bases):
            out.append(bases)
    if sum(b[i].shape[1] for b in out for i in range(nv)) != rep.total_dim:
        raise StructureError("eigenspace split does not fill the representation")
    return out


def decompose(rep: Representation):
    """Krull-Schmidt decomposition into (indecomposable, multiplicity) pairs.

    Splitting elements of End(rep) are searched among its Hom basis; a
    factor none of them splits is certified indecomposable by End/rad
    being 1-dimensional (trace-form radical), and NonSplitResidueError is
    raised if End/rad is larger.
    """
    if rep.total_dim == 0:
        return []
    pieces = _decompose_rec(rep)
    out: list[tuple[Representation, int]] = []
    # the pieces are certified indecomposable, so is_isomorphic decides
    for piece in pieces:
        for idx, (known, mult) in enumerate(out):
            if is_isomorphic(known, piece):
                out[idx] = (known, mult + 1)
                break
        else:
            out.append((piece, 1))
    return out


def _decompose_rec(rep: Representation) -> list[Representation]:
    ends = hom_basis(rep, rep)
    rep._end_dim = len(ends)  # spares is_isomorphic and the atlas closure a rank
    if len(ends) == 1:
        return [rep]
    for b in ends:
        spaces = _split_spaces(rep, b)
        if len(spaces) >= 2:
            return [piece for bases in spaces for piece in _decompose_rec(sub_representation(rep, bases))]
    fld = rep.field
    rad_coords = fld.trace_form_radical([block_diagonal(rep, b) for b in ends])
    if len(ends) - rad_coords.shape[1] == 1:
        return [rep]
    raise NonSplitResidueError(
        f"no Hom basis element splits a factor with End/rad dimension {len(ends) - rad_coords.shape[1]}"
    )
