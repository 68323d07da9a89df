"""Modules over the bound double-quiver algebra: Hom spaces, decomposition,
radicals, projective covers, syzygies.

A representation assigns a space k^d_i to each vertex and a matrix to each
double-quiver arrow, subject to the vertex-wise defining relation.  A map
between representations is a tuple of vertex matrices commuting with every
arrow action; no map object is kept, only such tuples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import InputError, IntegrityError, NonSplitResidueError, StructureError
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
        mats = [np.asarray(m, dtype=np.int64) for m in mats]
        for a, m in zip(dq.arrows, mats):
            want = (self.dims[a.target - 1], self.dims[a.source - 1])
            if m.shape != want:
                raise InputError(f"matrix for {a.name} has shape {m.shape}, want {want}")
        # the matrices flattened row-major and concatenated in arrow order:
        # the entries the linear systems of modules scatter; the read-only
        # arrow matrices are views of it
        self.flat = np.concatenate([np.zeros(0, dtype=np.int64)] + [m.reshape(-1) for m in mats]) % field.p
        self.flat.flags.writeable = False
        cuts = list(accumulate((m.size for m in mats), initial=0))
        self.mats = tuple(self.flat[lo:hi].reshape(m.shape) for lo, hi, m in zip(cuts, cuts[1:], mats))
        self._end_basis = self._arrow_ranks = None
        if validate and not check_relations(self):
            raise InputError("matrices violate the defining relation")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def content(self) -> tuple:
        """The dimension vector and matrix bytes.  Equal content means equal
        matrices, not only isomorphic modules."""
        return (self.dims, self.flat.tobytes())

    @property
    def end_basis(self) -> list[tuple]:
        """hom_basis(self, self), computed once, as the matrices are
        read-only; callers share the list and do not modify it."""
        if self._end_basis is None:
            self._end_basis = hom_basis(self, self)
        return self._end_basis

    @property
    def end_dim(self) -> int:
        """dim End(self), the length of end_basis."""
        return len(self.end_basis)

    @property
    def arrow_ranks(self) -> tuple[int, ...]:
        """The rank of each arrow matrix, computed once."""
        if self._arrow_ranks is None:
            self._arrow_ranks = tuple(self.field.rank(m) for m in self.mats)
        return self._arrow_ranks

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def check_relations(rep: Representation) -> bool:
    """Whether the defining relation holds: at each vertex v, the sum of
    a* a over the base arrows a out of v minus that of a a* over the base
    arrows into v is zero.  One pass over the base arrows."""
    dq, fld = rep.dq, rep.field
    defect = [fld.zeros(d, d) for d in rep.dims]
    for k in range(dq.n_base):
        a, ks = dq.arrows[k], dq.partner[k]
        defect[a.source - 1] += fld.mul(rep.mats[ks], rep.mats[k])
        defect[a.target - 1] -= fld.mul(rep.mats[k], rep.mats[ks])
    return not any(np.any(d % fld.p) for d in defect)


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


class ScatterPlan:
    """Where the entries of two lists of matrices land in a linear system.

    Each cell of a system built from matrices X_1, X_2, ... and Y_1, Y_2,
    ... is zero, a signed entry of some X or Y, or, on a loop (s == t), the
    sum of one of each.  Each side, an int64 array of rows (destinations,
    sources, signs) from _scatter_plans, lists the flat cell each entry of
    that side's matrices lands in, its position in those matrices flattened
    row-major and concatenated in order, and its sign.  Within one side no
    destination repeats, so the X entries are placed and the Y entries
    added onto them.
    """

    def __init__(self, shape, x_side: np.ndarray, y_side: np.ndarray):
        self.shape = (int(shape[0]), int(shape[1]))
        self.x, self.y = x_side, y_side

    def apply(self, fld: PrimeField, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The system of the flattened matrices xs and ys, reduced mod p."""
        out = np.zeros(self.shape[0] * self.shape[1], dtype=np.int64)
        dst, src, sign = self.x
        out[dst] = xs[src] * sign
        dst, src, sign = self.y
        out[dst] += ys[src] * sign
        return (out % fld.p).reshape(self.shape)


def _scatter_plans(groups: list) -> list[ScatterPlan]:
    """The ScatterPlans of many systems from one vectorised pass over their
    terms.  groups holds (shapes, terms) pairs as term generators return
    them: shapes (K, 2), and terms (K, 2, T, 12), the X then the Y terms
    of each of the K systems.

    A term (I, J, K, dst0, di, dj, dk, src0, si, sj, sk, sign) places, for
    i < I, j < J and k < K, the entry at flat source position
    src0 + si i + sj j + sk k of its side, times sign, in the flat cell
    dst0 + di i + dj j + dk k of the row-major system."""
    t = np.concatenate([terms.reshape(-1, 12) for _, terms in groups]).T
    counts = t[0] * t[1] * t[2]
    term = np.repeat(np.arange(counts.size), counts)  # the term of each entry
    q = np.arange(term.size) - np.repeat(np.cumsum(counts) - counts, counts)
    c = t[:, term]
    ijk = np.stack([np.ones_like(q), q // (c[1] * c[2]), q // c[2] % c[1], q % c[2]])
    entries = np.stack([(c[3:7] * ijk).sum(axis=0), (c[7:11] * ijk).sum(axis=0), c[11]])
    entries.flags.writeable = False  # shared through the plan cache
    # the entries of each system's X side, then of its Y side, are consecutive
    sides = [(terms[..., 0] * terms[..., 1] * terms[..., 2]).sum(axis=2).ravel() for _, terms in groups]
    cuts = np.concatenate([[0], np.cumsum(np.concatenate(sides))]).tolist()
    shapes = np.concatenate([shapes for shapes, _ in groups])
    return [
        ScatterPlan(shape, entries[:, cuts[2 * k] : cuts[2 * k + 1]], entries[:, cuts[2 * k + 1] : cuts[2 * k + 2]])
        for k, shape in enumerate(shapes)
    ]


# (term generator, its argument, x dims, y dims) -> ScatterPlan
_PLANS: dict = {}


def scatter_plans(requests: list) -> list[ScatterPlan]:
    """The ScatterPlan of each request (terms, arg, x dims, y dims): that of
    the system whose shapes and terms terms(arg, X, Y) gives for the
    dimension vectors stacked as rows of X and Y.  Plans are kept: a run
    meets few keys (289 dimension pairs per system building the A4 atlas),
    and every missing one is built in a single _scatter_plans pass."""
    todo: dict[tuple, dict] = {}
    for r in requests:
        if r not in _PLANS:
            todo.setdefault(r[:2], {})[r] = None
    if todo:
        groups = [gen(arg, np.array([r[2] for r in rs]), np.array([r[3] for r in rs])) for (gen, arg), rs in todo.items()]
        _PLANS.update(zip((r for rs in todo.values() for r in rs), _scatter_plans(groups)))
    return [_PLANS[r] for r in requests]


scatter_plans.cache_clear = _PLANS.clear  # as on a functools cache


def _before(cells: np.ndarray) -> np.ndarray:
    """Where each block of a row of block sizes starts."""
    return np.cumsum(cells, axis=1) - cells


def _terms(x_side: tuple, y_side: tuple) -> np.ndarray:
    """The (K, 2, T, 12) terms array of _scatter_plans from the twelve
    fields of each side: scalars, and arrays that broadcast to the (K, T)
    shape of the first."""
    k, t = x_side[0].shape
    out = np.empty((k, 2, t, 12), dtype=np.int64)
    for side, fields in enumerate((x_side, y_side)):
        for f, value in enumerate(fields):
            out[:, side, :, f] = value
    return out


def _intertwiner_terms(pairs: tuple, xd: np.ndarray, yd: np.ndarray) -> tuple:
    """Shapes and scatter terms of intertwiner_system for the dimension
    vectors in the rows of xd and yd, vectorised over rows and actions.

    Row (i, j) of f_t X_a is Σ_k f_t[i, k] X_a[k, j], of Y_a f_s is
    Σ_k Y_a[i, k] f_s[k, j]; it is row x_s i + j of the block of a."""
    s, t = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    sizes = xd * yd
    width, offs = sizes.sum(axis=1)[:, None], _before(sizes)  # offs[:, v]: where f_v starts
    xs, xt, ys, yt = xd[:, s], xd[:, t], yd[:, s], yd[:, t]
    # the first cell of each block, and where X_a and Y_a start in xs and ys
    first, xo, yo = _before(yt * xs) * width, _before(xt * xs), _before(yt * ys)
    x_side = (yt, xs, xt, first + offs[:, t], xs * width + xt, width, 1, xo, 0, 1, xs, 1)
    y_side = (yt, xs, ys, first + offs[:, s], xs * width, width + 1, xs, yo, ys, 0, 1, -1)
    return np.stack([(yt * xs).sum(axis=1), width[:, 0]], axis=1), _terms(x_side, y_side)


def intertwiner_system(fld: PrimeField, x_dims, y_dims, pairs, xs, ys) -> np.ndarray:
    """Matrix of f -> (f_t X_a - Y_a f_s)_a, whose kernel is Hom(x, y).

    The unknowns are the row-major vectors of the vertex maps
    f_i: k^x_i -> k^y_i, stacked in vertex order.  pairs lists the 0-based
    vertices (s, t) of each action a; the row blocks follow its order, an
    empty block for each action with y_t * x_s = 0.  xs and ys hold the X_a
    and the Y_a flattened row-major and concatenated in that order, as
    Representation.flat holds a module's arrow matrices.  The entries are
    scattered by the cached plan of _intertwiner_terms; on a loop (s == t)
    the cells (i, j), (i, j) of f_t X_a and Y_a f_s coincide, and get the
    difference.
    """
    plan = scatter_plans([(_intertwiner_terms, tuple(pairs), tuple(x_dims), tuple(y_dims))])[0]
    return plan.apply(fld, xs, ys)


def arrow_pairs(dq: DoubleQuiver) -> tuple:
    """The 0-based vertices (s, t) of each arrow, in arrow order."""
    return tuple((a.source - 1, a.target - 1) for a in dq.arrows)


def kernel_maps(fld: PrimeField, x_dims, y_dims, system: np.ndarray) -> list[tuple]:
    """Kernel basis of an intertwiner_system, one tuple of vertex maps per vector."""
    ker = fld.kernel_basis(system)
    offs = list(accumulate((xd * yd for xd, yd in zip(x_dims, y_dims)), initial=0))  # where each f_i starts
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


def _flat(mats) -> np.ndarray:
    """Vertex maps stacked into one vector, in vertex order."""
    return np.concatenate([m.reshape(-1) for m in mats])


def local_basis(m: Representation) -> list[tuple]:
    """A basis of End(m), tuples of vertex maps, with the identity first and
    every other element nilpotent: a maximal set of hom_basis(m, m)
    elements independent of the identity, each shifted by the scalar
    tr(b_v)/dim_v at its first nonzero vertex v.  For an indecomposable m,
    End(m) is local, so the shift must leave it nilpotent (IntegrityError
    if not) and the elements after the identity span rad End(m)."""
    fld = m.field
    found = m.end_basis
    ident = tuple(fld.eye(d) for d in m.dims)
    # column c of [identity | found...] is a pivot iff it is outside the
    # span of the columns before it
    _, pivots = fld.rref(np.stack([_flat(b) for b in [ident, *found]], axis=1))
    chosen = [found[c - 1] for c in pivots if c]
    v0 = next(i for i, d in enumerate(m.dims) if d > 0)
    out = [ident]
    for b in chosen:
        lam = int(np.trace(b[v0]) % fld.p) * fld.inv_scalar(m.dims[v0]) % fld.p
        nb = tuple((b[i] - lam * ident[i]) % fld.p for i in range(len(b)))
        if any(np.any(_stable_power(fld, x)) for x in nb):
            raise IntegrityError("diagonal basis element is not scalar plus nilpotent")
        out.append(nb)
    return out


def hom_dim(x: Representation, y: Representation) -> int:
    """dim Hom(x, y) from the rank of the intertwining system alone."""
    a = _hom_system(x, y)
    return a.shape[1] - x.field.rank(a)


# -- subquotients -------------------------------------------------------


def _unit_rows(basis: np.ndarray) -> np.ndarray:
    """For each column of basis, the first row that is the unit vector of
    that column; InputError if some column has none."""
    if not basis.shape[1]:
        return np.zeros(0, dtype=np.intp)
    units = (basis == 1) & (np.count_nonzero(basis, axis=1) == 1)[:, None]
    if not units.any(axis=0).all():
        raise InputError("a basis has no unit row for some column")
    return units.argmax(axis=0)


def sub_representation(rep: Representation, vertex_bases) -> Representation:
    """Restrict to the invariant subspace spanned by the columns of the
    vertex bases.  Each basis must be in echelon form, as kernel_basis
    columns and transposed rref rows are: for each of its columns some row
    is the unit vector of that column.  The coordinates of a vector of the
    span are its entries on those rows, and one product per arrow checks
    that the image of the span lies in it.  InputError if a basis has no
    such rows or the subspace is not invariant."""
    fld = rep.field
    units = [_unit_rows(b) for b in vertex_bases]
    mats = []
    for k, (s, t) in enumerate(arrow_pairs(rep.dq)):
        img = fld.mul(rep.mats[k], vertex_bases[s])
        coords = img[units[t]]
        if (fld.mul(vertex_bases[t], coords) != img).any():
            raise InputError("subspaces are not invariant under the arrow action")
        mats.append(coords)
    return Representation(rep.dq, fld, tuple(b.shape[1] for b in vertex_bases), mats, validate=False)


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


@lru_cache(maxsize=None)
def projective_module(basis: PreprojectiveBasis, i: int) -> Representation:
    """Left module on the path classes starting at vertex i.

    The component at vertex j is spanned by the basis classes i -> j,
    ordered by (degree, path); the class of the empty path is position 0
    of the vertex-i component, and generates.  Built once per basis object
    and vertex: a Representation is read-only, so callers share it.
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


def projective_cover(rep: Representation, basis: PreprojectiveBasis) -> tuple[Representation, tuple]:
    """Minimal projective cover P -> rep via lifts of a basis of the top:
    the module P and the vertex maps of the cover.  The generator of the
    summand P_v of a lift at v goes to the lift, and each basis path w
    from v to the path's action on it, built arrow by arrow from the
    action of w's prefix, which the lift's other paths share."""
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
    for v, vec in lifts:
        images = {(): vec}  # path -> its action on vec

        def image(w: tuple) -> np.ndarray:
            if w not in images:
                images[w] = fld.mul(rep.mats[w[-1]], image(w[:-1]))
            return images[w]

        comps = basis.classes_from(v)
        for j in dq.vertices:
            ws = [basis.basis_paths[deg][(v, j)][pos] for deg, pos in comps[j]]
            cols[j].append(np.concatenate([image(w) for w in ws], axis=1) if ws else fld.zeros(rep.dims[j - 1], 0))
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
    """m^(2^k) for the least 2^k >= size of m, also of a stack of square
    matrices: its kernel is the generalized kernel of m, and it is zero
    exactly when m is nilpotent."""
    for _ in range(max(m.shape[-1] - 1, 0).bit_length()):
        m = fld.mul(m, m)
    return m


def block_diagonal(rep: Representation, vertex_mats) -> np.ndarray:
    """An endomorphism of rep as one total_dim square matrix, its vertex
    maps on the diagonal blocks in vertex order; for stacks of vertex maps
    (B, d_i, d_i), the stack of B such matrices."""
    off = list(accumulate(rep.dims, initial=0))
    big = np.zeros(np.shape(vertex_mats[0])[:-2] + (rep.total_dim, rep.total_dim), dtype=np.int64)
    for i in range(rep.dq.nv):
        big[..., off[i] : off[i + 1], off[i] : off[i + 1]] = vertex_mats[i]
    return big


def _one_eigenvalue(fld: PrimeField, blocks: np.ndarray) -> np.ndarray:
    """Which matrices of a stack (B, n, n) have a single eigenvalue, all
    screened at once.  When p does not divide n, a matrix E with a single
    eigenvalue has it at lam = tr(E)/n, and it has one exactly when
    E - lam I is nilpotent: its minimal polynomial is then (t - lam)^k, one
    coprime factor.  When p divides n, no matrix is screened out."""
    n = blocks.shape[-1]
    if not n % fld.p:
        return np.zeros(len(blocks), dtype=bool)
    lam = blocks.trace(axis1=1, axis2=2) % fld.p * fld.inv_scalar(n) % fld.p
    shifted = (blocks - lam[:, None, None] * np.eye(n, dtype=np.int64)) % fld.p
    return ~_stable_power(fld, shifted).any(axis=(1, 2))


def _split_spaces(rep: Representation, end_mats) -> list[list[np.ndarray]]:
    """Vertex-wise generalized eigenspace bases of an endomorphism, one
    entry per coprime factor of its minimal polynomial (only factors with
    nonzero total dimension are returned); [] when there is one factor.
    Each generalized kernel is that of the block-diagonal matrix: every
    kernel_basis column of it lies in one vertex block, and the columns of
    a block are the kernel_basis of that vertex map's generalized kernel."""
    fld = rep.field
    big = block_diagonal(rep, end_mats)
    factors = fld.coprime_factors(big)
    if len(factors) <= 1:
        return []
    off = list(accumulate(rep.dims, initial=0))
    out = []
    for f in factors:
        ker = fld.kernel_basis(_stable_power(fld, fld.poly_eval_matrix(f, big)))
        # the vertex of each column is that of its first nonzero row
        vertex = np.searchsorted(off, (ker != 0).argmax(axis=0), side="right") - 1
        if ker.shape[1]:
            out.append([ker[lo:hi, vertex == i] for i, (lo, hi) in enumerate(zip(off, off[1:]))])
    if sum(b.shape[1] for bases in out for b in bases) != rep.total_dim:
        raise StructureError("eigenspace split does not fill the representation")
    return out


def decompose(rep: Representation, memo: dict | None = None):
    """Krull-Schmidt decomposition into (indecomposable, multiplicity) pairs.

    Splitting elements of End(rep) are searched among its Hom basis, in
    order, skipping those with a single eigenvalue; a factor none of them
    splits is certified indecomposable by End/rad being 1-dimensional
    (trace-form radical), and NonSplitResidueError is raised if End/rad is
    larger.  memo maps the content of each module split so far to its
    indecomposable pieces: a module of a content in it is not split again,
    and the pieces of every content split here are added.  The split is a
    function of the content, so a memo shared across calls changes no
    result; without one, each call splits afresh.
    """
    if rep.total_dim == 0:
        return []
    pieces = _decompose_rec(rep, {} if memo is None else memo)
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


def _decompose_rec(rep: Representation, memo: dict) -> list[Representation]:
    key = rep.content
    if key in memo:
        return memo[key]
    ends = rep.end_basis
    pieces = [rep]
    if len(ends) > 1:
        blocks = block_diagonal(rep, [np.stack([b[i] for b in ends]) for i in range(rep.dq.nv)])
        for b, single in zip(ends, _one_eigenvalue(rep.field, blocks)):
            spaces = [] if single else _split_spaces(rep, b)
            if len(spaces) >= 2:
                pieces = [piece for bases in spaces for piece in _decompose_rec(sub_representation(rep, bases), memo)]
                break
        else:
            rad_coords = rep.field.trace_form_radical(list(blocks))
            if len(ends) - rad_coords.shape[1] != 1:
                raise NonSplitResidueError(
                    f"no Hom basis element splits a factor with End/rad dimension {len(ends) - rad_coords.shape[1]}"
                )
    memo[key] = pieces
    return pieces
