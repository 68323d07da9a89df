"""Test oracles: constructions the checker does not run, kept to check the
ones it does.

Each is a slower or more literal way to get an answer the package gets
another way: module maps and short exact sequences with their checks,
against the middle terms and covers the package builds as modules alone;
splitting, pullback and pushout of sequences (Auslander-Reiten-Smalø,
Ch. I), and exactness under Hom(-, N) by the rank identity, against the
connecting and pullback matrices; Hom
over End(T) from the intertwining system, and the cover and syzygy modules,
against the presentations of ExtCalculatorB; those presentations one
component and one radical element at a time, and the Hom and Ext tables
over End(T) from one rank per pair, against the block products, the
projectives read off and the stacked ranks; the approximation T'' -> T
as a module map against coresolution_check's vertex-wise ranks; the Hom
systems and cocycle conditions built by broadcasting, block by block,
against the index plans of modules.intertwiner_system and
extensions._cocycle_condition; the minimal polynomial from Krylov chains
against the one elimination of PrimeField.minimal_polynomial; maximal
cliques asked of an Ext table pair by pair, and edge complements by set
difference, against rigidgraph.compatibility and MutationGraph.complements.
Nothing in src/preproj imports this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from preproj.endo import BModule, Presentation, presentation
from preproj.errors import FormatError, InputError, StructureError
from preproj.extensions import build_extension, connecting_matrix
from preproj.modules import (
    Representation,
    decompose,
    direct_sum,
    hom_basis,
    hom_dim,
    intertwiner_system,
    is_isomorphic,
)
from preproj.quivers import symmetric_form
from preproj.rigidgraph import GRAPH_FORMAT_VERSION, MutationGraph, RigidModule

# -- linear algebra and module maps ------------------------------------------


def inv(fld, m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix over fld; InputError if it is singular."""
    if m.shape[0] != m.shape[1]:
        raise InputError("inverse of a non-square matrix")
    x = fld.solve(m, fld.eye(m.shape[0]))
    if x is None:
        raise InputError("matrix is singular")
    return x


def krylov_minimal_polynomial(fld, e: np.ndarray) -> list[int]:
    """Monic minimal polynomial as the lcm of the minimal polynomials of the
    unit vectors: each e_j is first annihilated by the product so far, and
    its Krylov chain is eliminated afresh at every step."""
    n = e.shape[0]
    mu = [1]
    for j in range(n):
        v = fld.zeros(n, 1)
        v[j, 0] = 1
        # the local factor is minpoly(v)/gcd(minpoly(v), mu), so the
        # product stays the lcm
        v = fld.mul(fld.poly_eval_matrix(mu, e), v)
        if not np.any(v):
            continue
        chain = [v]
        while True:
            cur = fld.mul(e, chain[-1])
            coeffs = fld.solve(np.concatenate(chain, axis=1), cur)
            if coeffs is not None:
                break
            chain.append(cur)
        mu = fld.poly_mul(mu, [-int(c) % fld.p for c in coeffs[:, 0]] + [1])
    return mu


@dataclass(frozen=True)
class ModuleMap:
    """A module map as an object: its source, target and vertex maps."""

    source: Representation
    target: Representation
    mats: tuple

    def __post_init__(self):
        for i in range(self.source.dq.nv):
            want = (self.target.dims[i], self.source.dims[i])
            if self.mats[i].shape != want:
                raise InputError(f"map component {i} has shape {self.mats[i].shape}, want {want}")

    def is_intertwiner(self) -> bool:
        fld = self.source.field
        for k, a in enumerate(self.source.dq.arrows):
            s, t = a.source - 1, a.target - 1
            lhs = fld.mul(self.mats[t], self.source.mats[k])
            rhs = fld.mul(self.target.mats[k], self.mats[s])
            if np.any((lhs - rhs) % fld.p):
                return False
        return True

    def is_injective(self) -> bool:
        fld = self.source.field
        return all(fld.rank(self.mats[i]) == self.source.dims[i] for i in range(self.source.dq.nv))

    def is_surjective(self) -> bool:
        fld = self.source.field
        return all(fld.rank(self.mats[i]) == self.target.dims[i] for i in range(self.source.dq.nv))


def identity_map(rep: Representation) -> ModuleMap:
    return ModuleMap(rep, rep, tuple(rep.field.eye(d) for d in rep.dims))


def compose_maps(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g after f."""
    fld = f.source.field
    return ModuleMap(
        f.source, g.target, tuple(fld.mul(g.mats[i], f.mats[i]) for i in range(f.source.dq.nv))
    )


def isomorphic_by_decomposition(x: Representation, y: Representation) -> bool:
    """Isomorphism of any two modules, decomposable or not: by Krull-Schmidt,
    x and y are isomorphic iff their decompositions match summand for
    summand with equal multiplicities.  The summands are indecomposable, so
    is_isomorphic's basis scan decides each comparison exactly."""
    unmatched = decompose(y)
    for piece, mult in decompose(x):
        hit = next((k for k, (other, m) in enumerate(unmatched) if m == mult and is_isomorphic(piece, other)), None)
        if hit is None:
            return False
        del unmatched[hit]
    return not unmatched


# -- the linear systems, built by broadcasting ------------------------------------


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def broadcast_intertwiner_system(fld, x_dims, y_dims, actions) -> np.ndarray:
    """modules.intertwiner_system built block by block: each action's
    blocks of f_t X_a and Y_a f_s as broadcast products with identities.
    The X_a and Y_a may carry leading batch axes, which broadcast."""
    offs = [0]
    for xd, yd in zip(x_dims, y_dims):
        offs.append(offs[-1] + yd * xd)
    batch = np.broadcast_shapes(*(m.shape[:-2] for _, _, xa, ya in actions for m in (xa, ya)))
    nrows = sum(y_dims[t] * x_dims[s] for s, t, _, _ in actions)
    a = np.zeros(batch + (nrows, offs[-1]), dtype=np.int64)
    r0 = 0
    for s, t, xa, ya in actions:
        yt, xs = y_dims[t], x_dims[s]
        r1 = r0 + yt * xs
        if r1 == r0:
            continue
        # the blocks as (i, j, row of f, column of f)
        ft = _eye(yt)[:, None, :, None] * xa.swapaxes(-1, -2)[..., None, :, None, :]
        fs = ya[..., :, None, :, None] * _eye(xs)[:, None, :]
        a[..., r0:r1, offs[t] : offs[t + 1]] = ft.reshape(ft.shape[:-4] + (r1 - r0, offs[t + 1] - offs[t]))
        a[..., r0:r1, offs[s] : offs[s + 1]] -= fs.reshape(fs.shape[:-4] + (r1 - r0, offs[s + 1] - offs[s]))
        r0 = r1
    return a % fld.p


def broadcast_cocycle_condition(fld, dq, x_dims, y_dims, x_mats, y_mats) -> np.ndarray:
    """The matrix of extensions._cocycle_condition built vertex by vertex:
    the terms Y_first C_second + C_first X_second of the defining relation
    as broadcast products with identities."""
    sizes = [y_dims[a.target - 1] * x_dims[a.source - 1] for a in dq.arrows]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    batch = np.broadcast_shapes(*(m.shape[:-2] for m in (*x_mats, *y_mats)))
    nrows = sum(x_dims[v - 1] * y_dims[v - 1] for v in dq.vertices)
    cond = np.zeros(batch + (nrows, int(offs[-1])), dtype=np.int64)
    r0 = 0
    for v in dq.vertices:
        xv, yv = x_dims[v - 1], y_dims[v - 1]
        r1 = r0 + yv * xv
        if r1 == r0:
            continue
        block = cond[..., r0:r1, :]
        for k in range(dq.n_base):
            a = dq.arrows[k]
            ks = dq.partner[k]
            terms = []
            if a.source == v:
                terms.append((ks, k, 1))
            if a.target == v:
                terms.append((k, ks, -1))
            for first, second, sgn in terms:
                yc = y_mats[first][..., :, None, :, None] * _eye(xv)[:, None, :]
                cx = _eye(yv)[:, None, :, None] * x_mats[second].swapaxes(-1, -2)[..., None, :, None, :]
                c0, c1 = offs[second], offs[second + 1]
                block[..., c0:c1] += sgn * yc.reshape(yc.shape[:-4] + (r1 - r0, c1 - c0))
                c0, c1 = offs[first], offs[first + 1]
                block[..., c0:c1] += sgn * cx.reshape(cx.shape[:-4] + (r1 - r0, c1 - c0))
        r0 = r1
    return cond % fld.p


def flat_matrices(mats) -> np.ndarray:
    """Matrices with one batch shape, each flattened row-major and
    concatenated along the last axis, as Representation.flat holds them."""
    if not mats:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([m.reshape(m.shape[:-2] + (-1,)) for m in mats], axis=-1)


def planned_system(fld, x_dims, y_dims, actions) -> np.ndarray:
    """modules.intertwiner_system of the actions (s, t, X_a, Y_a), as
    broadcast_intertwiner_system takes them (2-D X_a and Y_a)."""
    pairs = [(s, t) for s, t, _, _ in actions]
    xs = flat_matrices([xa for _, _, xa, _ in actions])
    ys = flat_matrices([ya for _, _, _, ya in actions])
    return intertwiner_system(fld, x_dims, y_dims, pairs, xs, ys)


# -- extensions -----------------------------------------------------------------


def ext1_dim_formula(x: Representation, y: Representation) -> int:
    """dim Hom(x, y) + dim Hom(y, x) - (dim x, dim y)."""
    if x.dq != y.dq:
        raise InputError("representations live on different double quivers")
    return hom_dim(x, y) + hom_dim(y, x) - symmetric_form(x.dq, x.dims, y.dims)


@dataclass
class ShortExactSequence:
    sub: Representation
    mid: Representation
    quot: Representation
    inj: ModuleMap
    surj: ModuleMap

    def validate(self):
        fld = self.sub.field
        if not (self.inj.is_intertwiner() and self.surj.is_intertwiner()):
            raise InputError("sequence maps are not module maps")
        if not self.inj.is_injective() or not self.surj.is_surjective():
            raise InputError("sequence is not exact at the ends")
        for i in range(self.sub.dq.nv):
            if self.mid.dims[i] != self.sub.dims[i] + self.quot.dims[i]:
                raise InputError("middle term has the wrong dimension vector")
            comp = fld.mul(self.surj.mats[i], self.inj.mats[i])
            if np.any(comp):
                raise InputError("composite sub -> quot is nonzero")
        return self


def extension_sequence(space, coeffs) -> ShortExactSequence:
    """The sequence 0 -> y -> E -> x -> 0 of a class, validated: E from
    extensions.build_extension, the inclusion of y as the first block of
    coordinates and the projection onto x as the last."""
    x, y = space.x, space.y
    fld = x.field
    mid = build_extension(space, coeffs)
    inj_mats, surj_mats = [], []
    for i in range(x.dq.nv):
        inj = fld.zeros(mid.dims[i], y.dims[i])
        inj[: y.dims[i], :] = fld.eye(y.dims[i])
        inj_mats.append(inj)
        surj = fld.zeros(x.dims[i], mid.dims[i])
        surj[:, y.dims[i] :] = fld.eye(x.dims[i])
        surj_mats.append(surj)
    return ShortExactSequence(
        sub=y,
        mid=mid,
        quot=x,
        inj=ModuleMap(y, mid, tuple(inj_mats)),
        surj=ModuleMap(mid, x, tuple(surj_mats)),
    ).validate()


def hom_exact_by_dims(s: ShortExactSequence, n: Representation) -> bool:
    """Whether Hom(-, n) keeps s exact, by the rank identity
    dim Hom(mid, n) = dim Hom(sub, n) + dim Hom(quot, n): Hom(-, n) is left
    exact, so the identity holds exactly when the last map is onto."""
    return hom_dim(s.mid, n) == hom_dim(s.sub, n) + hom_dim(s.quot, n)


def _vec_map(m: ModuleMap) -> np.ndarray:
    parts = [m.mats[i].reshape(-1) for i in range(m.source.dq.nv)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _in_span(fld, cols, target_vec) -> bool:
    if not cols:
        return not np.any(target_vec)
    return fld.solve(np.stack(cols, axis=1), target_vec.reshape(-1, 1)) is not None


def factors_through(h: ModuleMap, via: ModuleMap) -> bool:
    """Whether h: A -> C factors as (via: B -> C) . g for some g: A -> B."""
    cols = [
        _vec_map(compose_maps(via, ModuleMap(h.source, via.source, b)))
        for b in hom_basis(h.source, via.source)
    ]
    return _in_span(h.source.field, cols, _vec_map(h))


def factors_along(h: ModuleMap, through: ModuleMap) -> bool:
    """Whether h: A -> C factors as g . (through: A -> B) for some g: B -> C."""
    cols = [
        _vec_map(compose_maps(ModuleMap(through.target, h.target, b), through))
        for b in hom_basis(through.target, h.target)
    ]
    return _in_span(h.source.field, cols, _vec_map(h))


def is_split(s: ShortExactSequence) -> bool:
    """True iff the surjection admits a section (identity lies in the image
    of post-composition Hom(quot, mid) -> Hom(quot, quot))."""
    return factors_through(identity_map(s.quot), s.surj)


def pullback(s: ShortExactSequence, h: ModuleMap) -> ShortExactSequence:
    """Base change of s: 0 -> sub -> F -> Z -> 0 along h: Y -> Z."""
    if h.target is not s.quot and h.target.dims != s.quot.dims:
        raise InputError("map must land in the quotient term")
    fld = s.sub.field
    dq = s.sub.dq
    f_rep, y_rep = s.mid, h.source
    kers = []
    for i in range(dq.nv):
        stacked = np.concatenate([s.surj.mats[i], (-h.mats[i]) % fld.p], axis=1)
        kers.append(fld.kernel_basis(stacked))
    dims = tuple(k.shape[1] for k in kers)
    mats = []
    for k, a in enumerate(dq.arrows):
        si, ti = a.source - 1, a.target - 1
        block = fld.zeros(f_rep.dims[ti] + y_rep.dims[ti], f_rep.dims[si] + y_rep.dims[si])
        block[: f_rep.dims[ti], : f_rep.dims[si]] = f_rep.mats[k]
        block[f_rep.dims[ti] :, f_rep.dims[si] :] = y_rep.mats[k]
        coords = fld.solve(kers[ti], fld.mul(block, kers[si]))
        if coords is None:
            raise InputError("pullback kernel is not arrow-invariant")
        mats.append(coords)
    e_rep = Representation(dq, fld, dims, mats)
    inj_mats = []
    surj_mats = []
    for i in range(dq.nv):
        lifted = np.concatenate([s.inj.mats[i], fld.zeros(y_rep.dims[i], s.sub.dims[i])], axis=0)
        coords = fld.solve(kers[i], lifted)
        if coords is None:
            raise InputError("sub does not embed in the pullback")
        inj_mats.append(coords)
        surj_mats.append(kers[i][f_rep.dims[i] :, :])
    return ShortExactSequence(
        sub=s.sub,
        mid=e_rep,
        quot=y_rep,
        inj=ModuleMap(s.sub, e_rep, tuple(inj_mats)),
        surj=ModuleMap(e_rep, y_rep, tuple(surj_mats)),
    ).validate()


def pushout(s: ShortExactSequence, g: ModuleMap) -> ShortExactSequence:
    """Cobase change of s: 0 -> X -> F -> quot -> 0 along g: X -> N."""
    if g.source is not s.sub and g.source.dims != s.sub.dims:
        raise InputError("map must start at the sub term")
    fld = s.sub.field
    dq = s.sub.dq
    n_rep, f_rep = g.target, s.mid
    qs = []
    for i in range(dq.nv):
        w = np.concatenate([g.mats[i], (-s.inj.mats[i]) % fld.p], axis=0)
        qs.append(fld.quotient_map(w, n_rep.dims[i] + f_rep.dims[i])[0])
    sections = []
    for q in qs:
        sec = fld.solve(q, fld.eye(q.shape[0]))
        if sec is None:
            raise InputError("pushout quotient has no section")
        sections.append(sec)
    dims = tuple(q.shape[0] for q in qs)
    mats = []
    for k, a in enumerate(dq.arrows):
        si, ti = a.source - 1, a.target - 1
        block = fld.zeros(n_rep.dims[ti] + f_rep.dims[ti], n_rep.dims[si] + f_rep.dims[si])
        block[: n_rep.dims[ti], : n_rep.dims[si]] = n_rep.mats[k]
        block[n_rep.dims[ti] :, n_rep.dims[si] :] = f_rep.mats[k]
        mats.append(fld.mul(fld.mul(qs[ti], block), sections[si]))
    m_rep = Representation(dq, fld, dims, mats)
    inj_mats = []
    surj_mats = []
    for i in range(dq.nv):
        inj_mats.append(qs[i][:, : n_rep.dims[i]])
        lift = np.concatenate([fld.zeros(s.quot.dims[i], n_rep.dims[i]), s.surj.mats[i]], axis=1)
        surj_mats.append(fld.mul(lift, sections[i]))
    return ShortExactSequence(
        sub=n_rep,
        mid=m_rep,
        quot=s.quot,
        inj=ModuleMap(n_rep, m_rep, tuple(inj_mats)),
        surj=ModuleMap(m_rep, s.quot, tuple(surj_mats)),
    ).validate()


def exact_classes(space, t_summands) -> np.ndarray:
    """Basis (columns of coefficient vectors) of the classes whose sequences
    stay exact under Hom(-, n) for every n in t_summands."""
    fld = space.x.field
    blocks = [fld.zeros(0, space.dim)]
    blocks += [connecting_matrix(space, n) for n in t_summands]
    return fld.kernel_basis(np.concatenate(blocks, axis=0))


# -- End(T) and its modules ------------------------------------------------------


def compose_view(atlas, i: int, j: int, k: int) -> np.ndarray:
    """Structure constants of composition Hom(j, k) x Hom(i, j) -> Hom(i, k)
    over the hom_basis bases, read from Γ: an array c of shape
    (dim Hom(j, k), dim Hom(i, k), dim Hom(i, j)) in which c[e1][:, e2]
    holds the coordinates of hom_basis(j, k)[e1] o hom_basis(i, j)[e2].  A
    view of atlas.gamma().consts, whose slice at (i, b) is the action of
    b: j -> k on Hom(modules[i], -)."""
    gam, h = atlas.gamma(), atlas.hom_table
    first = gam.starts[j, k]
    return gam.consts[i, first : first + h[j, k], : h[i, k], : h[i, j]]


def reference_compose(atlas, i: int, j: int, k: int) -> np.ndarray:
    """The composition constants of Hom(j, k) x Hom(i, j) -> Hom(i, k) in the
    layout of compose_view, from one solve per triple: every product
    g o f over the hom_basis bases expressed in hom_basis(i, k)."""
    fld = atlas.field
    firsts, seconds, targets = atlas.hom_basis(j, k), atlas.hom_basis(i, j), atlas.hom_basis(i, k)
    out = np.zeros((len(firsts), len(targets), len(seconds)), dtype=np.int64)
    if firsts and seconds:
        nv = atlas.dq.nv
        prods = np.stack(
            [_flat([fld.mul(g[v], f[v]) for v in range(nv)]) for g in firsts for f in seconds], axis=1
        )
        if targets:
            sol = fld.solve(np.stack([_flat(h) for h in targets], axis=1), prods)
        else:
            sol = None if np.any(prods) else fld.zeros(0, prods.shape[1])
        assert sol is not None, f"a composite {i} -> {j} -> {k} leaves its Hom space"
        out[:] = sol.reshape(len(targets), len(firsts), len(seconds)).transpose(1, 0, 2)
    return out


def product_coords(algebra, i1: int, i2: int) -> tuple[tuple[int, int], np.ndarray]:
    """Coefficients of element i1 o element i2 over its block basis, read
    from the atlas's composition constants."""
    src, tgt = algebra.src, algebra.tgt
    block = (int(src[i2]), int(tgt[i1]))
    if src[i1] != tgt[i2]:
        return block, np.zeros(len(algebra.block_elems[block]), dtype=np.int64)
    ids = algebra.summand_ids
    consts = compose_view(algebra.atlas, ids[src[i2]], ids[src[i1]], ids[tgt[i1]])
    pos1 = algebra.block_elems[(src[i1], tgt[i1])].index(i1)
    pos2 = algebra.block_elems[(src[i2], tgt[i2])].index(i2)
    return block, consts[pos1, :, pos2]


def action_block(m: BModule, idx: int) -> np.ndarray:
    """The action of basis element idx from component src to component tgt,
    the unpadded corner of m.action[idx]."""
    alg = m.algebra
    return m.action[idx, : m.comp_dims[alg.tgt[idx]], : m.comp_dims[alg.src[idx]]]


def identity_of(algebra, k: int) -> int:
    """The basis element of B = End(T) that is the identity of T_k: it
    leads the diagonal block (k, k)."""
    return algebra.block_elems[(k, k)][0]


def module_from_blocks(algebra, comp_dims, blocks: dict) -> BModule:
    """The B-module with these components and action blocks, keyed by basis
    element; an identity left out acts as the identity, any other element
    as zero.  Each block is reduced mod p and its shape checked."""
    comp_dims = tuple(int(d) for d in comp_dims)
    width = max(comp_dims)
    action = np.zeros((algebra.dim, width, width), dtype=np.int64)
    for k in range(algebra.r):
        idx = identity_of(algebra, k)
        action[idx, : comp_dims[k], : comp_dims[k]] = np.eye(comp_dims[k], dtype=np.int64)
    for idx, blk in blocks.items():
        want = (comp_dims[algebra.tgt[idx]], comp_dims[algebra.src[idx]])
        if np.shape(blk) != want:
            raise InputError(f"action block for element {idx} has shape {np.shape(blk)}, want {want}")
        action[idx, : want[0], : want[1]] = np.asarray(blk, dtype=np.int64) % algebra.field.p
    return BModule(algebra, comp_dims, action)


def oracle_projective(algebra, k: int) -> BModule:
    """The left ideal B e_k from the multiplication of B alone: component j
    has the basis of block (k, j), and b: T_s -> T_t sends a basis element
    c of block (k, s) to the coordinates of b o c over block (k, t)."""
    blocks_of = algebra.block_elems
    comp_dims = tuple(len(blocks_of[(k, j)]) for j in range(algebra.r))
    blocks = {}
    for b in range(algebra.dim):
        cols, rows = blocks_of[(k, algebra.src[b])], blocks_of[(k, algebra.tgt[b])]
        block = algebra.field.zeros(len(rows), len(cols))
        for c, i2 in enumerate(cols):
            block[:, c] = product_coords(algebra, b, i2)[1]
        blocks[b] = block
    return module_from_blocks(algebra, comp_dims, blocks)


def simple_b(algebra, k: int) -> BModule:
    """The simple B-module at summand position k."""
    return module_from_blocks(algebra, tuple(int(j == k) for j in range(algebra.r)), {})


def dense_action(m: BModule, idx: int) -> np.ndarray:
    """Action of basis element idx on the full underlying space of m."""
    fld, alg = m.algebra.field, m.algebra
    offs = np.concatenate([[0], np.cumsum(m.comp_dims)])
    out = fld.zeros(m.dim, m.dim)
    s, t = alg.src[idx], alg.tgt[idx]
    out[offs[t] : offs[t + 1], offs[s] : offs[s + 1]] = action_block(m, idx)
    return out


def pd_le1(m: BModule) -> bool:
    """The checker's verdict on pd m <= 1: whether m has a presentation."""
    return presentation(m) is not None


def _system(m, n):
    """Intertwining system of B-module maps m -> n: the radical basis
    elements act as the arrows; those acting as zero on both are left out.
    The test oracle for Hom over End(T), independent of presentations."""
    alg = m.algebra
    actions = []
    for idx in alg.radical_elements:
        mb = action_block(m, idx)
        nb = action_block(n, idx)
        if np.any(mb) or np.any(nb):
            actions.append((alg.src[idx], alg.tgt[idx], mb, nb))
    return planned_system(alg.field, m.comp_dims, n.comp_dims, actions)


def oracle_hom_dim(m, n):
    a = _system(m, n)
    return a.shape[1] - m.algebra.field.rank(a)


def _flat(mats):
    return np.concatenate([m.reshape(-1) for m in mats])


def oracle_hom_image(algebra, m):
    """Image of any representation m under Hom(-, T), from a fresh
    modules.hom_basis of each component Hom(m, T_j) and one solve per
    (basis element, component): the construction that the atlas's Hom
    bases and Γ's constants replace.  The image carries hom_bases, the
    component bases, for oracle_hom_image_map."""
    fld = algebra.field
    nv = len(m.dims)
    ids = algebra.summand_ids
    bases = [hom_basis(m, algebra.atlas.modules[t]) for t in ids]
    comp_dims = tuple(len(b) for b in bases)
    blocks = {}
    for b in range(algebra.dim):
        k, l = algebra.src[b], algebra.tgt[b]
        if comp_dims[k] == 0 or comp_dims[l] == 0:
            continue
        pos = algebra.block_elems[(k, l)].index(b)
        mats = algebra.atlas.hom_basis(ids[k], ids[l])[pos]
        rhs = np.stack([_flat([fld.mul(mats[v], f[v]) for v in range(nv)]) for f in bases[k]], axis=1)
        sol = fld.solve(np.stack([_flat(g) for g in bases[l]], axis=1), rhs)
        assert sol is not None, "post-composition left its Hom component"
        blocks[b] = sol
    out = module_from_blocks(algebra, comp_dims, blocks)
    out.hom_bases = bases
    return out


def oracle_hom_image_map(f, image_of_target, image_of_source):
    """Contravariant image of a module map f: M -> N, as per-component
    matrices Hom(N, T_j) -> Hom(M, T_j), g -> g after f, over the bases
    the two oracle_hom_image images carry."""
    fld = f.source.field
    nv = len(f.source.dims)
    out = []
    for dom, cod in zip(image_of_target.hom_bases, image_of_source.hom_bases):
        block = fld.zeros(len(cod), len(dom))
        if dom and cod:
            cols = [_flat([fld.mul(g[v], f.mats[v]) for v in range(nv)]) for g in dom]
            block = fld.solve(np.stack([_flat(b) for b in cod], axis=1), np.stack(cols, axis=1))
            assert block is not None, "induced map left its Hom component"
        out.append(block)
    return out


# The oracle for presentations over End(T): the cover module as a direct
# sum of projectives and the syzygy module ΩM built from it, with one solve
# per action block, where ExtCalculatorB stays in the cover's coordinates.


def direct_sum_b(mods: list[BModule]) -> BModule:
    if not mods:
        raise InputError("empty direct sum needs an algebra")
    alg = mods[0].algebra
    fld = alg.field
    r = alg.r
    comp_dims = tuple(sum(m.comp_dims[k] for m in mods) for k in range(r))
    blocks = {}
    for idx in range(alg.dim):
        blk = fld.zeros(comp_dims[alg.tgt[idx]], comp_dims[alg.src[idx]])
        ro = co = 0
        for m in mods:
            piece = action_block(m, idx)
            blk[ro : ro + piece.shape[0], co : co + piece.shape[1]] = piece
            ro += piece.shape[0]
            co += piece.shape[1]
        blocks[idx] = blk
    return module_from_blocks(alg, comp_dims, blocks)


def projective_cover_b(m: BModule):
    """Returns (cover module P, per-component cover matrices P -> m, copies).

    copies lists the summand positions k of the projectives B e_k, one per
    lifted generator.
    """
    alg = m.algebra
    fld = alg.field
    lifts = reference_top_basis(m)
    copies = [k for k, _ in lifts]
    projs = [alg.projective(k) for k in copies]
    cover_mod = direct_sum_b(projs) if projs else module_from_blocks(alg, (0,) * alg.r, {})
    # columns of the cover: basis element b of (k, j) block maps to b . u
    cover_mats = []
    for j in range(alg.r):
        cols = [action_block(m, i)[:, c : c + 1] for k, c in lifts for i in alg.block_elems[(k, j)]]
        cover_mats.append(np.concatenate(cols, axis=1) if cols else fld.zeros(m.comp_dims[j], 0))
        if fld.rank(cover_mats[j]) != m.comp_dims[j]:
            raise StructureError("projective cover is not surjective")
    return cover_mod, cover_mats, copies


def syzygy_b(m: BModule):
    """Returns (syzygy module, copies, kernels): the kernel of the projective
    cover, the summand positions k of its projectives B e_k, one per copy,
    and per component j the columns embedding the syzygy in the cover."""
    alg = m.algebra
    fld = alg.field
    cover_mod, cover_mats, copies = projective_cover_b(m)
    kers = [fld.kernel_basis(cover_mats[j]) for j in range(alg.r)]
    comp_dims = tuple(k.shape[1] for k in kers)
    blocks = {}
    for idx in range(alg.dim):
        k, l = alg.src[idx], alg.tgt[idx]
        if comp_dims[k] == 0 or comp_dims[l] == 0:
            continue
        coords = fld.solve(kers[l], fld.mul(action_block(cover_mod, idx), kers[k]))
        if coords is None:
            raise StructureError("syzygy is not closed under the action")
        blocks[idx] = coords
    return module_from_blocks(alg, comp_dims, blocks), copies, kers


def oracle_pd_le1(m):
    """pd m <= 1: the syzygy module is as large as the cover of its top."""
    syz, _, _ = syzygy_b(m)
    return sum(m.algebra.projective(k).dim for k, _ in reference_top_basis(syz)) == syz.dim


def reference_top_basis(m: BModule) -> list[tuple[int, int]]:
    """(k, c) per top generator of m, one component at a time: the
    coordinates c of component k that are not pivots of rad(B) m there."""
    alg, fld = m.algebra, m.algebra.field
    lifts = []
    for k in range(alg.r):
        images = [action_block(m, idx) for idx in alg.radical_elements if alg.tgt[idx] == k]
        rad = np.concatenate(images, axis=1) if images else fld.zeros(m.comp_dims[k], 0)
        _, pivots = fld.rref(rad.T)
        lifts.extend((k, c) for c in sorted(set(range(m.comp_dims[k])).difference(pivots)))
    return lifts


def reference_presentation(m: BModule) -> Presentation | None:
    """The minimal presentation of m, or None if pd m > 1, computed as
    presentation once did for every module, projectives included: the top
    of m and the kernel of the cover map one component at a time, then
    rad(B) ΩM from one product per radical element and copy, and the top
    generators of ΩM as the pivots of [rad(B) ΩM | kernel] per component."""
    alg, fld = m.algebra, m.algebra.field
    lifts = reference_top_basis(m)
    copies, kers = [k for k, _ in lifts], []
    for j in range(alg.r):
        cols = [action_block(m, i)[:, c : c + 1] for k, c in lifts for i in alg.block_elems[(k, j)]]
        cover = np.concatenate(cols, axis=1) if cols else fld.zeros(m.comp_dims[j], 0)
        kers.append(fld.kernel_basis(cover))
        if cover.shape[1] - kers[j].shape[1] != m.comp_dims[j]:
            raise StructureError("projective cover is not surjective")
    offs = [
        list(accumulate((len(alg.block_elems[(kg, j)]) for kg in copies), initial=0))
        for j in range(alg.r)
    ]
    rads = [[] for _ in range(alg.r)]
    for idx in alg.radical_elements:
        k, l = alg.src[idx], alg.tgt[idx]
        if not kers[k].shape[1] or not kers[l].shape[1]:
            continue
        img = fld.zeros(kers[l].shape[0], kers[k].shape[1])
        for g, kg in enumerate(copies):
            blk = action_block(alg.projective(kg), idx)
            img[offs[l][g] : offs[l][g + 1]] = fld.mul(blk, kers[k][offs[k][g] : offs[k][g + 1]])
        rads[l].append(img)
    tops = []
    for l in range(alg.r):
        if kers[l].shape[1]:
            width = sum(img.shape[1] for img in rads[l])
            _, pivots = fld.rref(np.concatenate(rads[l] + [kers[l]], axis=1))
            tops.extend((l, c - width) for c in pivots if c >= width)
    if sum(alg.projective(k).dim for k, _ in tops) != sum(ker.shape[1] for ker in kers):
        return None
    coords = {}
    for r, (k, c) in enumerate(tops):
        col = kers[k][:, c]
        for g, kg in enumerate(copies):
            ids = alg.block_elems[(kg, k)]
            terms = [(idx, int(v)) for idx, v in zip(ids, col[offs[k][g] :]) if v]
            if terms:
                coords[(r, g)] = terms
    return Presentation(tuple(copies), tuple(k for k, _ in tops), coords)


def reference_hom_b(pres: Presentation, n: BModule) -> np.ndarray:
    """R_N of one presentation and one N, unpadded, block by block: block
    (ρ, g) is Σ_b c_{ρ,g,b} times the action block of b on N."""
    p = n.algebra.field.p
    cols = list(accumulate((n.comp_dims[k] for k in pres.copies), initial=0))
    rows = list(accumulate((n.comp_dims[k] for k in pres.relations), initial=0))
    out = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
    for (r, g), ((idx, c), *rest) in pres.coords.items():
        blk = c * action_block(n, idx) % p
        for idx, c in rest:
            blk = (blk + c * action_block(n, idx)) % p
        out[rows[r] : rows[r + 1], cols[g] : cols[g + 1]] = blk
    return out


def reference_tables(candidates: list[BModule]) -> tuple[np.ndarray, np.ndarray]:
    """(hom, ext) over End(T) as ExtCalculatorB tabulates them, from
    reference_presentation and one rank of reference_hom_b per ordered
    pair, empty R_N included."""
    fld = candidates[0].algebra.field
    size = len(candidates)
    hom = np.zeros((size, size), dtype=np.int64)
    ext = np.zeros_like(hom)
    for a, m in enumerate(candidates):
        pres = reference_presentation(m)
        for b, n in enumerate(candidates):
            rank = fld.rank(reference_hom_b(pres, n))
            hom[a, b] = sum(n.comp_dims[k] for k in pres.copies) - rank
            ext[a, b] = sum(n.comp_dims[k] for k in pres.relations) - rank
    return hom, ext


# -- the coresolution -------------------------------------------------------------


def approximation_map(atlas, t: RigidModule, t_prime: RigidModule) -> ModuleMap:
    """The (add T')-approximation f: T'' -> T of coresolution_check as a map
    of direct sums: T'' has one copy of T'_i per basis map
    atlas.hom_basis(T'_i, T_j), which sends it into the summand T_j."""
    fld, dq, mods = atlas.field, atlas.dq, atlas.modules
    t_ids = list(t.summands)
    copies = [
        (i, j, b)
        for i in t_prime.summands
        for j, tj in enumerate(t_ids)
        for b in atlas.hom_basis(i, tj)
    ]
    t_mod = direct_sum(dq, fld, [mods[j] for j in t_ids])
    approx_src = direct_sum(dq, fld, [mods[i] for i, _, _ in copies])
    row_offs = np.cumsum([[0] * dq.nv] + [mods[j].dims for j in t_ids], axis=0)
    mats = []
    for v in range(dq.nv):
        blocks = []
        for i, j, b in copies:
            blk = fld.zeros(t_mod.dims[v], mods[i].dims[v])
            blk[row_offs[j, v] : row_offs[j + 1, v]] = b[v]
            blocks.append(blk)
        mats.append(np.concatenate(blocks, axis=1) if blocks else fld.zeros(t_mod.dims[v], 0))
    return ModuleMap(approx_src, t_mod, tuple(mats))


# -- atlas and graph files ----------------------------------------------------------


def reference_maximal_cliques(ext) -> list[tuple]:
    """The maximal sets of indices without extensions among them, asked of
    the table ext pair by pair: the vertices are the k with ext[k, k] = 0,
    and a < b are adjacent iff ext[a, b] = ext[b, a] = 0.  Bron-Kerbosch
    with a pivot; sorted tuples in sorted order, of whatever sizes occur."""
    verts = [k for k in range(len(ext)) if ext[k, k] == 0]
    adj = {v: set() for v in verts}
    for a, b in combinations(verts, 2):
        if ext[a, b] == 0 and ext[b, a] == 0:
            adj[a].add(b)
            adj[b].add(a)
    out = []

    def grow(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            grow(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    grow(set(), set(verts), set())
    return sorted(out)


def reference_complements(graph: MutationGraph) -> list[tuple[int, int]]:
    """(x, y) per edge (i, j) of graph, by set difference of the summands:
    x in vertex i only, y in vertex j only."""
    out = []
    for i, j in graph.edges:
        a, b = graph.vertices[i].summands, graph.vertices[j].summands
        ((x,), (y,)) = set(a).difference(b), set(b).difference(a)
        out.append((x, y))
    return out


def module_by_alias(atlas, name: str) -> Representation:
    return atlas.modules[atlas.id_by_alias(name)]


def load_graph_json(path) -> MutationGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"not a graph file: {exc}") from exc
    if payload.get("format_version") != GRAPH_FORMAT_VERSION:
        raise FormatError("unsupported graph format_version")
    vertices = [RigidModule(summands=tuple(v["summands"])) for v in payload["vertices"]]
    edges = [tuple(e) for e in payload["edges"]]
    return MutationGraph(vertices=vertices, edges=edges, r=payload["r"], n=payload["n"])
