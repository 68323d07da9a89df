"""Test oracles: constructions the checker does not run, kept to check the
ones it does.

Each is a slower or more literal way to get an answer the package gets
another way: module maps and short exact sequences with their checks,
against the middle terms and covers the package builds as modules alone;
splitting, pullback and pushout of sequences (Auslander-Reiten-Smalø,
Ch. I), and exactness under Hom(-, N) by the rank identity, against the
connecting and pullback matrices; Hom
over End(T) from the intertwining system, and the cover and syzygy modules,
against the presentations of ExtCalculatorB; the approximation T'' -> T
as a module map against coresolution_check's vertex-wise ranks; the Hom
systems and cocycle conditions built by broadcasting, block by block,
against the index plans of modules.intertwiner_system and
extensions._cocycle_condition; the minimal polynomial from Krylov chains
against the one elimination of PrimeField.minimal_polynomial.  Nothing
in src/preproj imports this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from preproj.endo import BModule, _top_basis, presentation
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
    blocks += [connecting_matrix(space, n, hom_basis(space.y, n)) for n in t_summands]
    return fld.kernel_basis(np.concatenate(blocks, axis=0))


# -- End(T) and its modules ------------------------------------------------------


def product_coords(algebra, i1: int, i2: int) -> tuple[tuple[int, int], np.ndarray]:
    """Coefficients of elements[i1] o elements[i2] over its block basis,
    read from the atlas's composition constants."""
    e1, e2 = algebra.elements[i1], algebra.elements[i2]
    block = (e2.src, e1.tgt)
    if e1.src != e2.tgt:
        return block, np.zeros(len(algebra.block_elems[block]), dtype=np.int64)
    ids = algebra.summand_ids
    consts = algebra.atlas.compose(ids[e2.src], ids[e1.src], ids[e1.tgt])
    pos1 = algebra.block_elems[(e1.src, e1.tgt)].index(i1)
    pos2 = algebra.block_elems[(e2.src, e2.tgt)].index(i2)
    return block, consts[pos1, :, pos2]


def oracle_projective(algebra, k: int) -> BModule:
    """The left ideal B e_k from the multiplication of B alone: component j
    has the basis of block (k, j), and b: T_s -> T_t sends a basis element
    c of block (k, s) to the coordinates of b o c over block (k, t)."""
    blocks_of = algebra.block_elems
    comp_dims = tuple(len(blocks_of[(k, j)]) for j in range(algebra.r))
    blocks = {}
    for b in algebra.elements:
        cols = blocks_of[(k, b.src)]
        if not cols or not blocks_of[(k, b.tgt)]:
            continue
        block = algebra.field.zeros(len(blocks_of[(k, b.tgt)]), len(cols))
        for c, i2 in enumerate(cols):
            block[:, c] = product_coords(algebra, b.index, i2)[1]
        if block.any() or b.index == algebra.identity_of[b.src]:
            blocks[b.index] = block
    return BModule(algebra, comp_dims, blocks)


def simple_b(algebra, k: int) -> BModule:
    """The simple B-module at summand position k."""
    return BModule(algebra, tuple(int(j == k) for j in range(algebra.r)), {})


def dense_action(m: BModule, idx: int) -> np.ndarray:
    """Action of basis element idx on the full underlying space of m."""
    fld = m.algebra.field
    offs = np.concatenate([[0], np.cumsum(m.comp_dims)])
    out = fld.zeros(m.dim, m.dim)
    e = m.algebra.elements[idx]
    out[offs[e.tgt] : offs[e.tgt + 1], offs[e.src] : offs[e.src + 1]] = m.action_block(idx)
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
        b = alg.elements[idx]
        mb = m.action_block(idx)
        nb = n.action_block(idx)
        if np.any(mb) or np.any(nb):
            actions.append((b.src, b.tgt, mb, nb))
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
    bases and composition constants replace.  The image carries hom_bases,
    the component bases, for oracle_hom_image_map."""
    fld = algebra.field
    nv = len(m.dims)
    ids = algebra.summand_ids
    bases = [hom_basis(m, algebra.atlas.modules[t]) for t in ids]
    comp_dims = tuple(len(b) for b in bases)
    blocks = {}
    for b in algebra.elements:
        k, l = b.src, b.tgt
        if comp_dims[k] == 0 or comp_dims[l] == 0:
            continue
        pos = algebra.block_elems[(k, l)].index(b.index)
        mats = algebra.atlas.hom_basis(ids[k], ids[l])[pos]
        rhs = np.stack([_flat([fld.mul(mats[v], f[v]) for v in range(nv)]) for f in bases[k]], axis=1)
        sol = fld.solve(np.stack([_flat(g) for g in bases[l]], axis=1), rhs)
        assert sol is not None, "post-composition left its Hom component"
        if np.any(sol) or b.index == algebra.identity_of[k]:
            blocks[b.index] = sol
    out = BModule(algebra, comp_dims, blocks)
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
    for idx in {i for m in mods for i in m.blocks}:
        e = alg.elements[idx]
        blk = fld.zeros(comp_dims[e.tgt], comp_dims[e.src])
        ro = co = 0
        for m in mods:
            piece = m.action_block(idx)
            blk[ro : ro + piece.shape[0], co : co + piece.shape[1]] = piece
            ro += piece.shape[0]
            co += piece.shape[1]
        blocks[idx] = blk
    return BModule(alg, comp_dims, blocks)


def projective_cover_b(m: BModule):
    """Returns (cover module P, per-component cover matrices P -> m, copies).

    copies lists the summand positions k of the projectives B e_k, one per
    lifted generator.
    """
    alg = m.algebra
    fld = alg.field
    lifts = _top_basis(m)
    copies = [k for k, _ in lifts]
    projs = [alg.projective(k) for k in copies]
    cover_mod = direct_sum_b(projs) if projs else BModule(alg, (0,) * alg.r, {})
    # columns of the cover: basis element b of (k, j) block maps to b . u
    cover_mats = []
    for j in range(alg.r):
        cols = [m.action_block(i)[:, c : c + 1] for k, c in lifts for i in alg.block_elems[(k, j)]]
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
    for idx, blk in cover_mod.blocks.items():
        e = alg.elements[idx]
        k, l = e.src, e.tgt
        if comp_dims[k] == 0 or comp_dims[l] == 0:
            continue
        coords = fld.solve(kers[l], fld.mul(blk, kers[k]))
        if coords is None:
            raise StructureError("syzygy is not closed under the action")
        if coords.any():
            blocks[idx] = coords
    return BModule(alg, comp_dims, blocks), copies, kers


def oracle_pd_le1(m):
    """pd m <= 1: the syzygy module is as large as the cover of its top."""
    syz, _, _ = syzygy_b(m)
    return sum(m.algebra.projective(k).dim for k, _ in _top_basis(syz)) == syz.dim


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
