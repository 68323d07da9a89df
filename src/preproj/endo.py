"""The endomorphism algebra of a maximal rigid module, its finite
dimensional modules, and classical tilting combinatorics over it.

Every End(T) is a full subcategory of one small category, the atlas
modules with their Hom spaces and composition (finite because the algebra
has finite type), so this layer computes no Hom space of its own: the
bases and structure constants are slices of Atlas.hom_basis and
Atlas.compose, computed once per run.  B = End(T) has, for each ordered
pair of summands (k, l), the basis atlas.hom_basis(T_k, T_l) of
Hom(T_k, T_l): on the diagonal the identity of End(T_k) comes first and
the other elements are nilpotent.  A B-module is graded by the
idempotents: one component per summand, with one action block per basis
element.  The image Hom(X, T) of an atlas module X has components
Hom(X, T_j) and acts by post-composition, atlas.compose(X, T_k, T_l).
Hom and Ext over B from a module M with pd M <= 1 (that is, dim ΩM equals
the dimension of the projective cover of the top of ΩM) come from its
minimal projective presentation, read from the kernel of its cover map in
the cover's coordinates, with no cover or syzygy module built: one rank of
one small matrix per pair of modules, ranked in stacks into full Hom_B and
Ext^1_B tables per T (ExtCalculatorB).  The tilting sets are the maximal
cliques of Ext^1_B (rigidgraph.maximal_cliques), and the coresolution
check reads the summands of its kernel off hom_table with one solve over
a fixed large prime field, checked over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

from .atlas import Atlas
from .errors import InputError, IntegrityError, StructureError
from .extensions import _stacked_ranks
from .linalg import PrimeField
from .rigidgraph import RigidModule, maximal_cliques


@dataclass(frozen=True)
class BasisElement:
    index: int
    src: int  # summand position k: the element is a map T_k -> T_l
    tgt: int


class BoundAlgebra:
    def __init__(self, atlas: Atlas, rigid: RigidModule):
        self.atlas = atlas
        self.field: PrimeField = atlas.field
        self.rigid = rigid
        self.summand_ids = rigid.summands
        self.r = len(rigid.summands)
        self.elements: list[BasisElement] = []
        self.block_elems: dict[tuple[int, int], list[int]] = {}
        self.identity_of: dict[int, int] = {}
        for k, tk in enumerate(self.summand_ids):
            for l, tl in enumerate(self.summand_ids):
                ids = []
                for _ in atlas.hom_basis(tk, tl):
                    ids.append(len(self.elements))
                    self.elements.append(BasisElement(ids[-1], k, l))
                self.block_elems[(k, l)] = ids
            self.identity_of[k] = self.block_elems[(k, k)][0]
        idents = set(self.identity_of.values())
        self.radical_elements = [e.index for e in self.elements if e.index not in idents]
        self._images: dict[int, BModule] = {}
        self._check_structure()

    # -- construction ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.elements)

    def _check_structure(self):
        """The identity laws, exactly, on the composition constants of the
        atlas: b o e_k = b for b in Hom(T_k, T_l), and e_k o b = b for b in
        Hom(T_m, T_k), where e_k is the first basis element of End(T_k).
        Associativity needs no runtime check: the constants come from exact
        solves over a basis of actual maps, whose composition is
        associative."""
        ids = self.summand_ids
        for k in range(self.r):
            for l in range(self.r):
                right = self.atlas.compose(ids[k], ids[k], ids[l])[:, :, 0]
                if not np.array_equal(right, np.eye(len(right), dtype=np.int64)):
                    raise IntegrityError("right identity law fails")
                left = self.atlas.compose(ids[l], ids[k], ids[k])[0]
                if not np.array_equal(left, np.eye(len(left), dtype=np.int64)):
                    raise IntegrityError("left identity law fails")

    # -- modules ---------------------------------------------------------

    def projective(self, k: int) -> "BModule":
        """The left ideal B e_k generated by the k-th idempotent: the image
        Hom(T_k, T) of the summand T_k, read from the memo of hom_image
        when it is there."""
        mid = self.summand_ids[k]
        return self._images.get(mid) or self.hom_image(mid)

    def hom_image(self, mid: int) -> "BModule":
        """Image of atlas module mid under Hom(-, T): component j is
        Hom(mid, T_j) on the basis atlas.hom_basis(mid, T_j), and basis
        element e of block (k, l) acts by post-composition, the matrix
        atlas.compose(mid, T_k, T_l)[e].  Built once per mid."""
        got = self._images.get(mid)
        if got is not None:
            return got
        atlas, ids = self.atlas, self.summand_ids
        comp_dims = tuple(len(atlas.hom_basis(mid, t)) for t in ids)
        blocks = {}
        for (k, l), elems in self.block_elems.items():
            if not elems or comp_dims[k] == 0 or comp_dims[l] == 0:
                continue
            consts = atlas.compose(mid, ids[k], ids[l])
            for e, idx in enumerate(elems):
                if consts[e].any() or idx == self.identity_of[k]:
                    blocks[idx] = consts[e]
        got = self._images[mid] = BModule(self, comp_dims, blocks)
        return got


class BModule:
    """Finite dimensional left module over a BoundAlgebra, graded by the
    idempotent components; identity idempotents act implicitly."""

    def __init__(self, algebra: BoundAlgebra, comp_dims, blocks):
        self.algebra = algebra
        self.comp_dims = tuple(int(d) for d in comp_dims)
        self.blocks = {}
        for idx, blk in blocks.items():
            e = algebra.elements[idx]
            want = (self.comp_dims[e.tgt], self.comp_dims[e.src])
            blk = np.asarray(blk, dtype=np.int64) % algebra.field.p
            if blk.shape != want:
                raise InputError(f"action block for element {idx} has shape {blk.shape}, want {want}")
            self.blocks[idx] = blk

    @property
    def dim(self) -> int:
        return sum(self.comp_dims)

    def action_block(self, idx: int) -> np.ndarray:
        e = self.algebra.elements[idx]
        got = self.blocks.get(idx)
        if got is not None:
            return got
        fld = self.algebra.field
        if idx == self.algebra.identity_of.get(e.src, -1) and e.src == e.tgt:
            return fld.eye(self.comp_dims[e.src])
        return fld.zeros(self.comp_dims[e.tgt], self.comp_dims[e.src])


def _radical_image(m: BModule, k: int) -> np.ndarray:
    """Columns spanning rad(B) m in component k, one block per radical
    element acting nonzero into k (the identities act implicitly)."""
    alg = m.algebra
    images = [
        blk
        for idx, blk in m.blocks.items()
        if alg.elements[idx].tgt == k and idx != alg.identity_of[k] and blk.any()
    ]
    if not images:
        return m.algebra.field.zeros(m.comp_dims[k], 0)
    return np.concatenate(images, axis=1)


def _top_basis(m: BModule) -> list[tuple[int, int]]:
    """(k, c) per top generator of m: the coordinates c of component k
    left free by rad(B) m, so their unit vectors span a complement of it."""
    fld = m.algebra.field
    tops = []
    for k in range(m.algebra.r):
        _, pivots = fld.rref(_radical_image(m, k).T)
        tops.extend((k, c) for c in sorted(set(range(m.comp_dims[k])).difference(pivots)))
    return tops


def _cover_kernel(m: BModule):
    """Returns (copies, kers) for the projective cover P = ⊕_g B e_{k_g} of m.

    copies lists the summand position k_g of each lifted top generator.
    Component j of P has the basis block_elems[(k_g, j)] copy by copy, and
    kers[j] is a kernel basis (columns) of the cover map e_j P -> e_j m,
    so ΩM in component j is spanned by the columns of kers[j]."""
    alg = m.algebra
    fld = alg.field
    lifts = _top_basis(m)
    kers = []
    for j in range(alg.r):
        cols = [m.action_block(i)[:, c : c + 1] for k, c in lifts for i in alg.block_elems[(k, j)]]
        cover = np.concatenate(cols, axis=1) if cols else fld.zeros(m.comp_dims[j], 0)
        kers.append(fld.kernel_basis(cover))
        if cover.shape[1] - kers[j].shape[1] != m.comp_dims[j]:
            raise StructureError("projective cover is not surjective")
    return [k for k, _ in lifts], kers


@dataclass(frozen=True)
class Presentation:
    """Minimal presentation 0 -> ⊕_ρ B e_{k_ρ} -> ⊕_g B e_{k_g} -> M -> 0 of a
    B-module M of projective dimension at most one: copies[g] = k_g,
    relations[ρ] = k_ρ, and coords[(ρ, g)] the nonzero (basis element,
    coefficient) pairs of the generator ρ of ΩM in copy g, over
    block_elems[(k_g, k_ρ)]."""

    copies: tuple
    relations: tuple
    coords: dict


def hom_b(pres: Presentation, n: BModule) -> np.ndarray:
    """R_N, the map ⊕_g e_{k_g} N -> ⊕_ρ e_{k_ρ} N that pres induces under
    Hom_B(-, N), as Hom_B(B e_k, N) = e_k N: block (ρ, g) is
    Σ_b c_{ρ,g,b} N.action_block(b).  Its kernel is Hom_B(M, N) and its
    cokernel is Ext^1_B(M, N)."""
    fld = n.algebra.field
    cols = list(accumulate((n.comp_dims[k] for k in pres.copies), initial=0))
    rows = list(accumulate((n.comp_dims[k] for k in pres.relations), initial=0))
    out = fld.zeros(rows[-1], cols[-1])
    for (r, g), terms in pres.coords.items():
        blk = out[rows[r] : rows[r + 1], cols[g] : cols[g + 1]]
        for idx, c in terms:
            blk += c * n.action_block(idx)
            blk %= fld.p
    return out


def presentation(m: BModule) -> Presentation | None:
    """The minimal presentation of m, read in the coordinates of its
    projective cover P (see _cover_kernel); None if its syzygy ΩM is not
    projective, that is, if pd m > 1.

    rad(B) ΩM in component l is spanned by each radical element b: k -> l
    acting on the columns of kers[k], copy by copy through the action of b
    on B e_{k_g}.  The columns of kers[l] that are pivots of
    [rad(B) ΩM | kers[l]] span a complement of it, so they are the top
    generators ρ of ΩM and their coordinates over P are the columns
    themselves.  ΩM is projective iff it is as large as the cover of its
    top: Σ_ρ dim B e_{k_ρ} = dim ΩM = Σ_j (columns of kers[j])."""
    alg, fld = m.algebra, m.algebra.field
    copies, kers = _cover_kernel(m)
    offs = [
        list(accumulate((len(alg.block_elems[(kg, j)]) for kg in copies), initial=0))
        for j in range(alg.r)
    ]
    rads = [[] for _ in range(alg.r)]
    for idx in alg.radical_elements:
        k, l = alg.elements[idx].src, alg.elements[idx].tgt
        if not kers[k].shape[1] or not kers[l].shape[1]:
            continue
        img = fld.zeros(kers[l].shape[0], kers[k].shape[1])
        for g, kg in enumerate(copies):
            blk = alg.projective(kg).blocks.get(idx)
            if blk is not None:
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


class ExtCalculatorB:
    """Per-T context of the End(T) checks: the algebra B = End(T), a list
    of candidate B-modules, and the tables hom[a, b] = dim Hom_B(M, N) and
    ext[a, b] = dim Ext^1_B(M, N) for M = candidates[a], N = candidates[b],
    int64 arrays of shape (n, n) filled on construction.

    Every candidate M must have projective dimension at most one, so that
    its presentation 0 -> ⊕_ρ B e_{k_ρ} -> ⊕_g B e_{k_g} -> M -> 0 has a
    projective syzygy (see presentation); InputError otherwise.  Then
    Hom_B(-, N) turns it into 0 -> Hom(M, N) -> ⊕_g e_{k_g} N -R_N->
    ⊕_ρ e_{k_ρ} N -> Ext^1(M, N) -> 0 (see hom_b), and with n_k = dim e_k N
        dim Hom_B(M, N) = Σ_g n_{k_g} - rank R_N,
        dim Ext^1_B(M, N) = Σ_ρ n_{k_ρ} - rank R_N,
    both from one rank per pair, all ranked in stacks by
    extensions._stacked_ranks."""

    def __init__(self, algebra: BoundAlgebra, candidates: list[BModule]):
        self.algebra = algebra
        cands = self.candidates = list(candidates)
        pres = [presentation(m) for m in cands]
        if None in pres:
            raise InputError(f"candidate {pres.index(None)} has projective dimension > 1")
        size = len(cands)
        rank = _stacked_ranks(algebra.field, [hom_b(pr, n) for pr in pres for n in cands]).reshape(size, size)
        dims = np.array([n.comp_dims for n in cands], dtype=np.int64).reshape(size, algebra.r)
        # row a, column b: Σ_g n_{k_g} (for hom) or Σ_ρ n_{k_ρ} (for ext) of pres[a] at N = candidates[b]
        copies = np.array([dims[:, list(pr.copies)].sum(axis=1) for pr in pres], dtype=np.int64)
        relations = np.array([dims[:, list(pr.relations)].sum(axis=1) for pr in pres], dtype=np.int64)
        self.hom = copies.reshape(size, size) - rank
        self.ext = relations.reshape(size, size) - rank

    @classmethod
    def for_rigid(cls, atlas: Atlas, rigid: RigidModule) -> "ExtCalculatorB":
        """End(T) for T = rigid; candidates[mid] is the Hom(-, T) image of
        atlas module mid."""
        algebra = BoundAlgebra(atlas, rigid)
        return cls(algebra, [algebra.hom_image(mid) for mid in range(atlas.size)])

    def ext1(self, a: int, b: int) -> int:
        """dim Ext^1_B(candidates[a], candidates[b])."""
        return int(self.ext[a, b])


# -- tilting sets and the graph correspondence ------------------------------


def enumerate_tilting(calc: ExtCalculatorB):
    """All size-r sets of candidate positions that are Ext-orthogonal over
    B = calc.algebra: the maximal cliques of Ext^1_B, each of size r.  Every
    candidate has projective dimension at most one (ExtCalculatorB)."""
    r = calc.algebra.r
    cliques = maximal_cliques(range(len(calc.candidates)), calc.ext1)
    if len(cliques[0]) != r:
        raise StructureError(f"tilting sets have {len(cliques[0])} summands, expected {r}")
    return cliques


def verify_graph_correspondence(atlas: Atlas, rigids, graph, t_index: int, calc: ExtCalculatorB) -> dict:
    """Check that mapping a maximal rigid module through Hom(-, T) gives a
    bijection onto the tilting sets of End(T), for T = rigids[t_index], and
    that every edge of the mutation graph is an exchange of tilting
    modules: Ext^1_B is nonzero between its two complements in exactly one
    direction.  With the bijection, these edges are exactly the
    one-summand exchanges between tilting sets.

    The functor F = Hom(-, T) is fully faithful, as T contains the
    cogenerator Π, so dim Hom_B(FX, FY) = dim Hom(Y, X): calc.hom must be
    the transpose of atlas.hom_table.  That also keeps the images of
    distinct modules apart, since FX ≅ FY makes rows X and Y of the
    invertible hom_table equal.

    calc is ExtCalculatorB.for_rigid(atlas, rigids[t_index])."""
    t = rigids[t_index]
    mismatches = []
    unfaithful = np.argwhere(calc.hom != atlas.hom_table.T)
    if len(unfaithful):
        mismatches.append(
            f"Hom(-, T) is not fully faithful: dim Hom_B(FX, FY) != dim Hom(Y, X) "
            f"for {len(unfaithful)} pair(s) (X, Y), first {unfaithful[:8].tolist()}"
        )
    tilts = enumerate_tilting(calc)
    lam = sorted(tuple(v.summands) for v in rigids)
    bijection = tilts == lam
    if not bijection:
        extra = [list(s) for s in tilts if tuple(s) not in set(map(tuple, lam))]
        missing = [list(s) for s in lam if tuple(s) not in set(map(tuple, tilts))]
        mismatches.append(f"tilting sets extra={extra} missing={missing}")
    # Happel-Unger (1989): the two complements x, y of an almost complete
    # tilting module are joined by a non-split sequence in exactly one
    # direction.  Under the bijection the exchange pairs of the tilting sets
    # are the mutation edges, so the edges are read from graph.
    edges_preserved = bijection
    for i, j in graph.edges:
        a, b = graph.vertices[i].summands, graph.vertices[j].summands
        (x,) = set(a).difference(b)
        (y,) = set(b).difference(a)
        directions = int(calc.ext[x, y] > 0) + int(calc.ext[y, x] > 0)
        if directions != 1:
            edges_preserved = False
            mismatches.append(
                f"edge {list(a)} -- {list(b)}: complements {x} and {y} "
                f"have non-split extensions in {directions} directions"
            )
    return {
        "t_id": t_index,
        "t_summands": list(t.summands),
        "vertices_lambda": len(rigids),
        "vertices_B": len(tilts),
        "bijection": bijection,
        "edges_preserved": edges_preserved,
        "mismatches": mismatches,
    }


@cache
def _multiplicity_field() -> PrimeField:
    """F_P for P = 2**31 - 1 (see _multiplicities), built on first use: its
    primality check takes milliseconds."""
    return PrimeField(2**31 - 1)


def _multiplicities(atlas: Atlas, to_m: np.ndarray, m_dims) -> list | None:
    """[(id, multiplicity), ...] of the atlas modules in a module M with
    dim Hom(X, M) = to_m[X] and dimension vector m_dims: the solution v of
    hom_table v = to_m over F_P for the fixed prime P = 2**31 - 1 (not the
    atlas's p), or None unless it satisfies both over the integers.  Its
    entries are residues in [0, P), so v >= 0.  hom_table has determinant
    +-1 (coresolution_check), so it is invertible mod every prime and an
    integer solution is the only one.  A multiplicity c of M is at most
    dim M, far below P, so its residue is c itself at every atlas p; over
    the atlas's F_p a multiplicity c >= p would come out as c mod p."""
    hom = atlas.hom_table
    v = _multiplicity_field().solve(hom, to_m)
    if v is None:
        return None
    v = v[:, 0]
    dims = np.array([m.dims for m in atlas.modules], dtype=np.int64)
    if not np.array_equal(hom @ v, to_m) or not np.array_equal(v @ dims, m_dims):
        return None
    return [(mid, int(c)) for mid, c in enumerate(v) if c]


def coresolution_check(atlas: Atlas, t: RigidModule, t_prime: RigidModule) -> dict:
    """Exhibit the two-term coresolution of B = End(T) by the tilting set
    coming from T': over the module category this is the kernel sequence
    0 -> K -> T'' -> T -> 0 of the universal map (add T')-approximation
    f: T'' -> T, which stays exact under Hom(-, T) because T has no
    self-extensions.

    T'' has one copy of T'_i per basis map atlas.hom_basis(T'_i, T_j), and
    f sends it by that map into the summand T_j.  f is a module map by
    construction, and is checked to be onto at each vertex v: the basis
    maps into T_j, concatenated, have rank dim T_{j,v}, so f_v has rank
    dim T_v (StructureError if not).  K is identified by its atlas
    summands without being built; dim K = dim T'' - dim T.  Hom(X, -) is
    left exact, so 0 -> Hom(X, K) -> Hom(X, T'') -> Hom(X, T) is exact and
        dim Hom(X, K) = Σ_p dim Hom(X, T''_p) - rank Hom(X, f),
    where the block of Hom(X, f) from copy p (the map with index e into
    T_j) is post-composition, atlas.compose(X, T'_i, T_j)[e].  The
    multiplicities v of the atlas modules in K then solve hom_table v = that
    column over all X.  hom_table is the Cartan matrix of the Auslander
    algebra, which has finite global dimension, so its determinant is +-1
    and v is unique; it is solved over one fixed large prime field,
    whatever the atlas's p (_multiplicities), and checked exactly over the
    integers and against dim K, and IntegrityError is raised if either
    fails.  Exactness under Hom(-, T) is the count
    dim Hom(K, T) + dim Hom(T, T) = dim Hom(T'', T), each term a sum of
    hom_table entries over the summands.
    """
    fld, dq, mods = atlas.field, atlas.dq, atlas.modules
    t_ids = list(t.summands)
    copies = [  # (i, j, e): T'_i mapped by hom_basis(i, T_j)[e]
        (i, j, e)
        for i in t_prime.summands
        for j, tj in enumerate(t_ids)
        for e in range(len(atlas.hom_basis(i, tj)))
    ]
    pieces = [i for i, _, _ in copies]
    for tj in t_ids:
        for v in range(dq.nv):
            maps = [b[v] for i in t_prime.summands for b in atlas.hom_basis(i, tj)]
            if (fld.rank(np.concatenate(maps, axis=1)) if maps else 0) != mods[tj].dims[v]:
                raise StructureError("approximation onto T is not surjective")
    hom = atlas.hom_table
    to_k = np.zeros(atlas.size, dtype=np.int64)  # dim Hom(X, K) per atlas X
    for x in range(atlas.size):
        rows = list(accumulate((int(hom[x, j]) for j in t_ids), initial=0))
        cols = list(accumulate((int(hom[x, i]) for i in pieces), initial=0))
        hom_x_f = fld.zeros(rows[-1], cols[-1])
        for p, (i, j, e) in enumerate(copies):
            hom_x_f[rows[j] : rows[j + 1], cols[p] : cols[p + 1]] = atlas.compose(x, i, t_ids[j])[e]
        to_k[x] = cols[-1] - fld.rank(hom_x_f)
    dims = np.array([m.dims for m in mods], dtype=np.int64)
    k_dims = dims[pieces].sum(axis=0) - dims[t_ids].sum(axis=0)
    kernel_ids = _multiplicities(atlas, to_k, k_dims)
    if kernel_ids is None:
        raise IntegrityError("the kernel's Hom column has no multiplicities over the atlas")
    in_add = {mid for mid, _ in kernel_ids} <= set(t_prime.summands)
    to_t = hom[:, t_ids].sum(axis=1)  # dim Hom(X, T) per atlas X
    dims_ok = in_add and (
        sum(c * int(to_t[mid]) for mid, c in kernel_ids) + int(to_t[t_ids].sum())
        == int(to_t[pieces].sum())
    )
    return {
        "kernel_summands": kernel_ids,
        "kernel_in_add_t_prime": in_add,
        "hom_dims_additive": dims_ok,
        "ok": in_add and dims_ok,
    }
