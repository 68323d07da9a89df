"""The endomorphism algebra of a maximal rigid module, its finite
dimensional modules, and classical tilting combinatorics over it.

Every End(T) is a corner of one algebra, Γ = End(⊕ atlas modules), the
Auslander algebra of the atlas (Atlas.gamma, built once per run on first
use): with e_T the idempotent of the summands of T, B = End(T) = e_T Γ e_T,
and the image F X = Hom(X, T) of an atlas module X is e_T Γ e_X, on which
B acts by post-composition (Auslander-Reiten-Smalø, Ch. II).  So this
layer computes no Hom space or structure constant: B's basis indexes Γ's,
and a B-module keeps its action as one array of padded blocks, one per
basis element; F X is one gather of Γ's constants.  Hom and Ext over B
from a module M with pd M <= 1 come from its minimal projective
presentation, read from the kernel of its cover map in the cover's
coordinates, with the radical of the syzygy from one product with the
actions of B on the projectives B e_k, stacked once per T; the image of a
summand of T is projective and needs none.
One rank of one small matrix per pair of modules: those of a T are summed
at once (hom_b) and ranked in one stack into full Hom_B and Ext^1_B tables
(ExtCalculatorB).  The tilting sets are the maximal cliques of the
compatibility matrix of the Ext^1_B table (rigidgraph.compatibility), the
matrix theorem1 compares with the atlas's, and the coresolution check
ranks one gather of Γ per T and reads the summands of its kernel off
hom_table with one solve over a fixed large prime field, checked over the
integers.  relative_ext reads the classes of Ext^1 exact under Hom(-, T),
which lemma37 and lemma22 need, the same way from the cokernels of the
left add-T approximations: one gather of Γ, one stack of ranks and one
solve per T.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .atlas import Atlas
from .errors import InputError, IntegrityError, StructureError
from .linalg import PrimeField
from .rigidgraph import RigidModule, compatibility, maximal_cliques


class BoundAlgebra:
    """B = End(T) = e_T Γ e_T for T = rigid.  Basis element b is the map
    gamma_ids[b] of Γ from T_src[b] to T_tgt[b]; block_elems[(k, l)] lists
    those of Hom(T_k, T_l), led on the diagonal by the identity of T_k,
    and every other element is in radical_elements.  projective_actions,
    an array (r, dim B, w, w), stacks the actions of B on the projectives
    B e_k (BModule.action of projective(k)), gathered once from Γ."""

    def __init__(self, atlas: Atlas, rigid: RigidModule):
        self.atlas = atlas
        self.field: PrimeField = atlas.field
        self.summand_ids = rigid.summands
        self.r = r = len(rigid.summands)
        ids = np.array(rigid.summands)
        # block_dims[k, l] = dim Hom(T_k, T_l), the dimension of component l of B e_k
        self.block_dims = atlas.hom_table[np.ix_(ids, ids)]
        sizes = self.block_dims.ravel()
        firsts = np.cumsum(sizes) - sizes
        block = np.repeat(np.arange(r * r), sizes)
        self.src, self.tgt = np.divmod(block, r)
        self.gamma_ids = atlas.gamma().starts[ids[self.src], ids[self.tgt]] + np.arange(len(block)) - firsts[block]
        self.block_elems = {
            divmod(kl, r): list(range(first, first + size)) for kl, (first, size) in enumerate(zip(firsts, sizes))
        }
        self.radical_elements = np.delete(np.arange(len(block)), firsts[:: r + 1])
        self.projective_actions = atlas.gamma().consts[ids[:, None], self.gamma_ids]
        self._images: dict[int, BModule] = {}

    @property
    def dim(self) -> int:
        return len(self.src)

    def projective(self, k: int) -> "BModule":
        """The left ideal B e_k generated by the k-th idempotent: the image
        Hom(T_k, T) of the summand T_k.  Its summand is k (see BModule)."""
        return self.hom_image(self.summand_ids[k])

    def hom_image(self, mid: int) -> "BModule":
        """The image F X = Hom(X, T) = e_T Γ e_X of atlas module X = mid:
        component j is Hom(X, T_j) on the basis atlas.hom_basis(X, T_j), and
        B acts by post-composition, so its action is one gather of Γ's
        constants at X and at the basis of B.  Built once per mid."""
        got = self._images.get(mid)
        if got is None:
            comp_dims = self.atlas.hom_table[mid, list(self.summand_ids)]
            summand = self.summand_ids.index(mid) if mid in self.summand_ids else None
            action = self.atlas.gamma().consts[mid, self.gamma_ids]
            got = self._images[mid] = BModule(self, comp_dims, action, summand)
        return got


class BModule:
    """Finite dimensional left module over a BoundAlgebra, graded by the
    idempotents: comp_dims[j] = dim e_j M.  action[b] holds the action of
    basis element b from component src[b] to tgt[b], identities included,
    in the top left corner of a square zero-padded to the largest component
    or more.  summand is k for the image Hom(T_k, T), the projective B e_k
    (BoundAlgebra.projective), and None otherwise."""

    def __init__(self, algebra: BoundAlgebra, comp_dims, action: np.ndarray, summand: int | None = None):
        self.algebra = algebra
        self.summand = summand
        self.comp_dims = tuple(int(d) for d in comp_dims)
        self.action = action
        shape = np.shape(action)
        if len(shape) != 3 or shape[0] != algebra.dim or shape[1] != shape[2] or shape[1] < max(self.comp_dims):
            raise InputError(f"action of shape {shape} for components {self.comp_dims} of {algebra.dim} elements")

    @property
    def dim(self) -> int:
        return sum(self.comp_dims)


def _columns(m: BModule, elems, coords) -> np.ndarray:
    """The vectors b u over all of m, one column per q, for b = elems[q]
    and u the unit vector at coordinate coords[q] of component src[b]: a
    column of b's padded block, placed at component tgt[b], where its
    padding lands on zeros of the same column."""
    width, offs = m.action.shape[1], np.cumsum((0,) + m.comp_dims)
    out = np.zeros((m.dim + width, len(elems)), dtype=np.int64)
    rows = offs[m.algebra.tgt[elems], None] + np.arange(width)
    out[rows, np.arange(len(elems))[:, None]] = m.action[elems, :, coords]
    return out[: m.dim]


def _top_basis(m: BModule) -> list[tuple[int, int]]:
    """(k, c) per top generator of m: the coordinates c of component k left
    free by rad(B) m, spanned by the columns of the radical elements'
    blocks, eliminated at once as rows; a row lies in one component, so the
    pivots are those of each component.  Only the columns of a block below
    the dimension of its source component are taken: the rest is padding."""
    alg, fld = m.algebra, m.algebra.field
    rad = alg.radical_elements[m.action[alg.radical_elements].any(axis=(1, 2))]
    counts = np.asarray(m.comp_dims)[alg.src[rad]]
    coords = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = _columns(m, np.repeat(rad, counts), coords).T
    _, pivots = fld.rref(rows[rows.any(axis=1)])
    offs = list(accumulate(m.comp_dims, initial=0))
    comp = np.repeat(np.arange(alg.r), m.comp_dims)
    free = sorted(set(range(m.dim)).difference(pivots))
    return [(int(comp[c]), c - offs[comp[c]]) for c in free]


def _cover_kernel(m: BModule):
    """Returns (copies, ker, poffs, koffs) for the projective cover
    P = ⊕_g B e_{k_g} of m.

    copies lists the summand position k_g of each lifted top generator.
    Component j of P has the basis block_elems[(k_g, j)] copy by copy, and
    the coordinates of P run component by component: component j is rows
    poffs[j]:poffs[j + 1].  ker is a kernel basis (columns) of the cover
    map P -> m, so it spans ΩM; the cover map preserves components, so ker
    is block diagonal, with columns koffs[j]:koffs[j + 1] in component j.
    The cover map is one gather of the action, eliminated once."""
    alg, fld = m.algebra, m.algebra.field
    lifts = _top_basis(m)
    # column (j, g, b) of the cover map: b u_g for the top generator u_g
    cols = [(j, c, i) for j in range(alg.r) for k, c in lifts for i in alg.block_elems[(k, j)]]
    comps, coords, elems = np.array(cols, dtype=np.intp).reshape(-1, 3).T
    poffs = [int(v) for v in np.searchsorted(comps, range(alg.r + 1))]
    ker = fld.kernel_basis(_columns(m, elems, coords))
    if poffs[-1] - ker.shape[1] != m.dim:
        raise StructureError("projective cover is not surjective")
    # a kernel column lies in the component of its first nonzero row
    firsts = (ker != 0).argmax(axis=0) if len(ker) else []
    koffs = [int(v) for v in np.searchsorted(firsts, poffs)]
    return [k for k, _ in lifts], ker, poffs, koffs


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


def hom_b(pres: list[Presentation], targets: list[BModule]) -> np.ndarray:
    """R_N, for every presentation of pres and N of targets, the map
    ⊕_g e_{k_g} N -> ⊕_ρ e_{k_ρ} N induced under Hom_B(-, N), with kernel
    Hom_B(M, N) and cokernel Ext^1_B(M, N): block (ρ, g) is
    Σ_b c_{ρ,g,b} N.action[b], all terms summed by one np.add.at.  An array
    (len(pres), len(targets), rows, cols), zero-padded to the widest action
    and the most relations and copies, which leaves every rank as it is."""
    alg = targets[0].algebra
    width = max(n.action.shape[1] for n in targets)
    acts = np.zeros((alg.dim, len(targets), width, width), dtype=np.int64)
    for t, n in enumerate(targets):
        acts[:, t, : n.action.shape[1], : n.action.shape[2]] = n.action
    terms = [(a, r, g, idx, c) for a, pr in enumerate(pres) for (r, g), cs in pr.coords.items() for idx, c in cs]
    at, rel, copy, elem, coeff = np.array(terms, dtype=np.int64).reshape(-1, 5).T
    nrel, ncopy = (max(len(getattr(pr, kind)) for pr in pres) for kind in ("relations", "copies"))
    out = np.zeros((len(pres), nrel, ncopy, len(targets), width, width), dtype=np.int64)
    # each term reduced before the sum, so no int64 sum of (p - 1)**2 terms overflows
    np.add.at(out, (at, rel, copy), coeff[:, None, None, None] * acts[elem] % alg.field.p)
    out %= alg.field.p
    return out.transpose(0, 3, 1, 4, 2, 5).reshape(len(pres), len(targets), nrel * width, ncopy * width)


def presentation(m: BModule) -> Presentation | None:
    """The minimal presentation of m, read in the coordinates of its
    projective cover P (see _cover_kernel); None if its syzygy ΩM is not
    projective, that is, if pd m > 1.  The image of a summand, B e_k, is
    its own cover: its presentation has one copy of B e_k and no relation.

    rad(B) ΩM is spanned by each radical element b: k -> l acting on the
    kernel columns in component k, copy by copy through the action of b on
    B e_{k_g}: one batched product over (copy, radical element, kernel
    column of b's source component) with BoundAlgebra.projective_actions.
    The kernel columns outside the span of rad(B) ΩM and the columns
    before them span a complement of it, so they are the top generators ρ
    of ΩM, and their coordinates over P are the columns themselves.  ΩM is
    projective iff it is as large as the cover of its top:
    Σ_ρ dim B e_{k_ρ} = dim ΩM, the number of kernel columns."""
    if m.summand is not None:
        return Presentation((m.summand,), (), {})
    alg, fld = m.algebra, m.algebra.field
    copies, ker, poffs, koffs = _cover_kernel(m)
    dim = ker.shape[1]
    if not dim:
        return Presentation(tuple(copies), (), {})
    # Row x of P is coordinate pos[x] of copy copy[x] of B e_{k_g} in its
    # component: rows run component by component, then copy by copy.
    sizes = alg.block_dims[copies].T.ravel()
    copy = np.repeat(np.tile(np.arange(len(copies)), alg.r), sizes)
    pos = np.arange(poffs[-1]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # kernel column i is column col[i] of component comp[i]; kers[g, k]
    # holds those of component k, restricted to copy g and zero-padded
    counts = np.diff(koffs)
    comp = np.repeat(np.arange(alg.r), counts)
    col = np.arange(dim) - np.asarray(koffs)[comp]
    acts = alg.projective_actions
    kers = np.zeros((len(copies), alg.r, acts.shape[-1], counts.max()), dtype=np.int64)
    xs, cs = np.nonzero(ker)
    kers[copy[xs], comp[cs], pos[xs], col[cs]] = ker[xs, cs]
    # imgs[g, q, :, c]: radical element rad[q] on kernel column c of its
    # source component, in copy g of its target component
    rad = alg.radical_elements
    imgs = np.matmul(acts[np.ix_(copies, rad)], kers[:, alg.src[rad]]) % fld.p
    # Column i of ker is 1 at its last nonzero coordinate f_i and 0 at
    # every other f_j, so a vector v of ΩM is Σ_i v[f_i] ker[:, i]: its
    # coordinates over ker are its entries at f, zero off its component.
    f = poffs[-1] - 1 - (ker[::-1] != 0).argmax(axis=0)
    coords = imgs[copy[f], :, pos[f]] * (alg.tgt[rad] == comp[:, None])[:, :, None]
    # column i is a top generator unless some v in rad(B) ΩM has its last
    # nonzero coordinate at i, a pivot of the echelon form of the columns
    # in reverse order
    rows = coords.transpose(1, 2, 0).reshape(-1, dim)
    _, last = fld.rref(rows[rows.any(axis=1), ::-1])
    tops = sorted(set(range(dim)).difference(dim - 1 - c for c in last))
    if sum(alg.projective(comp[t]).dim for t in tops) != dim:
        return None
    terms = {}
    for r, t in enumerate(tops):
        k = int(comp[t])
        for x in np.flatnonzero(ker[:, t]):
            g = int(copy[x])
            terms.setdefault((r, g), []).append((alg.block_elems[(copies[g], k)][pos[x]], int(ker[x, t])))
    return Presentation(tuple(copies), tuple(int(comp[t]) for t in tops), terms)


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
    one rank per pair, from one hom_b call and one PrimeField.ranks stack."""

    def __init__(self, algebra: BoundAlgebra, candidates: list[BModule]):
        self.algebra = algebra
        cands = self.candidates = list(candidates)
        pres = [presentation(m) for m in cands]
        if None in pres:
            raise InputError(f"candidate {pres.index(None)} has projective dimension > 1")
        size = len(cands)
        # a presentation without relations gives R_N no rows, so rank 0
        related = [a for a, pr in enumerate(pres) if pr.relations]
        rank = np.zeros((size, size), dtype=np.int64)
        if related:
            mats = hom_b([pres[a] for a in related], cands)
            rank[related] = algebra.field.ranks(mats.reshape(-1, *mats.shape[2:])).reshape(len(related), size)
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
    B = calc.algebra: the maximal cliques of the compatibility matrix of
    calc.ext (rigidgraph.compatibility), each of size r.  Every candidate has
    projective dimension at most one (ExtCalculatorB)."""
    r = calc.algebra.r
    cliques = maximal_cliques(compatibility(calc.ext))
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

    rigids are the maximal cliques of the compatibility matrix of
    atlas.ext_table (rigidgraph.enumerate_maximal_rigid), and the tilting
    sets those of calc.ext, over the same atlas modules.  Two graphs on one
    vertex set have the same maximal cliques iff they are equal, as every
    vertex and edge lies in a maximal clique; so the bijection is the
    equality of the two compatibility matrices, and no tilting set is
    enumerated unless it fails.  Then enumerate_tilting names the extra and
    missing sets, and vertices_B counts the tilting sets.

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
    bijection = np.array_equal(compatibility(calc.ext), compatibility(atlas.ext_table))
    vertices_b = len(rigids)
    if not bijection:
        tilts = enumerate_tilting(calc)
        lam = {tuple(v.summands) for v in rigids}
        vertices_b = len(tilts)
        extra = [list(s) for s in tilts if s not in lam]
        missing = [list(s) for s in sorted(lam) if s not in set(tilts)]
        mismatches.append(f"tilting sets extra={extra} missing={missing}")
    # Happel-Unger (1989): the two complements x, y of an almost complete
    # tilting module are joined by a non-split sequence in exactly one
    # direction.  Under the bijection the exchange pairs of the tilting sets
    # are the mutation edges, so the edges are read from graph.
    x, y = graph.complements
    directions = (calc.ext[x, y] > 0).astype(np.int64) + (calc.ext[y, x] > 0)
    broken = np.flatnonzero(directions != 1).tolist()
    for e in broken:
        i, j = graph.edges[e]
        mismatches.append(
            f"edge {list(graph.vertices[i].summands)} -- {list(graph.vertices[j].summands)}: "
            f"complements {x[e]} and {y[e]} have non-split extensions in {directions[e]} directions"
        )
    return {
        "t_id": t_index,
        "t_summands": list(t.summands),
        "vertices_lambda": len(rigids),
        "vertices_B": vertices_b,
        "bijection": bijection,
        "edges_preserved": bijection and not broken,
        "mismatches": mismatches,
    }


# F_P for P = 2**31 - 1 (see _multiplicities)
_MULTIPLICITY_FIELD = PrimeField(2**31 - 1)


def _multiplicities(table: np.ndarray, dims: np.ndarray, to_m: np.ndarray, m_dims: np.ndarray) -> np.ndarray | None:
    """The multiplicities of the atlas modules in modules M, one column per
    M: the solution v of table v = to_m over F_P for the fixed prime
    P = 2**31 - 1 (not the atlas's p), or None unless it satisfies both
    table v = to_m and v.T dims = m_dims over the integers, where the rows
    of dims and m_dims are the dimension vectors of the atlas modules and
    of the M.  table is hom_table, with to_m[X] = dim Hom(X, M), or its
    transpose, with to_m[X] = dim Hom(M, X).  Its entries are residues in
    [0, P), so v >= 0.  hom_table has determinant +-1 (coresolution_check),
    so it is invertible mod every prime and an integer solution is the
    only one.  A multiplicity c of M is at most dim M, far below P, so its
    residue is c itself at every atlas p; over the atlas's F_p a
    multiplicity c >= p would come out as c mod p."""
    v = _MULTIPLICITY_FIELD.solve(table, to_m)
    if v is None or not np.array_equal(table @ v, to_m) or not np.array_equal(v.T @ dims, m_dims):
        return None
    return v


def relative_ext(atlas: Atlas, t: RigidModule) -> np.ndarray:
    """rel[x, y] = the dimension of the classes of Ext^1(x, y), sequences
    0 -> y -> E -> x -> 0, that stay exact under Hom(-, T), for every pair
    of atlas modules at once: an int64 array (size, size).

    Let a: y -> T_y be the universal map into add T, with one copy of T_j
    per basis map f of Hom(y, T_j), and C_y its cokernel; a is injective,
    as T contains the injective cogenerator Π.  A sequence stays exact
    under Hom(-, T) iff every map y -> T extends to E, iff a does, iff its
    pushout along a splits.  So the exact classes are the kernel of
    Ext^1(x, a), the image of the connecting map of Hom(x, -) on
    0 -> y -> T_y -> C_y -> 0 (Auslander-Solberg, relative homology), and
        rel[x, y] = dim Hom(x, C_y) - dim Hom(x, T_y) + dim Hom(x, y).
    C_y is identified by its atlas summands without being built.  By left
    exactness of Hom(-, Z), dim Hom(C_y, Z) = dim Hom(T_y, Z) - r(y, Z),
    with r(y, Z) the rank of the composites g o f over the basis maps
    g: T_j -> Z: Γ's constants at (y, g), one gather for all pairs, ranked
    in one stack.  r(y, Z) is all of Hom(y, Z) when y or Z is a summand of
    T, as f or g can be an identity, and is not ranked there.  The
    multiplicities of the atlas modules in C_y solve hom_table.T v = that
    row (_multiplicities), checked over the integers and against
    dim C_y = dim T_y - dim y; IntegrityError if either fails."""
    gam, hom, n = atlas.gamma(), atlas.hom_table, atlas.size
    s, e = list(t.summands), np.arange(gam.consts.shape[-1])
    # the basis maps g: T_j -> Z at elems[Z, j, :hom[j, Z]] of Γ's basis, zero-padded
    filled = e < hom[s].T[:, :, None]
    elems = np.where(filled, gam.starts[s].T[:, :, None] + e, 0)
    outside = ~np.isin(np.arange(n), s)
    ys, zs = np.nonzero((hom != 0) & outside[:, None] & outside)
    # consts[y, g] holds g o f over hom_basis(y, Z), one column per f
    comps = gam.consts[ys[:, None, None], elems[zs]] * filled[zs][..., None, None]
    r = hom.copy()
    r[ys, zs] = atlas.field.ranks(comps.swapaxes(3, 4).reshape(len(ys), len(s) * len(e) ** 2, len(e)))
    dims = np.array([m.dims for m in atlas.modules], dtype=np.int64)
    to_t = hom[:, s]  # dim Hom(y, T_j), the copies of T_j in T_y
    v = _multiplicities(hom.T, dims, (to_t @ hom[s] - r).T, to_t @ dims[s] - dims)
    if v is None:
        raise IntegrityError("a cokernel's Hom row has no multiplicities over the atlas")
    return hom @ v - to_t @ to_t.T + hom


def coresolution_check(atlas: Atlas, t: RigidModule, t_prime: RigidModule) -> dict:
    """Exhibit the two-term coresolution of B = End(T) by the tilting set
    coming from T': over the module category this is the kernel sequence
    0 -> K -> T'' -> T -> 0 of the universal map (add T')-approximation
    f: T'' -> T, which stays exact under Hom(-, T) because T has no
    self-extensions.

    T'' has one copy p of T'_i per basis map atlas.hom_basis(T'_i, T_j), the
    Γ basis element g_p by which f sends it into T_j, so f is a module map.
    Hom(X, f) is post-composition: its block from copy p into component j
    is Γ's constants at (X, g_p), so the matrices of all atlas X are one
    gather, each ranked without its padding (a padded stack ranked slower).  As Hom(P_v, -) is the vertex space at v,
    f is onto iff rank Hom(P_v, f) = dim T_v at each indecomposable
    projective P_v (StructureError if not).  K is identified by its atlas
    summands without being built; dim K = dim T'' - dim T, and by left
    exactness of Hom(X, -)
        dim Hom(X, K) = Σ_p dim Hom(X, T''_p) - rank Hom(X, f).
    The multiplicities v of the atlas modules in K solve hom_table v = that
    column over all X.  hom_table is the Cartan matrix of Γ, which has
    finite global dimension, so its determinant is +-1 and v is unique; it
    is solved over one fixed large prime field, whatever the atlas's p
    (_multiplicities), and checked exactly over the integers and against
    dim K, and IntegrityError is raised if either fails.  Exactness under Hom(-, T) is the count
    dim Hom(K, T) + dim Hom(T, T) = dim Hom(T'', T), each term a sum of
    hom_table entries over the summands.
    """
    gam, hom = atlas.gamma(), atlas.hom_table
    t_ids, r = np.array(t.summands), len(t.summands)
    # copy p: T'_i = pieces[p] mapped into summand into[p] by Γ basis element maps[p]
    sizes = hom[np.ix_(t_prime.summands, t_ids)].ravel()
    pair = np.repeat(np.arange(len(sizes)), sizes)
    pieces, into = np.array(t_prime.summands)[pair // r], pair % r
    maps = gam.starts[pieces, t_ids[into]] + np.arange(len(pair)) - (np.cumsum(sizes) - sizes)[pair]
    width = gam.consts.shape[-1]
    hom_x_f = np.zeros((atlas.size, r, width, len(pair), width), dtype=np.int64)
    hom_x_f[:, into, :, np.arange(len(pair))] = gam.consts[:, maps].transpose(1, 0, 2, 3)
    mats = hom_x_f.reshape(atlas.size, r * width, -1)
    # each X's matrix less the padding of its blocks: rows of Hom(X, T), columns of Hom(X, T'')
    rows, cols = ((np.arange(width) < hom[:, ids, None]).reshape(atlas.size, -1) for ids in (t_ids, pieces))
    rank = np.array([atlas.field.rank(m[np.ix_(rw, cl)]) for m, rw, cl in zip(mats, rows, cols)], dtype=np.int64)
    to_t = hom[:, t_ids].sum(axis=1)  # dim Hom(X, T) per atlas X
    projs = list(atlas.projective_ids)
    if np.any(rank[projs] != to_t[projs]):
        raise StructureError("approximation onto T is not surjective")
    to_k = hom[:, pieces].sum(axis=1) - rank  # dim Hom(X, K) per atlas X
    dims = np.array([m.dims for m in atlas.modules], dtype=np.int64)
    k_dims = dims[pieces].sum(axis=0) - dims[t_ids].sum(axis=0)
    v = _multiplicities(hom, dims, to_k[:, None], k_dims[None])
    if v is None:
        raise IntegrityError("the kernel's Hom column has no multiplicities over the atlas")
    kernel_ids = [(mid, int(c)) for mid, c in enumerate(v[:, 0]) if c]
    in_add = {mid for mid, _ in kernel_ids} <= set(t_prime.summands)
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
