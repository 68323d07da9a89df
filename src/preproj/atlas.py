"""Complete lists of indecomposable modules with Hom/Ext tables.

Enumeration runs a closure from simples and projectives.  Each pass adds
the summands of the radicals, syzygies and cosyzygies of the modules it
has not yet seen, and of the middle terms of the basis classes of Ext^1
between the modules known at its start.  It first grows the Hom and Ext
tables to those modules by one extensions.pair_tables call over the
pairs with a new module, whose systems are scattered in one step and
ranked in one stack per width, and builds cocycles only for the new
pairs with Ext^1 != 0; the last growth gives the atlas's tables.  Work
is keyed by content, the dimension vector and matrix bytes: a module
whose content was decomposed is not decomposed again, a piece whose
content several decompositions meet is split once, and a summand whose
content was placed is not located again.  Then the pass asks for
an Auslander-Reiten certificate (_certify_complete): the known modules
are closed under tau = cosyzygy and under the almost split sequences,
and their AR quiver is connected, so by Auslander's theorem they are
all the indecomposables.  The pass hands the certificate what it
computed (PassFacts): each visited module's cosyzygy, the Ext space of
each visited pair and the summands of each decomposed module, so the
certificate computes afresh only for the modules the pass added.  The
closure stops at the first pass that certifies, and a pass that adds
nothing without certifying is an error.  Expected counts are asserted
by callers, not used for termination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import EnumerationError, FormatError, IntegrityError, InputError
from .linalg import PrimeField
from .extensions import ExtSpace, build_extension, ext1_cocycle, pair_tables, pullback_matrix
from .modules import (
    Representation,
    _intertwiner_terms,
    arrow_pairs,
    cosyzygy,
    decompose,
    hom_basis,
    is_isomorphic,
    local_basis,
    projective_module,
    radical,
    scatter_plans,
    simple,
    socle_dims,
    syzygy,
    top_dims,
)
from .quivers import (
    RELATION_CONVENTION,
    DoubleQuiver,
    PreprojectiveBasis,
    connected,
    double,
    preset_quiver,
)

ATLAS_FORMAT_VERSION = 1


class Gamma(NamedTuple):
    """The Auslander algebra Γ = End(⊕ atlas modules), with Cartan matrix
    hom_table: hom_basis(j, k)[e] is basis element starts[j, k] + e, and
    consts[i, b], zero-padded to a square of the largest Hom dimension, is
    the action of b: j -> k on Hom(modules[i], -): its column e holds the
    coordinates of b o hom_basis(i, j)[e] over hom_basis(i, k)."""

    starts: np.ndarray
    consts: np.ndarray


@dataclass
class Atlas:
    qtype: str
    field: PrimeField
    dq: DoubleQuiver
    basis: PreprojectiveBasis
    modules: list
    hom_table: np.ndarray
    ext_table: np.ndarray
    aliases: dict = dc_field(default_factory=dict)  # id -> name
    # memos of hom_basis and gamma, kept in memory only: never saved,
    # compared or passed on by dataclasses.replace
    _homs: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    _gamma: Gamma | None = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.modules)

    def alias_of(self, mid: int) -> str | None:
        return self.aliases.get(mid)

    def id_by_alias(self, name: str) -> int:
        for mid, alias in self.aliases.items():
            if alias == name:
                return mid
        raise InputError(f"no module with alias {name!r}")

    @property
    def projective_ids(self) -> tuple[int, ...]:
        return tuple(self.id_by_alias(f"P{v}") for v in self.dq.vertices)

    # -- the category of the atlas modules --------------------------------
    #
    # Every End(T) is a corner of the Auslander algebra Γ of the atlas
    # modules, so the End(T) layer reads its bases and structure constants
    # from the hom_basis memo and from gamma.

    def hom_basis(self, i: int, j: int) -> list:
        """The chosen basis of Hom(modules[i], modules[j]), tuples of vertex
        maps: modules.hom_basis for i != j, and for i == j
        modules.local_basis, the identity first and every other element
        nilpotent."""
        got = self._homs.get((i, j))
        if got is not None:
            return got
        src, tgt = self.modules[i], self.modules[j]
        found = local_basis(src) if i == j else hom_basis(src, tgt)
        self._homs[(i, j)] = found
        return found

    def gamma(self) -> Gamma:
        """Γ, built on first use from the hom_basis of every ordered pair, the
        vertex maps zero-padded to one square so that all products g o f are
        one einsum.  Those of each pair (i, k), over every middle module j,
        are one solve against hom_basis(i, k) on rows where it is independent,
        checked on all rows: IntegrityError if a composite leaves Hom(i, k).
        The Hom systems of all pairs of dimension vectors are planned in one
        scatter_plans call first."""
        if self._gamma is not None:
            return self._gamma
        fld, n, nv = self.field, self.size, self.dq.nv
        vectors = sorted({m.dims for m in self.modules})
        scatter_plans([(_intertwiner_terms, arrow_pairs(self.dq), x, y) for x in vectors for y in vectors])
        sizes = self.hom_table.ravel()
        firsts = np.cumsum(sizes) - sizes
        block = np.repeat(np.arange(n * n), sizes)  # j * n + k for an element of Hom(j, k)
        src, tgt = np.divmod(block, n)
        dims = np.array([m.dims for m in self.modules], dtype=np.int64)
        maps = np.zeros((len(block), nv, dims.max(), dims.max()), dtype=np.int64)
        for j, k in np.ndindex(n, n):
            for b, mats in enumerate(self.hom_basis(j, k), start=firsts[j * n + k]):
                for v, mat in enumerate(mats):
                    maps[b, v, : dims[k, v], : dims[j, v]] = mat
        # every composable g: j -> k after f: i -> j, grouped by the block (i, k) of g o f
        pairs = [(np.flatnonzero(src == j), np.flatnonzero(tgt == j)) for j in range(n)]
        g = np.concatenate([np.repeat(gs, len(fs)) for gs, fs in pairs])
        f = np.concatenate([np.tile(fs, len(gs)) for gs, fs in pairs])
        order = np.argsort(src[f] * n + tgt[g], kind="stable")
        g, f = g[order], f[order]
        ik = src[f] * n + tgt[g]
        prods = np.einsum("pvab,pvbc->pvac", maps[g], maps[f]).reshape(len(g), -1) % fld.p
        consts = np.zeros((n, len(block), sizes.max(), sizes.max()), dtype=np.int64)
        cuts = np.flatnonzero(np.diff(ik)) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(g)]):
            (i, k), first, size = divmod(int(ik[lo]), n), firsts[ik[lo]], sizes[ik[lo]]
            basis, rhs = maps[first : first + size].reshape(-1, prods.shape[1]).T, prods[lo:hi].T
            rows = fld.rref(basis.T)[1]
            sol = fld.solve(basis[rows], rhs[rows])
            if np.any((fld.mul(basis, sol) - rhs) % fld.p):
                raise IntegrityError(f"a composite {i} -> {k} leaves Hom({i}, {k})")
            consts[i, g[lo:hi], :size, f[lo:hi] - firsts[block[f[lo:hi]]]] = sol.T
        self._gamma = Gamma(firsts.reshape(n, n), consts)
        return self._gamma

    # -- persistence ----------------------------------------------------

    def to_payload(self) -> dict:
        mods = []
        for mid, m in enumerate(self.modules):
            entry = {
                "id": mid,
                "dim_vector": list(m.dims),
                "matrices": {
                    a.name: [int(v) for v in m.mats[k].reshape(-1)]
                    for k, a in enumerate(self.dq.arrows)
                },
            }
            if mid in self.aliases:
                entry["alias"] = self.aliases[mid]
            mods.append(entry)
        return {
            "format_version": ATLAS_FORMAT_VERSION,
            "quiver_type": self.qtype,
            "field_char": self.field.p,
            "relation_convention": RELATION_CONVENTION,
            "modules": mods,
            "hom_table": [[int(v) for v in row] for row in self.hom_table],
            "ext_table": [[int(v) for v in row] for row in self.ext_table],
        }

    def save(self, path):
        # json.dumps runs the C encoder, json.dump the pure-Python one
        text = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path, field: PrimeField) -> "Atlas":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"not an atlas file: {exc}") from exc
        if not isinstance(payload, dict) or "format_version" not in payload:
            raise FormatError("missing format_version")
        if payload["format_version"] != ATLAS_FORMAT_VERSION:
            raise FormatError(f"unsupported format_version {payload['format_version']}")
        if payload.get("relation_convention") != RELATION_CONVENTION:
            raise FormatError("relation convention mismatch")
        if payload.get("field_char") != field.p:
            raise FormatError(
                f"atlas stored at p={payload.get('field_char')}, engine configured p={field.p}"
            )
        qtype = payload.get("quiver_type")
        modules = []
        aliases = {}
        try:
            dq = double(preset_quiver(qtype))
            for mid, entry in enumerate(payload["modules"]):
                # aliases and the tables are keyed by position
                if entry["id"] != mid:
                    raise FormatError(f"module at position {mid} has id {entry['id']!r}")
                dims = tuple(entry["dim_vector"])
                mats = []
                for k, a in enumerate(dq.arrows):
                    flat = entry["matrices"][a.name]
                    rows, cols = dims[a.target - 1], dims[a.source - 1]
                    mats.append(np.array(flat, dtype=np.int64).reshape(rows, cols))
                modules.append(Representation(dq, field, dims, mats))
                if "alias" in entry:
                    aliases[mid] = entry["alias"]
            hom_table = np.array(payload["hom_table"], dtype=np.int64)
            ext_table = np.array(payload["ext_table"], dtype=np.int64)
        except (KeyError, IndexError, TypeError, ValueError, InputError) as exc:
            raise FormatError(f"malformed atlas file: {type(exc).__name__}: {exc}") from exc
        n = len(modules)
        if hom_table.shape != (n, n) or ext_table.shape != (n, n):
            raise FormatError("table shapes do not match module count")
        return cls(
            qtype=qtype,
            field=field,
            dq=dq,
            basis=PreprojectiveBasis(dq, field),
            modules=modules,
            hom_table=hom_table,
            ext_table=ext_table,
            aliases=aliases,
        )


# -- enumeration ----------------------------------------------------------


def _iso_key(m: Representation) -> tuple:
    """Isomorphism invariants: dimension vector, dim End and the rank of each
    arrow matrix, each computed once per module.  The closure seeks
    isomorphisms only within one key."""
    return (m.dims, m.end_dim, m.arrow_ranks)


def _locate(mods: list, quick: dict, c: Representation) -> int | None:
    """Id of the module of mods isomorphic to c, or None.  quick maps each
    _iso_key to the ids carrying it; only those are compared, and the
    modules of mods are indecomposable, so is_isomorphic decides."""
    for mid in quick.get(_iso_key(c), ()):
        if is_isomorphic(mods[mid], c):
            return mid
    return None


def _ar_socle(space: ExtSpace) -> np.ndarray:
    """A basis (columns) of the socle of Ext^1(M, N) over End(M), M = space.x:
    the classes killed by pulling back along every map in rad End(M), the
    span of local_basis(M) after the identity."""
    return space.x.field.kernel_basis(pullback_matrix(space, local_basis(space.x)[1:]))


@dataclass
class PassFacts:
    """What the closure's passes computed, handed to _certify_complete.

    summands maps the content of each module a pass decomposed to its
    summands, as (id in mods, multiplicity) pairs, with id None for a
    summand the closure did not place; pieces is the memo of decompose,
    the indecomposable pieces of every content split so far; tau maps
    the id of each module a unary step visited to the cosyzygy it
    computed; spaces maps each visited pair (i, j) with Ext^1 != 0 to the
    ExtSpace of (mods[i], mods[j]); a pair missing from it had Ext^1 = 0
    or was not visited."""

    summands: dict = dc_field(default_factory=dict)
    pieces: dict = dc_field(default_factory=dict)
    tau: dict = dc_field(default_factory=dict)
    spaces: dict = dc_field(default_factory=dict)


def _certify_complete(mods: list, basis: PreprojectiveBasis, facts: PassFacts | None = None) -> str | None:
    """Auslander-Reiten certificate that mods lists every indecomposable.

    mods holds pairwise non-isomorphic indecomposables.  The stable category
    is 2-Calabi-Yau, so tau = cosyzygy, which is zero exactly on the
    projectives.  For a non-projective M, tau M must be in mods, and the
    almost split sequence 0 -> tau M -> E -> M -> 0 spans the socle of
    Ext^1(M, tau M) over End(M): the classes killed by pulling back along
    rad End(M), which must be 1-dimensional.  The summands of E, and of
    rad P for a projective P, are the arrows into each module of the AR
    quiver, and must be in mods too.  tau must permute the non-projectives,
    which gives the arrows out of each module, and the quiver must be
    connected.  Then mods is a finite component of the AR quiver, hence all
    of it (Auslander).  Returns None when that holds, else the failing part.

    tau M is taken from the list: the Ext space is that of (M, mods[tau
    id]), isomorphic to Ext^1(M, tau M), so the socle's dimension and E up
    to isomorphism, hence the verdict, are those of tau M itself, and the
    passes have built most of these spaces already.  With facts (PassFacts)
    the certificate reuses the passes' cosyzygies, Ext spaces and the
    summands of every module whose content they decomposed, and shares
    their decompose memo; it computes only the rest, in practice for the
    modules the last pass added.
    Without facts it computes everything.
    """
    facts = facts or PassFacts()
    quick: dict[tuple, list[int]] = {}
    for mid, m in enumerate(mods):
        quick.setdefault(_iso_key(m), []).append(mid)

    def located(rep) -> int | None:
        """Id of the module of mods isomorphic to the indecomposable rep, or None."""
        got = facts.summands.get(rep.content)
        if got is None:
            return _locate(mods, quick, rep)
        return got[0][0] if len(got) == 1 and got[0][1] == 1 else None

    def summands(rep) -> list:
        """(id in mods or None, multiplicity) per summand of rep."""
        got = facts.summands.get(rep.content)
        if got is None:
            got = [(located(piece), mult) for piece, mult in decompose(rep, facts.pieces)]
        return got

    tau: dict[int, int] = {}
    links = []  # AR quiver arrows, undirected
    for mid, m in enumerate(mods):
        tau_m = facts.tau[mid] if mid in facts.tau else cosyzygy(m, basis)
        if tau_m.total_dim:
            tid = located(tau_m)
            if tid is None:
                return f"tau of module {mid} is missing"
            tau[mid] = tid
            space = facts.spaces.get((mid, tid)) or ext1_cocycle(m, mods[tid])
            socle = _ar_socle(space)
            if socle.shape[1] != 1:
                return f"socle of Ext^1(M, tau M) has dimension {socle.shape[1]} at module {mid}"
            middle = build_extension(space, socle[:, 0])
        else:
            middle = radical(m)
        for pid, _ in summands(middle):
            if pid is None:
                return f"a predecessor of module {mid} is missing"
            links.append((mid, pid))
    if sorted(tau.values()) != sorted(tau):
        return "tau does not permute the non-projective modules"
    if not connected(len(mods), links):
        return "the AR quiver is not connected"
    return None


def enumerate_indecomposables(qtype: str, field: PrimeField) -> Atlas:
    """Run the closure of the module docstring, with its Hom and Ext tables.

    Each pass extends the tables to the modules known at its start, by
    one pair_tables call over old x new and new x all, so every ordered
    pair is ranked once.  Then, in row-major order, it builds the
    cocycles of each pair not visited before whose ranked Ext^1 is nonzero
    (IntegrityError if the basis and the rank differ in length), absorbs
    the middle term of each basis class, and ends with _certify_complete,
    to which it hands its PassFacts.  Work is keyed by content: a module
    whose content was decomposed before is not decomposed again, and a
    piece whose content was placed before is not located again.  The
    closure stops at the first pass that certifies; a pass that adds
    nothing and does not certify raises EnumerationError.  A last growth
    takes in the modules the certifying pass added."""
    dq = double(preset_quiver(qtype))
    basis = PreprojectiveBasis(dq, field)
    cap = 4 * dq.nv

    mods: list[Representation] = []
    quick: dict[tuple, list[int]] = {}  # _iso_key -> ids
    facts = PassFacts()
    known = facts.summands

    def place(c: Representation) -> int | None:
        """Id of c in mods, adding c unless an isomorphic module is known;
        None if c exceeds the cap."""
        key = c.content
        if key not in known:
            mid = None
            if c.total_dim <= cap:
                mid = _locate(mods, quick, c)
                if mid is None:
                    mid = len(mods)
                    quick.setdefault(_iso_key(c), []).append(mid)
                    mods.append(c)
            known[key] = [(mid, 1)]
        return known[key][0][0]

    def absorb(rep: Representation) -> None:
        """Decompose rep, unless a module of its content was, and place
        each summand."""
        key = rep.content
        if key not in known:
            known[key] = [(place(piece), mult) for piece, mult in decompose(rep, facts.pieces)]

    for v in dq.vertices:
        place(simple(dq, field, v))
    for v in dq.vertices:
        place(projective_module(basis, v))

    homs = exts = np.zeros((0, 0), dtype=np.int64)

    def grow(n: int) -> None:
        """Extend homs and exts to mods[:n] by one pair_tables call over
        the pairs with a new module: each ordered pair is ranked once."""
        nonlocal homs, exts
        k = len(homs)
        grown = pair_tables(mods[:n], mods[:n], k)
        for new, old in zip(grown, (homs, exts)):
            new[:k, :k] = old
        homs, exts = grown

    while True:
        n0 = len(mods)
        grow(n0)
        for idx in range(n0):
            if idx in facts.tau:  # unary step done
                continue
            m = mods[idx]
            facts.tau[idx] = cosyzygy(m, basis)
            # no top: it is semisimple, and every simple is placed first
            for rep in (radical(m), syzygy(m, basis), facts.tau[idx]):
                if rep.total_dim:
                    absorb(rep)
        for i, j in np.argwhere(exts).tolist():  # row-major, Ext^1 != 0 only
            if (i, j) in facts.spaces:  # visited by an earlier pass
                continue
            space = ext1_cocycle(mods[i], mods[j])
            if space.dim != exts[i, j]:
                raise IntegrityError(f"Ext^1 of closure modules {i}, {j}: cocycles and ranks disagree")
            for coeffs in np.eye(space.dim, dtype=np.int64):
                absorb(build_extension(space, coeffs))
            facts.spaces[i, j] = space
        failure = _certify_complete(mods, basis, facts)
        if failure is None:
            break
        if len(mods) == n0:
            raise EnumerationError(f"closure stopped without a completeness certificate: {failure}")
    n = len(mods)
    grow(n)  # the modules the certifying pass added, if any

    # canonical order: (total dim, dim vector, Hom row read in the order by
    # (total dim, dim vector, closure id)), ties kept in that order
    first = sorted(range(n), key=lambda i: (mods[i].total_dim, mods[i].dims, i))
    order = sorted(first, key=lambda i: (mods[i].total_dim, mods[i].dims, tuple(homs[i, first])))
    modules = [mods[i] for i in order]
    hom_table, ext_table = (table[np.ix_(order, order)] for table in (homs, exts))
    atlas = Atlas(
        qtype=qtype,
        field=field,
        dq=dq,
        basis=basis,
        modules=modules,
        hom_table=hom_table,
        ext_table=ext_table,
    )
    atlas.aliases = assign_aliases(atlas)
    return atlas


# -- alias assignment ------------------------------------------------------


def assign_aliases(atlas: Atlas) -> dict[int, str]:
    """Structural names: simples, projectives, and the Loewy-layer names of
    the remaining A3 modules plus the four distinguished A4 modules."""
    dq = atlas.dq
    out: dict[int, str] = {}
    used: set[str] = set()

    def put(mid, name):
        if name in used:
            raise IntegrityError(f"alias {name} assigned twice")
        out[mid] = name
        used.add(name)

    projs = {
        v: projective_module(atlas.basis, v) for v in dq.vertices
    }
    for mid, m in enumerate(atlas.modules):
        simple_at = [v for v in dq.vertices if m.dims == tuple(int(w == v) for w in dq.vertices)]
        if simple_at:
            put(mid, f"S{simple_at[0]}")
            continue
        pv = [
            v for v in dq.vertices
            if m.dims == projs[v].dims and is_isomorphic(m, projs[v])
        ]
        if pv:
            put(mid, f"P{pv[0]}")
            continue
    named = _LAYER_NAMES.get(atlas.qtype, {})
    for mid, m in enumerate(atlas.modules):
        if mid in out:
            continue
        sig = (m.dims, top_dims(m), socle_dims(m))
        if sig in named:
            put(mid, named[sig])
    return out


# (dim vector, top dims, socle dims) -> Loewy-layer name
_LAYER_NAMES = {
    "A3": {
        ((1, 1, 0), (1, 0, 0), (0, 1, 0)): "1over2",
        ((1, 1, 0), (0, 1, 0), (1, 0, 0)): "2over1",
        ((0, 1, 1), (0, 1, 0), (0, 0, 1)): "2over3",
        ((0, 1, 1), (0, 0, 1), (0, 1, 0)): "3over2",
        ((1, 1, 1), (1, 0, 1), (0, 1, 0)): "13over2",
        ((1, 1, 1), (0, 1, 0), (1, 0, 1)): "2over13",
    },
    "A4": {
        ((0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0)): "4over3",
        ((1, 2, 1, 0), (0, 1, 0, 0), (0, 1, 0, 0)): "2over13over2",
        ((0, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 0)): "24over3",
    },
}


def compare_atlases(a: Atlas, b: Atlas) -> list[str]:
    """Field-independent data that must agree between two builds of the same
    type (used for the two-prime cross-check).  Returns mismatch messages."""
    issues = []
    if a.size != b.size:
        issues.append(f"module counts differ: {a.size} vs {b.size}")
        return issues
    for mid in range(a.size):
        if a.modules[mid].dims != b.modules[mid].dims:
            issues.append(f"dim vector of module {mid} differs")
    if not np.array_equal(a.hom_table, b.hom_table):
        issues.append("hom tables differ")
    if not np.array_equal(a.ext_table, b.ext_table):
        issues.append("ext tables differ")
    if a.aliases != b.aliases:
        issues.append("alias tables differ")
    return issues
