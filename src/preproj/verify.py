"""Machine-verification suites: each checks one verified statement across
the whole atlas and reports its check count and its first failures.

Suite names follow the CLI contract: lemma21 (Ext dimension formula and
symmetry), extbounds (Ext dimension caps), lemma37 (existence of an
orientation staying exact under Hom(-, T)), lemma22 (relative-Ext match
over End(T)), theorem1 (mutation/tilting graph correspondence), connected
(graph shape and connectivity), remark-a4 (the fixed counterexample).
lemma37, lemma22 and theorem1 quantify over the basic maximal rigid T;
the CLI runs them on every T in one pass of run_t_suites.  lemma37 and
lemma22 decide exactness under Hom(-, T) for every class at once, as the
kernel of the stacked connecting matrices.
"""

from __future__ import annotations

import numpy as np

from .atlas import Atlas, compare_atlases
from .endo import ExtCalculatorB, coresolution_check, verify_graph_correspondence
from .errors import InputError
from .extensions import (
    build_extension,
    coboundary_echelon,
    connecting_matrix,
    ext1_cocycle,
    is_hom_exact,
)
from .modules import is_isomorphic
from .quivers import symmetric_form
from .rigidgraph import MutationGraph, is_connected

EXPECTED_GRAPHS = {"A2": (2, 1, 1), "A3": (14, 21, 3), "A4": (672, 2016, 6)}
EXPECTED_EXT_MAX = {"A2": 1, "A3": 1, "A4": 2}


def _report(suite, qtype, checks, failures, details=None):
    return {
        "suite": suite,
        "qtype": qtype,
        "passed": not failures,
        "checks": checks,
        "failures": failures[:8],
        "details": details or {},
    }


# -- lemma21: formula vs cocycle, symmetry, two-prime agreement ------------


def suite_lemma21(atlas_main: Atlas, atlas_cross: Atlas | None) -> dict:
    failures = []
    checks = 0
    for atl in filter(None, (atlas_main, atlas_cross)):
        hom = atl.hom_table
        ext = atl.ext_table
        for i in range(atl.size):
            for j in range(atl.size):
                form = (
                    int(hom[i, j])
                    + int(hom[j, i])
                    - symmetric_form(atl.dq, atl.modules[i].dims, atl.modules[j].dims)
                )
                checks += 1
                if form != int(ext[i, j]):
                    failures.append(
                        {"p": atl.field.p, "pair": [i, j], "cocycle": int(ext[i, j]), "formula": form}
                    )
                if ext[i, j] != ext[j, i]:
                    failures.append({"p": atl.field.p, "pair": [i, j], "asymmetric": True})
    details = {"pairs_per_prime": atlas_main.size ** 2}
    if atlas_cross is not None:
        issues = compare_atlases(atlas_main, atlas_cross)
        checks += 1
        details["primes"] = [atlas_main.field.p, atlas_cross.field.p]
        if issues:
            failures.append({"cross_prime": issues})
    return _report("lemma21", atlas_main.qtype, checks, failures, details)


# -- extbounds --------------------------------------------------------------


def suite_extbounds(atlas: Atlas) -> dict:
    expected = EXPECTED_EXT_MAX[atlas.qtype]
    got = int(atlas.ext_table.max())
    failures = []
    if got != expected:
        failures.append({"max_ext": got, "expected": expected})
    if int(atlas.ext_table.diagonal().max(initial=0)) != 0:
        failures.append({"self_extension_found": True})
    return _report(
        "extbounds", atlas.qtype, atlas.size ** 2, failures, {"max_ext": got}
    )


# -- lemma37, lemma22, theorem1: the suites over maximal rigid T -----------


class _ConnectingMatrices:
    """Connecting matrices of the atlas's extension spaces, one per
    (x, y, n), each built on first use over the atlas's basis
    atlas.hom_basis(y, n), computed once per run, as are the Ext spaces
    per (x, y) and the coboundary echelon forms per (x, n) they reduce
    against.  The classes of 0 -> y -> E -> x -> 0 that stay exact under
    Hom(-, T) are the kernel of their stack over the summands n of T."""

    def __init__(self, atlas: Atlas):
        self.atlas = atlas
        self.spaces: dict[tuple[int, int], object] = {}
        self.echelons: dict[tuple[int, int], tuple] = {}
        self.blocks: dict[tuple[int, int, int], np.ndarray] = {}
        self.dims: dict[tuple, int] = {}

    def block(self, x: int, y: int, n: int) -> np.ndarray:
        got = self.blocks.get((x, y, n))
        if got is None:
            mods = self.atlas.modules
            space = self.spaces.get((x, y))
            if space is None:
                space = self.spaces[(x, y)] = ext1_cocycle(mods[x], mods[y])
            echelon = self.echelons.get((x, n))
            if echelon is None:
                echelon = self.echelons[(x, n)] = coboundary_echelon(mods[x], mods[n])
            homs = self.atlas.hom_basis(y, n)
            got = self.blocks[(x, y, n)] = connecting_matrix(space, mods[n], homs, echelon)
        return got

    def exact_dim(self, x: int, y: int, adding: int) -> int:
        """Dimension of the classes exact under Hom(-, T), where adding is the
        bitmask of the summands of T that add a condition (condition_masks):
        memoised by (x, y, adding), on which alone it depends."""
        d = int(self.atlas.ext_table[x, y])
        if not (d and adding):
            return d
        key = (x, y, adding)  # the memo holds ~117,000 keys on A4
        got = self.dims.get(key)
        if got is None:
            blocks = [self.block(x, y, n) for n in range(self.atlas.size) if adding >> n & 1]
            got = self.dims[key] = d - self.atlas.field.rank(np.concatenate(blocks))
        return got

    def condition_masks(self, summands) -> np.ndarray:
        """masks[x, y] has bit n for each summand n of T with Ext^1(x, n) != 0
        and Hom(y, n) != 0 (at most 40 atlas modules, so int64 holds them)."""
        ids = np.arange(self.atlas.size)
        bits = np.where(np.isin(ids, summands), 1 << ids, 0)
        return ((self.atlas.ext_table != 0) @ bits)[:, None] & ((self.atlas.hom_table != 0) @ bits)


T_SUITES = ("lemma37", "lemma22", "theorem1")


def run_t_suites(names, atlas: Atlas, rigids, graph: MutationGraph | None, t_indices) -> dict:
    """Reports of the named suites of T_SUITES, keyed by name, from one pass
    with T on the outside.  Each T builds End(T) at most once, when lemma22
    or theorem1 is named, and drops it before the next T.  One set of
    connecting matrices serves the whole pass, as a block depends only on
    the pair and the summand.  theorem1 needs graph."""
    t_indices = list(t_indices)
    ext = atlas.ext_table
    pairs = [
        (x, y)
        for x in range(atlas.size)
        for y in range(x + 1, atlas.size)
        if ext[x, y] != 0
    ]
    extending = np.argwhere(ext).tolist()
    conn = _ConnectingMatrices(atlas)
    # each vertex's first neighbour in graph.edges, the T' of its coresolution check
    neighbour: dict[int, int] = {}
    for i, j in graph.edges if "theorem1" in names else ():
        neighbour.setdefault(i, j)
        neighbour.setdefault(j, i)
    failures = {name: [] for name in T_SUITES}
    reports = []
    for ti in t_indices:
        t = rigids[ti]
        masks = conn.condition_masks(t.summands).tolist()
        if "lemma37" in names:
            for x, y in pairs:
                if not (conn.exact_dim(x, y, masks[x][y]) or conn.exact_dim(y, x, masks[y][x])):
                    failures["lemma37"].append({"pair": [x, y], "t_index": ti, "verdict": "NONE"})
        if "lemma22" not in names and "theorem1" not in names:
            continue
        calc = ExtCalculatorB.for_rigid(atlas, t)
        if "lemma22" in names:
            # classes of 0 -> x -> E -> y -> 0 staying exact under Hom(-, T);
            # none unless Ext^1(y, x) != 0
            rel = np.zeros_like(ext)
            for y, x in extending:
                rel[x, y] = conn.exact_dim(y, x, masks[y][x])
            for x, y in np.argwhere(calc.ext != rel).tolist():
                lhs, rhs = int(calc.ext[x, y]), int(rel[x, y])
                failures["lemma22"].append({"t_index": ti, "pair": [x, y], "ext_B": lhs, "relative": rhs})
        if "theorem1" in names:
            rep = verify_graph_correspondence(atlas, rigids, graph, ti, calc)
            rep["coresolution"] = coresolution_check(atlas, t, rigids[neighbour[ti]])
            reports.append(rep)
            # a broken bijection or edge lists a mismatch, as does an unfaithful Hom(-, T)
            if rep["mismatches"] or not rep["coresolution"]["ok"]:
                failures["theorem1"].append(rep)
        del calc
    t_count = len(t_indices)
    counts = {
        "lemma37": (len(pairs) * t_count, {"ext_pairs": len(pairs), "t_count": t_count}),
        "lemma22": (atlas.size ** 2 * t_count, {"t_count": t_count}),
        "theorem1": (t_count, {"t_indices": t_indices, "reports": reports}),
    }
    return {
        name: _report(name, atlas.qtype, checks, failures[name], details)
        for name, (checks, details) in counts.items()
        if name in names
    }


def suite_lemma37(atlas: Atlas, rigids, t_indices) -> dict:
    """For every pair with Ext^1(x, y) != 0, some orientation of its
    extensions has a class exact under Hom(-, T)."""
    return run_t_suites(("lemma37",), atlas, rigids, None, t_indices)["lemma37"]


def suite_lemma22(atlas: Atlas, rigids, t_indices) -> dict:
    """dim Ext^1_B(Hom(x, T), Hom(y, T)) over B = End(T) equals the dimension
    of the classes of 0 -> x -> E -> y -> 0 exact under Hom(-, T)."""
    return run_t_suites(("lemma22",), atlas, rigids, None, t_indices)["lemma22"]


def suite_theorem1(atlas: Atlas, rigids, graph: MutationGraph, t_indices) -> dict:
    """verify_graph_correspondence at each T, and coresolution_check of T
    against its first neighbour in graph.edges.

    At each T the bijection onto the tilting sets is the equality of two
    compatibility matrices (rigidgraph.compatibility), of Ext^1 over End(T)
    and over the atlas, so a passing T enumerates no tilting set; with the
    exchange check on every edge it decides the graph isomorphism.  The
    coresolution check covers one edge per T, from T's end: over all 672 A4
    vertices, 665 of the 2,016 edges, 7 of them from both ends.  Theorem 1
    needs no more; the coresolution is a spot check of the proof's
    construction."""
    return run_t_suites(("theorem1",), atlas, rigids, graph, t_indices)["theorem1"]


# -- connected / graph shape -------------------------------------------------


def suite_connected(atlas: Atlas, rigids, graph: MutationGraph) -> dict:
    want_v, want_e, want_deg = EXPECTED_GRAPHS[atlas.qtype]
    failures = []
    if graph.size != want_v:
        failures.append({"vertices": graph.size, "expected": want_v})
    if len(graph.edges) != want_e:
        failures.append({"edges": len(graph.edges), "expected": want_e})
    if not graph.is_regular(graph.r - graph.n):
        failures.append({"not_regular": graph.r - graph.n})
    if graph.r - graph.n != want_deg:
        failures.append({"degree": graph.r - graph.n, "expected": want_deg})
    if not is_connected(graph):
        failures.append({"connected": False})
    return _report(
        "connected",
        atlas.qtype,
        5,
        failures,
        {"vertices": graph.size, "edges": len(graph.edges), "degree": graph.r - graph.n},
    )


# -- remark-a4 ---------------------------------------------------------------


def suite_remark_a4(atlas: Atlas) -> dict:
    if atlas.qtype != "A4":
        raise InputError("remark-a4 runs on type A4")
    failures = []
    xid = atlas.id_by_alias("4over3")
    yid = atlas.id_by_alias("2over13over2")
    zid = atlas.id_by_alias("S2")
    vid = atlas.id_by_alias("24over3")
    p2 = atlas.id_by_alias("P2")
    s4 = atlas.id_by_alias("S4")
    ext = atlas.ext_table
    hom = atlas.hom_table
    checks = [
        ("ext_Y_X", int(ext[yid, xid]), 1),
        ("ext_Z_X", int(ext[zid, xid]), 1),
        ("hom_Y_Z", int(hom[yid, zid]), 1),
        ("hom_P2_S4", int(hom[p2, s4]), 0),
    ]
    for name, got, want in checks:
        if got != want:
            failures.append({name: got, "expected": want})
    space = ext1_cocycle(atlas.modules[yid], atlas.modules[xid])
    coeffs = (1,) * space.dim
    mid = build_extension(space, coeffs)
    if not is_isomorphic(mid, atlas.modules[p2]):
        failures.append({"middle_term_is_P2": False})
    if is_hom_exact(space, coeffs, atlas.modules[vid]):
        failures.append({"sequence_hom_exact_under_V": True, "expected": False})
    return _report(
        "remark-a4",
        "A4",
        len(checks) + 2,
        failures,
        {"middle_dims": list(mid.dims)},
    )
