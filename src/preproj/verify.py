"""Machine-verification suites: each checks one verified statement across
the whole atlas and reports its check count and its first failures.

Suite names follow the CLI contract: lemma21 (Ext dimension formula and
symmetry), extbounds (Ext dimension caps), lemma37 (existence of an
orientation staying exact under Hom(-, T)), lemma22 (relative-Ext match
over End(T)), theorem1 (mutation/tilting graph correspondence), connected
(graph shape and connectivity), remark-a4 (the fixed counterexample).
lemma37, lemma22 and theorem1 quantify over the basic maximal rigid T;
the CLI runs them on every T in one pass of run_t_suites.  lemma37 and
lemma22 read the dimension of the classes exact under Hom(-, T) of every
pair at once from one table per T, endo.relative_ext, which takes it
from Hom dimensions through the add-T approximation sequence.
"""

from __future__ import annotations

import numpy as np

from .atlas import Atlas, compare_atlases
from .endo import ExtCalculatorB, coresolution_check, relative_ext, verify_graph_correspondence
from .errors import InputError
from .extensions import build_extension, ext1_cocycle, is_hom_exact
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


T_SUITES = ("lemma37", "lemma22", "theorem1")


def run_t_suites(names, atlas: Atlas, rigids, graph: MutationGraph | None, t_indices) -> dict:
    """Reports of the named suites of T_SUITES, keyed by name, from one pass
    with T on the outside.  lemma37 and lemma22 compare arrays of one
    relative_ext table per T; each T builds End(T) at most once, when
    lemma22 or theorem1 is named, and drops it before the next T.  No
    state passes from one T to the next.  theorem1 needs graph."""
    t_indices = list(t_indices)
    ext = atlas.ext_table
    pairs = np.argwhere(np.triu(ext != 0, 1))  # x < y, row-major
    xs, ys = pairs.T
    # each vertex's first neighbour in graph.edges, the T' of its coresolution check
    neighbour: dict[int, int] = {}
    for i, j in graph.edges if "theorem1" in names else ():
        neighbour.setdefault(i, j)
        neighbour.setdefault(j, i)
    failures = {name: [] for name in T_SUITES}
    reports = []
    for ti in t_indices:
        t = rigids[ti]
        if "lemma37" in names or "lemma22" in names:
            rel = relative_ext(atlas, t)
        if "lemma37" in names:
            for x, y in pairs[(rel[xs, ys] == 0) & (rel[ys, xs] == 0)].tolist():
                failures["lemma37"].append({"pair": [x, y], "t_index": ti, "verdict": "NONE"})
        if "lemma22" not in names and "theorem1" not in names:
            continue
        calc = ExtCalculatorB.for_rigid(atlas, t)
        if "lemma22" in names:
            # Ext^1_B(FX, FY) against the classes of 0 -> x -> E -> y -> 0
            # staying exact under Hom(-, T), rel[y, x]
            for x, y in np.argwhere(calc.ext != rel.T).tolist():
                lhs, rhs = int(calc.ext[x, y]), int(rel[y, x])
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
