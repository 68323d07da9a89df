"""Machine-verification suites: each checks one verified statement across
the whole atlas and reports counts plus the first counterexample found.

Suite names follow the CLI contract: lemma21 (Ext dimension formula and
symmetry), extbounds (Ext dimension caps), lemma37 (existence of an
orientation staying exact under Hom(-, T)), lemma22 (relative-Ext match
over End(T)), theorem1 (mutation/tilting graph correspondence), connected
(graph shape and connectivity), remark-a4 (the fixed counterexample).
"""

from __future__ import annotations

import numpy as np

from .atlas import Atlas, compare_atlases
from .config import Config
from .endo import ExtCalculatorB, coresolution_check, verify_graph_correspondence
from .errors import InputError
from .extensions import _scalar_classes, build_extension, ext1_cocycle, is_hom_exact
from .modules import hom_dim, is_isomorphic
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


def select_t_indices(qtype: str, rigids, cfg: Config) -> list[int]:
    """All vertices for A2/A3; a seeded sample for A4."""
    if qtype != "A4":
        return list(range(len(rigids)))
    count = min(cfg.a4_sample_count, len(rigids))
    rng = np.random.default_rng([cfg.seed, 0x7154])
    return sorted(int(i) for i in rng.choice(len(rigids), size=count, replace=False))


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


# -- lemma37 ----------------------------------------------------------------


class _MiddleRows:
    """Lazy cache of Hom-dimension rows of extension middle terms."""

    def __init__(self, atlas: Atlas, cfg: Config):
        self.atlas = atlas
        self.cfg = cfg
        self.spaces: dict[tuple[int, int], object] = {}
        self.rows: dict[tuple, tuple] = {}

    def space(self, xid: int, yid: int):
        got = self.spaces.get((xid, yid))
        if got is None:
            got = ext1_cocycle(self.atlas.modules[xid], self.atlas.modules[yid])
            self.spaces[(xid, yid)] = got
        return got

    def classes(self, xid: int, yid: int):
        space = self.space(xid, yid)
        return _scalar_classes(
            self.atlas.field,
            space.dim,
            self.cfg.exhaustive_ext_sampling,
            self.cfg.seed,
            64,
        )

    def row(self, xid: int, yid: int, coeffs) -> tuple:
        key = (xid, yid, tuple(int(c) for c in coeffs))
        got = self.rows.get(key)
        if got is None:
            seq = build_extension(self.space(xid, yid), coeffs)
            got = tuple(hom_dim(seq.mid, m) for m in self.atlas.modules)
            self.rows[key] = got
        return got

    def exact_for(self, xid: int, yid: int, coeffs, summands) -> bool:
        row = self.row(xid, yid, coeffs)
        hom = self.atlas.hom_table
        lhs = sum(row[j] for j in summands)
        rhs = sum(int(hom[xid, j]) + int(hom[yid, j]) for j in summands)
        return lhs == rhs

    def some_class_exact(self, xid: int, yid: int, summands) -> bool:
        if self.space(xid, yid).dim == 0:
            return False
        return any(
            self.exact_for(xid, yid, coeffs, summands)
            for coeffs in self.classes(xid, yid)
        )


def suite_lemma37(atlas: Atlas, rigids, t_indices, cfg: Config) -> dict:
    ext = atlas.ext_table
    pairs = [
        (x, y)
        for x in range(atlas.size)
        for y in range(x + 1, atlas.size)
        if ext[x, y] != 0
    ]
    cache = _MiddleRows(atlas, cfg)
    failures = []
    for ti in t_indices:
        summands = rigids[ti].summands
        for x, y in pairs:
            ok = cache.some_class_exact(x, y, summands) or cache.some_class_exact(
                y, x, summands
            )
            if not ok:
                failures.append({"pair": [x, y], "t_index": ti, "verdict": "NONE"})
    checks = len(pairs) * len(list(t_indices))
    return _report(
        "lemma37",
        atlas.qtype,
        checks,
        failures,
        {"ext_pairs": len(pairs), "t_count": len(list(t_indices))},
    )


# -- lemma22 ----------------------------------------------------------------


def suite_lemma22(atlas: Atlas, rigids, t_indices, cfg: Config, calcs: dict | None = None) -> dict:
    """Stores each T's ExtCalculatorB in calcs (T index -> calculator), if given."""
    cache = _MiddleRows(atlas, cfg)
    failures = []
    checks = 0

    def rel_ext_dim(yid, xid, summands):
        # classes of 0 -> X -> E -> Y -> 0 staying exact under Hom(-, T)
        d = int(atlas.ext_table[yid, xid])
        if d == 0:
            return 0
        hits = [
            coeffs
            for coeffs in cache.classes(yid, xid)
            if cache.exact_for(yid, xid, coeffs, summands)
        ]
        if d == 1:
            return 1 if hits else 0
        total = len(cache.classes(yid, xid))
        if not hits:
            return 0
        if len(hits) == total:
            return d
        return 1

    for ti in t_indices:
        t = rigids[ti]
        calc = (calcs or {}).get(ti) or ExtCalculatorB.for_rigid(atlas, t, cfg.seed)
        if calcs is not None:
            calcs[ti] = calc
        for x in range(atlas.size):
            for y in range(atlas.size):
                lhs = calc.ext1(x, y)
                rhs = rel_ext_dim(y, x, t.summands)
                checks += 1
                if lhs != rhs:
                    failures.append(
                        {"t_index": ti, "pair": [x, y], "ext_B": lhs, "relative": rhs}
                    )
    return _report(
        "lemma22", atlas.qtype, checks, failures, {"t_count": len(list(t_indices))}
    )


# -- theorem1 ---------------------------------------------------------------


def suite_theorem1(
    atlas: Atlas, rigids, graph: MutationGraph, t_indices, cfg: Config, calcs: dict | None = None
) -> dict:
    """Takes and removes each T's ExtCalculatorB from calcs, as suite_lemma22
    leaves it; T indices without an entry get a fresh one."""
    failures = []
    reports = []
    neighbors = {i: [] for i in range(len(rigids))}
    for i, j in graph.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)

    for ti in t_indices:
        calc = calcs.pop(ti, None) if calcs else None
        rep = verify_graph_correspondence(atlas, rigids, graph, ti, seed=cfg.seed, calc=calc)
        nb = neighbors[ti][0]
        rep["coresolution"] = coresolution_check(atlas, rigids[ti], rigids[nb], seed=cfg.seed)
        reports.append(rep)
        if not (rep["bijection"] and rep["edges_preserved"] and rep["coresolution"]["ok"]):
            failures.append(rep)
    return _report(
        "theorem1",
        atlas.qtype,
        len(reports),
        failures,
        {"t_indices": list(t_indices), "reports": reports},
    )


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
    seq = build_extension(space, (1,) * space.dim)
    mid_is_p2 = is_isomorphic(seq.mid, atlas.modules[p2], tries=0)
    if not mid_is_p2:
        failures.append({"middle_term_is_P2": False})
    exact_under_v = is_hom_exact(seq, atlas.modules[vid])
    if exact_under_v:
        failures.append({"sequence_hom_exact_under_V": True, "expected": False})
    return _report(
        "remark-a4",
        "A4",
        len(checks) + 2,
        failures,
        {"middle_dims": list(seq.mid.dims)},
    )
