"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Expected values are exact; timing bounds are asserted from the
recorded wall time of the authoritative construction runs."""

import hashlib
import json
import time
from contextlib import contextmanager
from math import comb

from preproj.cli import main as cli_main
from preproj.rigidgraph import A3_RIGID_LABELS, export_graph, is_connected
from preproj.verify import (
    suite_extbounds,
    suite_lemma21,
    suite_lemma22,
    suite_lemma37,
    suite_remark_a4,
    suite_theorem1,
)
from tests.conftest import BUILD_SECONDS, CLIQUE_SECONDS, shared_atlas, shared_rigids

from tests.test_rigidgraph import A3_EDGES, label_summands

# A4 vertices the A4 suites check here; `preproj verify --type A4` checks all
# 672.  At 245 and 621 some 2-dim Ext spaces have a single line of exact
# classes out of p + 1, which a sample of classes misses.
A4_NAMED = [215, 245, 287, 305, 621]


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {text}")
        raise
    print(f"criterion {num}: PASS - {text}")


def test_criterion_01_atlas_counts():
    with criterion(1, "atlas counts 4/12/40 within time bounds"):
        assert shared_atlas("A2").size == 4
        assert shared_atlas("A3").size == 12
        assert shared_atlas("A4").size == 40
        assert shared_atlas("A4").size == 36 + 4
        assert BUILD_SECONDS[("A3", 32003)] < 5.0
        assert BUILD_SECONDS[("A4", 32003)] < 120.0


def test_criterion_02_ext_formula_both_primes():
    with criterion(2, "Ext dimension formula, symmetry, two primes, all types"):
        for qtype in ("A2", "A3", "A4"):
            report = suite_lemma21(shared_atlas(qtype), shared_atlas(qtype, 101))
            assert report["passed"], report["failures"]
            assert report["checks"] >= 2 * shared_atlas(qtype).size ** 2


def test_criterion_03_ext_bounds():
    with criterion(3, "max Ext dimension is 1 on A3 and 2 on A4"):
        r3 = suite_extbounds(shared_atlas("A3"))
        r4 = suite_extbounds(shared_atlas("A4"))
        assert r3["passed"] and r3["details"]["max_ext"] == 1
        assert r4["passed"] and r4["details"]["max_ext"] == 2


def test_criterion_04_maximal_rigid_counts():
    with criterion(4, "maximal rigid counts 2/14/672, cliques within time bound"):
        assert len(shared_rigids("A2")[0]) == 2
        assert len(shared_rigids("A3")[0]) == 14
        assert len(shared_rigids("A4")[0]) == 672
        assert 672 == (3 * 6 - 2) * comb(10, 5) // 6  # type D6 cluster count
        assert CLIQUE_SECONDS[("A4", 32003)] < 300.0


def test_criterion_05_mutation_graphs():
    with criterion(5, "graph shapes and the A3 adjacency dictionary"):
        atlas = shared_atlas("A3")
        rigids, graph = shared_rigids("A3")
        assert graph.size == 14 and len(graph.edges) == 21
        assert graph.is_regular(3) and is_connected(graph)
        index_of = {frozenset(t.summands): i for i, t in enumerate(rigids)}
        vmap = {lab: index_of[label_summands(atlas, lab)] for lab in A3_RIGID_LABELS}
        assert len(vmap) == 14
        expected = {tuple(sorted((vmap[a], vmap[b]))) for a, b in A3_EDGES}
        assert expected == {tuple(e) for e in graph.edges}
        _, graph4 = shared_rigids("A4")
        assert graph4.size == 672 and len(graph4.edges) == 2016
        assert graph4.is_regular(6) and is_connected(graph4)


def test_criterion_06_graph_correspondence():
    with criterion(6, "mutation-to-tilting graph correspondence for all T"):
        t0 = time.perf_counter()
        atlas, (rigids, graph) = shared_atlas("A3"), shared_rigids("A3")
        rep = suite_theorem1(atlas, rigids, graph, range(14))
        a3_elapsed = time.perf_counter() - t0
        assert rep["passed"], rep["failures"]
        assert all(
            r["bijection"] and r["edges_preserved"] for r in rep["details"]["reports"]
        )
        assert a3_elapsed < 180.0

        atlas2, (rigids2, graph2) = shared_atlas("A2"), shared_rigids("A2")
        rep2 = suite_theorem1(atlas2, rigids2, graph2, range(2))
        assert rep2["passed"], rep2["failures"]

        atlas4, (rigids4, graph4) = shared_atlas("A4"), shared_rigids("A4")
        rep4 = suite_theorem1(atlas4, rigids4, graph4, A4_NAMED)
        assert rep4["passed"], rep4["failures"]


def test_criterion_07_exact_direction_exists():
    with criterion(7, "every extension pair admits an orientation exact under Hom(-, T)"):
        atlas, (rigids, _) = shared_atlas("A3"), shared_rigids("A3")
        rep = suite_lemma37(atlas, rigids, range(14))
        assert rep["passed"], rep["failures"]
        assert rep["details"]["ext_pairs"] > 0

        atlas4, (rigids4, _) = shared_atlas("A4"), shared_rigids("A4")
        rep4 = suite_lemma37(atlas4, rigids4, A4_NAMED)
        assert rep4["passed"], rep4["failures"]


def test_criterion_08_a4_counterexample_data():
    with criterion(8, "the fixed A4 counterexample has the stated invariants"):
        rep = suite_remark_a4(shared_atlas("A4"))
        assert rep["passed"], rep["failures"]


def test_criterion_09_relative_ext_match():
    with criterion(9, "Ext over End(T) equals the count of exact classes, all pairs, all 14 T"):
        atlas, (rigids, _) = shared_atlas("A3"), shared_rigids("A3")
        rep = suite_lemma22(atlas, rigids, range(14))
        assert rep["passed"], rep["failures"]
        assert rep["checks"] == 14 * 12 * 12


def test_exact_classes_on_named_a4_vertices():
    atlas, (rigids, _) = shared_atlas("A4"), shared_rigids("A4")
    rep22 = suite_lemma22(atlas, rigids, A4_NAMED)
    assert rep22["passed"], rep22["failures"]
    assert rep22["checks"] == len(A4_NAMED) * 40 * 40
    rep37 = suite_lemma37(atlas, rigids, A4_NAMED)
    assert rep37["passed"], rep37["failures"]


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "two identical-config runs produce byte-identical files"):
        outputs = []
        for run in ("one", "two"):
            cache = tmp_path / run
            argv_sets = [
                ["atlas", "--type", "A3", "--cache-dir", str(cache)],
                ["graph", "--type", "A3", "--kind", "mutation", "--cache-dir", str(cache)],
                [
                    "verify", "--suite", "extbounds", "--type", "A3",
                    "--cache-dir", str(cache),
                    "--out", str(cache / "report.jsonl"),
                ],
            ]
            for argv in argv_sets:
                assert cli_main(argv) == 0
            capsys.readouterr()
            outputs.append(
                {
                    "atlas": (cache / "A3-p32003-v1" / "atlas.json").read_bytes(),
                    "graph": (
                        cache / "A3-p32003-v1" / "graphs" / "mutation.json"
                    ).read_bytes(),
                    "report": (cache / "report.jsonl").read_bytes(),
                }
            )
        assert outputs[0] == outputs[1]
        rec = json.loads(outputs[0]["report"].decode())
        assert rec["suite"] == "extbounds"


# sha256 of the files `preproj atlas` and `preproj graph --kind mutation` write
# (seed 0); a faster engine must leave every byte as it was
PINNED_DIGESTS = {
    ("A3", 32003, "atlas"): "6fcd5adc799e23b9e7dc0374a7e13711abffda5cd606f7d877a373664763156e",
    ("A3", 101, "atlas"): "f0223c7a8bfc2de064d9cd8502390bf7553df0aa25f9f4e3897be2b7169e8421",
    ("A4", 32003, "atlas"): "836dec36f38cf7df42d8b38d41dd2cdce12fc1a6462df648ab1295ca57021db3",
    ("A4", 101, "atlas"): "2e68a2f66774751892bf34b08ed694f97710f561dd66794db3f5ef272c65db37",
    ("A4", 32003, "mutation"): "e8d8f1b53faa1cdfadf5c4fab386b578079219a7a5db4891af4c00400d9e5d6c",
}


# sha256 of `preproj verify --suite all --type A3` (seed 0): its stdout and
# the file --out writes hold the same bytes
PINNED_VERIFY_A3 = "785a78e33a9063517fff4fd39a0d45d5c853e77fd90d35c13e94fe1a8da43029"


def test_pinned_output_digests(tmp_path, capsys):
    for (qtype, p, kind), want in PINNED_DIGESTS.items():
        atlas = shared_atlas(qtype, p)
        path = tmp_path / f"{qtype}-{p}-{kind}.json"
        if kind == "atlas":
            atlas.save(path)
        else:
            _, graph = shared_rigids(qtype, p)
            export_graph(graph, "json", path, qtype, atlas)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, (qtype, p, kind)
    report = tmp_path / "report.jsonl"
    argv = ["verify", "--suite", "all", "--type", "A3", "--cache-dir", str(tmp_path / "c")]
    assert cli_main(argv + ["--out", str(report)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == PINNED_VERIFY_A3
    assert hashlib.sha256(report.read_bytes()).hexdigest() == PINNED_VERIFY_A3
