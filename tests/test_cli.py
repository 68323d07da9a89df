import json
import os
import weakref

import pytest

import preproj.atlas as atlas_mod
from preproj.cli import main
from preproj.config import build_config, load_config_file
from preproj.endo import ExtCalculatorB
from preproj.errors import InputError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_atlas_command(tmp_path, capsys):
    code, out, _ = run(
        capsys, "atlas", "--type", "A3", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    assert "12 indecomposables" in out
    assert "graded algebra dims: [3, 4, 3]" in out
    assert (tmp_path / "c" / "A3-p32003-v1" / "atlas.json").exists()


def test_atlas_out_flag(tmp_path, capsys):
    target = tmp_path / "atlas-copy.json"
    code, _, _ = run(
        capsys,
        "atlas", "--type", "A2", "--cache-dir", str(tmp_path / "c"), "--out", str(target),
    )
    assert code == 0
    cached = tmp_path / "c" / "A2-p32003-v1" / "atlas.json"
    assert target.read_bytes() == cached.read_bytes()


def test_graph_command(tmp_path, capsys):
    cache = str(tmp_path / "c")
    code, out, _ = run(capsys, "graph", "--type", "A3", "--kind", "mutation", "--cache-dir", cache)
    assert code == 0
    assert "14 vertices, 21 edges, 3-regular, connected" in out
    path = tmp_path / "c" / "A3-p32003-v1" / "graphs" / "mutation.json"
    assert json.loads(path.read_text())["r"] == 6


def test_tilting_graph_command(tmp_path, capsys):
    cache = str(tmp_path / "c")
    code, out, _ = run(
        capsys,
        "graph", "--type", "A3", "--kind", "tilting", "--rigid", "R1", "--cache-dir", cache,
        "--format", "dot",
    )
    assert code == 0
    assert "14 vertices, 21 edges" in out
    dot = (tmp_path / "c" / "A3-p32003-v1" / "graphs" / "tilting-R1.dot").read_text()
    assert dot.count(" -- ") == 21


def test_unknown_rigid_id_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "graph", "--type", "A3", "--kind", "tilting", "--rigid", "R99",
        "--cache-dir", str(tmp_path / "c"),
    )
    assert code == 2
    assert "R99" in err


def test_missing_rigid_flag_exits_2(tmp_path, capsys):
    code, _, _ = run(
        capsys, "graph", "--type", "A2", "--kind", "tilting", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 2


def test_verify_command_passes(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys,
        "verify", "--suite", "connected", "--type", "A2",
        "--cache-dir", str(tmp_path / "c"), "--out", str(report),
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["suite"] == "connected" and rec["passed"]
    assert report.read_text().splitlines()[0] == out.splitlines()[0]


def test_verify_all_a2(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--type", "A2", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    suites = [json.loads(line)["suite"] for line in out.splitlines()]
    assert suites == ["lemma21", "extbounds", "lemma37", "lemma22", "theorem1", "connected"]


def test_verify_all_a3_equals_single_suite_runs(tmp_path, capsys):
    # one verify run shares its atlas, graph and End(T) calculators between
    # suites; that must not change a byte of any report
    cache = str(tmp_path / "c")
    code, together, _ = run(capsys, "verify", "--suite", "all", "--type", "A3", "--cache-dir", cache)
    assert code == 0
    single = []
    for suite in ("lemma21", "extbounds", "lemma37", "lemma22", "theorem1", "connected"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--type", "A3", "--cache-dir", cache)
        assert code == 0
        single.append(out)
    assert together == "".join(single)


def test_verify_builds_each_end_t_once_and_drops_it(tmp_path, capsys, monkeypatch):
    built = []
    most_alive = 0
    for_rigid = ExtCalculatorB.for_rigid.__func__

    def tracked(cls, *args, **kwargs):
        nonlocal most_alive
        calc = for_rigid(cls, *args, **kwargs)
        built.append(weakref.ref(calc))
        most_alive = max(most_alive, sum(ref() is not None for ref in built))
        return calc

    monkeypatch.setattr(ExtCalculatorB, "for_rigid", classmethod(tracked))
    cache = str(tmp_path / "c")
    code, _, _ = run(capsys, "verify", "--suite", "lemma37", "--type", "A3", "--cache-dir", cache)
    assert code == 0 and built == []
    code, _, _ = run(capsys, "verify", "--suite", "all", "--type", "A3", "--cache-dir", cache)
    assert code == 0
    assert len(built) == 14
    assert most_alive == 1


def test_corrupt_cache_exits_2(tmp_path, capsys):
    root = tmp_path / "c" / "A2-p32003-v1"
    root.mkdir(parents=True)
    (root / "atlas.json").write_text('{"format_version": 99}')
    code, _, err = run(capsys, "atlas", "--type", "A2", "--cache-dir", str(tmp_path / "c"))
    assert code == 2
    assert "format_version" in err


def _tampered_cache(tmp_path, capsys, edit, qtype="A2"):
    """Build the A2 atlas into a cache, edit its payload, write it back as
    the cached atlas of qtype, and run `atlas --type qtype` on that cache."""
    cache = tmp_path / "c"
    assert run(capsys, "atlas", "--type", "A2", "--cache-dir", str(cache))[0] == 0
    built = cache / "A2-p32003-v1" / "atlas.json"
    payload = json.loads(built.read_text())
    edit(payload)
    target = cache / f"{qtype}-p32003-v1" / "atlas.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(payload))
    return run(capsys, "atlas", "--type", qtype, "--cache-dir", str(cache))


@pytest.mark.parametrize(
    "edit",
    [
        lambda payload: payload["modules"][2].pop("matrices"),
        lambda payload: payload["modules"][2].update(dim_vector=[2, 1]),
        lambda payload: payload["modules"][0].update(dim_vector=[1]),
        lambda payload: payload.update(hom_table=[[1, 0], [0]]),
    ],
    ids=["no-matrices", "dims-mismatch", "short-dims", "ragged-table"],
)
def test_malformed_cache_exits_2(tmp_path, capsys, edit):
    # exit 1 means a verification failed; a cache file that is no atlas is
    # refused like a wrong format_version, without a traceback
    code, out, err = _tampered_cache(tmp_path, capsys, edit)
    assert code == 2
    assert out == ""
    assert "malformed atlas file" in err


def test_cache_of_another_type_exits_2(tmp_path, capsys):
    code, out, err = _tampered_cache(tmp_path, capsys, lambda payload: None, qtype="A3")
    assert code == 2
    assert out == ""
    assert "is of type A2, not A3" in err


def test_uncertified_closure_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(atlas_mod, "_certify_complete", lambda mods, basis, facts=None: "refused")
    for cmd in (["atlas"], ["graph", "--kind", "mutation"]):
        code, out, err = run(capsys, *cmd, "--type", "A2", "--cache-dir", str(tmp_path / "c"))
        assert code == 2
        assert "refused" in err
        assert out == ""
    assert not (tmp_path / "c" / "A2-p32003-v1" / "atlas.json").exists()


def test_bad_flags_exit_2(tmp_path, capsys):
    for argv in (
        ["verify", "--suite", "nonsense"],
        ["verify", "--suite", "all", "--a4-sample-count", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_seed_is_accepted_and_changes_no_byte(tmp_path, capsys):
    # no computation draws a random number; the flag stays for callers that
    # pass it, and is still validated
    paths = []
    for seed in ("0", "7"):
        cache = tmp_path / f"c{seed}"
        code, _, _ = run(capsys, "atlas", "--type", "A3", "--seed", seed, "--cache-dir", str(cache))
        assert code == 0
        paths.append(cache / "A3-p32003-v1" / "atlas.json")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    code, _, err = run(capsys, "atlas", "--type", "A2", "--seed", "-1", "--cache-dir", str(tmp_path / "c"))
    assert code == 2 and "seed must be non-negative" in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("seed = 3\ncache_dir = {}\n# comment\ncross_check_char = 103\n".format(tmp_path / "c"))
    values = load_config_file(cfg)
    assert values == {"seed": 3, "cache_dir": str(tmp_path / "c"), "cross_check_char": 103}
    code, out, _ = run(capsys, "atlas", "--type", "A2", "--config", str(cfg))
    assert code == 0
    assert (tmp_path / "c" / "A2-p32003-v1" / "atlas.json").exists()


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("no_such_key = 1\n", "exhaustive_ext_sampling = true\n", "a4_sample_count = 5\n"):
        cfg.write_text(line)
        with pytest.raises(InputError):
            load_config_file(cfg)


def test_cache_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PREPROJ_CACHE", str(tmp_path / "envcache"))
    cfg = build_config()
    assert cfg.cache_dir == str(tmp_path / "envcache")
    code, _, _ = run(capsys, "atlas", "--type", "A2")
    assert code == 0
    assert (tmp_path / "envcache" / "A2-p32003-v1" / "atlas.json").exists()


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("seed = 3\n")
    assert build_config(str(cfg), {"seed": 9}).seed == 9
    assert build_config(str(cfg), {"seed": None}).seed == 3


def test_field_char_beyond_int64_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "atlas", "--type", "A2", "--field-char", "2147483647",
        "--cache-dir", str(tmp_path / "c"),
    )
    assert code == 2
    assert "2147483647" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("qtype, p", [("A3", "3"), ("A4", "7")])
def test_field_char_below_the_smallest_usable_prime_exits_2(tmp_path, capsys, qtype, p):
    # the smallest primes that build are 3 on A2, 5 on A3 and 11 on A4
    code, _, err = run(
        capsys, "atlas", "--type", qtype, "--field-char", p, "--cache-dir", str(tmp_path / "c"),
    )
    assert code == 2
    assert "too small for trace-form radical" in err
    assert not (tmp_path / "c").exists()


def test_config_rejects_composite_modulus():
    with pytest.raises(InputError):
        build_config(None, {"field_char": 15})
    with pytest.raises(InputError):
        build_config(None, {"cross_check_char": 2})


def test_cross_check_at_the_main_prime_exits_2(tmp_path, capsys):
    # a second prime equal to the first would load the same cache file and
    # check it against itself
    with pytest.raises(InputError):
        build_config(None, {"field_char": 101})
    code, out, err = run(
        capsys, "verify", "--suite", "lemma21", "--type", "A3",
        "--cross-check-char", "32003", "--cache-dir", str(tmp_path / "c"),
    )
    assert code == 2 and out == ""
    assert "cross_check_char must differ from field_char" in err
    assert not (tmp_path / "c").exists()


def test_atlas_file_with_swapped_module_ids_exits_2(tmp_path, capsys):
    # aliases were keyed by id and modules by position: swapping two ids
    # once loaded silently with the two aliases exchanged
    cache = str(tmp_path / "c")
    assert run(capsys, "atlas", "--type", "A3", "--cache-dir", cache)[0] == 0
    path = tmp_path / "c" / "A3-p32003-v1" / "atlas.json"
    payload = json.loads(path.read_text())
    by_alias = {e["alias"]: e for e in payload["modules"] if "alias" in e}
    first, second = by_alias["1over2"], by_alias["2over1"]
    first["id"], second["id"] = second["id"], first["id"]
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    for argv in (["graph", "--kind", "mutation"], ["graph", "--kind", "tilting", "--rigid", "R1"]):
        code, _, err = run(capsys, *argv, "--type", "A3", "--cache-dir", cache)
        assert code == 2, argv
        assert f"module at position {second['id']} has id {first['id']}" in err, err
    assert not (tmp_path / "c" / "A3-p32003-v1" / "graphs").exists()


def test_second_invocation_reuses_cache(tmp_path, capsys):
    cache = str(tmp_path / "c")
    run(capsys, "atlas", "--type", "A2", "--cache-dir", cache)
    path = tmp_path / "c" / "A2-p32003-v1" / "atlas.json"
    first = path.read_bytes()
    stamp = path.stat().st_mtime_ns
    code, out, _ = run(capsys, "atlas", "--type", "A2", "--cache-dir", cache)
    assert code == 0 and "4 indecomposables" in out
    assert path.read_bytes() == first
    assert path.stat().st_mtime_ns == stamp  # loaded, not rebuilt


def test_stderr_says_whether_the_atlas_was_built_or_loaded(tmp_path, capsys):
    cache = str(tmp_path / "c")
    path = tmp_path / "c" / "A2-p32003-v1" / "atlas.json"
    code, first_out, first_err = run(capsys, "atlas", "--type", "A2", "--cache-dir", cache)
    assert code == 0
    assert first_err == f"built A2 atlas, saved to {path}\n"
    saved = path.read_bytes()
    code, second_out, second_err = run(capsys, "atlas", "--type", "A2", "--cache-dir", cache)
    assert code == 0
    assert second_err == f"loaded A2 atlas from {path}\n"
    assert second_out == first_out
    assert path.read_bytes() == saved
