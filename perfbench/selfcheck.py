#!/usr/bin/env python3
"""Self-check of the benchmark harness on A2; finishes in seconds.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Runs `atlas`, `graph` and
`verify --suite all` on A2 through the same output checks as the
workloads, once as separate processes and once inside one traced process,
and checks that:

* every output check passes and both runs leave byte-identical cache
  files and reports;
* every binding of each traced name was wrapped (hom_dim alone has one in
  each of modules, extensions, atlas and verify; endo imports it inside
  a function, which reads the rebound one in modules);
* every traced function records calls, except the two that only the A4
  remark-a4 suite reaches;
* self times add up to the inclusive time of the CLI commands;
* a reference burst (perfbench/reference.py) computes the expected ranks;
* BENCHMARK.json declares the workloads and per-layer metrics reported.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import reference
import run as bench
import tracer

A2_FILES = {
    "A2-p32003-v1/atlas.json": "8480eb36f1fda13317796d4c72d6990c5b873f97115c921ef9d4775095b7b0c2",
    "A2-p101-v1/atlas.json": "ea113eab2be24bfe2462e9be0eda99e28ad425ea8e4e98b49b9711139fa331c9",
    "A2-p32003-v1/graphs/mutation.json":
        "53164f61061884b022009e6c67114e703d6b389abc350ed1e758c92316f30d6c",
}
A2_CHECKS = (("lemma21", 33), ("extbounds", 16), ("lemma37", 2),
             ("lemma22", 32), ("theorem1", 2), ("connected", 5))
UNREACHED_ON_A2 = {"extensions.is_hom_exact", "verify.suite_remark_a4"}


def a2_workload() -> bench.Workload:
    main = "A2-p32003-v1/atlas.json"
    graph = "A2-p32003-v1/graphs/mutation.json"
    return bench.Workload("a2-selfcheck", [
        bench.Step(["atlas", "--type", "A2"], {main: A2_FILES[main]},
                   "4 indecomposables\ngraded algebra dims: [2, 2]\n"),
        bench.Step(["graph", "--type", "A2", "--kind", "mutation"],
                   {main: A2_FILES[main], graph: A2_FILES[graph]},
                   "2 vertices, 1 edge, 1-regular, connected\n"),
        bench.Step(["verify", "--suite", "all", "--type", "A2"], dict(A2_FILES),
                   reports=A2_CHECKS),
    ], t_count=2)


def declared_problems() -> list[str]:
    """BENCHMARK.json must declare exactly what the harness reports."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    out = []
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if layers != tracer.PER_LAYER:
        out.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if tuple(w["name"] for w in spec["workloads"]) != tracer.WORKLOADS:
        out.append("BENCHMARK.json workloads differ from tracer.WORKLOADS")
    return out


def problems(run: bench.Run, dump: dict, bindings: dict) -> list[str]:
    out = [msg for fails in run.ops for msg in fails] + declared_problems()
    if bindings.get("modules.hom_dim", 0) < 4:
        out.append(f"hom_dim bound {bindings.get('modules.hom_dim')} times, expected >= 4")
    spans = dump["spans"]
    for prefix in tracer.TARGETS:
        calls = spans.get(prefix, {"calls": 0})["calls"]
        if (calls == 0) != (prefix in UNREACHED_ON_A2):
            out.append(f"{prefix}: {calls} calls")
    roots = sum(spans.get(f"cli.cmd_{c}", {"incl_s": 0.0})["incl_s"]
                for c in ("atlas", "graph", "verify"))
    selfs = sum(s["self_s"] for s in spans.values())
    if not 0.8 * roots <= selfs <= roots * (1 + 1e-9):
        out.append(f"self times sum to {selfs:.4f} s, commands took {roots:.4f} s")
    return out


def main() -> int:
    error = bench.prepare()
    if error:
        print(error, file=sys.stderr)
        return 2
    wl = a2_workload()
    with bench.scratch("selfcheck-") as work:
        run = bench.Run(work)
        result = bench.traced(run, wl)
    found = problems(run, result["dump"], result["bindings"])
    try:
        reference.burst()
    except RuntimeError as exc:
        found.append(str(exc))
    for msg in found:
        print(f"selfcheck: {msg}")
    print(f"selfcheck: {'FAIL' if found else 'ok'} ({len(run.ops)} operations checked)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
