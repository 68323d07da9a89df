#!/usr/bin/env python3
"""Benchmark of the preproj CLI.

    python3 perfbench/run.py --workload a4-build --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout (the directory holding
src/preproj).  Every CLI command runs as a fresh single-threaded process,
one at a time, with `jobs = 1`, `PREPROJ_CACHE` unset and a fresh cache
directory under .bench_build/.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the line before it records the run's environment, seed and selected T.

Workloads (each passes the workload seed as --seed to every command):

* a4-build: empty cache, then `atlas --type A4` and `graph --type A4
  --kind mutation`.  Atlas closure, Hom/Ext systems and elimination at A4
  sizes; End(T) and the suites do no work.
* a3-all: empty cache, then `verify --suite all --type A3`.  Atlases at
  both primes, cache write and read, and every suite on all 14 T: the
  same layers in the tiny-matrix regime, where per-call cost dominates,
  and the only workload on which End(T) and the suites work.

Per-T verification on A4 (theorem1 and lemma37 on one T) is not a
workload: it needs the A4 atlas built first (26 s) and then gives one
37 s sample per run, which the benchmark's time budget cannot repeat
often enough to be steady.  A4 lemma22 is left out for cost alone: it
takes 92-103 s per T on two cores, more than a run may take.

The host's speed drifts by 15-40 % over minutes, so a run's wall time
says as much about the host as about the program.  A run therefore also
times bursts of a fixed reference computation (perfbench/reference.py)
before each command and once at the end, and reports the workload's
time in units of one burst.  It measures as many whole iterations as
come nearest to --seconds.

With --trace 0 a run reports the end-to-end metrics: `wall_rel` (mean
wall time of one workload iteration over mean wall time of one reference
burst, both over the whole run), `setup_s` (median wall time of starting
the program, `preproj --help`, over PROBES starts), `peak_rss_mb`
(largest child ru_maxrss) and `pass_share` (operations passed over
operations attempted; an operation is one CLI command or one suite
report).  The info line holds every iteration's and burst's wall time.
With --trace 1 it runs the workload once untraced and once inside a
single traced process (perfbench/traced.py) and reports the per-layer
metrics of perfbench/tracer.py, after checking that both
left byte-identical cache files and reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import reference
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0  # start no iteration that could end past this
PROBES = 9

A4_ATLAS_STDOUT = "40 indecomposables\ngraded algebra dims: [4, 6, 6, 4]\n"
A4_GRAPH_STDOUT = "672 vertices, 2016 edges, 6-regular, connected\n"
# sha256 of the cache files this commit writes; identical for seeds 0 and 1
A4_ATLAS = ("A4-p32003-v1/atlas.json",
            "836dec36f38cf7df42d8b38d41dd2cdce12fc1a6462df648ab1295ca57021db3")
A4_GRAPH = ("A4-p32003-v1/graphs/mutation.json",
            "e8d8f1b53faa1cdfadf5c4fab386b578079219a7a5db4891af4c00400d9e5d6c")
A3_ATLASES = {
    "A3-p32003-v1/atlas.json": "6fcd5adc799e23b9e7dc0374a7e13711abffda5cd606f7d877a373664763156e",
    "A3-p101-v1/atlas.json": "f0223c7a8bfc2de064d9cd8502390bf7553df0aa25f9f4e3897be2b7169e8421",
}
A3_CHECKS = (("lemma21", 289), ("extbounds", 144), ("lemma37", 210),
             ("lemma22", 2016), ("theorem1", 14), ("connected", 5))


@dataclass
class Step:
    """One CLI command and what it must print and leave in the cache."""

    args: list
    files: dict  # relative path -> sha256 of every file in the cache after it
    stdout: str | None = None  # exact text, for commands printing no report
    reports: tuple = ()  # (suite, checks) per expected report line
    refs: int = 1  # reference bursts timed before the command


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: bytes


def preproj_argv(args) -> list:
    return [sys.executable, "-m", "preproj.cli", *args]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PREPROJ_CACHE", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, work: str) -> Child:
    """Run one process to completion; time it and read its peak RSS."""
    fd, out_path = tempfile.mkstemp(dir=work, suffix=".out")
    with os.fdopen(fd, "w+b") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stdin=subprocess.DEVNULL, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    os.remove(out_path)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


def digest_tree(root: str) -> dict:
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_step(step: Step, rc: int, stdout: bytes, files: dict | None) -> list:
    """Failure lists, one per operation: the command, then each report.

    A failing report is one failed operation; its exit code 1 is then
    what the command is expected to return.  The report's `failures` list
    is not counted, since reports cut it at eight entries.
    """
    cmd = []
    ops = [cmd]
    text = stdout.decode("utf-8", "replace")
    if not step.reports:
        if rc != 0:
            cmd.append(f"exit code {rc}")
        if text != step.stdout:
            cmd.append(f"stdout {text[:200]!r}")
    else:
        lines = text.splitlines()
        if len(lines) != len(step.reports):
            cmd.append(f"{len(lines)} report lines, expected {len(step.reports)}")
        all_passed = True
        for i, (suite, checks) in enumerate(step.reports):
            fails = []
            ops.append(fails)
            try:
                rep = json.loads(lines[i])
            except (IndexError, ValueError):
                fails.append(f"{suite}: report missing or unreadable")
                all_passed = False
                continue
            passed = rep.get("passed") is True
            all_passed = all_passed and passed
            if rep.get("suite") != suite:
                fails.append(f"suite {rep.get('suite')!r}, expected {suite}")
            if not passed:
                fails.append(f"{suite}: passed is {rep.get('passed')!r}")
            if rep.get("checks") != checks:
                fails.append(f"{suite}: {rep.get('checks')} checks, expected {checks}")
        want = 0 if all_passed else 1
        if rc != want:
            cmd.append(f"exit code {rc}, expected {want}")
    if files is not None and files != step.files:
        cmd.append(f"cache files {files}, expected {step.files}")
    return ops


def t_indices_of(stdout: bytes) -> list:
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            rep = json.loads(line)
        except ValueError:
            continue
        if isinstance(rep, dict) and rep.get("suite") == "theorem1":
            return list(rep.get("details", {}).get("t_indices", []))
    return []


@dataclass
class Workload:
    """Set-up, iteration commands and expected outputs of one workload."""

    name: str
    steps: list
    t_count: int = 0  # maximal rigid T each iteration verifies


def make_workload(name: str, seed: int) -> Workload:
    common = ["--seed", str(seed)]
    if name == "a4-build":
        return Workload(name, [
            Step(["atlas", "--type", "A4", *common], dict([A4_ATLAS]), A4_ATLAS_STDOUT, refs=2),
            Step(["graph", "--type", "A4", "--kind", "mutation", *common],
                 dict([A4_ATLAS, A4_GRAPH]), A4_GRAPH_STDOUT),
        ])
    if name == "a3-all":
        return Workload(name, [
            Step(["verify", "--suite", "all", "--type", "A3", *common], dict(A3_ATLASES),
                 reports=A3_CHECKS, refs=2),
        ], t_count=14)
    raise ValueError(f"unknown workload {name!r}")


class Run:
    """State of one benchmark invocation: scratch root, operations, samples."""

    def __init__(self, work: str):
        self.work = work
        self.ops: list = []  # failure list per attempted operation
        self.cache_seq = 0
        self.t_indices: list = []

    def fresh_cache(self) -> str:
        self.cache_seq += 1
        path = os.path.join(self.work, f"cache-{self.cache_seq}")
        os.makedirs(path)
        return path

    def step(self, step: Step, cache: str) -> Child:
        child = run_child(preproj_argv([*step.args, "--cache-dir", cache]), self.work)
        self.ops.extend(check_step(step, child.rc, child.stdout, digest_tree(cache)))
        self.t_indices = t_indices_of(child.stdout) or self.t_indices
        return child

    def setup(self) -> list:
        """Untimed preparation: program start-up, `--help`, PROBES times.

        Every workload starts from an empty cache, so start-up is all the
        preparation there is.
        """
        times = []
        for _ in range(PROBES):
            child = run_child(preproj_argv(["--help"]), self.work)
            ok = child.rc == 0 and child.stdout.startswith(b"usage: preproj")
            self.ops.append([] if ok else [f"--help exit code {child.rc}"])
            times.append(child.wall_s)
        return times

    def iteration(self, wl: Workload, refs: list | None = None):
        """Run the workload's commands once on a fresh cache.

        With `refs`, time the reference bursts each step asks for before
        it and append their times to `refs`.
        """
        cache = self.fresh_cache()
        children = []
        for step in wl.steps:
            if refs is not None:
                refs.extend(reference.burst() for _ in range(step.refs))
            children.append(self.step(step, cache))
        return children, cache


def failed_count(ops) -> int:
    return sum(1 for fails in ops if fails)


def report_failures(ops):
    for fails in ops:
        for msg in fails:
            print(f"check failed: {msg}", file=sys.stderr)


def untraced(run: Run, wl: Workload, seconds: float, t_start: float) -> dict:
    setup_times = run.setup()
    walls, rss, refs = [], [], []
    t_measure = time.perf_counter()
    while True:
        children, _ = run.iteration(wl, refs)
        walls.append(sum(c.wall_s for c in children))
        rss.append(max(c.rss_mb for c in children))
        now = time.perf_counter()
        # stop at the iteration count whose end comes nearest to `seconds`
        next_s = (now - t_measure) / len(walls)
        if now - t_measure + next_s / 2 >= seconds or now - t_start + next_s * 1.2 > RUN_BUDGET_S:
            break
    # close the window, so that the last iteration has a burst on each side
    refs.extend(reference.burst() for _ in range(wl.steps[0].refs))
    attempted = len(run.ops)
    return {
        "samples": {"wall_s": walls, "ref_s": refs, "setup_s": setup_times},
        "metrics": {
            "wall_rel": (statistics.fmean(walls) / statistics.fmean(refs), "ref"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "pass_share": ((attempted - failed_count(run.ops)) / attempted, "share"),
        },
    }


def traced(run: Run, wl: Workload) -> dict:
    run.setup()
    children, plain_cache = run.iteration(wl)
    plain_wall = sum(c.wall_s for c in children)

    cache = run.fresh_cache()
    spec = {
        "commands": [[*s.args, "--cache-dir", cache] for s in wl.steps],
        "stdout": [os.path.join(run.work, f"traced-{i}.out") for i in range(len(wl.steps))],
        "out": os.path.join(run.work, "traced.json"),
    }
    spec_path = os.path.join(run.work, "traced-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    child = run_child([sys.executable, os.path.join(HERE, "traced.py"), spec_path], run.work)
    if child.rc != 0:
        run.ops.append([f"traced process exit code {child.rc}"])
        result = {"exit_codes": [None] * len(wl.steps), "dump": tracer.Tracer().dump(),
                  "bindings": {}}
    else:
        with open(spec["out"], encoding="utf-8") as fh:
            result = json.load(fh)

    files = digest_tree(cache)
    identical = files == digest_tree(plain_cache)
    for i, (step, plain) in enumerate(zip(wl.steps, children)):
        try:
            with open(spec["stdout"][i], "rb") as fh:
                out = fh.read()
        except FileNotFoundError:
            out = b""
        last = i == len(wl.steps) - 1
        run.ops.extend(check_step(step, result["exit_codes"][i], out, files if last else None))
        identical = identical and out == plain.stdout
    run.ops.append([] if identical else ["traced run output differs from untraced run"])

    dump = result["dump"]
    misses = tracer.prediction_misses(dump, wl.name)
    print(json.dumps({"bindings": result["bindings"], "prediction_misses": misses}))
    values = tracer.layer_metrics(dump, wl.t_count, child.wall_s - plain_wall)
    return {
        "samples": {"plain_wall_s": plain_wall, "traced_wall_s": child.wall_s},
        "metrics": {name: (values[name], unit) for name, (unit, _b) in tracer.PER_LAYER.items()},
        "dump": dump,
        "bindings": result["bindings"],
    }


def prepare() -> str | None:
    """Check the checkout and byte-compile it; an error message or None."""
    if not os.path.isfile(os.path.join("src", "preproj", "cli.py")):
        return "run from the root of a preproj checkout (src/preproj/cli.py not found)"
    # byte-compile once so that no timed process pays for it
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join("src", "preproj")],
                           stdout=subprocess.DEVNULL, env=child_env())
    return None if build.returncode == 0 else "compileall failed"


@contextlib.contextmanager
def scratch(prefix: str):
    """A fresh directory under .bench_build/perfbench, removed afterwards."""
    root = os.path.join(".bench_build", "perfbench")
    os.makedirs(root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=prefix, dir=root)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tracer.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    # turn a termination request into SystemExit so that children are
    # killed and the scratch directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    error = prepare()
    if error:
        print(error, file=sys.stderr)
        return 2

    wl = make_workload(args.workload, args.seed)
    with scratch("run-") as work:
        run = Run(work)
        if args.trace:
            out = traced(run, wl)
        else:
            out = untraced(run, wl, args.seconds, t_start)

    report_failures(run.ops)
    failed = failed_count(run.ops)
    print(json.dumps({"info": {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "t_indices": run.t_indices,
        "samples": out.get("samples", {}),
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
