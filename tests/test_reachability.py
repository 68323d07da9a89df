"""src/preproj holds what the checker runs.

One test runs the command line in process under sys.setprofile, over the
A2 and A3 commands a user makes and the A4 remark-a4 suite, and asserts that every def in
src/preproj/*.py is entered, or is on ALLOWED with the reason it is not
entered there.  A function only tests call belongs in tests/oracle.py.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import preproj
from preproj.cli import main

SRC = Path(preproj.__file__).resolve().parent

TRACED = "named in perfbench/tracer.py TARGETS, whose install raises on a missing name"
PROTOCOL = "Python protocol method"
FALLBACK = "fallback or error path these runs never reach"
CONSTRUCTOR = "public constructor"

ALLOWED = {
    "verify.suite_lemma37": TRACED,
    "verify.suite_lemma22": TRACED,
    "verify.suite_theorem1": TRACED,
    "endo.ExtCalculatorB.ext1": TRACED,
    "linalg.PrimeField.__repr__": PROTOCOL,
    "linalg.PrimeField.__eq__": PROTOCOL,
    "linalg.PrimeField.__hash__": PROTOCOL,
    "modules.Representation.__repr__": PROTOCOL,
    "modules.zero_rep": FALLBACK,  # direct_sum of no modules
    "linalg.PrimeField.mat": CONSTRUCTOR,
}


def package_defs() -> dict:
    """(file, first line) -> qualified name of every def in the package; the
    first line is that of the first decorator, as in code.co_firstlineno."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = name
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return out


def tracer_targets() -> dict:
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_package_function_is_reached_or_allowed(tmp_path, capsys):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("# a config file run\nseed = 0\n")
    cache = ["--cache-dir", str(tmp_path / "c")]
    runs = [
        ["atlas", "--type", "A3"],
        ["graph", "--type", "A3", "--kind", "mutation"],
        ["graph", "--type", "A3", "--kind", "mutation", "--format", "dot"],
        ["graph", "--type", "A3", "--kind", "tilting", "--rigid", "R1"],
        ["verify", "--suite", "all", "--type", "A2"],
        ["verify", "--suite", "all", "--type", "A3"],
        ["atlas", "--type", "A2", "--config", str(cfg)],
        ["verify", "--suite", "remark-a4"],
    ]
    # a memoised function whose result an earlier test left behind would
    # not be entered again
    for name in list(sys.modules):
        if name.startswith("preproj."):
            for value in vars(importlib.import_module(name)).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in runs:
            codes.append(main(argv + cache))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)

    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    defs = package_defs()
    names = set(defs.values())
    unreached = {name for key, name in defs.items() if key not in reached}
    assert sorted(unreached - set(ALLOWED)) == [], "move test-only code to tests/oracle.py"
    # the allow-list names only what exists and goes unreached
    assert sorted(set(ALLOWED) - names) == []
    assert sorted(set(ALLOWED) - unreached) == []
    targets = tracer_targets()
    assert [n for n, why in ALLOWED.items() if why == TRACED and n not in targets] == []
