"""Run preproj CLI commands inside this one process with every layer traced.

    python3 perfbench/traced.py SPEC_JSON

SPEC_JSON holds `commands` (one argv list per CLI command), `stdout` (one
output path per command) and `out`.  Writes to `out` the exit codes, the
tracer's aggregates and the number of bindings wrapped per traced name.
Needs `src` on PYTHONPATH; perfbench/run.py starts it that way.
"""

from __future__ import annotations

import contextlib
import json
import sys

import preproj
import preproj.cli

import tracer


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    rec = tracer.Tracer()
    bindings = tracer.install(rec)
    codes = []
    for argv, out_path in zip(spec["commands"], spec["stdout"]):
        with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            try:
                code = preproj.cli.main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
        codes.append(code)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump({"exit_codes": codes, "dump": rec.dump(), "bindings": bindings}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
