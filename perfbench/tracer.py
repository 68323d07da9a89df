"""In-process tracer for the preproj layers.

`install` wraps the public functions and methods listed in TARGETS and
rebinds every copy of each one: `from .modules import hom_dim` leaves a
separate binding of `hom_dim` in `atlas`, `verify` and `endo`, and each
must point at the wrapper or its calls go uncounted.  Stats are kept in
memory as per-name aggregates (calls, inclusive time, self time) and
written out once at the end.  Self time is a span's duration minus the
time covered by the wrapped calls made inside it.

PER_LAYER names every per-layer metric with its unit and direction, and
MOVES records, per traced function, which workloads' `wall_s` it is
predicted to move (`busy`) and on which it is predicted to do no work at
all (`idle`).  `prediction_misses` checks a traced run against MOVES.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time

# metric prefix -> (module, qualified name, stats reported)
TARGETS = {
    "linalg.PrimeField.rref": ("linalg", "PrimeField.rref", ("calls", "self_s")),
    "linalg.PrimeField.kernel_basis": ("linalg", "PrimeField.kernel_basis", ("calls", "self_s")),
    "linalg.PrimeField.solve": ("linalg", "PrimeField.solve", ("calls", "self_s")),
    "linalg.PrimeField.mul": ("linalg", "PrimeField.mul", ("calls", "self_s")),
    "quivers.PreprojectiveBasis": ("quivers", "PreprojectiveBasis.__init__", ("incl_s",)),
    "modules.hom_basis": ("modules", "hom_basis", ("calls", "self_s")),
    "modules.hom_dim": ("modules", "hom_dim", ("calls", "self_s")),
    "modules.is_isomorphic": ("modules", "is_isomorphic", ("calls", "self_s")),
    "modules.decompose": ("modules", "decompose", ("calls", "self_s")),
    "extensions.ext1_cocycle": ("extensions", "ext1_cocycle", ("calls", "self_s")),
    "extensions.build_extension": ("extensions", "build_extension", ("calls", "self_s")),
    "extensions.is_hom_exact": ("extensions", "is_hom_exact", ("calls", "self_s")),
    "atlas.enumerate_indecomposables": ("atlas", "enumerate_indecomposables", ("incl_s", "self_s")),
    "atlas.Atlas.load": ("atlas", "Atlas.load", ("incl_s",)),
    "atlas.Atlas.save": ("atlas", "Atlas.save", ("incl_s",)),
    "rigidgraph.enumerate_maximal_rigid": ("rigidgraph", "enumerate_maximal_rigid", ("incl_s",)),
    "rigidgraph.mutation_graph": ("rigidgraph", "mutation_graph", ("incl_s",)),
    "endo.BoundAlgebra.__init__": ("endo", "BoundAlgebra.__init__", ("calls", "self_s", "incl_s")),
    "endo.BoundAlgebra.hom_image": ("endo", "BoundAlgebra.hom_image", ("calls", "self_s", "incl_s")),
    "endo.hom_b": ("endo", "hom_b", ("calls", "self_s", "incl_s")),
    "endo.ExtCalculatorB.ext1": ("endo", "ExtCalculatorB.ext1", ("calls", "self_s", "incl_s")),
    "endo.enumerate_tilting": ("endo", "enumerate_tilting", ("calls", "self_s", "incl_s")),
    "endo.verify_graph_correspondence": (
        "endo", "verify_graph_correspondence", ("calls", "self_s", "incl_s")),
    "endo.coresolution_check": ("endo", "coresolution_check", ("calls", "self_s", "incl_s")),
    "cli.cmd_atlas": ("cli", "cmd_atlas", ("incl_s",)),
    "cli.cmd_graph": ("cli", "cmd_graph", ("incl_s",)),
    "cli.cmd_verify": ("cli", "cmd_verify", ("incl_s",)),
}
SUITES = ("lemma21", "extbounds", "lemma37", "lemma22", "theorem1", "connected", "remark_a4")
for _suite in SUITES:
    TARGETS[f"verify.suite_{_suite}"] = ("verify", f"suite_{_suite}", ("incl_s",))

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "incl_s": ("s", "lower")}

# name -> (unit, better); order is the order of BENCHMARK.json
PER_LAYER = {}
for _prefix, (_mod, _qual, _stats) in TARGETS.items():
    for _stat in _stats:
        PER_LAYER[f"{_prefix}.{_stat}"] = _UNITS[_stat]
PER_LAYER.update({
    "linalg.PrimeField.rref.cells": ("count", "lower"),
    "modules.hom_dim.repeat_share": ("share", "lower"),
    "modules.is_isomorphic.true_share": ("share", "higher"),
    "atlas.Atlas.load.bytes": ("B", "lower"),
    "atlas.Atlas.save.bytes": ("B", "lower"),
    "verify.per_t_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

WORKLOADS = ("a4-build", "a3-all")
_ALL = WORKLOADS
_ENDO = ("a3-all",)

# traced function -> (workloads whose wall_s it should move, workloads where
# it should make no call at all).  The idle predictions are checked exactly;
# a busy prediction only requires at least one call.
MOVES = {
    "linalg.PrimeField.rref": (_ALL, ()),
    "linalg.PrimeField.kernel_basis": (_ALL, ()),
    "linalg.PrimeField.solve": (_ALL, ()),
    "linalg.PrimeField.mul": (_ALL, ()),
    "quivers.PreprojectiveBasis": (_ALL, ()),
    "modules.hom_basis": (_ALL, ()),
    "modules.hom_dim": (_ALL, ()),
    "modules.is_isomorphic": (_ALL, ()),
    "modules.decompose": (_ALL, ()),
    "extensions.ext1_cocycle": (_ALL, ()),
    "extensions.build_extension": (_ALL, ()),
    # only remark-a4 calls it, and no workload runs remark-a4
    "extensions.is_hom_exact": ((), _ALL),
    "atlas.enumerate_indecomposables": (_ALL, ()),
    "atlas.Atlas.load": (_ALL, ()),
    "atlas.Atlas.save": (_ALL, ()),
    "rigidgraph.enumerate_maximal_rigid": (_ALL, ()),
    "rigidgraph.mutation_graph": (_ALL, ()),
    "cli.cmd_atlas": (("a4-build",), ("a3-all",)),
    "cli.cmd_graph": (("a4-build",), ("a3-all",)),
    "cli.cmd_verify": (_ENDO, ("a4-build",)),
    "verify.suite_lemma21": (("a3-all",), ("a4-build",)),
    "verify.suite_extbounds": (("a3-all",), ("a4-build",)),
    "verify.suite_lemma37": (_ENDO, ("a4-build",)),
    "verify.suite_lemma22": (("a3-all",), ("a4-build",)),
    "verify.suite_theorem1": (_ENDO, ("a4-build",)),
    "verify.suite_connected": (("a3-all",), ("a4-build",)),
    "verify.suite_remark_a4": ((), _ALL),
}
for _prefix in TARGETS:
    if _prefix.startswith("endo."):
        MOVES[_prefix] = (_ENDO, ("a4-build",))


class Tracer:
    """Aggregating span recorder; one per traced process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, depth]
        self.stack = [0.0]  # time covered by wrapped children, per open span
        self.rref_cells = 0
        self.hom_dim_seen: set = set()
        self.hom_dim_repeats = 0
        self.iso_true = 0
        self.bytes = {"load": 0, "save": 0}

    def wrap(self, name, fn, hook=None):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st[0] += 1
            st[3] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[2] += dt - stack.pop()
                stack[-1] += dt
                st[3] -= 1
                if st[3] == 0:  # count recursion once in inclusive time
                    st[1] += dt
            if hook is not None:
                # bookkeeping time is charged to no span
                t1 = clock()
                hook(args, result)
                stack[-1] += clock() - t1
            return result

        return traced

    # -- hooks computing counts at the layer boundary ----------------------

    def _on_rref(self, args, result):
        rows, cols = args[1].shape
        self.rref_cells += rows * cols

    def _on_hom_dim(self, args, result):
        key = hashlib.blake2b(digest_size=16)
        for rep in args[:2]:
            key.update(repr(rep.dims).encode())
            for m in rep.mats:
                key.update(m.tobytes())
        digest = key.digest()
        if digest in self.hom_dim_seen:
            self.hom_dim_repeats += 1
        else:
            self.hom_dim_seen.add(digest)

    def _on_is_isomorphic(self, args, result):
        self.iso_true += bool(result)

    def _file_bytes(self, kind, args):
        path = args[1]
        if os.path.exists(path):
            self.bytes[kind] += os.path.getsize(path)

    def hooks(self):
        return {
            "linalg.PrimeField.rref": self._on_rref,
            "modules.hom_dim": self._on_hom_dim,
            "modules.is_isomorphic": self._on_is_isomorphic,
            "atlas.Atlas.load": lambda args, result: self._file_bytes("load", args),
            "atlas.Atlas.save": lambda args, result: self._file_bytes("save", args),
        }

    def dump(self) -> dict:
        return {
            "spans": {
                name: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
                for name, s in self.stats.items()
            },
            "rref_cells": self.rref_cells,
            "hom_dim_repeats": self.hom_dim_repeats,
            "iso_true": self.iso_true,
            "bytes": self.bytes,
        }


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "preproj" or n.startswith("preproj.")]


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every TARGETS entry in the loaded preproj package.

    Returns the number of bindings rebound per target.  Raises
    RuntimeError if any module or class still holds an unwrapped original.
    """
    mods = _package_modules()
    hooks = tracer.hooks()
    bound: dict[str, int] = {}
    originals = []
    for prefix, (modname, qual, _stats) in TARGETS.items():
        home = sys.modules[f"preproj.{modname}"]
        hook = hooks.get(prefix)
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(prefix, raw.__func__, hook)))
                originals.append(raw.__func__)
            else:
                setattr(cls, attr, tracer.wrap(prefix, raw, hook))
                originals.append(raw)
            bound[prefix] = 1
            continue
        orig = getattr(home, qual)
        wrapped = tracer.wrap(prefix, orig, hook)
        originals.append(orig)
        count = 0
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    count += 1
        bound[prefix] = count
    left = _unwrapped_bindings(mods, originals)
    if left:
        raise RuntimeError(f"unwrapped bindings remain: {left}")
    return bound


def _unwrapped_bindings(mods, originals) -> list[str]:
    ids = {id(f) for f in originals}
    left = []
    for mod in mods:
        for key, value in vars(mod).items():
            if id(value) in ids:
                left.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if id(fn) in ids:
                        left.append(f"{mod.__name__}.{key}.{attr}")
    return left


def layer_metrics(dump: dict, t_count: int, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run's dump."""

    def span(prefix):
        return dump["spans"].get(prefix, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    out = {}
    for prefix, (_mod, _qual, stats) in TARGETS.items():
        for stat in stats:
            out[f"{prefix}.{stat}"] = span(prefix)[stat]
    hd_calls = span("modules.hom_dim")["calls"]
    iso_calls = span("modules.is_isomorphic")["calls"]
    per_t = span("verify.suite_theorem1")["incl_s"] + span("verify.suite_lemma37")["incl_s"]
    out.update({
        "linalg.PrimeField.rref.cells": dump["rref_cells"],
        "modules.hom_dim.repeat_share": dump["hom_dim_repeats"] / hd_calls if hd_calls else 0.0,
        "modules.is_isomorphic.true_share": dump["iso_true"] / iso_calls if iso_calls else 0.0,
        "atlas.Atlas.load.bytes": dump["bytes"]["load"],
        "atlas.Atlas.save.bytes": dump["bytes"]["save"],
        "verify.per_t_s": per_t / t_count if t_count else 0.0,
        "trace.overhead_s": overhead_s,
    })
    return out


def prediction_misses(dump: dict, workload: str) -> list[str]:
    """Traced functions whose call count contradicts MOVES on this workload."""
    misses = []
    for prefix, (busy, idle) in MOVES.items():
        calls = dump["spans"].get(prefix, {"calls": 0})["calls"]
        if workload in busy and calls == 0:
            misses.append(f"{prefix}: no calls, predicted busy")
        if workload in idle and calls != 0:
            misses.append(f"{prefix}: {calls} calls, predicted idle")
    return misses
