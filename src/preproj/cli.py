"""Command line entry point: atlas construction, graph building and export,
and the verification suites, with an on-disk cache keyed by type, field
modulus, and format version."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .atlas import ATLAS_FORMAT_VERSION, Atlas, enumerate_indecomposables
from .config import Config, build_config
from .endo import ExtCalculatorB, enumerate_tilting
from .errors import FormatError, PreprojError
from .linalg import PrimeField
from .rigidgraph import (
    RigidModule,
    enumerate_maximal_rigid,
    export_graph,
    is_connected,
    mutation_graph,
    resolve_rigid_label,
)
from . import verify as suites

SUITES = ("lemma21", "extbounds", "lemma37", "lemma22", "theorem1", "connected", "remark-a4", "all")
TYPES = ("A2", "A3", "A4")


def _cache_dir(cfg: Config, qtype: str, p: int) -> str:
    return os.path.join(cfg.cache_dir, f"{qtype}-p{p}-v{ATLAS_FORMAT_VERSION}")


def get_atlas(cfg: Config, qtype: str, p: int | None = None) -> Atlas:
    p = cfg.field_char if p is None else p
    field = PrimeField(p)
    root = _cache_dir(cfg, qtype, p)
    path = os.path.join(root, "atlas.json")
    if os.path.exists(path):
        atlas = Atlas.load(path, field)
        if atlas.qtype != qtype:
            raise FormatError(f"cached atlas {path} is of type {atlas.qtype}, not {qtype}")
        print(f"loaded {qtype} atlas from {path}", file=sys.stderr)
        return atlas
    atlas = enumerate_indecomposables(qtype, field, seed=cfg.seed)
    os.makedirs(root, exist_ok=True)
    atlas.save(path)
    print(f"built {qtype} atlas, saved to {path}", file=sys.stderr)
    return atlas


def _graph_for(atlas: Atlas):
    rigids = enumerate_maximal_rigid(atlas)
    return rigids, mutation_graph(rigids, atlas.dq.nv)


def _edges_phrase(graph) -> str:
    n = len(graph.edges)
    return f"{n} edge" if n == 1 else f"{n} edges"


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--field-char", type=int, dest="field_char")
    p.add_argument("--cross-check-char", type=int, dest="cross_check_char")
    p.add_argument("--seed", type=int)
    p.add_argument("--cache-dir", dest="cache_dir")


def _config_from(args) -> Config:
    keys = ("field_char", "cross_check_char", "seed", "cache_dir")
    overrides = {k: getattr(args, k) for k in keys}
    return build_config(args.config, overrides)


def cmd_atlas(args) -> int:
    atlas = get_atlas(_config_from(args), args.type)
    if args.out:
        atlas.save(args.out)
    print(f"{atlas.size} indecomposables")
    print(f"graded algebra dims: {atlas.basis.graded_dims}")
    return 0


def cmd_graph(args) -> int:
    cfg = _config_from(args)
    atlas = get_atlas(cfg, args.type)
    rigids, graph = _graph_for(atlas)
    if args.kind == "mutation":
        out_graph = graph
        degree = graph.r - graph.n
        reg = f"{degree}-regular" if graph.is_regular(degree) else "irregular"
        conn = "connected" if is_connected(graph) else "disconnected"
        print(f"{graph.size} vertices, {_edges_phrase(graph)}, {reg}, {conn}")
    else:
        if not args.rigid:
            print("--rigid ID is required for tilting graphs", file=sys.stderr)
            return 2
        t_index = resolve_rigid_label(atlas, rigids, args.rigid)
        calc = ExtCalculatorB.for_rigid(atlas, rigids[t_index])
        tilts = enumerate_tilting(calc)
        out_graph = mutation_graph([RigidModule(summands=s) for s in tilts], atlas.dq.nv)
        print(f"{out_graph.size} vertices, {_edges_phrase(out_graph)}")
    out_path = args.out
    if out_path is None:
        root = os.path.join(_cache_dir(cfg, args.type, cfg.field_char), "graphs")
        os.makedirs(root, exist_ok=True)
        name = args.kind if args.kind == "mutation" else f"tilting-{args.rigid}"
        out_path = os.path.join(root, f"{name}.{args.format}")
    export_graph(out_graph, args.format, out_path, args.type, atlas)
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    names = [s for s in SUITES if s != "all"] if args.suite == "all" else [args.suite]
    if args.suite == "all" and args.type != "A4":
        names = [n for n in names if n != "remark-a4"]
    qtype = "A4" if args.suite == "remark-a4" else args.type
    atlas = get_atlas(cfg, qtype)
    if {"lemma37", "lemma22", "theorem1", "connected"}.intersection(names):
        rigids, graph = _graph_for(atlas)
    t_names = [n for n in names if n in suites.T_SUITES]
    t_reports = {}
    if t_names:  # every T-suite in one pass over all T
        t_reports = suites.run_t_suites(t_names, atlas, rigids, graph, range(len(rigids)))
    run = {
        "lemma21": lambda: suites.suite_lemma21(atlas, get_atlas(cfg, qtype, cfg.cross_check_char)),
        "extbounds": lambda: suites.suite_extbounds(atlas),
        "remark-a4": lambda: suites.suite_remark_a4(atlas),
        "connected": lambda: suites.suite_connected(atlas, rigids, graph),
    }
    reports = [t_reports[name] if name in t_reports else run[name]() for name in names]
    lines = [json.dumps(rep, sort_keys=True, separators=(",", ":")) for rep in reports]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if all(rep["passed"] for rep in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="preproj",
        description="exact-arithmetic module graph engine for small preprojective algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_atlas = sub.add_parser("atlas", help="enumerate indecomposables and cache the atlas")
    p_atlas.add_argument("--type", required=True, choices=TYPES)
    p_atlas.add_argument("--out", help="also write the atlas file here")
    _add_config_flags(p_atlas)
    p_atlas.set_defaults(fn=cmd_atlas)

    p_graph = sub.add_parser("graph", help="build and export a mutation or tilting graph")
    p_graph.add_argument("--type", required=True, choices=TYPES)
    p_graph.add_argument("--kind", required=True, choices=("mutation", "tilting"))
    p_graph.add_argument("--rigid", help="vertex id (A3 labels R1..R14 or an index)")
    p_graph.add_argument("--out")
    p_graph.add_argument("--format", default="json", choices=("dot", "json"))
    _add_config_flags(p_graph)
    p_graph.set_defaults(fn=cmd_graph)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--type", default="A3", choices=TYPES)
    p_verify.add_argument("--out", help="also write the JSON-lines report here")
    _add_config_flags(p_verify)
    p_verify.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PreprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
