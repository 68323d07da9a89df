"""Rigid summand combinatorics: maximal rigid modules as maximal cliques,
the one-summand-exchange graph, and exports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .atlas import Atlas
from .errors import InputError, StructureError
from .quivers import connected

GRAPH_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RigidModule:
    summands: tuple[int, ...]  # sorted atlas ids

    def __post_init__(self):
        if tuple(sorted(self.summands)) != self.summands:
            raise InputError("summands must be sorted")


@dataclass
class MutationGraph:
    vertices: list  # RigidModule, lexicographically ordered by summand tuple
    edges: list  # sorted (i, j) index pairs, i < j
    r: int
    n: int

    @property
    def size(self) -> int:
        return len(self.vertices)

    def degrees(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def is_regular(self, k: int) -> bool:
        return all(d == k for d in self.degrees())

    @cached_property
    def complements(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y), one entry per edge (i, j) in edges order: x[e] is the
        summand of vertex i missing from vertex j, y[e] the one of j missing
        from i.  Computed once per graph."""
        summands = np.array([t.summands for t in self.vertices], dtype=np.int64)
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        a, b = summands[ends[0]], summands[ends[1]]
        only_a = (a[:, :, None] != b[:, None, :]).all(axis=2)
        only_b = (b[:, :, None] != a[:, None, :]).all(axis=2)
        return a[only_a], b[only_b]


def _bron_kerbosch(adj, r, p, x, out):
    if not p and not x:
        out.append(sorted(r))
        return
    pivot = max(p | x, key=lambda u: len(adj[u] & p))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out)
        p.remove(v)
        x.add(v)


def compatibility(ext) -> np.ndarray:
    """The Ext-compatibility graph of an (n, n) table ext[a, b] = dim Ext^1(a, b),
    as a boolean (n, n) matrix: the diagonal marks the vertices, the k with
    ext[k, k] = 0, and a != b are adjacent iff both are vertices and
    ext[a, b] = ext[b, a] = 0."""
    free = np.asarray(ext) == 0
    verts = np.diag(free)
    return free & free.T & verts[:, None] & verts[None, :]


def maximal_cliques(compat: np.ndarray) -> list[tuple]:
    """The maximal cliques of a compatibility matrix (see compatibility), as
    sorted tuples of indices in sorted order.  StructureError unless all
    cliques have one size."""
    verts = np.flatnonzero(np.diag(compat)).tolist()
    adj = {v: set(np.flatnonzero(compat[v]).tolist()) - {v} for v in verts}
    cliques: list[list] = []
    _bron_kerbosch(adj, set(), set(verts), set(), cliques)
    sizes = {len(c) for c in cliques}
    if len(sizes) != 1:
        raise StructureError(f"maximal cliques of unequal sizes {sorted(sizes)}")
    return sorted(tuple(c) for c in cliques)


def enumerate_maximal_rigid(atlas: Atlas) -> list[RigidModule]:
    """The maximal cliques of rigid indecomposables without extensions
    between them, checked to contain every projective."""
    cliques = maximal_cliques(compatibility(atlas.ext_table))
    projs = set(atlas.projective_ids)
    if not all(projs <= set(c) for c in cliques):
        raise StructureError("a maximal clique misses a projective summand")
    return [RigidModule(summands=c) for c in cliques]


def exchange_pairs(sets) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of distinct r-subsets (sorted
    tuples) that differ in exactly one element.

    Two such subsets share exactly one (r-1)-subset, their intersection, so
    keying each subset by its r (r-1)-subsets finds every pair in O(V r).
    """
    buckets: dict[tuple, list[int]] = {}
    for i, s in enumerate(sets):
        for drop in range(len(s)):
            buckets.setdefault(s[:drop] + s[drop + 1 :], []).append(i)
    pairs = {p for ids in buckets.values() for p in combinations(ids, 2)}
    return sorted((i, j) for i, j in pairs if sets[i] != sets[j])


def mutation_graph(rigids, n: int) -> MutationGraph:
    """Edges join vertices whose summand sets differ in exactly one element."""
    rigids = sorted(rigids, key=lambda t: t.summands)
    sizes = {len(t.summands) for t in rigids}
    if len(sizes) != 1:
        raise InputError("vertices must all have the same summand count")
    r = sizes.pop()
    edges = exchange_pairs([tuple(t.summands) for t in rigids])
    return MutationGraph(vertices=rigids, edges=edges, r=r, n=n)


def is_connected(g: MutationGraph) -> bool:
    return connected(len(g.vertices), g.edges)


# -- export ----------------------------------------------------------------


def _vertex_labels(g: MutationGraph, atlas: Atlas | None):
    labels = []
    for t in g.vertices:
        if atlas is not None:
            parts = [atlas.alias_of(s) or str(s) for s in t.summands]
        else:
            parts = [str(s) for s in t.summands]
        labels.append(sorted(parts))
    return labels


def graph_payload(g: MutationGraph, qtype: str, atlas: Atlas | None = None) -> dict:
    labels = _vertex_labels(g, atlas)
    return {
        "format_version": GRAPH_FORMAT_VERSION,
        "quiver_type": qtype,
        "r": g.r,
        "n": g.n,
        "vertices": [
            {"id": i, "summands": list(t.summands), "aliases": labels[i]}
            for i, t in enumerate(g.vertices)
        ],
        "edges": [list(e) for e in g.edges],
    }


def export_graph(g: MutationGraph, fmt: str, path, qtype: str, atlas: Atlas | None = None):
    if fmt == "json":
        # json.dumps runs the C encoder, json.dump the pure-Python one
        text = json.dumps(graph_payload(g, qtype, atlas), sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif fmt == "dot":
        labels = _vertex_labels(g, atlas)
        lines = ["graph mutation {"]
        for i in range(len(g.vertices)):
            lines.append(f'  {i} [label="{",".join(labels[i])}"];')
        for i, j in g.edges:
            lines.append(f"  {i} -- {j};")
        lines.append("}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise InputError(f"unknown export format {fmt!r}")


# Standard labels for the fourteen A3 vertices, by non-projective summand
# aliases; the CLI accepts these as --rigid ids.
A3_RIGID_LABELS = {
    "R1": frozenset({"S2", "1over2", "3over2"}),
    "R2": frozenset({"13over2", "1over2", "3over2"}),
    "R3": frozenset({"13over2", "1over2", "S1"}),
    "R4": frozenset({"S2", "2over3", "3over2"}),
    "R5": frozenset({"S3", "2over3", "3over2"}),
    "R6": frozenset({"S3", "2over3", "2over13"}),
    "R7": frozenset({"S3", "S1", "2over13"}),
    "R8": frozenset({"S3", "S1", "13over2"}),
    "R9": frozenset({"2over1", "2over3", "2over13"}),
    "R10": frozenset({"S1", "2over1", "2over13"}),
    "R11": frozenset({"S1", "2over1", "1over2"}),
    "R12": frozenset({"S3", "13over2", "3over2"}),
    "R13": frozenset({"S2", "2over3", "2over1"}),
    "R14": frozenset({"S2", "1over2", "2over1"}),
}


def resolve_rigid_label(atlas: Atlas, rigids, token: str) -> int:
    """Vertex index from an A3 label like R1, or a plain vertex index."""
    if token in A3_RIGID_LABELS:
        if atlas.qtype != "A3":
            raise InputError(f"label {token} only names A3 vertices")
        projs = set(atlas.projective_ids)
        want = {atlas.id_by_alias(a) for a in A3_RIGID_LABELS[token]} | projs
        for i, t in enumerate(rigids):
            if set(t.summands) == want:
                return i
        raise InputError(f"no vertex with summands of {token}")
    try:
        idx = int(token)
    except ValueError:
        raise InputError(f"unknown rigid id {token!r}") from None
    if not 0 <= idx < len(rigids):
        raise InputError(f"rigid index {idx} out of range 0..{len(rigids) - 1}")
    return idx

