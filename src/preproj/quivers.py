"""Dynkin quivers, double quivers, and the graded basis of the bound path algebra.

Path convention: a path is a tuple of arrow indices in application order,
so (a, b) means "apply a first, then b" and composes like functions read
right to left.  The defining relation imposed at each vertex i is

    sum over unstarred arrows a with s(a) = i of  a* . a
  - sum over unstarred arrows a with t(a) = i of  a . a*   = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, StructureError
from .linalg import PrimeField

RELATION_CONVENTION = "outgoing-star-minus-incoming-v1"


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    """Connected acyclic quiver on vertices 1..n."""

    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if tuple(self.vertices) != tuple(range(1, n + 1)):
            raise InputError("vertices must be 1..n")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise InputError(f"arrow {a.name} touches unknown vertex")
        if self._has_cycle():
            raise InputError("quiver has an oriented cycle")
        if not connected(n, [(a.source - 1, a.target - 1) for a in self.arrows]):
            raise InputError("quiver is not connected")

    def _has_cycle(self) -> bool:
        out = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a.target)
        state = {v: 0 for v in self.vertices}

        def visit(v):
            state[v] = 1
            for w in out[v]:
                if state[w] == 1 or (state[w] == 0 and visit(w)):
                    return True
            state[v] = 2
            return False

        return any(state[v] == 0 and visit(v) for v in self.vertices)


def connected(n: int, edges) -> bool:
    """Whether the undirected graph on the vertices 0..n-1 with these edges
    (pairs of vertices) is connected; the empty graph is."""
    if not n:
        return True
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def dynkin_a(n: int) -> Quiver:
    """Linear quiver 1 -> 2 -> ... -> n."""
    if n < 1:
        raise InputError("n must be positive")
    return Quiver(
        vertices=tuple(range(1, n + 1)),
        arrows=tuple(Arrow(f"a{i}", i, i + 1) for i in range(1, n)),
    )


QUIVER_PRESETS = {"A2": 2, "A3": 3, "A4": 4}


def preset_quiver(qtype: str) -> Quiver:
    if qtype not in QUIVER_PRESETS:
        raise InputError(f"unknown quiver type {qtype!r}; expected one of {sorted(QUIVER_PRESETS)}")
    return dynkin_a(QUIVER_PRESETS[qtype])


class DoubleQuiver:
    """Base quiver plus one reversed starred arrow per base arrow.

    Arrows are indexed 0..2m-1 with the unstarred arrows first; partner[k]
    is the index of the arrow paired with k by the star involution.
    """

    def __init__(self, base: Quiver):
        self.base = base
        self.vertices = base.vertices
        self.nv = len(base.vertices)
        m = len(base.arrows)
        self.n_base = m
        starred = tuple(Arrow(a.name + "*", a.target, a.source) for a in base.arrows)
        self.arrows: tuple[Arrow, ...] = base.arrows + starred
        self.partner = tuple(list(range(m, 2 * m)) + list(range(m)))
        self._hash = hash(base)  # the base is frozen; plan caches hash dq often
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for k, a in enumerate(self.arrows):
            self._out[a.source].append(k)
            self._in[a.target].append(k)

    def arrows_out(self, v: int) -> list[int]:
        return self._out[v]

    def arrows_in(self, v: int) -> list[int]:
        return self._in[v]

    def __eq__(self, other):
        return isinstance(other, DoubleQuiver) and other.base == self.base

    def __hash__(self):
        return self._hash


def double(q: Quiver) -> DoubleQuiver:
    return DoubleQuiver(q)


def symmetric_form(dq: DoubleQuiver, d, e) -> int:
    """The integer pairing 2*sum_i d_i e_i - sum over double arrows of d_s(a) e_t(a)."""
    d = tuple(int(x) for x in d)
    e = tuple(int(x) for x in e)
    if len(d) != dq.nv or len(e) != dq.nv:
        raise InputError(f"dimension vectors must have length {dq.nv}")
    total = 2 * sum(di * ei for di, ei in zip(d, e))
    for a in dq.arrows:
        total -= d[a.source - 1] * e[a.target - 1]
    return total


def _relation_paths(dq: DoubleQuiver, v: int) -> list[tuple[tuple[int, int], int]]:
    """Degree-2 component of the defining relation at vertex v.

    Returns ((first_arrow, second_arrow), coefficient) pairs in application
    order.
    """
    terms = []
    for k in range(dq.n_base):
        a = dq.arrows[k]
        if a.source == v:
            terms.append(((k, dq.partner[k]), 1))
        if a.target == v:
            terms.append(((dq.partner[k], k), -1))
    return terms


class PreprojectiveBasis:
    """Graded basis of path classes of the bound double-quiver algebra.

    For each (source, target, degree) a deterministic subset of paths is
    chosen whose classes form a basis, together with a reduction matrix
    expressing any path of that profile in the chosen basis.
    """

    def __init__(self, dq: DoubleQuiver, field: PrimeField):
        self.dq = dq
        self.field = field
        # all_paths[deg][(i, j)] -> ordered list of path tuples
        self.all_paths: list[dict[tuple[int, int], list[tuple[int, ...]]]] = []
        # basis_paths[deg][(i, j)] -> chosen basis paths; reducers map path
        # indicator vectors to basis coordinates
        self.basis_paths: list[dict[tuple[int, int], list[tuple[int, ...]]]] = []
        self.reducers: list[dict[tuple[int, int], np.ndarray]] = []
        self._build(2 * dq.nv)
        self.graded_dims = [
            sum(len(v) for v in layer.values()) for layer in self.basis_paths
        ]
        self.total_dim = sum(self.graded_dims)

    def _build(self, cap: int):
        dq, fld = self.dq, self.field
        deg0 = {(i, i): [()] for i in dq.vertices}
        self.all_paths.append(deg0)
        self.basis_paths.append({k: list(v) for k, v in deg0.items()})
        self.reducers.append({k: fld.eye(1) for k in deg0})
        deg = 0
        while True:
            deg += 1
            if deg > cap:
                raise StructureError(
                    f"path algebra did not terminate by degree {cap}; relation encoding bug"
                )
            layer: dict[tuple[int, int], list[tuple[int, ...]]] = {}
            prev = self.all_paths[deg - 1]
            for (i, j), paths in sorted(prev.items()):
                for w in paths:
                    for k in dq.arrows_out(j):
                        layer.setdefault((i, dq.arrows[k].target), []).append(w + (k,))
            for key in layer:
                layer[key].sort()
            basis_layer = {}
            reducer_layer = {}
            nonzero = False
            for (i, j), paths in sorted(layer.items()):
                index = {w: idx for idx, w in enumerate(paths)}
                rel_vecs = []
                for split in range(deg - 1):
                    for v in dq.vertices:
                        lefts = self.all_paths[split].get((i, v), [])
                        rights = self.all_paths[deg - 2 - split].get((v, j), [])
                        for w in lefts:
                            for u in rights:
                                vec = np.zeros(len(paths), dtype=np.int64)
                                for (pair, coeff) in _relation_paths(dq, v):
                                    full = w + pair + u
                                    vec[index[full]] += coeff
                                rel_vecs.append(vec % fld.p)
                if rel_vecs:
                    rel = np.stack(rel_vecs, axis=1)
                else:
                    rel = fld.zeros(len(paths), 0)
                q, free = fld.quotient_map(rel, len(paths))
                if q.shape[0]:
                    basis_layer[(i, j)] = [paths[c] for c in free]
                    reducer_layer[(i, j)] = q
                    nonzero = True
            if not nonzero:
                break
            self.all_paths.append(layer)
            self.basis_paths.append(basis_layer)
            self.reducers.append(reducer_layer)

    def classes_from(self, i: int) -> dict[int, list[tuple[int, int]]]:
        """Basis classes with source i, per target vertex, ordered by (degree, path).

        Entries are (degree, position-in-degree-layer) pairs; the empty path
        at (i, i) is always position 0 of the vertex-i component.
        """
        out: dict[int, list[tuple[int, int]]] = {j: [] for j in self.dq.vertices}
        for deg, layer in enumerate(self.basis_paths):
            for j in self.dq.vertices:
                for pos in range(len(layer.get((i, j), []))):
                    out[j].append((deg, pos))
        return out

    def reduce_path(self, path: tuple[int, ...], i: int, j: int) -> np.ndarray:
        """Coordinates of a path's class over the chosen basis of its profile."""
        deg = len(path)
        if deg >= len(self.all_paths):  # past the top degree every class is zero
            return self.field.zeros(0, 1)
        paths = self.all_paths[deg].get((i, j), [])
        coords = self.field.zeros(len(self.basis_paths[deg].get((i, j), [])), 1)
        if not paths or path not in paths:
            raise InputError(f"path {path} is not a {i}->{j} path of degree {deg}")
        vec = np.zeros((len(paths), 1), dtype=np.int64)
        vec[paths.index(path), 0] = 1
        red = self.reducers[deg].get((i, j))
        if red is None or red.shape[0] == 0:
            return coords
        return self.field.mul(red, vec)
