"""Directed multigraphs and the structural facts the counting formulas need.

A Digraph is a vertex count plus an ordered list of (origin, endpoint)
pairs; the edge id is the position in that list.  Loops and parallel edges
are allowed everywhere.  ``analyze`` computes the three quantities the
closed-form counts depend on: weak connectivity, bipartiteness of the
underlying undirected graph, and the strongly connected component
decomposition (component count and number of cross-component edges).

Graph file format::

    # comment lines and trailing comments are stripped
    n=4           optional, first significant line; otherwise the vertex
                  count is one more than the largest index mentioned
    0 1           one edge per line: origin endpoint
    2 3

Edge ids follow file order.  A file may name at most 1,000,000 vertices.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Digraph",
    "GraphFormatError",
    "StructureReport",
    "analyze",
    "iter_connected_multigraphs",
    "load_graph",
]


class GraphFormatError(ValueError):
    """Malformed graph file text."""


@dataclass(frozen=True)
class Digraph:
    """A directed multigraph; edge id = position in ``edges``."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # Edges given as lists (or pairs of lists) would make the graph
        # unhashable and unequal to its tuple form; load_graph passes
        # tuples of tuples, which are kept as they are.
        if type(self.edges) is not tuple or set(map(type, self.edges)) - {tuple}:
            object.__setattr__(self, "edges", tuple((int(u), int(w)) for u, w in self.edges))
        if self.n_vertices < 0:
            raise ValueError(f"n_vertices must be nonnegative, got {self.n_vertices}")
        for e, (u, w) in enumerate(self.edges):
            if not (0 <= u < self.n_vertices and 0 <= w < self.n_vertices):
                raise ValueError(
                    f"edge {e} = ({u}, {w}) has a vertex outside 0..{self.n_vertices - 1}"
                )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> "Digraph":
        return cls(n_vertices, tuple((int(u), int(w)) for u, w in edges))


@dataclass(frozen=True)
class StructureReport:
    """Structural summary of a Digraph.

    ``scc_assignment`` maps vertex -> component id; ids are normalized to
    first appearance in vertex order, so the report is independent of edge
    order.  ``cross_scc_edges`` counts edges whose endpoints lie in
    different components.
    """

    weakly_connected: bool
    bipartite: bool
    scc_count: int
    cross_scc_edges: int
    scc_assignment: tuple[int, ...]


_N_LINE = re.compile(r"^n\s*=\s*(\d+)$")

# analyze and the enumerators allocate per-vertex structures, so a file
# naming a huge vertex count would exhaust memory before any other check.
_VERTEX_LIMIT = 1_000_000


def load_graph(text: str) -> Digraph:
    """Parse graph file text (see module docstring for the format)."""
    n_declared: int | None = None
    edges: list[tuple[int, int]] = []
    seen_significant = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _N_LINE.match(line)
        if m:
            if seen_significant:
                raise GraphFormatError(
                    f"line {lineno}: n= is only allowed as the first significant line"
                )
            n_declared = int(m.group(1))
            if n_declared > _VERTEX_LIMIT:
                raise GraphFormatError(
                    f"line {lineno}: n={n_declared} exceeds the limit of {_VERTEX_LIMIT} vertices"
                )
            seen_significant = True
            continue
        seen_significant = True
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected 'origin endpoint', got {line!r}"
            )
        try:
            u, w = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: vertex indices must be integers") from None
        if u < 0 or w < 0:
            raise GraphFormatError(f"line {lineno}: vertex indices must be nonnegative")
        if n_declared is not None and (u >= n_declared or w >= n_declared):
            raise GraphFormatError(
                f"line {lineno}: vertex index {max(u, w)} out of range for n={n_declared}"
            )
        if max(u, w) >= _VERTEX_LIMIT:
            raise GraphFormatError(
                f"line {lineno}: vertex index {max(u, w)} exceeds the limit of {_VERTEX_LIMIT} vertices"
            )
        edges.append((u, w))
    if n_declared is None:
        if not edges:
            raise GraphFormatError("no n= line and no edges: vertex count is undefined")
        n_declared = 1 + max(max(u, w) for u, w in edges)
    return Digraph(n_declared, tuple(edges))


def _depth_parity(d: Digraph) -> tuple[list[int], int]:
    """Breadth-first search of the underlying undirected graph, restarted
    at each unvisited vertex: each vertex's depth parity, and the number of
    searches (one per weak component)."""
    nbrs: list[list[int]] = [[] for _ in range(d.n_vertices)]
    for u, w in d.edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    parity = [-1] * d.n_vertices
    searches = 0
    for root in range(d.n_vertices):
        if parity[root] != -1:
            continue
        searches += 1
        parity[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            p = 1 - parity[v]
            for w in nbrs[v]:
                if parity[w] == -1:
                    parity[w] = p
                    queue.append(w)
    return parity, searches


def _strong_components(d: Digraph) -> list[int]:
    """Tarjan's algorithm, iterative; returns vertex -> component id,
    normalized to first appearance in vertex order."""
    n = d.n_vertices
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, w in d.edges:
        succ[u].append(w)

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    n_comps = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == v:
                        break
                n_comps += 1

    # Relabel component ids by first appearance over vertex index.
    relabel: dict[int, int] = {}
    for v in range(n):
        if comp[v] not in relabel:
            relabel[comp[v]] = len(relabel)
    return [relabel[c] for c in comp]


def analyze(d: Digraph) -> StructureReport:
    """Compute the StructureReport for a digraph.

    Deterministic and independent of edge order; loops make the graph
    non-bipartite.
    """
    parity, searches = _depth_parity(d)
    comp = _strong_components(d)
    cross = sum(1 for u, w in d.edges if comp[u] != comp[w])
    return StructureReport(
        weakly_connected=searches <= 1,
        # BFS depths of adjacent vertices differ by at most one, so an edge
        # within one parity class (a loop included) closes an odd cycle.
        bipartite=all(parity[u] != parity[w] for u, w in d.edges),
        scc_count=len(set(comp)),
        cross_scc_edges=cross,
        scc_assignment=tuple(comp),
    )


def iter_connected_multigraphs(max_vertices: int, max_edges: int) -> Iterator[Digraph]:
    """All weakly connected directed multigraphs with at most the given sizes.

    Exhaustive over labeled vertices and edge *multisets* (loops and
    parallel edges included); reorderings of the edge list are skipped since
    no quantity in this library depends on edge order.
    """
    for n in range(1, max_vertices + 1):
        pairs = [(u, w) for u in range(n) for w in range(n)]
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                d = Digraph(n, combo)
                if analyze(d).weakly_connected:
                    yield d
