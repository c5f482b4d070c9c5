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

A well-formed file (ASCII digits, spaces and tabs, ``\n`` or ``\r\n``
line ends) is parsed in bulk: one regular-expression search for a line
outside the format, one numpy conversion of all the integers and one range
check.  Any other text, malformed or not, goes through the line-by-line
parser, which reports the first bad line by its number.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

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
        # Whole-tuple passes find whether an edge is bad; only then are the
        # edges walked, to name the first bad one.
        ends = list(itertools.chain.from_iterable(self.edges))
        if set(map(len, self.edges)) - {2} or ends and (min(ends) < 0 or max(ends) >= self.n_vertices):
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

# The bulk parser's view of the format.  A comment runs to the next of the
# characters that str.splitlines breaks lines at; of those, only "\n" and a
# "\r" before it may end a line.  Indices are at most 18 digits, so that
# they fit in an int64.  The search for a line outside the format carries
# no state from line to line, whatever the length of the text.
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
_BAD_LINE = re.compile(
    r"^(?![ \t]*(?:[0-9]{1,18}[ \t]+[0-9]{1,18}|n[ \t]*=[ \t]*[0-9]{1,18})?[ \t]*(?:"
    + _COMMENT.pattern
    + r")?\r?$).",
    re.M | re.ASCII,
)


def load_graph(text: str) -> Digraph:
    """Parse graph file text (see module docstring for the format)."""
    return _load_bulk(text) or _load_lines(text)


def _load_bulk(text: str) -> Digraph | None:
    """The graph of a well-formed text, or None for the line parser to
    take it (and to report the error, if there is one)."""
    if _BAD_LINE.search(text):
        return None
    body = _COMMENT.sub("", text) if "#" in text else text
    n_declared = None
    if "n" in body:  # must be the first significant line, and the only n= line
        head, _, body = body.lstrip().partition("\n")
        if not head.startswith("n") or "n" in body:
            return None
        n_declared = int(head.partition("=")[2])
        if n_declared > _VERTEX_LIMIT:
            return None
    # numpy reads a blank string as one zero.
    ends = np.fromstring(body, dtype=np.int64, sep=" ") if body and not body.isspace() else []
    if not len(ends):
        return None if n_declared is None else Digraph(n_declared, ())
    top = int(ends.max())
    if top >= (_VERTEX_LIMIT if n_declared is None else n_declared):
        return None
    ends = iter(ends.tolist())  # frees the array now, and the list once paired
    return Digraph(top + 1 if n_declared is None else n_declared, tuple(zip(ends, ends)))


def _load_lines(text: str) -> Digraph:
    """Parse graph file text one line at a time, naming the first bad line."""
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


def _weak_search(d: Digraph) -> tuple[int, bool]:
    """Breadth-first search of the underlying undirected graph, restarted
    at each unvisited vertex: the number of searches (one per weak
    component) and whether the graph is bipartite.  BFS depths of adjacent
    vertices differ by at most one, so an edge within one depth parity (a
    loop included) closes an odd cycle."""
    nbrs: list[list[int]] = [[] for _ in range(d.n_vertices)]
    for u, w in d.edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    parity = [-1] * d.n_vertices
    searches = 0
    bipartite = True
    for root in range(d.n_vertices):
        if parity[root] != -1:
            continue
        searches += 1
        parity[root] = 0
        queue = [root]
        for v in queue:  # the loop also visits what it appends
            p = parity[v]
            q = 1 - p
            for w in nbrs[v]:
                x = parity[w]
                if x == -1:
                    parity[w] = q
                    queue.append(w)
                elif x == p:
                    bipartite = False
    return searches, bipartite


def _strong_components(d: Digraph) -> tuple[list[int], int, int]:
    """Tarjan's algorithm, iterative: vertex -> component id (normalized to
    first appearance in vertex order), the number of components and the
    number of edges between components.

    A visited vertex is on Tarjan's stack exactly while it has no component
    yet.  An edge into a finished component leaves the searching vertex's
    component, which is unfinished; so does a tree edge into the root of a
    component.  Every other edge stays inside one component.
    """
    n = d.n_vertices
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, w in d.edges:
        succ[u].append(w)

    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = n_comps = cross = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        path = [root]  # the search path, and an iterator over each one's successors
        its = [iter(succ[root])]
        while its:
            v = path[-1]
            for w in its[-1]:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    its.append(iter(succ[w]))
                    break
                if comp[w] != -1:
                    cross += 1
                elif index[w] < low[v]:
                    low[v] = index[w]
            else:
                its.pop()
                path.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
                    cross += bool(path)
                elif low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]

    # Relabel component ids by first appearance over vertex index.
    relabel = dict(zip(dict.fromkeys(comp), range(n_comps)))
    return list(map(relabel.__getitem__, comp)), n_comps, cross


def analyze(d: Digraph) -> StructureReport:
    """Compute the StructureReport for a digraph.

    Deterministic and independent of edge order; loops make the graph
    non-bipartite.
    """
    searches, bipartite = _weak_search(d)
    comp, n_comps, cross = _strong_components(d)
    return StructureReport(
        weakly_connected=searches <= 1,
        bipartite=bipartite,
        scc_count=n_comps,
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
