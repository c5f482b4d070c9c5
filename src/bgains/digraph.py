"""Directed multigraphs and the structural facts the counting formulas need.

A Digraph is a vertex count plus an ordered list of (origin, endpoint)
pairs; the edge id is the position in that list.  Loops and parallel edges
are allowed everywhere.  ``analyze`` computes the three quantities the
closed-form counts depend on: weak connectivity, bipartiteness of the
underlying undirected graph, and the strongly connected component
decomposition (component count and number of cross-component edges).

``analyze`` takes one of two paths, chosen by edge count, and both give the
same report.  Below ``_ARRAY_EDGES`` edges it runs Tarjan's algorithm and
``_spanning_forest`` over Python lists.  That forest is the library's one
spanning forest: the enumeration frames take their trees from it too.
From there on ``analyze`` works on the graph's edge array.  It builds
the out- and in-adjacency of the edges that are not loops once, and one
frontier search, ``_reach``, runs over them in rounds up to a fixed
bound.  Its search from vertex 0 over both gives weak connectivity and
bipartiteness: when it reaches every vertex the graph is connected, and it
is bipartite when it has no loop and no edge joins two depths of one
parity.  When the search gives up or leaves a vertex out, both facts come
from the forest, as on the Python path.  The strongly connected components
come from ``_strong_arrays`` in three steps: rounds that trim vertices
without an in-edge or without an out-edge, each a component of its own
(McLendon, Hendrickson, Plimpton and Rauchwerger, 2005); one
forward-backward search, whose forward and backward reach from one vertex
meet in its component (Fleischer, Hendrickson and Pinar, 2000); and
Tarjan's loop over what is left.  Each step removes whole components, and
that leaves every other component as it was.  The first two run in rounds
up to fixed round bounds, so a long path or a long chain of small
components still ends in Tarjan's loop, and a deep graph in the forest.
The arrays cost a fixed overhead per call, several times the whole Python
path on a graph of a few edges, and pay off only from some thousands of
edges on; so small graphs, which the oracle checks analyze by the
thousand, stay on the Python path.  The report and the forests are
computed once per Digraph object, which is immutable, and kept on it.

Graph file format::

    # comment lines and trailing comments are stripped
    n=4           optional, first significant line; otherwise the vertex
                  count is one more than the largest index mentioned
    0 1           one edge per line: origin endpoint
    2 3

Edge ids follow file order.  A file may name at most 1,000,000 vertices.
A file is bytes: ASCII digits, spaces and tabs, in lines that end with
``\\n``, ``\\r\\n`` or a lone ``\\r``, and a number has at most 18 digits.  A
comment runs from the first ``#`` of a line to its end and may hold any
other byte.  ``load_graph`` reads a ``str`` as its UTF-8 bytes.

``_parse_bytes`` is the one parser.  It reads the file in chunks cut at
line ends.  In each, one regex cuts the comments and, until a significant
line is seen, another reads the n= line; numpy reads the rest over its
bytes: character classes by comparison, the digit runs and the line of each
run, and the integers, straight into the int32 edge array.  Only a file
that it declines goes on to ``_first_error``, which reads it from the step
that was declined, names the first bad line by its number and builds no
graph.

Every graph holds its edge array, the read-only (2, E) array of origins and
endpoints, from the moment it exists: the counts, ``analyze`` and the
frames read it.  The constructor checks every edge and builds the array.
Only the byte parser's builder, ``_array_digraph``, skips the check, since
the byte parser has checked every entry of its array; a parsed graph holds
that array alone, and its ``edges`` tuple is built when first read.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

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
        try:
            n = operator.index(self.n_vertices)
        except TypeError:
            raise ValueError(f"n_vertices must be an integer, got {self.n_vertices!r}") from None
        if n < 0:
            raise ValueError(f"n_vertices must be nonnegative, got {n}")
        edges = tuple(_checked_edge(e, pair, n) for e, pair in enumerate(self.edges))
        # The edge array, origins and endpoints in two rows: int32 below
        # 2**31 vertices, where every vertex fits.
        dtype = np.int32 if n < 2**31 else np.int64
        ends = np.fromiter(itertools.chain.from_iterable(edges), dtype, 2 * len(edges)).reshape(-1, 2).T.copy()
        ends.flags.writeable = False
        self.__dict__.update(n_vertices=n, edges=edges, _ends=ends)

    def __getattr__(self, name: str):
        # Reached only when the usual lookup fails: for ``edges`` of a graph
        # that ``_array_digraph`` built, until it is first read.
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = self.__dict__["edges"] = tuple(zip(*self._ends.tolist()))
        return edges

    def __reduce__(self):
        # A copy is rebuilt from the vertex count and the edge array: no
        # kept report, forest or edge tuples, and an array read-only as in
        # any graph.
        return _array_digraph, (self.n_vertices, self._ends)

    @property
    def n_edges(self) -> int:
        return self._ends.shape[1]


def _checked_edge(e: int, pair, n: int) -> tuple[int, int]:
    """Edge ``e`` as a pair of ints in ``0..n - 1``, or a ValueError naming
    it.  Integer-likes become ints and lists tuples, so a graph equals its
    tuple form; a tuple of two ints is kept as it is."""
    try:
        u, w = map(operator.index, pair)
    except (TypeError, ValueError):
        raise ValueError(f"edge {e} = {pair!r} is not a pair of integers") from None
    if not (0 <= u < n and 0 <= w < n):
        raise ValueError(f"edge {e} = ({u}, {w}) has a vertex outside 0..{n - 1}")
    # operator.index returns an int itself and makes a new int of anything else.
    return pair if type(pair) is tuple and pair[0] is u and pair[1] is w else (u, w)


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


# analyze and the enumerators allocate per-vertex structures, so a file
# naming a huge vertex count would exhaust memory before any other check.
_VERTEX_LIMIT = 1_000_000

# A line end, as bytes.splitlines reads it: \r\n, a lone \r or \n.
_LINE_END = re.compile(rb"\r\n?|\n")

# A comment: from the first # of a line to its end.
_COMMENT = re.compile(rb"#[^\r\n]*")

# The n= line, the first significant line once comments are cut, up to its
# line end; blank lines may come before it.
_N_LINE = re.compile(rb"[ \t\r\n]*n[ \t]*=[ \t]*([0-9]{1,18})[ \t]*(?=[\r\n]|\Z)")

# A well-formed significant line with its comment cut off and its spaces and
# tabs stripped: an n= line or an edge.  A number has at most 18 digits,
# which fit in an int64.
_LINE = re.compile(rb"(?:n[ \t]*=[ \t]*|[0-9]{1,18}[ \t]+)[0-9]{1,18}")

# Bytes per step of the byte parser, which cuts the text after the first line
# end past each multiple of this: its temporaries, a few bytes per byte of
# the step, stay within some megabytes whatever the length of the text.
_CHUNK = 2**16


def load_graph(text: str | bytes) -> Digraph:
    """Parse a graph file (see module docstring for the format), given as
    bytes or as a str, which is read as its UTF-8 bytes."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    parsed = _parse_bytes(data)
    if isinstance(parsed, _Declined):
        raise _first_error(data, parsed)
    return _array_digraph(*parsed)


class _Declined(NamedTuple):
    """Where ``_parse_bytes`` declined a graph file: the offset of the step
    that it declined, which starts a line, and its n= state before that
    step, the declared vertex count and whether a significant line came
    first."""

    offset: int
    n_declared: int | None
    seen: bool


def _parse_bytes(data: bytes) -> tuple[int, np.ndarray] | _Declined:
    """The vertex count and the (2, E) int32 edge array of a well-formed
    graph file, or where it declined the file, for ``_first_error`` to name
    its first bad line.

    The file is well formed when, with comments cut off, it holds ASCII
    digits, spaces, tabs and line ends, its first significant line is an
    optional ``n=`` line and every other line holds no index or two, each
    of at most 18 digits and in range.
    """
    n_declared, seen, top, parts = None, False, -1, [np.empty((2, 0), np.int32)]
    start = 0
    while start < len(data):
        cut = _LINE_END.search(data, start + _CHUNK)
        step, start = _Declined(start, n_declared, seen), cut.end() if cut else len(data)
        text = _COMMENT.sub(b"", data[step.offset : start])
        if not seen and text.strip(b" \t\r\n"):
            seen, head = True, _N_LINE.match(text)
            if head:  # read the n= line, and cut it off
                n_declared, text = int(head[1]), text[head.end() :]
                if n_declared > _VERTEX_LIMIT:
                    return step
        b = np.frombuffer(text, np.uint8)
        line_ends = np.flatnonzero((b == 10) | (b == 13))
        blank = (b == 32) | (b == 9) | (b == 13) | (b == 10)
        digit = (b >= 48) & (b <= 57)
        if not np.all(blank | digit):
            return step
        # The digit runs start and stop where ``digit`` flips.  Each line
        # holds none or two, and each run has at most 18 digits.
        flips = np.flatnonzero(np.diff(digit, prepend=False, append=False))
        runs, width = flips[::2], flips[1::2] - flips[::2]
        line = np.searchsorted(line_ends, runs)
        paired = len(runs) % 2 == 0 and np.all(line[::2] == line[1::2]) and np.all(line[2::2] != line[1:-1:2])
        if not paired or np.any(width > 18):
            return step
        values = np.zeros(len(runs), dtype=np.int64)
        for j in range(int(width.max(initial=0))):
            values = np.where(width > j, values * 10 + b[np.minimum(runs + j, len(b) - 1)] - 48, values)
        top = max(top, int(values.max(initial=-1)))
        if top >= (_VERTEX_LIMIT if n_declared is None else n_declared):
            return step
        parts.append(values.reshape(-1, 2).T.astype(np.int32, order="C"))
    if not seen:
        return _Declined(len(data), None, False)
    return top + 1 if n_declared is None else n_declared, np.concatenate(parts, axis=1)


def _first_error(data: bytes, declined: _Declined) -> GraphFormatError:
    """The error that names the first bad line of a graph file that
    ``_parse_bytes`` declined, or says that no line is significant.  The
    lines before the declined step were good: the scan starts at that step,
    with its n= state, and numbers its lines after the line ends before it.

    Each line is read first as text: split at any whitespace, its numbers
    read by ``int``.  So a line at fault for its fields, its integers or
    their range gets the message that names that fault.  A line that passes,
    or holds no field (only whitespace such as ``\\f`` or U+00A0 that is not
    a space or a tab), must still match ``_LINE``, the format's ASCII digits,
    spaces and tabs.
    """
    start, n_declared, seen = declined
    # No step ends between the \r and the \n of a line end.
    before = data.count(b"\n", 0, start) + data.count(b"\r", 0, start) - data.count(b"\r\n", 0, start)
    for lineno, raw in enumerate(data[start:].splitlines(), start=before + 1):
        line = raw.partition(b"#")[0].strip(b" \t")
        if not line:
            continue
        text = line.decode("utf-8", "backslashreplace")
        name, equals, count = (part.strip() for part in text.partition("="))
        if equals and name == "n" and count.isdecimal():
            if seen:
                return GraphFormatError(f"line {lineno}: n= is only allowed as the first significant line")
            n_declared = int(count)
            if n_declared > _VERTEX_LIMIT:
                return GraphFormatError(
                    f"line {lineno}: n={n_declared} exceeds the limit of {_VERTEX_LIMIT} vertices"
                )
        elif fields := text.split():
            if len(fields) != 2:
                return GraphFormatError(f"line {lineno}: expected 'origin endpoint', got {text.strip()!r}")
            try:
                low, top = sorted(map(int, fields))
            except ValueError:
                return GraphFormatError(f"line {lineno}: vertex indices must be integers")
            if low < 0:
                return GraphFormatError(f"line {lineno}: vertex indices must be nonnegative")
            if n_declared is not None and top >= n_declared:
                return GraphFormatError(f"line {lineno}: vertex index {top} out of range for n={n_declared}")
            if top >= _VERTEX_LIMIT:
                return GraphFormatError(f"line {lineno}: vertex index {top} exceeds the limit of {_VERTEX_LIMIT} vertices")
        seen = True
        if not _LINE.fullmatch(line):
            return GraphFormatError(
                f"line {lineno}: expected numbers of 1 to 18 ASCII digits between spaces or tabs, got {text!r}"
            )
    if not seen:
        return GraphFormatError("no n= line and no edges: vertex count is undefined")
    raise AssertionError("the byte parser declined a graph file that has no bad line")


def _array_digraph(n_vertices: int, ends: np.ndarray) -> Digraph:
    """A Digraph of ``n_vertices`` whose edge e runs from ``ends[0, e]`` to
    ``ends[1, e]``, built without ``Digraph.__post_init__``.  It is the one
    builder that skips the constructor's check: its arrays come from the
    byte parser, which has checked that every entry lies in
    ``0..n_vertices - 1``, or from a copy of a graph.  ``ends`` is made
    read-only and kept as the constructor keeps its own, and ``edges`` is
    built from it when first read."""
    ends.flags.writeable = False
    d = object.__new__(Digraph)
    d.__dict__.update(n_vertices=n_vertices, _ends=ends)
    return d


def _spanning_forest(d: Digraph, rigid: bool = False) -> tuple[tuple, tuple[bool, ...]]:
    """``_breadth_first_forest`` per strongly connected component if ``rigid``, else of ``d``; kept on ``d``."""
    key = "_rigid_forest" if rigid else "_forest"
    if key not in d.__dict__:
        d.__dict__[key] = _breadth_first_forest(d, analyze(d).scc_assignment if rigid else None)
    return d.__dict__[key]


def _breadth_first_forest(d: Digraph, part: Sequence[int] | None) -> tuple[tuple, tuple[bool, ...]]:
    """Breadth-first spanning forest of the underlying undirected graph: one
    tree per part, rooted at its smallest vertex, over the part's own edges;
    ``part`` maps vertex -> part id, and None makes the whole graph one part.

    Returns one ``(e, u, w, backwards)`` per non-root vertex w, in visit
    order (u was reached before w; edge e joins them, running w -> u when
    ``backwards``), and whether each vertex lies at odd depth.
    """
    incident: list[list[tuple[int, int, bool]] | None] = [[] for _ in range(d.n_vertices)]
    for e, (u, w) in enumerate(zip(*d._ends.tolist())):
        if part is None or part[u] == part[w]:
            incident[u].append((e, w, False))
            incident[w].append((e, u, True))
    odd: list = [None] * d.n_vertices  # None until visited
    tree = []
    for root in range(d.n_vertices):
        if odd[root] is None:
            odd[root] = False
            queue = [root]
            for u in queue:  # the loop also visits what it appends
                for e, w, backwards in incident[u]:
                    if odd[w] is None:
                        odd[w] = not odd[u]
                        tree.append((e, u, w, backwards))
                        queue.append(w)
                incident[u] = None  # read once: free it while the tree grows
    return tuple(tree), tuple(odd)


def _weak_facts(d: Digraph) -> tuple[bool, bool]:
    """Weak connectivity and bipartiteness, read off ``_spanning_forest``:
    it has one tree per weak component, and adjacent depths differ by at
    most one, so an edge within one depth parity (a loop included) closes
    an odd cycle."""
    tree, odd = _spanning_forest(d)
    odd, (origins, endpoints) = np.array(odd, dtype=bool), d._ends
    return len(tree) >= d.n_vertices - 1, not np.any(odd[origins] == odd[endpoints])


def _strong_components(succ: list[list[int]]) -> tuple[list[int], int]:
    """Tarjan's algorithm, iterative, over vertices ``0..len(succ) - 1``
    with successor lists ``succ``: vertex -> component id, in the order the
    components finish, and the number of components.

    A visited vertex is on Tarjan's stack exactly while it has no component
    yet, so only an edge to a vertex without one can lower a low link.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = n_comps = 0

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
                if index[w] < low[v] and comp[w] == -1:
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
                elif low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
    return comp, n_comps


def _strong_arrays(out_edges: tuple, in_edges: tuple, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, int]:
    """Vertex -> strongly connected component id, and the number of
    components, over the edges tails -> heads, none of them a loop, and
    their out- and in-adjacency from ``_adjacency``.  Three steps give
    components to the live vertices, those without one yet, over the live
    edges, those between two live vertices.

    1. Trim (McLendon, Hendrickson, Plimpton and Rauchwerger, 2005): a live
       vertex without a live in-edge or without a live out-edge lies on no
       cycle, so it is a component of its own.  Degrees are counted once;
       each round settles such vertices and lowers their neighbours'
       degrees, among which the next round looks.  Trimming stops when a
       round finds none, or after ``_TRIM_ROUNDS`` rounds.
    2. Forward-backward (Fleischer, Hendrickson and Pinar, 2000): of the
       live vertices, those that the smallest one reaches and those that
       reach it have its component in common.  Each search is a ``_reach``
       and gives up after ``_REACH_ROUNDS`` rounds, and then this step
       settles nothing.
    3. Tarjan's loop, ``_strong_components``, over the live vertices that
       are left, renumbered ``0..k-1``, and the live edges between them.

    Each step settles whole components.  A cycle through a vertex stays
    inside its component, so removing other components breaks no cycle
    through it: the components of the live vertices, over the live edges,
    are the graph's own.
    """
    n = len(out_edges[0]) - 1
    in_degree, out_degree = np.diff(in_edges[0]), np.diff(out_edges[0])
    comp = np.empty(n, dtype=tails.dtype)
    live = np.ones(n, dtype=bool)
    n_comps = 0
    alone = np.flatnonzero((in_degree == 0) | (out_degree == 0))
    for _ in range(_TRIM_ROUNDS):
        if not len(alone):
            break
        comp[alone] = np.arange(n_comps, n_comps + len(alone))
        n_comps += len(alone)
        live[alone] = False
        successors, predecessors = _neighbours(out_edges, alone), _neighbours(in_edges, alone)
        np.subtract.at(in_degree, successors, 1)
        np.subtract.at(out_degree, predecessors, 1)
        near = np.concatenate((successors, predecessors))
        near = near[live[near]]
        alone = _distinct(near[(in_degree[near] == 0) | (out_degree[near] == 0)])
    if live.any():
        pivot = int(np.argmax(live))
        forward = _reach((out_edges,), live, pivot)
        backward = None if forward is None else _reach((in_edges,), live, pivot)
        if backward is not None:
            component = (forward >= 0) & (backward >= 0)
            comp[component] = n_comps
            n_comps += 1
            live &= ~component
    rest = np.flatnonzero(live)
    if len(rest):
        local = np.zeros(n, dtype=tails.dtype)
        local[rest] = np.arange(len(rest), dtype=tails.dtype)
        inside = live[tails] & live[heads]
        succ_offsets, succ = _adjacency(len(rest), local[tails[inside]], local[heads[inside]])
        succ, bounds = succ.tolist(), succ_offsets.tolist()
        comp_rest, k = _strong_components([succ[i:j] for i, j in zip(bounds, bounds[1:])])
        comp[rest] = np.array(comp_rest, dtype=tails.dtype) + n_comps
        n_comps += k
    return comp, n_comps


def _adjacency(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges tails -> heads as ``offsets`` and ``targets``: the heads
    of vertex v's edges are ``targets[offsets[v]:offsets[v + 1]]``, in no
    set order (a stable sort takes several times as long)."""
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(tails, minlength=n), out=offsets[1:])
    return offsets, heads[np.argsort(tails)]


def _neighbours(adjacency: tuple[np.ndarray, np.ndarray], vertices: np.ndarray) -> np.ndarray:
    """The heads of every edge out of ``vertices``, a gather over one range
    of ``targets`` per vertex."""
    offsets, targets = adjacency
    first = offsets[vertices]
    counts = offsets[vertices + 1] - first
    # Position j of the result reads targets[first[i] + j - start[i]],
    # where start[i] is where vertex i's range begins in the result.
    shift = np.repeat(first - np.cumsum(counts) + counts, counts)
    return targets[shift + np.arange(len(shift))]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, in increasing order; several times as fast as
    ``np.unique`` on these arrays."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _reach(adjacencies: tuple, live: np.ndarray, start: int) -> np.ndarray | None:
    """A breadth-first search from ``start`` over the live vertices and the
    edges between them of ``adjacencies``, each built by ``_adjacency``:
    the round in which it reaches each vertex, 0 for ``start`` and -1 for a
    vertex that is not live or not reached, or None if the search needs
    more than ``_REACH_ROUNDS`` rounds.
    A round reads only the edges out of the last round's new vertices, so
    the rounds together read each edge at most once."""
    seen = ~live
    seen[start] = True
    depth = np.full(len(live), -1, dtype=np.int32)
    depth[start] = 0
    frontier = np.array([start])
    for k in range(1, _REACH_ROUNDS + 1):
        found = np.concatenate([_neighbours(adjacency, frontier) for adjacency in adjacencies])
        frontier = _distinct(found[~seen[found]])
        if not len(frontier):
            return depth
        seen[frontier] = True
        depth[frontier] = k
    return None


# Round bounds of the array analyze.  On the large-graph benchmark's graphs
# (50,000 vertices, 100,000 edges, seeds 301-310) trimming stopped by itself
# after 10-14 rounds, the weak search from vertex 0 after 12-13 and each
# forward or backward search after 25-32; a 101-vertex cycle needs 100.  On
# 200,000-vertex paths, shuffled paths and chains of 2-cycles and of
# triangles, which end in Tarjan's loop, the trim and forward-backward
# bounds added 0-4 ms against no rounds at all, median of 11 runs, where
# ``_analyze_arrays`` took 0.3-0.7 s (Python 3.11, numpy 2.4, a shared 2-core
# host).
_TRIM_ROUNDS = 32
_REACH_ROUNDS = 128


# From this many edges on, analyze works on numpy arrays.  Timed in two
# runs on random graphs with twice as many edges as vertices (Python 3.11,
# numpy 2.4, a shared 2-core host), the array path took 0.72-1.37 of the
# Python path's time from 1,000 to 8,000 edges, 0.56-0.82 at 16,000, 0.60-0.66
# at 32,000 and 0.44-0.47 at 100,000.  On graphs of 4 to 8 edges it took
# 80-130 us a call against 9-18 us, and the oracle checks call analyze on
# thousands of those.
_ARRAY_EDGES = 8_192


def analyze(d: Digraph) -> StructureReport:
    """Compute the StructureReport for a digraph.

    Deterministic and independent of edge order; loops make the graph
    non-bipartite.  A graph of fewer than ``_ARRAY_EDGES`` edges is searched
    over Python lists, a larger one on numpy arrays (see the module
    docstring); the report is the same either way, and is kept on ``d``.
    """
    if "_report" in d.__dict__:
        return d.__dict__["_report"]
    if d.n_edges >= _ARRAY_EDGES:
        return d.__dict__.setdefault("_report", _analyze_arrays(d))
    connected, bipartite = _weak_facts(d)
    succ: list[list[int]] = [[] for _ in range(d.n_vertices)]
    for u, w in d.edges:
        succ[u].append(w)
    comp, n_comps = _strong_components(succ)
    cross = sum(comp[u] != comp[w] for u, w in d.edges)
    # Relabel component ids by first appearance over vertex index.
    relabel = dict(zip(dict.fromkeys(comp), range(n_comps)))
    report = StructureReport(connected, bipartite, n_comps, cross, tuple(map(relabel.__getitem__, comp)))
    return d.__dict__.setdefault("_report", report)


def _analyze_arrays(d: Digraph) -> StructureReport:
    """``analyze`` on numpy arrays."""
    n = d.n_vertices
    origins, ends = d._ends
    distinct = origins != ends  # a loop joins a vertex to no other
    tails, heads = origins[distinct], ends[distinct]
    out_edges, in_edges = _adjacency(n, tails, heads), _adjacency(n, heads, tails)
    comp, n_comps = _strong_arrays(out_edges, in_edges, tails, heads)
    depth = _reach((out_edges, in_edges), np.ones(n, dtype=bool), 0) if n else None
    if depth is not None and depth.min() >= 0:
        # Breadth-first depths, like the forest's: adjacent ones differ by at most one.
        weakly_connected, bipartite = True, bool(distinct.all()) and not np.any(depth[tails] % 2 == depth[heads] % 2)
    else:
        weakly_connected, bipartite = _weak_facts(d)
    cross = int(np.count_nonzero(comp[origins] != comp[ends]))
    # Relabel component ids by first appearance over vertex index.
    _, first, comp = np.unique(comp, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(n_comps)
    return StructureReport(weakly_connected, bipartite, n_comps, cross, tuple(rank[comp].tolist()))


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
