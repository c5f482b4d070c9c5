"""Closed-form counts and constructive bijections for balanced labelings.

For a weakly connected digraph with V vertices, E edges, kbar strongly
connected components and r edges running between different components, the
number of balanced labelings over a group G is::

    edges, flexible   |G|^(V-1)
    full,  flexible   |G|^V                 if the underlying graph is bipartite
                      |G2| * |G|^(V-1)      otherwise (G2 = involutions of G)
    edges, rigid      |G|^(V - kbar + r)
    full,  rigid      |G|^(2V - kbar + r)

Each formula is realized by an explicit bijection out of a product of free
coordinates, which is what makes exact enumeration and uniform sampling
possible:

* flexible edge labelings are exactly the coboundaries of vertex
  potentials g, via ``f(e) = g(origin)^-1 g(endpoint)``; fixing the value
  at a base vertex to the identity makes the correspondence one-to-one;
* a balanced full labeling pairs a balanced edge labeling with one extra
  element a at a base vertex.  On bipartite graphs a is arbitrary and
  vertex values propagate by ``h(w) = h(e)^-1 h(u)^-1 h(e)``; on
  non-bipartite graphs a must be an involution, vertex values propagate by
  conjugation ``h(w) = f(e)^-1 h(u) f(e)`` and edge values are
  ``h(e) = h(origin) f(e)``.  For balanced f the propagation does not
  depend on the path: with p the potential of f, ``h(v) = p(v)^-1 a p(v)``,
  except that a becomes a^-1 at odd distance from the base on bipartite
  graphs;
* rigid cycles never leave a strongly connected component, so a balanced
  rigid edge labeling is an independent potential-induced labeling inside
  each component plus a free value on every cross-component edge;
* rigid full labelings pair free vertex values with a balanced rigid edge
  labeling via ``h(e) = h(origin)^-1 f(e)``.

Enumeration order: each instance has one coordinate frame, built from one
``analyze``.  Its radices are ``|G2|`` for the extra base element of a
non-bipartite full flexible labeling, then ``|G|`` for every other free
coordinate.  The coordinates are, in order, the extra base element where
present (for rigid full: values on all vertices instead), then potential
values on non-base vertices by increasing vertex index, then
cross-component edge values by increasing edge id.  The base vertices, with
potential the identity, are the smallest vertex of the whole graph
(flexible) or of each strongly connected component (rigid).  An extra base
element coordinate c stands for element c, or for the c-th involution in
increasing index order when the radix is ``|G2|``.  Decoding a coordinate
vector applies the bijections above to it.  Streams are lexicographic over
the coordinate vector, element index 0 first.  ``sample_uniform`` draws
the same coordinates, in the same order, from ``random.Random(seed)``
(Mersenne Twister, one ``randrange`` per radix), so samples are
reproducible across platforms.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterator

from .balance import EDGES, FLEXIBLE, FULL, RIGID, EdgeLabeling, FullLabeling, _check_mode, _check_target
from .digraph import Digraph, StructureReport, analyze
from .groups import FiniteGroup

__all__ = [
    "BalancedCount",
    "NotWeaklyConnectedError",
    "Potential",
    "UnbalancedLabelingError",
    "count",
    "edges_to_potential",
    "enumerate_all",
    "full_to_pair",
    "full_to_pair_rigid",
    "pair_to_full_bipartite",
    "pair_to_full_odd",
    "pair_to_full_rigid",
    "potential_to_edges",
    "sample_uniform",
]


class NotWeaklyConnectedError(ValueError):
    """The operation needs a weakly connected digraph."""


class UnbalancedLabelingError(ValueError):
    """Propagated values contradict each other: the input labeling is not
    balanced (or, for the pair-to-full maps, the preconditions fail)."""


@dataclass(frozen=True)
class BalancedCount:
    """Exact count in factored form: value = |G2|^s * |G|^t.

    ``count`` also attaches the structure report its exponents were read
    from, so a caller that shows the structure too need not run
    ``analyze`` again.  The report takes no part in comparisons.
    """

    s: int
    t: int
    value: int
    report: StructureReport | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, s: int, t: int, group: FiniteGroup) -> "BalancedCount":
        return cls(s, t, len(group.involutions()) ** s * group.order**t)


@dataclass(frozen=True)
class Potential:
    """Vertex potential; ``values[base_vertex]`` is expected to be the
    group identity for the normalized potentials this module produces."""

    values: tuple[int, ...]
    base_vertex: int = 0


def _connected_report(d: Digraph) -> StructureReport:
    if d.n_vertices == 0:
        raise NotWeaklyConnectedError("graph has no vertices")
    report = analyze(d)
    if not report.weakly_connected:
        raise NotWeaklyConnectedError(
            "graph is not weakly connected; counts and enumeration are defined "
            "per weakly connected graph"
        )
    return report


def count(group: FiniteGroup, d: Digraph, target: str, mode: str) -> BalancedCount:
    """Exact number of balanced labelings, from the closed forms above."""
    _check_target(target)
    _check_mode(mode)
    report = _connected_report(d)
    return replace(_closed_form(group, d.n_vertices, report, target, mode), report=report)


def _closed_form(group: FiniteGroup, v: int, report: StructureReport, target: str, mode: str) -> BalancedCount:
    if mode == FLEXIBLE:
        if target == EDGES:
            return BalancedCount.of(0, v - 1, group)
        if report.bipartite:
            return BalancedCount.of(0, v, group)
        return BalancedCount.of(1, v - 1, group)
    kbar = report.scc_count
    r = report.cross_scc_edges
    if target == EDGES:
        return BalancedCount.of(0, v - kbar + r, group)
    return BalancedCount.of(0, 2 * v - kbar + r, group)


# ----------------------------------------------------------- bijections


def potential_to_edges(group: FiniteGroup, d: Digraph, p: Potential) -> EdgeLabeling:
    """f(e) = p(origin)^-1 * p(endpoint); always balanced in flexible mode."""
    if len(p.values) != d.n_vertices:
        raise ValueError(f"potential has {len(p.values)} values for {d.n_vertices} vertices")
    mul, inv = group.mul, group.inv
    return EdgeLabeling(
        tuple(mul(inv(p.values[u]), p.values[w]) for u, w in d.edges), FLEXIBLE
    )


def edges_to_potential(group: FiniteGroup, d: Digraph, f: EdgeLabeling, base: int = 0) -> Potential:
    """Recover the unique potential with identity at ``base``.

    Propagates values over the underlying undirected graph and then checks
    every edge; a contradiction raises UnbalancedLabelingError, so this
    doubles as a linear-time balance check for flexible edge labelings.
    """
    if f.mode != FLEXIBLE:
        raise ValueError("edges_to_potential applies to flexible labelings")
    if len(f.values) != d.n_edges:
        raise ValueError(f"labeling has {len(f.values)} values for {d.n_edges} edges")
    _connected_report(d)
    if not 0 <= base < d.n_vertices:
        raise ValueError(f"base vertex {base} out of range")
    return Potential(tuple(_tree_potential(group, d, _spanning_tree(d, base), f.values)), base)


def _spanning_tree(d: Digraph, root: int) -> list[tuple[int, int, int, bool]]:
    """Breadth-first spanning tree of the underlying undirected graph of a
    weakly connected digraph.

    One ``(e, u, w, backwards)`` per vertex w other than ``root``, in visit
    order: u was reached before w, and edge e joins them, running w -> u
    when ``backwards``.
    """
    incident: list[list[tuple[int, int, bool]]] = [[] for _ in range(d.n_vertices)]
    for e, (u, w) in enumerate(d.edges):
        incident[u].append((e, w, False))
        incident[w].append((e, u, True))
    seen = [False] * d.n_vertices
    seen[root] = True
    tree = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for e, w, backwards in incident[u]:
            if not seen[w]:
                seen[w] = True
                tree.append((e, u, w, backwards))
                queue.append(w)
    return tree


def _tree_potential(group: FiniteGroup, d: Digraph, tree, f: tuple[int, ...]) -> list[int]:
    """The potential p with identity at the tree's root and
    ``f(e) = p(origin)^-1 p(endpoint)`` along the tree, checked on every
    edge afterwards."""
    table, inverse = group.table, group.inverse
    p = [group.identity] * d.n_vertices
    for e, u, w, backwards in tree:
        x = f[e]
        p[w] = table[p[u]][inverse[x] if backwards else x]
    for e, (u, w) in enumerate(d.edges):
        if table[p[u]][f[e]] != p[w]:
            raise UnbalancedLabelingError(
                f"edge {e} contradicts the propagated potential: the labeling is not balanced"
            )
    return p


def _odd_depth(n_vertices: int, tree) -> list[bool]:
    """Whether each vertex lies at odd depth in ``tree``; on a bipartite
    graph, whether it is on the other side from the root."""
    odd = [False] * n_vertices
    for _, u, w, _ in tree:
        odd[w] = not odd[u]
    return odd


def _full_flexible(group: FiniteGroup, d: Digraph, a: int, p, f: tuple[int, ...], odd) -> FullLabeling:
    """The full labeling paired with (a, f), where f is the coboundary of
    the potential p and p is the identity at the base vertex.

    Vertex values are ``h(v) = p(v)^-1 a' p(v)``.  On a bipartite graph
    ``odd`` marks the vertices at odd depth, where a' = a^-1 (elsewhere
    a' = a), and the edge values are f.  Otherwise ``odd`` is None, a' = a,
    and ``h(e) = h(origin) f(e)``.
    """
    conj = group.conj
    if odd is not None:
        a_inv = group.inverse[a]
        return FullLabeling(tuple(conj(a_inv if o else a, x) for o, x in zip(odd, p)), f, FLEXIBLE)
    table = group.table
    vertex_values = tuple(conj(a, x) for x in p)
    edge_values = tuple(table[vertex_values[u]][x] for (u, _), x in zip(d.edges, f))
    return FullLabeling(vertex_values, edge_values, FLEXIBLE)


def pair_to_full_bipartite(
    group: FiniteGroup, d: Digraph, a: int, f: EdgeLabeling, base: int = 0
) -> FullLabeling:
    """Extend (a, f) to a full labeling on a bipartite-underlying digraph.

    Edge values are f's; vertex values start from h(base) = a and alternate
    by ``h(w) = f(e)^-1 h(u)^-1 f(e)``.  Raises UnbalancedLabelingError when
    f is not balanced or the underlying graph is not bipartite.
    """
    _require_edge_shape(d, f, FLEXIBLE)
    report = _connected_report(d)
    _check_base(d, base)
    if not report.bipartite:
        raise UnbalancedLabelingError("the underlying graph is not bipartite; use pair_to_full_odd")
    tree = _spanning_tree(d, base)
    p = _tree_potential(group, d, tree, f.values)
    return _full_flexible(group, d, a, p, f.values, _odd_depth(d.n_vertices, tree))


def pair_to_full_odd(
    group: FiniteGroup, d: Digraph, a: int, f: EdgeLabeling, base: int = 0
) -> FullLabeling:
    """Extend (a, f), a an involution, to a full labeling on a graph whose
    underlying graph is non-bipartite.

    Vertex values are the conjugates ``h(w) = f(e)^-1 h(u) f(e)`` of a along
    f, and edge values are ``h(e) = h(origin) f(e)``.  Raises
    UnbalancedLabelingError when f is not balanced.
    """
    if group.mul(a, a) != group.identity:
        raise ValueError(f"element {a} is not an involution")
    _require_edge_shape(d, f, FLEXIBLE)
    _connected_report(d)
    _check_base(d, base)
    p = _tree_potential(group, d, _spanning_tree(d, base), f.values)
    return _full_flexible(group, d, a, p, f.values, None)


def full_to_pair(group: FiniteGroup, d: Digraph, h: FullLabeling, base: int = 0) -> tuple[int, EdgeLabeling]:
    """Invert the applicable pair-to-full map: returns (h(base), f).

    Which extraction applies follows the graph's parity (from ``analyze``):
    on bipartite graphs f is h restricted to edges; otherwise
    ``f(e) = h(origin) h(e)``.
    """
    if h.mode != FLEXIBLE:
        raise ValueError("full_to_pair applies to flexible labelings")
    if len(h.vertex_values) != d.n_vertices or len(h.edge_values) != d.n_edges:
        raise ValueError("labeling shape does not match the digraph")
    report = _connected_report(d)
    _check_base(d, base)
    a = h.vertex_values[base]
    if report.bipartite:
        return a, EdgeLabeling(h.edge_values, FLEXIBLE)
    mul = group.mul
    f = tuple(mul(h.vertex_values[u], h.edge_values[e]) for e, (u, _) in enumerate(d.edges))
    return a, EdgeLabeling(f, FLEXIBLE)


def pair_to_full_rigid(
    group: FiniteGroup, d: Digraph, vertex_values: tuple[int, ...], f: EdgeLabeling
) -> FullLabeling:
    """Pair free vertex values with a balanced rigid f: h(e) = h(origin)^-1 f(e)."""
    _require_edge_shape(d, f, RIGID)
    if len(vertex_values) != d.n_vertices:
        raise ValueError("vertex value tuple does not match the digraph")
    mul, inv = group.mul, group.inv
    edge_values = tuple(
        mul(inv(vertex_values[u]), f.values[e]) for e, (u, _) in enumerate(d.edges)
    )
    return FullLabeling(tuple(vertex_values), edge_values, RIGID)


def full_to_pair_rigid(group: FiniteGroup, d: Digraph, h: FullLabeling) -> tuple[tuple[int, ...], EdgeLabeling]:
    """Inverse of pair_to_full_rigid: f(e) = h(origin) h(e)."""
    if h.mode != RIGID:
        raise ValueError("full_to_pair_rigid applies to rigid labelings")
    if len(h.vertex_values) != d.n_vertices or len(h.edge_values) != d.n_edges:
        raise ValueError("labeling shape does not match the digraph")
    mul = group.mul
    f = tuple(mul(h.vertex_values[u], h.edge_values[e]) for e, (u, _) in enumerate(d.edges))
    return h.vertex_values, EdgeLabeling(f, RIGID)


def _require_edge_shape(d: Digraph, f: EdgeLabeling, mode: str) -> None:
    if f.mode != mode:
        raise ValueError(f"expected a {mode} edge labeling, got {f.mode}")
    if len(f.values) != d.n_edges:
        raise ValueError(f"labeling has {len(f.values)} values for {d.n_edges} edges")


def _check_base(d: Digraph, base: int) -> None:
    if not 0 <= base < d.n_vertices:
        raise ValueError(f"base vertex {base} out of range")


# ---------------------------------------------------------- enumeration


class _Frame:
    """The free coordinates of one instance's balanced labelings.

    ``radices`` has one entry per coordinate, in enumeration order (see the
    module docstring), and their product is ``count.value``; ``decode``
    maps a coordinate vector, each entry below its radix, to its labeling.
    """

    def __init__(self, group: FiniteGroup, d: Digraph, target: str, mode: str):
        report = _connected_report(d)
        self.count = _closed_form(group, d.n_vertices, report, target, mode)
        self.radices = (len(group.involutions()),) * self.count.s + (group.order,) * self.count.t
        self._group, self._d, self._target, self._mode = group, d, target, mode
        n = d.n_vertices
        # Coordinates ahead of the potential: none for edge labelings, the
        # vertex values for rigid full ones, the base element a otherwise.
        if target == EDGES:
            self._lead = 0
        elif mode == RIGID:
            self._lead = n
        else:
            self._lead = 1
            self._heads = sorted(group.involutions()) if self.count.s else range(group.order)
            self._odd = _odd_depth(n, _spanning_tree(d, 0)) if report.bipartite else None
        # A part is the whole graph (flexible) or one strongly connected
        # component (rigid).  Decoding reads the coordinate vector with the
        # identity appended at slot ``k``: the smallest vertex of each part
        # reads that identity as its potential, the other vertices read the
        # next coordinates, and each cross-part edge reads its own coordinate
        # x as the "potential difference" identity^-1 x.
        part = report.scc_assignment if mode == RIGID else (0,) * n
        k = len(self.radices)
        slots = iter(range(self._lead, k))
        seen: set[int] = set()
        p = self._potential_slots = []
        for v in range(n):
            p.append(next(slots) if part[v] in seen else k)
            seen.add(part[v])
        self._origin_slots, self._endpoint_slots = [], []
        for u, w in d.edges:
            inside = part[u] == part[w]
            self._origin_slots.append(p[u] if inside else k)
            self._endpoint_slots.append(p[w] if inside else next(slots))
        # over[a][b] = a^-1 b
        self._over = [group.table[group.inverse[a]] for a in range(group.order)]

    def decode(self, coords) -> EdgeLabeling | FullLabeling:
        x = (*coords, self._group.identity)
        over = self._over
        f = tuple([over[x[i]][x[j]] for i, j in zip(self._origin_slots, self._endpoint_slots)])
        if self._target == EDGES:
            return EdgeLabeling(f, self._mode)
        if self._mode == RIGID:
            h = x[: self._lead]
            return FullLabeling(h, tuple([over[h[u]][y] for (u, _), y in zip(self._d.edges, f)]), RIGID)
        p = [x[i] for i in self._potential_slots]
        return _full_flexible(self._group, self._d, self._heads[x[0]], p, f, self._odd)


def enumerate_all(group: FiniteGroup, d: Digraph, target: str, mode: str) -> Iterator[EdgeLabeling | FullLabeling]:
    """Stream every balanced labeling exactly once.

    The stream is deterministic; see the module docstring for the
    coordinate order.  Its length always equals ``count(...).value``.
    """
    _check_target(target)
    _check_mode(mode)
    frame = _Frame(group, d, target, mode)
    for coords in product(*map(range, frame.radices)):
        yield frame.decode(coords)


def sample_uniform(
    group: FiniteGroup, d: Digraph, target: str, mode: str, seed: int
) -> EdgeLabeling | FullLabeling:
    """One balanced labeling, uniform over the whole family.

    Randomness comes from ``random.Random(seed)`` alone; the free
    coordinates are drawn in enumeration order with ``randrange``, then
    decoded as in the stream, so a given seed yields the same labeling
    everywhere.
    """
    _check_target(target)
    _check_mode(mode)
    frame = _Frame(group, d, target, mode)
    rng = random.Random(seed)
    return frame.decode([rng.randrange(r) for r in frame.radices])
