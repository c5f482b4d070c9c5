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
  ``h(e) = h(origin) f(e)``;
* rigid cycles never leave a strongly connected component, so a balanced
  rigid edge labeling is an independent potential-induced labeling inside
  each component plus a free value on every cross-component edge;
* rigid full labelings pair free vertex values with a balanced rigid edge
  labeling via ``h(e) = h(origin)^-1 f(e)``.

Enumeration order: the free coordinates are, in order, the extra base
element where present, then potential values on non-base vertices by
increasing vertex index (for rigid full: values on all vertices first),
then cross-component edge values by increasing edge id; streams are
lexicographic over that coordinate vector, element index 0 first.
``sample_uniform`` draws the same coordinates, in the same order, from
``random.Random(seed)`` (Mersenne Twister via ``randrange``), so samples
are reproducible across platforms.
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
    "rigid_edge_enumerator",
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

    mul, inv = group.mul, group.inv
    incident: list[list[tuple[int, int, bool]]] = [[] for _ in range(d.n_vertices)]
    for e, (u, w) in enumerate(d.edges):
        incident[u].append((e, w, False))
        incident[w].append((e, u, True))

    values: list[int | None] = [None] * d.n_vertices
    values[base] = group.identity
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for e, w, backwards in incident[u]:
            if values[w] is None:
                x = f.values[e]
                values[w] = mul(values[u], inv(x) if backwards else x)
                queue.append(w)
    for e, (u, w) in enumerate(d.edges):
        if mul(values[u], f.values[e]) != values[w]:
            raise UnbalancedLabelingError(
                f"edge {e} contradicts the propagated potential: the labeling is not balanced"
            )
    return Potential(tuple(values), base)


def _propagate_vertex_values(group, d, seed_vertex, seed_value, step):
    """BFS h over the underlying undirected graph from one seeded vertex.

    ``step(value_at_from, edge_value, backwards)`` gives the value at the far
    endpoint.  Afterwards every edge is re-checked with the same rule, so an
    ill-defined assignment cannot escape."""
    incident: list[list[tuple[int, int, bool]]] = [[] for _ in range(d.n_vertices)]
    for e, (u, w) in enumerate(d.edges):
        incident[u].append((e, w, False))
        incident[w].append((e, u, True))
    values: list[int | None] = [None] * d.n_vertices
    values[seed_vertex] = seed_value
    queue = deque([seed_vertex])
    while queue:
        u = queue.popleft()
        for e, w, backwards in incident[u]:
            if values[w] is None:
                values[w] = step(values[u], e, backwards)
                queue.append(w)
    for e, (u, w) in enumerate(d.edges):
        if step(values[u], e, False) != values[w]:
            raise UnbalancedLabelingError(
                f"vertex values are not well-defined at edge {e}: "
                "check the bipartiteness/involution preconditions and that f is balanced"
            )
    return values


def pair_to_full_bipartite(
    group: FiniteGroup, d: Digraph, a: int, f: EdgeLabeling, base: int = 0
) -> FullLabeling:
    """Extend (a, f) to a full labeling on a bipartite-underlying digraph.

    Edge values are f's; vertex values start from h(base) = a and alternate
    by ``h(w) = f(e)^-1 h(u)^-1 f(e)``.  Well-defined for balanced f on
    bipartite graphs (the propagation re-check raises otherwise).
    """
    _require_edge_shape(d, f, FLEXIBLE)
    _connected_report(d)
    _check_base(d, base)
    mul, inv = group.mul, group.inv

    def step(hu, e, backwards):
        x = f.values[e]
        if backwards:
            x = inv(x)
        return mul(mul(inv(x), inv(hu)), x)

    values = _propagate_vertex_values(group, d, base, a, step)
    return FullLabeling(tuple(values), f.values, FLEXIBLE)


def pair_to_full_odd(
    group: FiniteGroup, d: Digraph, a: int, f: EdgeLabeling, base: int = 0
) -> FullLabeling:
    """Extend (a, f), a an involution, to a full labeling on a graph whose
    underlying graph is non-bipartite.

    Vertex values are the conjugates ``h(w) = f(e)^-1 h(u) f(e)`` of a along
    f, and edge values are ``h(e) = h(origin) f(e)``.
    """
    if group.mul(a, a) != group.identity:
        raise ValueError(f"element {a} is not an involution")
    _require_edge_shape(d, f, FLEXIBLE)
    _connected_report(d)
    _check_base(d, base)
    mul, inv = group.mul, group.inv

    def step(hu, e, backwards):
        x = f.values[e]
        if backwards:
            x = inv(x)
        return mul(mul(inv(x), hu), x)

    values = _propagate_vertex_values(group, d, base, a, step)
    edge_values = tuple(mul(values[u], f.values[e]) for e, (u, w) in enumerate(d.edges))
    return FullLabeling(tuple(values), edge_values, FLEXIBLE)


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


def _rigid_frame(d: Digraph, report: StructureReport):
    """Free coordinates of balanced rigid edge labelings: non-base vertices
    (base = smallest vertex of each strongly connected component) and
    cross-component edges."""
    comp = report.scc_assignment
    base_of: dict[int, int] = {}
    for v in range(d.n_vertices):
        base_of.setdefault(comp[v], v)
    free_vertices = [v for v in range(d.n_vertices) if base_of[comp[v]] != v]
    cross_edges = [e for e, (u, w) in enumerate(d.edges) if comp[u] != comp[w]]
    return comp, free_vertices, cross_edges


def _rigid_labeling_from_coords(group, d, comp, free_vertices, cross_edges, coords) -> EdgeLabeling:
    mul, inv = group.mul, group.inv
    potential = [group.identity] * d.n_vertices
    for v, x in zip(free_vertices, coords):
        potential[v] = x
    cross_values = dict(zip(cross_edges, coords[len(free_vertices) :]))
    values = []
    for e, (u, w) in enumerate(d.edges):
        if comp[u] == comp[w]:
            values.append(mul(inv(potential[u]), potential[w]))
        else:
            values.append(cross_values[e])
    return EdgeLabeling(tuple(values), RIGID)


def rigid_edge_enumerator(group: FiniteGroup, d: Digraph) -> Iterator[EdgeLabeling]:
    """All balanced rigid edge labelings, lexicographic in the free coords."""
    report = _connected_report(d)
    comp, free_vertices, cross_edges = _rigid_frame(d, report)
    width = len(free_vertices) + len(cross_edges)
    for coords in product(range(group.order), repeat=width):
        yield _rigid_labeling_from_coords(group, d, comp, free_vertices, cross_edges, coords)


def enumerate_all(group: FiniteGroup, d: Digraph, target: str, mode: str) -> Iterator[EdgeLabeling | FullLabeling]:
    """Stream every balanced labeling exactly once.

    The stream is deterministic; see the module docstring for the
    coordinate order.  Its length always equals ``count(...).value``.
    """
    _check_target(target)
    _check_mode(mode)
    report = _connected_report(d)
    order = group.order
    n = d.n_vertices

    if mode == FLEXIBLE:
        if target == EDGES:
            for coords in product(range(order), repeat=n - 1):
                p = Potential((group.identity,) + coords, 0)
                yield potential_to_edges(group, d, p)
            return
        if report.bipartite:
            heads: list[int] = list(range(order))
            extend = pair_to_full_bipartite
        else:
            heads = sorted(group.involutions())
            extend = pair_to_full_odd
        for a in heads:
            for coords in product(range(order), repeat=n - 1):
                p = Potential((group.identity,) + coords, 0)
                f = potential_to_edges(group, d, p)
                yield extend(group, d, a, f, 0)
        return

    if target == EDGES:
        yield from rigid_edge_enumerator(group, d)
        return
    comp, free_vertices, cross_edges = _rigid_frame(d, report)
    width = len(free_vertices) + len(cross_edges)
    for vertex_values in product(range(order), repeat=n):
        for coords in product(range(order), repeat=width):
            f = _rigid_labeling_from_coords(group, d, comp, free_vertices, cross_edges, coords)
            yield pair_to_full_rigid(group, d, vertex_values, f)


def sample_uniform(
    group: FiniteGroup, d: Digraph, target: str, mode: str, seed: int
) -> EdgeLabeling | FullLabeling:
    """One balanced labeling, uniform over the whole family.

    Randomness comes from ``random.Random(seed)`` alone; the free
    coordinates are drawn in enumeration order with ``randrange``, then
    pushed through the same bijections, so a given seed yields the same
    labeling everywhere.
    """
    _check_target(target)
    _check_mode(mode)
    report = _connected_report(d)
    rng = random.Random(seed)
    order = group.order
    n = d.n_vertices

    def draw(k: int) -> tuple[int, ...]:
        return tuple(rng.randrange(order) for _ in range(k))

    if mode == FLEXIBLE:
        if target == EDGES:
            p = Potential((group.identity,) + draw(n - 1), 0)
            return potential_to_edges(group, d, p)
        if report.bipartite:
            a = rng.randrange(order)
            extend = pair_to_full_bipartite
        else:
            involutions = sorted(group.involutions())
            a = involutions[rng.randrange(len(involutions))]
            extend = pair_to_full_odd
        p = Potential((group.identity,) + draw(n - 1), 0)
        return extend(group, d, a, potential_to_edges(group, d, p), 0)

    comp, free_vertices, cross_edges = _rigid_frame(d, report)
    if target == EDGES:
        coords = draw(len(free_vertices) + len(cross_edges))
        return _rigid_labeling_from_coords(group, d, comp, free_vertices, cross_edges, coords)
    vertex_values = draw(n)
    coords = draw(len(free_vertices) + len(cross_edges))
    f = _rigid_labeling_from_coords(group, d, comp, free_vertices, cross_edges, coords)
    return pair_to_full_rigid(group, d, vertex_values, f)
