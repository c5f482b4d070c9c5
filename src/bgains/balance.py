"""Balance of group-valued labelings, defined directly on closed walks.

Definitions
-----------
A *closed walk* is an alternating sequence ``v1, e1, v2, e2, ..., vn, en``
where each step ``ej`` leaves ``vj`` and enters ``v(j+1)``, the last step
returns to ``v1``, and no directed edge use repeats.  Under *flexible*
semantics an edge may be traversed against its direction (a distinct use);
under *rigid* semantics only forward traversals exist.  Vertices may repeat
freely in either case.

An edge labeling ``f`` is *balanced* when the ordered product
``f(e1) f(e2) ... f(en)`` is the identity for every closed walk, where a
backwards use of ``e`` contributes ``f(e)^-1``.  A full labeling ``h``
(vertices and edges) is balanced when
``h(v1) h(e1) h(v2) h(e2) ... h(vn) h(en)`` is the identity for every
closed walk, a backwards use of ``e`` contributing ``h(e)^-1``.

Rotating a closed walk conjugates the product, so balance is checked once
per cyclic class: ``all_closed_walks`` emits each class exactly once, at a
canonical starting point.  Reversals are *not* identified: for full
labelings the two orientations of a walk are genuinely different
constraints.

The brute-force functions enumerate every candidate labeling (all
``order**slots`` of them) and keep those that pass every walk.  They are
the library's independent check on the closed-form counts, so they stay
definitional; the only liberty taken is columnar evaluation with numpy,
which ``brute_force_count_reference`` cross-checks in the test suite.
Candidates are numbered lexicographically and filtered one fixed-size
block at a time, so the budget bounds the oracle's time, not its memory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .digraph import Digraph
from .groups import FiniteGroup

__all__ = [
    "DEFAULT_ORACLE_BUDGET",
    "EDGES",
    "FLEXIBLE",
    "FULL",
    "RIGID",
    "ClosedWalk",
    "EdgeLabeling",
    "EdgeUse",
    "FullLabeling",
    "OracleBudgetError",
    "WalkError",
    "all_closed_walks",
    "brute_force_count",
    "brute_force_count_reference",
    "brute_force_labelings",
    "is_balanced_edges",
    "is_balanced_full",
    "walk_product_edges",
    "walk_product_full",
]

FLEXIBLE = "flexible"
RIGID = "rigid"
EDGES = "edges"
FULL = "full"

DEFAULT_ORACLE_BUDGET = 10_000_000

# Candidates filtered at a time by the oracle.  Peak memory follows this,
# not the size of the candidate space.
_BLOCK_SIZE = 1 << 16


class WalkError(ValueError):
    """A walk is not a valid closed walk of the given digraph/mode."""


class OracleBudgetError(RuntimeError):
    """The brute-force candidate space exceeds the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        # decimal, unlike str, prints counts past the int-to-str digit limit.
        # Imported here so that ``import bgains`` does not pay for it.
        import decimal

        super().__init__(
            f"brute force requires {decimal.Decimal(required)} candidate labelings, "
            f"exceeding the budget of {budget}"
        )


def _check_mode(mode: str) -> None:
    if mode not in (FLEXIBLE, RIGID):
        raise ValueError(f"mode must be {FLEXIBLE!r} or {RIGID!r}, got {mode!r}")


def _check_target(target: str) -> None:
    if target not in (EDGES, FULL):
        raise ValueError(f"target must be {EDGES!r} or {FULL!r}, got {target!r}")


class EdgeUse(NamedTuple):
    """One directed traversal of an edge; ``reverse`` means against its direction."""

    edge: int
    reverse: bool


@dataclass(frozen=True)
class EdgeLabeling:
    """Group element index per edge, in edge id order."""

    values: tuple[int, ...]
    mode: str = FLEXIBLE

    def __post_init__(self):
        _check_mode(self.mode)


@dataclass(frozen=True)
class FullLabeling:
    """Group element indices for all vertices and all edges.

    In flexible mode the value of a backwards edge use is the inverse of the
    stored forward value; only forward values are stored.
    """

    vertex_values: tuple[int, ...]
    edge_values: tuple[int, ...]
    mode: str = FLEXIBLE

    def __post_init__(self):
        _check_mode(self.mode)


@dataclass(frozen=True)
class ClosedWalk:
    """``vertices[j]`` is where ``steps[j]`` starts; the last step returns to
    ``vertices[0]``.  Empty walks are allowed here (their product is the
    identity) but are never emitted by ``all_closed_walks``."""

    vertices: tuple[int, ...]
    steps: tuple[EdgeUse, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.steps):
            raise WalkError(
                f"walk has {len(self.vertices)} vertices but {len(self.steps)} steps"
            )

    def __len__(self) -> int:
        return len(self.steps)


def _validate_walk(d: Digraph, walk: ClosedWalk, mode: str) -> None:
    n = len(walk)
    seen: set[EdgeUse] = set()
    for j, (v, use) in enumerate(zip(walk.vertices, walk.steps)):
        if not 0 <= use.edge < d.n_edges:
            raise WalkError(f"step {j}: edge id {use.edge} out of range")
        if use.reverse and mode == RIGID:
            raise WalkError(f"step {j}: backwards edge use in rigid mode")
        if use in seen:
            raise WalkError(f"step {j}: edge use {use} repeats")
        seen.add(use)
        origin, endpoint = d.edges[use.edge]
        if use.reverse:
            origin, endpoint = endpoint, origin
        target = walk.vertices[(j + 1) % n]
        if v != origin or endpoint != target:
            raise WalkError(
                f"step {j}: {use} does not lead from vertex {v} to vertex {target}"
            )


def walk_product_edges(group: FiniteGroup, d: Digraph, f: EdgeLabeling, walk: ClosedWalk) -> int:
    """Ordered product of f along a closed walk (backwards uses contribute inverses)."""
    if len(f.values) != d.n_edges:
        raise ValueError(f"labeling has {len(f.values)} values for {d.n_edges} edges")
    _validate_walk(d, walk, f.mode)
    return _fold_edges(group, f.values, walk)


def walk_product_full(group: FiniteGroup, d: Digraph, h: FullLabeling, walk: ClosedWalk) -> int:
    """Ordered product h(v1) h(e1) ... h(vn) h(en) along a closed walk."""
    if len(h.vertex_values) != d.n_vertices or len(h.edge_values) != d.n_edges:
        raise ValueError("labeling shape does not match the digraph")
    _validate_walk(d, walk, h.mode)
    return _fold_full(group, h.vertex_values, h.edge_values, walk)


def _fold_edges(group: FiniteGroup, values, walk: ClosedWalk) -> int:
    table, inverse = group.table, group.inverse
    acc = group.identity
    for edge, reverse in walk.steps:
        x = values[edge]
        acc = table[acc][inverse[x] if reverse else x]
    return acc


def _fold_full(group: FiniteGroup, vertex_values, edge_values, walk: ClosedWalk) -> int:
    table, inverse = group.table, group.inverse
    acc = group.identity
    for v, (edge, reverse) in zip(walk.vertices, walk.steps):
        acc = table[acc][vertex_values[v]]
        x = edge_values[edge]
        acc = table[acc][inverse[x] if reverse else x]
    return acc


def all_closed_walks(d: Digraph, mode: str = FLEXIBLE, base: int | None = None) -> Iterator[ClosedWalk]:
    """Every closed walk of the digraph, one representative per cyclic class.

    The representative starts at the smallest (vertex, edge id, reverse)
    step of the walk, so each class appears exactly once and the stream is
    deterministic.  With ``base`` given, only walks visiting ``base`` are
    produced, rotated to start there (smallest step at ``base`` first).
    Walk lengths are bounded by the number of distinct edge uses: |E| in
    rigid mode, 2|E| in flexible mode.
    """
    _check_mode(mode)
    if base is not None and not 0 <= base < d.n_vertices:
        raise ValueError(f"base vertex {base} out of range")

    # use id: edge under rigid; 2*edge + reverse under flexible
    out: list[list[tuple[tuple[int, int, bool], int, int, EdgeUse]]] = [
        [] for _ in range(d.n_vertices)
    ]
    n_uses = 0
    for e, (u, w) in enumerate(d.edges):
        if mode == FLEXIBLE:
            out[u].append(((u, e, False), 2 * e, w, EdgeUse(e, False)))
            out[w].append(((w, e, True), 2 * e + 1, u, EdgeUse(e, True)))
            n_uses = 2 * d.n_edges
        else:
            out[u].append(((u, e, False), e, w, EdgeUse(e, False)))
            n_uses = d.n_edges
    for lst in out:
        lst.sort()

    used = bytearray(n_uses)
    vseq: list[int] = []
    steps: list[EdgeUse] = []

    def extend(cur: int, start: int, first_key) -> Iterator[ClosedWalk]:
        for key, uid, target, use in out[cur]:
            if used[uid]:
                continue
            # Canonical-start pruning: a smaller step at a rotation point
            # means this linearization (and every extension, which keeps
            # the step) is some other rotation's job.
            if base is None:
                if key < first_key:
                    continue
            elif cur == base and key < first_key:
                continue
            used[uid] = 1
            vseq.append(cur)
            steps.append(use)
            if target == start:
                yield ClosedWalk(tuple(vseq), tuple(steps))
            yield from extend(target, start, first_key)
            used[uid] = 0
            vseq.pop()
            steps.pop()

    starts = range(d.n_vertices) if base is None else (base,)
    for start in starts:
        for key, uid, target, use in out[start]:
            used[uid] = 1
            vseq.append(start)
            steps.append(use)
            if target == start:
                yield ClosedWalk(tuple(vseq), tuple(steps))
            yield from extend(target, start, key)
            used[uid] = 0
            vseq.pop()
            steps.pop()


@lru_cache(maxsize=512)
def _walks_by_length(d: Digraph, mode: str) -> tuple[ClosedWalk, ...]:
    """Materialized walk family sorted shortest-first (cheapest pruning first)."""
    return tuple(sorted(all_closed_walks(d, mode), key=len))


def is_balanced_edges(group: FiniteGroup, d: Digraph, f: EdgeLabeling) -> bool:
    """True iff every closed-walk product of f is the identity.

    Walks are streamed, not materialized: parallel edges and loops make the
    walk family factorial in the edge count, so holding it in memory is not
    an option for a checker that accepts arbitrary graphs.
    """
    if len(f.values) != d.n_edges:
        raise ValueError(f"labeling has {len(f.values)} values for {d.n_edges} edges")
    e = group.identity
    return all(_fold_edges(group, f.values, w) == e for w in all_closed_walks(d, f.mode))


def is_balanced_full(group: FiniteGroup, d: Digraph, h: FullLabeling) -> bool:
    """True iff every closed-walk product of h is the identity.

    Streams walks for the same reason as is_balanced_edges.
    """
    if len(h.vertex_values) != d.n_vertices or len(h.edge_values) != d.n_edges:
        raise ValueError("labeling shape does not match the digraph")
    e = group.identity
    return all(
        _fold_full(group, h.vertex_values, h.edge_values, w) == e
        for w in all_closed_walks(d, h.mode)
    )


def _slot_count(d: Digraph, target: str) -> int:
    return d.n_edges if target == EDGES else d.n_vertices + d.n_edges


def _walk_ops(walk: ClosedWalk, target: str, n_vertices: int) -> list[tuple[int, bool]]:
    """Multiplication schedule for one walk: (candidate slot, invert?) pairs.

    For the full target, slots 0..n_vertices-1 hold vertex values and the
    edge values follow; for edges, slot j is edge j.
    """
    ops: list[tuple[int, bool]] = []
    shift = n_vertices if target == FULL else 0
    for v, (edge, reverse) in zip(walk.vertices, walk.steps):
        if target == FULL:
            ops.append((v, False))
        ops.append((shift + edge, reverse))
    return ops


def _checked_total(group: FiniteGroup, d: Digraph, target: str, mode: str, budget: int) -> tuple[int, int]:
    _check_target(target)
    _check_mode(mode)
    slots = _slot_count(d, target)
    total = group.order**slots
    if total > budget:
        raise OracleBudgetError(total, budget)
    return slots, total


def _survivor_blocks(group, d, target, mode, budget) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Place value of each slot's digit in the lexicographic candidate
    number, and the indices of balanced labelings in that order, one array
    per block of ``_BLOCK_SIZE`` consecutive candidates.

    Raises OracleBudgetError here, before any block is filtered.
    """
    slots, total = _checked_total(group, d, target, mode, budget)
    powers = np.array([group.order ** (slots - 1 - s) for s in range(slots)], dtype=np.int64)
    return powers, _filter_blocks(group, d, target, mode, powers, total)


def _filter_blocks(group, d, target, mode, powers, total) -> Iterator[np.ndarray]:
    table = np.asarray(group.table, dtype=np.int64)
    inverse = np.asarray(group.inverse, dtype=np.int64)
    order = group.order
    walks = _walks_by_length(d, mode)
    for start in range(0, total, _BLOCK_SIZE):
        alive = np.arange(start, min(start + _BLOCK_SIZE, total), dtype=np.int64)
        # Each walk's schedule is rebuilt per block, not kept: the identity
        # labeling survives every walk, so keeping them would hold the whole
        # walk family's schedules at once, more memory than a small
        # instance's candidates take.
        for walk in walks:
            if alive.size == 0:
                break
            slot_vals: dict[int, np.ndarray] = {}
            acc = np.full(alive.shape, group.identity, dtype=np.int64)
            for slot, invert in _walk_ops(walk, target, d.n_vertices):
                vals = slot_vals.get(slot)
                if vals is None:
                    vals = (alive // powers[slot]) % order
                    slot_vals[slot] = vals
                acc = table[acc, inverse[vals] if invert else vals]
            alive = alive[acc == group.identity]
        yield alive


def brute_force_count(
    group: FiniteGroup,
    d: Digraph,
    target: str,
    mode: str,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> int:
    """Number of balanced labelings, by exhaustive enumeration.

    Enumerates all ``order**slots`` candidates (slots = |E| for the edges
    target, |V|+|E| for full) and checks every closed walk; raises
    OracleBudgetError up front when the candidate space exceeds ``budget``.
    """
    _, blocks = _survivor_blocks(group, d, target, mode, budget)
    return sum(int(alive.size) for alive in blocks)


def brute_force_labelings(
    group: FiniteGroup,
    d: Digraph,
    target: str,
    mode: str,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> list[EdgeLabeling | FullLabeling]:
    """The balanced labelings themselves, in lexicographic candidate order."""
    powers, blocks = _survivor_blocks(group, d, target, mode, budget)
    order = group.order
    out: list[EdgeLabeling | FullLabeling] = []
    if target == EDGES:
        for alive in blocks:
            rows = ((alive[:, None] // powers) % order).tolist()
            out.extend(EdgeLabeling(tuple(r), mode) for r in rows)
        return out
    # A full labeling's vertex values and edge values are the high and the
    # low digits of its candidate number.  Survivors repeat few distinct
    # halves, so each half is decoded once and its tuple shared: one new
    # object per survivor instead of three, which saves memory and garbage
    # collector passes over the growing result.
    n = d.n_vertices
    low = order**d.n_edges
    vertex_values = _DigitTuples(powers[:n] // low, order)
    edge_values = _DigitTuples(powers[n:], order)
    for alive in blocks:
        halves = zip((alive // low).tolist(), (alive % low).tolist())
        out.extend(FullLabeling(vertex_values[hi], edge_values[lo], mode) for hi, lo in halves)
    return out


class _DigitTuples(dict):
    """Base-``order`` digit tuple of a number, decoded on first lookup."""

    def __init__(self, powers: np.ndarray, order: int):
        super().__init__()
        self._powers = powers.tolist()
        self._order = order

    def __missing__(self, number: int) -> tuple[int, ...]:
        digits = self[number] = tuple((number // p) % self._order for p in self._powers)
        return digits


def brute_force_count_reference(
    group: FiniteGroup,
    d: Digraph,
    target: str,
    mode: str,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> int:
    """Pure-python reference for brute_force_count (slow; small inputs only).

    Kept deliberately naive so the vectorized oracle has something
    independent to agree with.
    """
    slots, _ = _checked_total(group, d, target, mode, budget)
    walks = _walks_by_length(d, mode)
    ops = [_walk_ops(w, target, d.n_vertices) for w in walks]
    table, inverse, e = group.table, group.inverse, group.identity
    count = 0
    for cand in itertools.product(range(group.order), repeat=slots):
        for schedule in ops:
            acc = e
            for slot, invert in schedule:
                x = cand[slot]
                acc = table[acc][inverse[x] if invert else x]
            if acc != e:
                break
        else:
            count += 1
    return count
