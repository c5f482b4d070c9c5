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
canonical starting point, from a depth-first search that keeps its own
stack rather than recursing once per step.  Reversals are *not*
identified: for full labelings the two orientations of a walk are
genuinely different constraints.

The brute-force functions enumerate every candidate labeling (all
``order**slots`` of them) and keep those that pass every walk.  They are
the library's independent check on the closed-form counts, so they stay
definitional: every candidate is checked against every closed walk.  The
only liberties taken are columnar evaluation with numpy, several walks
per gather once few candidates are alive, and a compact walk cache,
which keeps the last two walk families as one matrix of edge uses per
(graph, mode) instead of ``ClosedWalk`` objects.
``brute_force_count_reference`` shares none of them and cross-checks the
oracle in the test suite.

Candidates are numbered lexicographically, as mixed-radix numbers, and
filtered one block of ``order**k`` consecutive candidates at a time:
within a block the leading digits are constant and the k trailing ones
run over one digit grid, shared by every block, so no digit is decoded
by division.  Each step multiplies the products of a chunk of walks by
their digits with one gather from the flat Cayley table, premultiplied
by the order.  A chunk is ``_WALK_CHUNK // alive`` walks wide, so a full
block goes walk by walk and the chunks widen as candidates die; memory
stays bounded by the block and the chunk at any budget.  The budget caps
the number of candidates; the closed-walk family, factorial in the loops
and parallel edges at a vertex, has its own limit of ``_WALK_LIMIT``
walks, past which the oracle raises ValueError before it filters any
candidate.
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
# Candidates are numbered in int64, so no budget admits a larger space.
_CANDIDATE_LIMIT = 2**63 - 1

# Most candidates filtered at a time by the oracle: a block is the largest
# power of the group order within it.  Peak memory follows this, not the
# size of the candidate space.
_BLOCK_SIZE = 1 << 16
# Walks packed into the walk cache at a time.  The oracle checks walks in
# chunks of about this many products: ``_WALK_CHUNK // alive`` walks, at
# least one, where ``alive`` counts a block's candidates still alive.
_WALK_CHUNK = 1 << 10
# Closed walks the oracle packs before it refuses the instance.  The budget
# counts candidates only, and the walk family is factorial in the loops and
# parallel edges at a vertex: four loops give 16,072 flexible walks, eight
# give too many to generate in any reasonable time.
_WALK_LIMIT = 1 << 17


class WalkError(ValueError):
    """A walk is not a valid closed walk of the given digraph/mode."""


class OracleBudgetError(RuntimeError):
    """The brute-force candidate space exceeds the configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__()
        self.required = required
        self.budget = budget

    def __reduce__(self):
        # ``args`` stays empty, so that its repr never converts ``required``;
        # pickling rebuilds the error from the two numbers instead.
        return type(self), (self.required, self.budget)

    def __str__(self) -> str:
        # Built only when printed, since decimal, which unlike str prints
        # past the int-to-str digit limit, takes time quadratic in the digits.
        # Imported here so that ``import bgains`` does not pay for it.
        import decimal

        required = decimal.Decimal(self.required)
        return f"brute force requires {required} candidate labelings, exceeding the budget of {self.budget}"


def _check_mode(mode: str) -> None:
    if mode not in (FLEXIBLE, RIGID):
        raise ValueError(f"mode must be {FLEXIBLE!r} or {RIGID!r}, got {mode!r}")


def _check_target(target: str) -> None:
    if target not in (EDGES, FULL):
        raise ValueError(f"target must be {EDGES!r} or {FULL!r}, got {target!r}")


def _check_values(group: FiniteGroup, values: tuple[int, ...]) -> None:
    """Values index the Cayley table, where a negative one would wrap around.
    The bijections check theirs apart: the walk side shares no code with them."""
    if values and (min(values) < 0 or max(values) >= group.order):
        raise ValueError(f"labeling values must be element indices 0..{group.order - 1}")


class EdgeUse(NamedTuple):
    """One directed traversal of an edge; ``reverse`` means against its direction."""

    edge: int
    reverse: bool


@dataclass(frozen=True, slots=True)
class EdgeLabeling:
    """Group element index per edge, in edge id order."""

    values: tuple[int, ...]
    mode: str = FLEXIBLE

    def __post_init__(self):
        _check_mode(self.mode)


@dataclass(frozen=True, slots=True)
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


# The library builds labelings by the million (oracle survivors, enumeration
# streams) under a mode it has checked once, so these set the fields as the
# dataclass ``__init__`` does but skip the mode check of ``__post_init__``.
# The result equals, hashes and prints like a publicly built labeling.  Both
# types are slotted, so a labeling is one object with no ``__dict__``, and
# each field is set by calling its slot descriptor's ``__set__``, which the
# frozen ``__setattr__`` does not guard.
_new = object.__new__
_set_values = EdgeLabeling.values.__set__
_set_edge_mode = EdgeLabeling.mode.__set__
_set_vertex_values = FullLabeling.vertex_values.__set__
_set_edge_values = FullLabeling.edge_values.__set__
_set_full_mode = FullLabeling.mode.__set__


def _edge_labeling(values: tuple[int, ...], mode: str) -> EdgeLabeling:
    labeling = _new(EdgeLabeling)
    _set_values(labeling, values)
    _set_edge_mode(labeling, mode)
    return labeling


def _full_labeling(vertex_values: tuple[int, ...], edge_values: tuple[int, ...], mode: str) -> FullLabeling:
    labeling = _new(FullLabeling)
    _set_vertex_values(labeling, vertex_values)
    _set_edge_values(labeling, edge_values)
    _set_full_mode(labeling, mode)
    return labeling


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
    _check_values(group, f.values)
    _validate_walk(d, walk, f.mode)
    return _fold_edges(group, f.values, walk)


def walk_product_full(group: FiniteGroup, d: Digraph, h: FullLabeling, walk: ClosedWalk) -> int:
    """Ordered product h(v1) h(e1) ... h(vn) h(en) along a closed walk."""
    if len(h.vertex_values) != d.n_vertices or len(h.edge_values) != d.n_edges:
        raise ValueError("labeling shape does not match the digraph")
    _check_values(group, h.vertex_values + h.edge_values)
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


def all_closed_walks(d: Digraph, mode: str = FLEXIBLE) -> Iterator[ClosedWalk]:
    """Every closed walk of the digraph, one representative per cyclic class.

    The representative starts at the smallest (vertex, edge id, reverse)
    step of the walk, so each class appears exactly once and the stream is
    deterministic.  Walk lengths are bounded by the number of distinct edge
    uses: |E| in rigid mode, 2|E| in flexible mode.  The depth-first search
    keeps its own stack, so walk length is not limited by Python recursion.
    """
    _check_mode(mode)
    # Every edge use as (start vertex, edge id, reverse, end vertex); a use's
    # rank in that order indexes ``used`` and orders the canonical start.
    ranked = [(u, e, False, w) for e, (u, w) in enumerate(d.edges)]
    if mode == FLEXIBLE:
        ranked += [(w, e, True, u) for e, (u, w) in enumerate(d.edges)]
    ranked.sort()
    out: list[list[tuple[int, int, EdgeUse]]] = [[] for _ in range(d.n_vertices)]
    for rank, (u, e, reverse, w) in enumerate(ranked):
        out[u].append((rank, w, EdgeUse(e, reverse)))

    used = bytearray(len(ranked))
    vseq: list[int] = []
    steps: list[EdgeUse] = []
    ranks: list[int] = []
    for start in range(d.n_vertices):
        for first in out[start]:
            first_rank = first[0]
            cur = start
            # One iterator per vertex of the walk so far, over the steps
            # that may leave it; the bottom one yields only the first step.
            stack = [iter((first,))]
            while stack:
                for rank, target, use in stack[-1]:
                    # Canonical-start pruning: a step smaller than the first
                    # means this linearization (and every extension, which
                    # keeps the step) is some other rotation's job.
                    if not used[rank] and rank >= first_rank:
                        break
                else:
                    stack.pop()
                    if ranks:
                        used[ranks.pop()] = 0
                        cur = vseq.pop()
                        steps.pop()
                    continue
                used[rank] = 1
                ranks.append(rank)
                vseq.append(cur)
                steps.append(use)
                if target == start:
                    yield ClosedWalk(tuple(vseq), tuple(steps))
                cur = target
                stack.append(iter(out[target]))


class _WalkFamily(NamedTuple):
    """A mode's closed walks as one padded matrix of edge uses, one row per
    walk, shortest first.  ``uses[w, j]`` is ``edge + n_edges*reverse`` of
    step j, which also fixes where the step starts; entries past
    ``lengths[w]`` are padding."""

    uses: np.ndarray
    lengths: np.ndarray


# A walk family can be factorial in the edge count, so only two are kept:
# the callers that repeat a graph run its four (target, mode) cases back to
# back (scripts/verify_grid.py, the acceptance sweep), which needs the
# graph's flexible and rigid families and no other.
@lru_cache(maxsize=2)
def _walk_family(d: Digraph, mode: str) -> _WalkFamily | None:
    """The walks of ``all_closed_walks``, stably sorted shortest first
    (cheapest pruning first).  They are packed ``_WALK_CHUNK`` at a time,
    so their ``ClosedWalk`` objects are never all alive at once.

    None once more than ``_WALK_LIMIT`` walks are packed: a refusal is
    cached like a family, so the other target does not enumerate again.
    """
    n_edges = d.n_edges
    # Uses reach 2*n_edges - 1 and lengths 2*n_edges, so one type holds both.
    kind = np.min_scalar_type(2 * n_edges)
    flat = [np.empty(0, dtype=kind)]
    lengths: list[int] = []
    walks = all_closed_walks(d, mode)
    while chunk := list(itertools.islice(walks, _WALK_CHUNK)):
        flat.append(np.array([e + n_edges * r for w in chunk for e, r in w.steps], dtype=kind))
        lengths += [len(w) for w in chunk]
        if len(lengths) > _WALK_LIMIT:
            return None
    walk_lengths = np.array(lengths, dtype=kind)
    uses = np.zeros((len(lengths), walk_lengths.max(initial=0)), dtype=kind)
    uses[np.arange(uses.shape[1]) < walk_lengths[:, None]] = np.concatenate(flat)
    rows = np.argsort(walk_lengths, kind="stable")
    family = _WalkFamily(uses[rows], walk_lengths[rows])
    for array in family:
        array.flags.writeable = False
    return family


def is_balanced_edges(group: FiniteGroup, d: Digraph, f: EdgeLabeling) -> bool:
    """True iff every closed-walk product of f is the identity.

    Walks are streamed, not materialized: parallel edges and loops make the
    walk family factorial in the edge count, so holding it in memory is not
    an option for a checker that accepts arbitrary graphs.
    """
    if len(f.values) != d.n_edges:
        raise ValueError(f"labeling has {len(f.values)} values for {d.n_edges} edges")
    _check_values(group, f.values)
    e = group.identity
    return all(_fold_edges(group, f.values, w) == e for w in all_closed_walks(d, f.mode))


def is_balanced_full(group: FiniteGroup, d: Digraph, h: FullLabeling) -> bool:
    """True iff every closed-walk product of h is the identity.

    Streams walks for the same reason as is_balanced_edges.
    """
    if len(h.vertex_values) != d.n_vertices or len(h.edge_values) != d.n_edges:
        raise ValueError("labeling shape does not match the digraph")
    _check_values(group, h.vertex_values + h.edge_values)
    e = group.identity
    return all(
        _fold_full(group, h.vertex_values, h.edge_values, w) == e
        for w in all_closed_walks(d, h.mode)
    )


def _slot_count(d: Digraph, target: str) -> int:
    return d.n_edges if target == EDGES else d.n_vertices + d.n_edges


def _checked_total(group: FiniteGroup, d: Digraph, target: str, mode: str, budget: int) -> int:
    """The number of candidate slots, after checking the target, the mode
    and the candidate space; raises before any walk is searched."""
    _check_target(target)
    _check_mode(mode)
    slots = _slot_count(d, target)
    total = group.order**slots
    if total > budget:
        raise OracleBudgetError(total, budget)
    if total > _CANDIDATE_LIMIT:
        raise ValueError(
            f"brute force over {group.order}**{slots} candidate labelings exceeds "
            "the oracle's limit of 2**63 - 1 candidates"
        )
    return slots


def _schedule(family: _WalkFamily, d: Digraph, target: str) -> np.ndarray:
    """Multiplication schedule of every walk of the family, one row each.

    Entries index a candidate's extended row ``[digits | inverse digits |
    identity]``: slot s, slot s inverted (``s + slots``), or the identity
    (``2*slots``), which pads the rows of short walks.  For the full target
    each step is two entries, its start vertex's slot then its edge's slot
    ``n_vertices + edge``; for edges, slot j is edge j.
    """
    slots = _slot_count(d, target)
    kind = np.min_scalar_type(2 * slots)
    # A use is edge + n_edges*reverse, so for edges it is the entry as is.
    uses = family.uses.astype(kind)
    padding = np.arange(uses.shape[1]) >= family.lengths[:, None]
    if target == FULL:
        uses += d.n_vertices
        uses[family.uses >= d.n_edges] += d.n_vertices
        schedule = np.empty((uses.shape[0], 2 * uses.shape[1]), dtype=kind)
        # A forward use starts at its edge's origin, a reverse one at its endpoint.
        origins, endpoints = np.array(d.edges, dtype=kind).reshape(-1, 2).T
        schedule[:, 0::2] = np.concatenate([origins, endpoints])[family.uses]
        schedule[:, 1::2] = uses
        padding = padding.repeat(2, axis=1)
    else:
        schedule = uses
    schedule[padding] = 2 * slots
    return schedule


# The grids of the last few (order, k) pairs: a sweep such as
# scripts/verify_grid.py makes thousands of small oracle calls over one group.
@lru_cache(maxsize=8)
def _digit_grid(order: int, k: int) -> np.ndarray:
    """Row j holds digit j, most significant first, of the k-digit
    base-``order`` numbers 0 .. order**k - 1, in the smallest unsigned type."""
    grid = np.indices((order,) * k, dtype=np.min_scalar_type(order - 1)).reshape(k, order**k)
    grid.flags.writeable = False
    return grid


def _filter_blocks(group, d, target, mode, slots) -> Iterator[np.ndarray]:
    """The numbers of the balanced candidates in lexicographic order, one
    array per block of at most ``_BLOCK_SIZE`` consecutive candidates.

    A block is ``order**k`` consecutive candidates.  Candidate numbers are
    mixed-radix numbers, so within a block the ``slots - k`` leading digits
    are constant and the k trailing ones run over one grid that every block
    shares.  The block is held as one matrix of extended rows, ``[digits |
    inverse digits | identity]`` as ``_schedule`` indexes them (rigid mode
    leaves out the inverse rows), with one column per alive candidate.
    Walks are checked a chunk at a time, the chunk widening as candidates
    die, and dead columns are dropped after any chunk that prunes.  A
    product is held times ``order``, so that one gather from the flat table
    ``step`` multiplies it by a digit.
    """
    order, e = group.order, group.identity
    family = _walk_family(d, mode)
    if family is None:
        raise ValueError(
            f"brute force over more than {_WALK_LIMIT} closed walks exceeds the oracle's walk limit"
        )
    schedule = _schedule(family, d, target)
    flexible = mode == FLEXIBLE
    if not flexible:
        # Rigid walks read no inverse: the block drops those rows, and the
        # identity row moves up to row ``slots``.
        schedule[schedule == 2 * slots] = slots
    n_walks = len(schedule)
    # Schedule entries per walk; rows are sorted, so a chunk's last is its widest.
    widths = family.lengths.astype(np.intp) * (2 if target == FULL else 1)
    # The trivial group would put every slot in the grid, past the 64
    # dimensions np.indices accepts; its one candidate needs no grid.
    k = 0
    while order > 1 and k < slots and order ** (k + 1) <= _BLOCK_SIZE:
        k += 1
    lead, size = slots - k, order**k
    grid = _digit_grid(order, k)
    inverse = np.array(group.inverse, dtype=grid.dtype)
    block = np.empty((2 * slots + 1 if flexible else slots + 1, size), dtype=grid.dtype)
    block[lead:slots] = grid
    if flexible:
        block[slots + lead : 2 * slots] = inverse[grid]
    block[-1] = e
    step = (group.table_array * order).ravel()
    unit = np.intp(e * order)
    for number, head in enumerate(itertools.product(range(order), repeat=lead)):
        start = number * size
        # The leading digits and their inverses are constant in the block.
        # They are broadcast in the matrix's own type: a casting broadcast
        # costs many times more.
        values = np.array(head, dtype=block.dtype)[:, None]
        block[:lead] = values
        if flexible:
            block[slots : slots + lead] = inverse[values]
        # Alive candidates as grid columns; None while the whole block is alive.
        digits, alive, walk = block, None, 0
        while walk < n_walks and digits.shape[1]:
            stop = min(n_walks, walk + max(1, _WALK_CHUNK // digits.shape[1]))
            acc = unit
            for column in schedule[walk:stop, : widths[stop - 1]].T:
                # intp plus the compact digits stays intp: the index reaches order**2.
                acc = step.take(acc + digits[column])
            keep = (acc == unit).all(axis=0)
            if not keep.all():
                kept = np.flatnonzero(keep)
                alive = kept if alive is None else alive[kept]
                digits = digits[:, kept]
            walk = stop
        if alive is None:
            yield np.arange(start, start + size, dtype=np.int64)
        else:
            yield start + alive.astype(np.int64, copy=False)


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
    slots = _checked_total(group, d, target, mode, budget)
    return sum(int(alive.size) for alive in _filter_blocks(group, d, target, mode, slots))


def brute_force_labelings(
    group: FiniteGroup,
    d: Digraph,
    target: str,
    mode: str,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> list[EdgeLabeling | FullLabeling]:
    """The balanced labelings themselves, in lexicographic candidate order."""
    slots = _checked_total(group, d, target, mode, budget)
    blocks = _filter_blocks(group, d, target, mode, slots)
    order = group.order
    # Place value of each slot's digit in the candidate number.
    powers = order ** np.arange(slots - 1, -1, -1, dtype=np.int64)
    out: list[EdgeLabeling | FullLabeling] = []
    if target == EDGES:
        for alive in blocks:
            rows = ((alive[:, None] // powers) % order).tolist()
            out.extend(_edge_labeling(tuple(r), mode) for r in rows)
        return out
    # A full labeling's vertex values and edge values are the high and the
    # low digits of its candidate number.  Survivors repeat few distinct
    # halves, so each half is decoded once and its tuple shared: the one
    # new object per survivor is the slotted labeling, about 64 bytes with
    # its list entry, and the cyclic garbage collector tracks a third as
    # many objects as it would with two fresh tuples each.
    n = d.n_vertices
    low = order**d.n_edges
    vertex_values = _DigitTuples(powers[:n] // low, order)
    edge_values = _DigitTuples(powers[n:], order)
    for alive in blocks:
        halves = zip((alive // low).tolist(), (alive % low).tolist())
        out.extend(_full_labeling(vertex_values[hi], edge_values[lo], mode) for hi, lo in halves)
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
    slots = _checked_total(group, d, target, mode, budget)
    walks = sorted(all_closed_walks(d, mode), key=len)
    e, n = group.identity, d.n_vertices
    count = 0
    for cand in itertools.product(range(group.order), repeat=slots):
        if target == FULL:
            vertex_values, edge_values = cand[:n], cand[n:]
            count += all(_fold_full(group, vertex_values, edge_values, w) == e for w in walks)
        else:
            count += all(_fold_edges(group, cand, w) == e for w in walks)
    return count
