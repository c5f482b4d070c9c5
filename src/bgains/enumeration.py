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
(Mersenne Twister), with the values of one ``randrange`` per radix, so
samples are reproducible across platforms.  The last run of equal radices
is drawn in bulk from ``getrandbits``, which gives the values that those
``randrange`` calls would (see ``_randrange_run``).

Block decoding: the stream is decoded a block of labelings at a time, as a
(rows, slots) array of element indices.  The trailing coordinates of a
block run over one precomputed ``np.indices`` grid, as many as keep the
block within ``BLOCK_VALUES`` values; the leading ones come from
``itertools.product`` and are constant within a block, so blocks follow
each other in the lexicographic order above (the mixed-radix order of
Knuth, TAOCP 4A, 7.2.1.1).  Each bijection is a table gather over the
block's coordinate columns: edge values are ``over[x[origin], x[endpoint]]``
with ``over[a, b] = a^-1 b``; rigid full labelings gather once more
through each edge's origin; flexible full labelings conjugate as
``table[over[p, a], p] = p^-1 a p`` and, off bipartite graphs, gather once
more through each edge's origin.  Decoding one coordinate vector, as
``sample_uniform`` does, is the one-row case of the same gathers.  Text
is one more gather, over a table of fixed-width byte strings: row i holds
element i's token as UTF-8, then a space, padded with the byte 0xFF,
which no UTF-8 text contains; row ``order + i`` ends the token with a
newline instead, and each labeling's last slot reads it.  The gathered
block's bytes, with the padding dropped, are a run of whole lines.  Memory
is bounded by the block, whatever the length of the stream.

Encoding inverts decoding.  It reads a labeling's leading coordinates and
takes its edge part f: the edge values of edge labelings and of flexible
full ones on bipartite graphs, else ``f(e) = h(origin) h(e)``.  It then
propagates f's potential over a breadth-first tree of each part and reads
the cross-part edge values.  A labeling is balanced exactly when it
switches to identity gains (Zaslavsky, *Biased graphs I*), that is, when
these coordinates decode back to it; that one comparison is the balance
check of every inverse map.  Six of the seven bijection maps are
projections of decoding and encoding; ``potential_to_edges`` computes
``f(e) = p(origin)^-1 p(endpoint)`` directly, on any graph.  The trees,
and the odd-depth vertices of bipartite graphs, come from
``digraph._spanning_forest``, which keeps them on the graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .balance import (
    EDGES,
    FLEXIBLE,
    FULL,
    RIGID,
    EdgeLabeling,
    FullLabeling,
    _check_mode,
    _check_target,
    _edge_labeling,
    _full_labeling,
)
from .digraph import Digraph, StructureReport, _spanning_forest, analyze
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

# Values (rows times slots) in one decoded block of the stream: large enough
# that numpy's per-call cost vanishes, small enough that a stream of any
# length, or of labelings with thousands of slots, decodes in bounded memory.
BLOCK_VALUES = 2**15


class NotWeaklyConnectedError(ValueError):
    """The operation needs a weakly connected digraph."""


class UnbalancedLabelingError(ValueError):
    """Propagated values contradict each other: the input labeling is not
    balanced (or, for the pair-to-full maps, the preconditions fail)."""


@dataclass(frozen=True)
class BalancedCount:
    """Exact count in factored form: value = |G2|^s * |G|^t.

    A count made by ``of`` computes ``value`` when it is first read, which
    comparing or hashing the count also does: the int takes milliseconds on
    a graph of 100,000 edges, and the CLI prints counts from ``s`` and ``t``.
    """

    s: int
    t: int
    value: int

    @classmethod
    def of(cls, s: int, t: int, group: FiniteGroup) -> "BalancedCount":
        c = object.__new__(cls)
        c.__dict__.update(s=s, t=t, _orders=(len(group.involutions()), group.order))
        return c

    def __getattr__(self, name: str):
        # Reached only when the usual lookup fails: for ``value`` until ``of``'s count first computes it.
        if name != "value" or "_orders" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n_involutions, order = self._orders
        value = self.__dict__["value"] = n_involutions**self.s * order**self.t
        return value

    def __repr__(self) -> str:
        # The dataclass repr, except that an int too long for str() (over
        # sys.get_int_max_str_digits() digits) is shown by its bit length.
        def shown(x) -> str:
            try:
                return repr(x)
            except ValueError:
                return f"<{x.bit_length()}-bit int>"

        return f"{type(self).__qualname__}(s={shown(self.s)}, t={shown(self.t)}, value={shown(self.value)})"


@dataclass(frozen=True)
class Potential:
    """Vertex potential; ``values[base_vertex]`` is expected to be the
    group identity for the normalized potentials this module produces."""

    values: tuple[int, ...]
    base_vertex: int = 0


def _checked_instance(d: Digraph, target: str, mode: str) -> tuple[StructureReport, int, int]:
    """Check an instance, in the order target, mode, graph; return the
    graph's structure report and the closed form's (s, t)."""
    _check_target(target)
    _check_mode(mode)
    if d.n_vertices == 0:
        raise NotWeaklyConnectedError("graph has no vertices")
    report = analyze(d)
    if not report.weakly_connected:
        raise NotWeaklyConnectedError(
            "graph is not weakly connected; counts and enumeration are defined "
            "per weakly connected graph"
        )
    return report, *_exponents(d.n_vertices, report, target, mode)


def count(group: FiniteGroup, d: Digraph, target: str, mode: str) -> BalancedCount:
    """Exact number of balanced labelings, from the closed forms above."""
    _, s, t = _checked_instance(d, target, mode)
    return BalancedCount.of(s, t, group)


def _exponents(v: int, report: StructureReport, target: str, mode: str) -> tuple[int, int]:
    """The closed form's (s, t): the count is |G2|^s * |G|^t."""
    if mode == FLEXIBLE:
        if target == EDGES:
            return 0, v - 1
        if report.bipartite:
            return 0, v
        return 1, v - 1
    kbar = report.scc_count
    r = report.cross_scc_edges
    if target == EDGES:
        return 0, v - kbar + r
    return 0, 2 * v - kbar + r


# ----------------------------------------------------------- bijections


def potential_to_edges(group: FiniteGroup, d: Digraph, p: Potential) -> EdgeLabeling:
    """f(e) = p(origin)^-1 * p(endpoint); always balanced in flexible mode."""
    if len(p.values) != d.n_vertices:
        raise ValueError(f"potential has {len(p.values)} values for {d.n_vertices} vertices")
    _check_elements(group, p.values)
    values, (origins, endpoints) = np.array(p.values, dtype=np.intp), d._ends
    return EdgeLabeling(tuple(group.over_array[values[origins], values[endpoints]].tolist()), FLEXIBLE)


def edges_to_potential(group: FiniteGroup, d: Digraph, f: EdgeLabeling, base: int = 0) -> Potential:
    """Recover the unique potential with identity at ``base``.

    The frame encodes f as its potential with identity at vertex 0, which
    is then shifted; an unbalanced f raises UnbalancedLabelingError, so this
    doubles as a linear-time balance check for flexible edge labelings.
    """
    p = (group.identity, *_Frame(group, d, EDGES, FLEXIBLE).encode(f))
    _check_base(d, base)
    shift = group.table[group.inverse[p[base]]]
    return Potential(tuple(shift[x] for x in p), base)


def _extend(group: FiniteGroup, d: Digraph, a: int, f: EdgeLabeling, base: int, bipartite: bool) -> FullLabeling:
    """The full flexible labeling with edge part f and h(base) = a: the
    decode of ``h(0) = p(base) a' p(base)^-1`` and the potential p of f,
    where a' = a^-1 if base lies at odd depth on a bipartite graph, else a."""
    _check_elements(group, (a,))
    if not bipartite and group.mul(a, a) != group.identity:
        raise ValueError(f"element {a} is not an involution")
    full = _Frame(group, d, FULL, FLEXIBLE)
    _check_base(d, base)
    if (full._odd is not None) != bipartite:
        no, use = ("not ", "odd") if bipartite else ("", "bipartite")
        raise UnbalancedLabelingError(f"the underlying graph is {no}bipartite; use pair_to_full_{use}")
    p = (group.identity, *_Frame(group, d, EDGES, FLEXIBLE).encode(f))
    if bipartite and full._odd[base]:
        a = group.inverse[a]
    return full.decode((full._head_coordinate[group.conj(a, group.inverse[p[base]])], *p[1:]))


def pair_to_full_bipartite(
    group: FiniteGroup, d: Digraph, a: int, f: EdgeLabeling, base: int = 0
) -> FullLabeling:
    """Extend (a, f) to a full labeling on a bipartite-underlying digraph.

    Edge values are f's; vertex values start from h(base) = a and alternate
    by ``h(w) = f(e)^-1 h(u)^-1 f(e)``.  Raises UnbalancedLabelingError when
    f is not balanced or the underlying graph is not bipartite.
    """
    return _extend(group, d, a, f, base, True)


def pair_to_full_odd(
    group: FiniteGroup, d: Digraph, a: int, f: EdgeLabeling, base: int = 0
) -> FullLabeling:
    """Extend (a, f), a an involution, to a full labeling on a graph whose
    underlying graph is non-bipartite.

    Vertex values are the conjugates ``h(w) = f(e)^-1 h(u) f(e)`` of a along
    f, and edge values are ``h(e) = h(origin) f(e)``.  Raises
    UnbalancedLabelingError when f is not balanced or the graph is bipartite.
    """
    return _extend(group, d, a, f, base, False)


def full_to_pair(group: FiniteGroup, d: Digraph, h: FullLabeling, base: int = 0) -> tuple[int, EdgeLabeling]:
    """Invert the applicable pair-to-full map: returns (h(base), f).

    f is h's edge values on bipartite graphs, otherwise ``f(e) = h(origin)
    h(e)``; raises UnbalancedLabelingError when h is not balanced.
    """
    full = _Frame(group, d, FULL, FLEXIBLE)
    _check_base(d, base)
    return h.vertex_values[base], _Frame(group, d, EDGES, FLEXIBLE).decode(full.encode(h)[1:])


def pair_to_full_rigid(
    group: FiniteGroup, d: Digraph, vertex_values: tuple[int, ...], f: EdgeLabeling
) -> FullLabeling:
    """Pair free vertex values with a balanced rigid f: h(e) = h(origin)^-1 f(e)."""
    full = _Frame(group, d, FULL, RIGID)
    if len(vertex_values) != d.n_vertices:
        raise ValueError("vertex value tuple does not match the digraph")
    _check_elements(group, vertex_values)
    return full.decode((*vertex_values, *_Frame(group, d, EDGES, RIGID).encode(f)))


def full_to_pair_rigid(group: FiniteGroup, d: Digraph, h: FullLabeling) -> tuple[tuple[int, ...], EdgeLabeling]:
    """Inverse of pair_to_full_rigid: f(e) = h(origin) h(e); h must be balanced."""
    coords = _Frame(group, d, FULL, RIGID).encode(h)
    return tuple(coords[: d.n_vertices]), _Frame(group, d, EDGES, RIGID).decode(coords[d.n_vertices :])


def _check_elements(group: FiniteGroup, values) -> None:
    if values and (min(values) < 0 or max(values) >= group.order):
        raise ValueError(f"labeling values must be element indices 0..{group.order - 1}")


def _check_base(d: Digraph, base: int) -> None:
    if not 0 <= base < d.n_vertices:
        raise ValueError(f"base vertex {base} out of range")


# ---------------------------------------------------------- enumeration


class _Frame:
    """The free coordinates of one instance's balanced labelings.

    ``radices`` has one entry per coordinate, in enumeration order (see the
    module docstring), and their product is ``count(...).value``.  ``blocks``
    decodes the whole stream as arrays of element indices, one row per
    labeling and ``slots`` values per row; ``decode`` maps one coordinate
    vector, each entry below its radix, to its labeling through the same
    gathers, and ``encode`` is its inverse.
    """

    _odd = None  # on bipartite full flexible frames, the odd-depth vertices

    def __init__(self, group: FiniteGroup, d: Digraph, target: str, mode: str):
        report, s, t = _checked_instance(d, target, mode)
        self.radices = (len(group.involutions()),) * s + (group.order,) * t
        self._group, self._d, self._target, self._mode = group, d, target, mode
        n = self._n = d.n_vertices
        self.slots = d.n_edges + (n if target == FULL else 0)
        self._table, self._over = group.table_array, group.over_array
        # A part is the whole graph (flexible) or one strongly connected
        # component (rigid).  Decoding reads the coordinate vector with the
        # identity appended at slot ``k``: the smallest vertex of each part
        # reads that identity as its potential, the other vertices read the
        # next coordinates, and each cross-part edge reads its own coordinate
        # x as the "potential difference" identity^-1 x.
        part = report.scc_assignment if mode == RIGID else (0,) * n
        # Coordinates ahead of the potential: none for edge labelings, the
        # vertex values for rigid full ones, the base element a otherwise.
        if target == EDGES:
            self._lead = 0
        elif mode == RIGID:
            self._lead = n
        else:
            self._lead = 1
            heads = sorted(group.involutions()) if s else range(group.order)
            self._heads = np.array(heads, dtype=np.intp)
            self._head_coordinate = {a: c for c, a in enumerate(heads)}
            self._inverse = np.array(group.inverse, dtype=np.intp)
            if report.bipartite:
                self._odd = np.array(_spanning_forest(d)[1])
        # Part ids are numbered by first appearance, so a part's smallest
        # vertex is where their running maximum steps up.
        k = len(self.radices)
        part = np.array(part, dtype=np.intp)
        later = np.zeros(n, dtype=bool)
        later[1:] = part[1:] <= np.maximum.accumulate(part)[:-1]
        first_cross = self._lead + np.count_nonzero(later)
        p = np.full(n, k, dtype=np.intp)
        p[later] = np.arange(self._lead, first_cross)
        self._origins, endpoints = d._ends
        cross = part[self._origins] != part[endpoints]
        self._potential_slots = p
        self._origin_slots = np.where(cross, k, p[self._origins])
        self._endpoint_slots = p[endpoints]
        self._endpoint_slots[cross] = np.arange(first_cross, k)

    def _values(self, x: np.ndarray) -> np.ndarray:
        """The labelings of the coordinate rows ``x`` (identity appended),
        as a (rows, slots) array: vertex values, if any, then edge values."""
        f = self._over[x[:, self._origin_slots], x[:, self._endpoint_slots]]
        if self._target == EDGES:
            return f
        if self._mode == RIGID:
            h = x[:, : self._lead]
            return np.concatenate((h, self._over[h[:, self._origins], f]), axis=1)
        a = self._heads[x[:, 0]][:, None]
        if self._odd is not None:
            a = np.where(self._odd, self._inverse[a], a)
        p = x[:, self._potential_slots]
        h = self._table[self._over[p, a], p]  # p^-1 a p
        e = f if self._odd is not None else self._table[h[:, self._origins], f]
        return np.concatenate((h, e), axis=1)

    def blocks(self) -> Iterator[np.ndarray]:
        """The stream, in order, as (rows, slots) arrays, each a new one.

        The trailing coordinates of a block run over one fixed grid, as many
        of them as keep a block within ``BLOCK_VALUES`` values (or at one
        row); the leading ones are constant in a block and advance from
        block to block.
        """
        radices, k = self.radices, len(self.radices)
        rows, cut = 1, k
        while cut and rows * radices[cut - 1] * max(self.slots, 1) <= BLOCK_VALUES:
            cut -= 1
            rows *= radices[cut]
        x = np.empty((rows, k + 1), dtype=np.intp)
        x[:, cut:k] = np.indices(radices[cut:]).reshape(k - cut, rows).T
        x[:, k] = self._group.identity
        for lead in product(*map(range, radices[:cut])):
            x[:, :cut] = lead
            yield self._values(x)

    def labelings(self, values: np.ndarray) -> Iterator[EdgeLabeling | FullLabeling]:
        """The labelings whose values are the rows of ``values``."""
        mode, n = self._mode, self._n
        if self._target == EDGES:
            return (_edge_labeling(tuple(row), mode) for row in values.tolist())
        return (_full_labeling(tuple(row[:n]), tuple(row[n:]), mode) for row in values.tolist())

    def decode(self, coords) -> EdgeLabeling | FullLabeling:
        x = np.empty((1, len(coords) + 1), dtype=np.intp)
        x[0, :-1], x[0, -1] = coords, self._group.identity
        return next(self.labelings(self._values(x)))

    def encode(self, labeling: EdgeLabeling | FullLabeling) -> list[int]:
        """The coordinate vector that ``decode`` maps to ``labeling``: the
        leading coordinates, then the potential of the labeling's edge part
        over one spanning tree per part, then the cross-part edge values.
        The labeling is balanced exactly when these decode back to it; if
        not, raises UnbalancedLabelingError."""
        if labeling.mode != self._mode:
            raise ValueError(f"expected a {self._mode} labeling, got {labeling.mode}")
        h, f = ((), labeling.values) if self._target == EDGES else (labeling.vertex_values, labeling.edge_values)
        if len(h) + len(f) != self.slots or len(f) != self._d.n_edges:
            raise ValueError("labeling shape does not match the digraph")
        group, values = self._group, [*h, *f]
        _check_elements(group, values)
        table, inverse = group.table, group.inverse
        if self._target == FULL and self._odd is None:  # f(e) = h(origin) h(e)
            f = self._table[np.array(h, dtype=np.intp)[self._origins], np.array(f, dtype=np.intp)].tolist()
        p = [group.identity] * self._n
        for e, u, w, backwards in _spanning_forest(self._d, self._mode == RIGID)[0]:
            p[w] = table[p[u]][inverse[f[e]] if backwards else f[e]]
        # Inside a part an edge's endpoint slot is a potential slot, which
        # the second assignment overwrites; roots write the identity to k.
        # A base value that no coordinate stands for reads 0 and fails below.
        k = len(self.radices)
        x = np.empty(k + 1, dtype=np.intp)
        x[self._endpoint_slots] = f
        x[self._potential_slots] = p
        x[: self._lead] = [self._head_coordinate.get(h[0], 0)] if self._lead and self._mode == FLEXIBLE else h
        if self._values(x[None])[0].tolist() != values:
            raise UnbalancedLabelingError("the labeling is not balanced")
        return x[:k].tolist()


def enumerate_all(
    group: FiniteGroup, d: Digraph, target: str, mode: str, *, tokens: Sequence[str] | None = None
) -> Iterator[EdgeLabeling | FullLabeling] | Iterator[str]:
    """Stream every balanced labeling exactly once.

    The stream is deterministic; see the module docstring for the
    coordinate order.  Its length always equals ``count(...).value``.

    With ``tokens``, one string per group element, the stream is instead
    text, one line per labeling: the tokens of its vertex values (full
    labelings) and then of its edge values, joined by single spaces and
    ended by a newline.  Each item is the text of one block of labelings,
    a whole number of lines.
    """
    frame = _Frame(group, d, target, mode)
    if tokens is None:
        for values in frame.blocks():
            yield from frame.labelings(values)
        return
    if len(tokens) != group.order:
        raise ValueError(f"{len(tokens)} tokens for a group of order {group.order}")
    if not frame.slots:  # one empty line per labeling
        yield from ("\n" * len(values) for values in frame.blocks())
        return
    rows = [t.encode("utf-8", "surrogatepass") + end for end in (b" ", b"\n") for t in tokens]
    width = max(map(len, rows))
    table = np.frombuffer(b"".join(row.ljust(width, b"\xff") for row in rows), f"V{width}")
    for values in frame.blocks():
        values[:, -1] += group.order  # the last slot ends the line
        yield table[values].tobytes().replace(b"\xff", b"").decode("utf-8", "surrogatepass")


def sample_uniform(
    group: FiniteGroup, d: Digraph, target: str, mode: str, seed: int
) -> EdgeLabeling | FullLabeling:
    """One balanced labeling, uniform over the whole family.

    Randomness comes from ``random.Random(seed)`` alone; the free
    coordinates are the values of one ``randrange`` per radix, in
    enumeration order, then decoded as in the stream, so a given seed yields
    the same labeling everywhere.  The last run of equal radices is drawn in
    bulk, with the same values (see ``_randrange_run``).
    """
    frame = _Frame(group, d, target, mode)
    rng = random.Random(seed)
    # The radices are |G2| at most once, then |G|: all but the last run of
    # equal radices are few, and that run is drawn in bulk.
    radices = frame.radices
    head = len(radices) - radices.count(radices[-1]) if radices else 0
    coords = [rng.randrange(r) for r in radices[:head]]
    if head < len(radices):
        run = _randrange_run(rng, radices[-1], len(radices) - head)
        coords = np.concatenate((np.array(coords, dtype=np.intp), run))
    return frame.decode(coords)


def _randrange_run(rng: random.Random, r: int, m: int) -> np.ndarray:
    """What ``[rng.randrange(r) for _ in range(m)]`` returns, leaving ``rng``
    in another state, as an array.

    For ``k = r.bit_length()`` up to 32, ``randrange(r)`` takes the top k
    bits of the generator's next 32-bit word and draws again while they are
    r or more; ``getrandbits(32 * m)`` returns the next m words, least
    significant first.  So the kept values of a bulk draw, in order, are the
    values of m calls.  The words past the m-th kept one are drawn for
    nothing, which changes what ``rng`` draws next: only the last draw of a
    generator may be made this way.
    """
    k = r.bit_length()
    if k > 32:
        return np.array([rng.randrange(r) for _ in range(m)])
    kept, have = [], 0
    while have < m:
        words = np.frombuffer(rng.getrandbits(32 * (m - have)).to_bytes(4 * (m - have), "little"), "<u4")
        values = words >> (32 - k)
        kept.append(values[values < r])
        have += len(kept[-1])
    return np.concatenate(kept)[:m]
