"""Closed walks, walk products, balance checks and the brute-force oracle."""

import ast
import copy
import dataclasses
import itertools
import pickle
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgains import balance
from bgains.balance import (
    EDGES,
    FLEXIBLE,
    FULL,
    RIGID,
    ClosedWalk,
    EdgeLabeling,
    EdgeUse,
    FullLabeling,
    OracleBudgetError,
    WalkError,
    all_closed_walks,
    brute_force_count,
    brute_force_count_reference,
    brute_force_labelings,
    is_balanced_edges,
    is_balanced_full,
    walk_product_edges,
    walk_product_full,
)
from bgains.digraph import Digraph, iter_connected_multigraphs, load_graph
from bgains.enumeration import enumerate_all
from bgains.groups import make_group

from graph_helpers import DATA, random_connected_digraph


def canon(walk):
    trips = tuple((v, u.edge, u.reverse) for v, u in zip(walk.vertices, walk.steps))
    return min(trips[i:] + trips[:i] for i in range(len(trips)))


def naive_walks(d, mode):
    """Unpruned DFS over linearizations + rotation dedupe; reference for
    all_closed_walks."""
    uses = []
    for e, (u, w) in enumerate(d.edges):
        uses.append((u, w, EdgeUse(e, False)))
        if mode == FLEXIBLE:
            uses.append((w, u, EdgeUse(e, True)))
    found = set()

    def rec(start, cur, path):
        for o, t, use in uses:
            if o != cur or any(use == p[1] for p in path):
                continue
            npath = path + [(cur, use)]
            if t == start:
                trips = tuple((v, u.edge, u.reverse) for v, u in npath)
                found.add(min(trips[i:] + trips[:i] for i in range(len(trips))))
            rec(start, t, npath)

    for s in range(d.n_vertices):
        rec(s, s, [])
    return found


# ---------------------------------------------------------------- walks


def test_no_walks_without_edges():
    assert list(all_closed_walks(Digraph(1, ()))) == []
    assert list(all_closed_walks(Digraph(1, ()), RIGID)) == []


def test_single_loop_walks():
    d = Digraph(1, ((0, 0),))
    rigid = list(all_closed_walks(d, RIGID))
    assert rigid == [ClosedWalk((0,), (EdgeUse(0, False),))]
    flexible = list(all_closed_walks(d, FLEXIBLE))
    # forward, backward, and forward-then-backward (one cyclic class)
    assert len(flexible) == 3


def test_walks_match_naive_reference():
    rng = random.Random(7)
    graphs = list(iter_connected_multigraphs(2, 3))
    graphs += [random_connected_digraph(rng, 3, 4) for _ in range(20)]
    for d in graphs:
        for mode in (FLEXIBLE, RIGID):
            got = list(all_closed_walks(d, mode))
            canons = [canon(w) for w in got]
            assert len(set(canons)) == len(canons), "duplicate cyclic class emitted"
            assert set(canons) == naive_walks(d, mode)


def test_theta_rigid_walks_miss_one_of_the_far_vertices(theta):
    walks = list(all_closed_walks(theta, RIGID))
    assert len(walks) == 2
    assert not any(0 in w.vertices and 3 in w.vertices for w in walks)
    # flexible walks do connect them
    assert any(0 in w.vertices and 3 in w.vertices for w in all_closed_walks(theta, FLEXIBLE))


def test_walk_lengths_bounded():
    d = Digraph(2, ((0, 1), (1, 0), (0, 1)))
    assert all(len(w) <= 2 * d.n_edges for w in all_closed_walks(d, FLEXIBLE))
    assert all(len(w) <= d.n_edges for w in all_closed_walks(d, RIGID))


def test_bad_mode():
    d = Digraph(1, ((0, 0),))
    with pytest.raises(ValueError, match="mode"):
        list(all_closed_walks(d, "loose"))


def test_long_cycle_walk_is_not_limited_by_recursion():
    n = 1200
    cycle = Digraph(n, tuple((v, (v + 1) % n) for v in range(n)))
    g = make_group("cyclic:3")
    assert len(list(all_closed_walks(cycle, RIGID))) == 1
    assert is_balanced_edges(g, cycle, EdgeLabeling((0,) * n, RIGID))
    assert not is_balanced_edges(g, cycle, EdgeLabeling((1,) + (0,) * (n - 1), RIGID))


def test_walk_cache_holds_two_families(triangle, theta, cycle4):
    g = make_group("cyclic:2")
    balance._walk_family.cache_clear()
    for d in (triangle, theta, cycle4):
        brute_force_count(g, d, EDGES, RIGID)
    assert balance._walk_family.cache_info().currsize <= 2


# ------------------------------------------------------- walk products


def test_empty_walk_product_is_identity():
    g = make_group("symmetric:3")
    d = Digraph(2, ((0, 1),))
    f = EdgeLabeling((5,))
    assert walk_product_edges(g, d, f, ClosedWalk((), ())) == g.identity


def test_out_and_back_product():
    g = make_group("symmetric:3")
    d = Digraph(2, ((0, 1),))
    walk = ClosedWalk((0, 1), (EdgeUse(0, False), EdgeUse(0, True)))
    for x in range(g.order):
        assert walk_product_edges(g, d, EdgeLabeling((x,)), walk) == g.identity


def test_triangle_product_is_ordered_product():
    g = make_group("symmetric:3")
    d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
    walk = ClosedWalk((0, 1, 2), (EdgeUse(0, False), EdgeUse(1, False), EdgeUse(2, False)))
    # one-line 102 = swap of 0,1; 210 = swap of 0,2; names pin the elements
    x = g.element_names.index("210")
    y = g.element_names.index("021")
    z = g.inv(g.mul(x, y))
    f = EdgeLabeling((x, y, z))
    assert walk_product_edges(g, d, f, walk) == g.identity
    for a, b, c in itertools.product(range(6), repeat=3):
        got = walk_product_edges(g, d, EdgeLabeling((a, b, c)), walk)
        assert got == g.mul(g.mul(a, b), c)


def test_walk_product_validation():
    g = make_group("cyclic:2")
    d = Digraph(2, ((0, 1), (1, 0)))
    f = EdgeLabeling((0, 0))
    with pytest.raises(WalkError, match="out of range"):
        walk_product_edges(g, d, f, ClosedWalk((0,), (EdgeUse(7, False),)))
    with pytest.raises(WalkError, match="repeats"):
        walk_product_edges(
            g,
            d,
            f,
            ClosedWalk((0, 1, 0, 1), tuple(EdgeUse(i % 2, False) for i in range(4))),
        )
    with pytest.raises(WalkError, match="does not lead"):
        walk_product_edges(g, d, f, ClosedWalk((0, 0), (EdgeUse(0, False), EdgeUse(1, False))))
    rigid = EdgeLabeling((0, 0), RIGID)
    with pytest.raises(WalkError, match="rigid"):
        walk_product_edges(g, d, rigid, ClosedWalk((0, 1), (EdgeUse(0, False), EdgeUse(0, True))))


@pytest.mark.parametrize("value", [-3, -1, 3, 7])
def test_walk_side_refuses_values_outside_the_group(value):
    """Values index the Cayley table, so a negative one would wrap around:
    over cyclic:3, a loop's vertex value -3 would read as the identity."""
    g = make_group("cyclic:3")
    loop = Digraph(1, ((0, 0),))
    walk = ClosedWalk((0,), (EdgeUse(0, False),))
    f = EdgeLabeling((value,))
    for h in (FullLabeling((value,), (0,)), FullLabeling((0,), (value,))):
        with pytest.raises(ValueError, match="element indices"):
            is_balanced_full(g, loop, h)
        with pytest.raises(ValueError, match="element indices"):
            walk_product_full(g, loop, h, walk)
    with pytest.raises(ValueError, match="element indices"):
        is_balanced_edges(g, loop, f)
    with pytest.raises(ValueError, match="element indices"):
        walk_product_edges(g, loop, f, walk)


def test_full_product_single_edge_relation():
    # going out and back along one edge: h(v) h(e) h(w) h(e)^-1 == identity
    # exactly when h(v) h(e) h(w) == h(e).
    g = make_group("symmetric:3")
    d = Digraph(2, ((0, 1),))
    walk = ClosedWalk((0, 1), (EdgeUse(0, False), EdgeUse(0, True)))
    for a, p, b in itertools.product(range(6), repeat=3):
        h = FullLabeling((a, b), (p,))
        balanced_here = walk_product_full(g, d, h, walk) == g.identity
        assert balanced_here == (g.mul(g.mul(a, p), b) == p)


def test_full_product_triangle_perimeter():
    # the triangle with vertex values a, x^-1 a x, y^-1 x^-1 a x y and edge
    # values ax, x^-1 a x y, y^-1 x^-1 a x y z multiplies to the identity
    # around the perimeter whenever xyz = 1 and a*a = 1.
    g = make_group("symmetric:3")
    a = g.element_names.index("102")  # swap of 0,1
    x = g.element_names.index("210")  # swap of 0,2
    y = g.element_names.index("021")  # swap of 1,2
    z = g.inv(g.mul(x, y))
    assert g.mul(a, a) == g.identity

    def conj(el, by):
        return g.mul(g.mul(g.inv(by), el), by)

    v0 = a
    v1 = conj(a, x)
    v2 = conj(v1, y)
    e0 = g.mul(a, x)
    e1 = g.mul(v1, y)
    e2 = g.mul(v2, z)
    d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
    h = FullLabeling((v0, v1, v2), (e0, e1, e2))
    walk = ClosedWalk((0, 1, 2), (EdgeUse(0, False), EdgeUse(1, False), EdgeUse(2, False)))
    assert walk_product_full(g, d, h, walk) == g.identity
    # and out-and-back over each single edge
    for e, (u, w) in enumerate(d.edges):
        oab = ClosedWalk((u, w), (EdgeUse(e, False), EdgeUse(e, True)))
        assert walk_product_full(g, d, h, oab) == g.identity
    assert is_balanced_full(g, d, h)


# ------------------------------------------------------ balance checks


def test_identity_labeling_always_balanced(groups, theta, triangle):
    for g in groups.values():
        for d in (theta, triangle, Digraph(1, ((0, 0),))):
            f = EdgeLabeling((g.identity,) * d.n_edges)
            assert is_balanced_edges(g, d, f)
            h = FullLabeling((g.identity,) * d.n_vertices, (g.identity,) * d.n_edges)
            assert is_balanced_full(g, d, h)


def test_loop_forces_identity():
    g = make_group("cyclic:4")
    d = Digraph(1, ((0, 0),))
    for x in range(4):
        assert is_balanced_edges(g, d, EdgeLabeling((x,))) == (x == g.identity)


def test_parallel_edges_force_equal_values():
    d = Digraph(2, ((0, 1), (0, 1)))
    for spec in ("cyclic:4", "symmetric:3"):
        g = make_group(spec)
        for p, q in itertools.product(range(g.order), repeat=2):
            assert is_balanced_edges(g, d, EdgeLabeling((p, q))) == (p == q)


def test_single_vertex_full_balance():
    g = make_group("symmetric:3")
    d = Digraph(1, ())
    for a in range(6):
        assert is_balanced_full(g, d, FullLabeling((a,), ()))


def test_balanced_full_implies_edge_relation(groups, triangle, theta):
    # every balanced full labeling satisfies h(u) h(e) h(w) = h(e) on each
    # non-loop edge (the out-and-back walk)
    cases = [
        (groups["cyclic:3"], triangle),
        (groups["cyclic:3"], theta),
        (groups["symmetric:3"], triangle),
    ]
    for g, d in cases:
        for h in brute_force_labelings(g, d, FULL, FLEXIBLE):
            for e, (u, w) in enumerate(d.edges):
                lhs = g.mul(g.mul(h.vertex_values[u], h.edge_values[e]), h.vertex_values[w])
                assert lhs == h.edge_values[e]


# ------------------------------------------------------------- oracle


def test_brute_force_examples(triangle):
    c2 = make_group("cyclic:2")
    single = Digraph(1, ())
    assert brute_force_count(c2, single, EDGES, FLEXIBLE) == 1
    assert brute_force_count(c2, triangle, EDGES, FLEXIBLE) == 4
    assert brute_force_count(c2, triangle, FULL, FLEXIBLE) == 8


def test_oracle_accepts_a_digraph_built_from_a_list(triangle):
    c3 = make_group("cyclic:3")
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert brute_force_count(c3, d, EDGES, FLEXIBLE) == 9
    assert brute_force_labelings(c3, d, FULL, RIGID) == brute_force_labelings(c3, triangle, FULL, RIGID)


def test_brute_force_budget(triangle):
    s3 = make_group("symmetric:3")
    with pytest.raises(OracleBudgetError) as exc:
        brute_force_count(s3, triangle, FULL, FLEXIBLE, budget=100)
    assert exc.value.required == 6**6
    assert exc.value.budget == 100
    assert "46656" in str(exc.value)
    with pytest.raises(OracleBudgetError):
        brute_force_count_reference(s3, triangle, FULL, FLEXIBLE, budget=100)


@pytest.mark.parametrize("required", [6**6, 6**200_000], ids=["6**6", "6**200000"])
def test_budget_error_survives_pickling_without_converting_the_int(monkeypatch, required):
    """The refusal can cross a process boundary; pickling stores the int in
    binary, and neither it nor the repr converts it to decimal."""
    import decimal

    def refuse(n):
        raise AssertionError("converted the whole int")

    monkeypatch.setattr(decimal, "Decimal", refuse)
    exc = OracleBudgetError(required, 100)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is OracleBudgetError
    assert (back.required, back.budget, back.args) == (required, 100, ())
    assert repr(back) == "OracleBudgetError()"


@pytest.mark.parametrize("oracle", [brute_force_count, brute_force_labelings, brute_force_count_reference])
@pytest.mark.parametrize("edges", [63, 64])
def test_candidate_space_past_int64_is_refused(oracle, edges):
    # Candidates are numbered in int64: 2**63 of them are refused under any
    # budget that admits them, and a smaller budget is still exceeded first.
    c2 = make_group("cyclic:2")
    path = Digraph(edges + 1, tuple((v, v + 1) for v in range(edges)))
    message = f"brute force over 2**{edges} candidate labelings exceeds the oracle's limit of 2**63 - 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle(c2, path, EDGES, RIGID, budget=10**29)
    with pytest.raises(OracleBudgetError):
        oracle(c2, path, EDGES, RIGID, budget=10)


def test_vectorized_oracle_matches_reference(groups):
    small = [g for g in iter_connected_multigraphs(2, 3)]
    for d in small:
        for g in (groups["cyclic:2"], groups["cyclic:3"]):
            for target in (EDGES, FULL):
                for mode in (FLEXIBLE, RIGID):
                    assert brute_force_count(g, d, target, mode) == brute_force_count_reference(
                        g, d, target, mode
                    ), (d, g.name, target, mode)


def test_vectorized_oracle_matches_reference_s3(triangle, path2):
    s3 = make_group("symmetric:3")
    for d in (triangle, path2, Digraph(1, ((0, 0),))):
        for target, mode in ((EDGES, FLEXIBLE), (EDGES, RIGID), (FULL, RIGID)):
            assert brute_force_count(s3, d, target, mode) == brute_force_count_reference(
                s3, d, target, mode
            )


def _candidate_digits(labeling):
    if isinstance(labeling, EdgeLabeling):
        return labeling.values
    return labeling.vertex_values + labeling.edge_values


def test_small_blocks_match_reference_and_enumeration(monkeypatch):
    # An odd block size puts block edges everywhere in the candidate order.
    monkeypatch.setattr(balance, "_BLOCK_SIZE", 7)
    _check_oracle_on_data_graphs()


@pytest.mark.parametrize("walk_chunk", [1, 10**9], ids=["never-batch", "batch-first"])
def test_walk_by_walk_and_batched_phases_match_reference(monkeypatch, walk_chunk):
    # A chunk is _WALK_CHUNK // alive walks wide, at least one.  Either
    # extreme alone must give the same survivors: one walk per chunk whatever
    # is alive, or every walk in the first chunk.
    monkeypatch.setattr(balance, "_BLOCK_SIZE", 7)
    monkeypatch.setattr(balance, "_WALK_CHUNK", walk_chunk)
    _check_oracle_on_data_graphs()


# Between the two extremes, 32 batches walks once at most 16 candidates of
# a block are alive, so chunks widen part way through a block.
@pytest.mark.parametrize("walk_chunk", [1, 32, 10**9], ids=["never-batch", "batch-32", "batch-first"])
@pytest.mark.parametrize("spec", ["cyclic:3", "symmetric:3"])
@pytest.mark.parametrize("block_size", [1, 3, 7, 2**16])
def test_block_edges_match_reference_and_enumeration(monkeypatch, block_size, spec, walk_chunk):
    # A block is order**k candidates with order**k <= _BLOCK_SIZE: sizes 1
    # and 3 leave every digit leading (one-candidate blocks, or three-column
    # grids for cyclic:3), 7 gives a one-digit grid, and 2**16 puts each
    # space admitted here in one block.
    monkeypatch.setattr(balance, "_BLOCK_SIZE", block_size)
    monkeypatch.setattr(balance, "_WALK_CHUNK", walk_chunk)
    # One-candidate blocks cost the oracle about 0.1 ms each, so the spaces
    # stop at 8,000 candidates: cycle4's full labelings over cyclic:3 and
    # theta's edge labelings over symmetric:3 are the largest checked.
    _check_oracle_on_data_graphs(make_group(spec), budget=8_000)


def _check_oracle_on_data_graphs(group=None, budget=None):
    group = group or make_group("cyclic:3")
    for path in sorted(DATA.glob("*.txt")):
        d = load_graph(path.read_text())
        for target in (EDGES, FULL):
            if budget is not None and group.order ** balance._slot_count(d, target) > budget:
                continue
            for mode in (FLEXIBLE, RIGID):
                case = (path.name, target, mode)
                assert brute_force_count(group, d, target, mode) == brute_force_count_reference(
                    group, d, target, mode
                ), case
                expected = sorted(enumerate_all(group, d, target, mode), key=_candidate_digits)
                assert brute_force_labelings(group, d, target, mode) == expected, case


def test_oracle_schedule_indexes_past_the_budget_bound():
    # The trivial group leaves the slot count unbounded by the budget: 600
    # slots need schedule entries up to 1,200, past one byte.
    n = 300
    cycle = Digraph(n, tuple((v, (v + 1) % n) for v in range(n)))
    assert brute_force_count(make_group("cyclic:1"), cycle, FULL, RIGID) == 1


@pytest.mark.parametrize("path", sorted(DATA.glob("*.txt")), ids=lambda p: p.name)
def test_schedule_rows_follow_the_sorted_walks(path):
    # Built from the walks by hand: per step the start vertex's slot (full
    # target only), then the edge's slot, shifted by ``slots`` when the step
    # is reversed; the identity ``2*slots`` pads short rows.
    d = load_graph(path.read_text())
    for mode in (FLEXIBLE, RIGID):
        walks = sorted(all_closed_walks(d, mode), key=len)
        for target in (EDGES, FULL):
            shift = d.n_vertices if target == FULL else 0
            slots = shift + d.n_edges
            schedule = balance._schedule(balance._walk_family(d, mode), d, target)
            assert len(schedule) == len(walks)
            for row, walk in zip(schedule.tolist(), walks):
                expected = []
                for v, (edge, reverse) in zip(walk.vertices, walk.steps):
                    expected += [v] if target == FULL else []
                    expected.append(shift + edge + slots * reverse)
                expected += [2 * slots] * (len(row) - len(expected))
                assert row == expected, (mode, target, walk)


@pytest.fixture
def fresh_walk_cache():
    # A refusal is cached, and whether a family is refused depends on
    # _WALK_LIMIT: clear the cache on the way in and out, even when the test
    # fails, so that no other test meets a refusal made at a lowered limit.
    balance._walk_family.cache_clear()
    yield
    balance._walk_family.cache_clear()


def test_oracle_refuses_past_the_walk_limit(monkeypatch, fresh_walk_cache):
    # Four loops have 16,072 flexible closed walks and only 81 candidates.
    g = make_group("cyclic:3")
    four = Digraph(1, ((0, 0),) * 4)
    monkeypatch.setattr(balance, "_WALK_LIMIT", 16_072)
    assert brute_force_count(g, four, EDGES, FLEXIBLE) == 1
    balance._walk_family.cache_clear()
    monkeypatch.setattr(balance, "_WALK_LIMIT", 16_071)
    message = "brute force over more than 16071 closed walks exceeds the oracle's walk limit"
    for oracle in (brute_force_count, brute_force_labelings):
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle(g, four, EDGES, FLEXIBLE)
    # The budget is still checked first, before any walk.
    with pytest.raises(OracleBudgetError):
        brute_force_count(g, four, EDGES, FLEXIBLE, budget=80)


def test_a_refused_walk_family_is_enumerated_once(monkeypatch, fresh_walk_cache):
    # Three loops have 415 flexible closed walks; both targets read one family.
    g = make_group("cyclic:2")
    three = Digraph(1, ((0, 0),) * 3)
    calls = []

    def counted(d, mode):
        calls.append(mode)
        return all_closed_walks(d, mode)

    monkeypatch.setattr(balance, "all_closed_walks", counted)
    monkeypatch.setattr(balance, "_WALK_LIMIT", 414)
    message = "brute force over more than 414 closed walks exceeds the oracle's walk limit"
    for target in (EDGES, FULL):
        with pytest.raises(ValueError, match=re.escape(message)):
            brute_force_count(g, three, target, FLEXIBLE)
    assert calls == [FLEXIBLE]


def test_eight_loops_are_refused_at_the_default_walk_limit():
    # 256 candidates, far inside the budget; the flexible walk family is
    # too large to generate, so the oracle stops at the limit.
    eight = Digraph(1, ((0, 0),) * 8)
    with pytest.raises(ValueError, match="walk limit"):
        brute_force_count(make_group("cyclic:2"), eight, EDGES, FLEXIBLE)
    # The rigid family is 2**8 - 1 walks: one per nonempty set of loops.
    assert brute_force_count(make_group("cyclic:2"), eight, EDGES, RIGID) == 1


def test_walk_cache_is_compact():
    # Four loops at one vertex have 16,072 flexible closed walks.
    g = make_group("cyclic:3")
    d = Digraph(1, ((0, 0),) * 4)
    balance._walk_family.cache_clear()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for target in (EDGES, FULL):
            assert brute_force_count(g, d, target, FLEXIBLE) == 1
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(balance._walk_family(d, FLEXIBLE).lengths) == 16_072
    assert peak - before < 2.5 * 2**20
    assert held - before < 1.5 * 2**20


def test_oracle_memory_does_not_grow_with_candidates(cycle4):
    g = make_group("cyclic:6")  # 6**8 = 1,679,616 candidates
    tracemalloc.start()
    try:
        survivors = brute_force_count(g, cycle4, FULL, FLEXIBLE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert survivors == 6**4
    assert peak < 16 * 2**20


def test_brute_force_labelings_are_balanced_and_distinct(groups, triangle):
    g = groups["cyclic:4"]
    labs = brute_force_labelings(g, triangle, FULL, FLEXIBLE)
    assert len(labs) == len(set(labs))
    assert len(labs) == brute_force_count(g, triangle, FULL, FLEXIBLE)
    assert all(is_balanced_full(g, triangle, h) for h in labs)


def test_library_built_labelings_equal_public_ones(triangle):
    # The oracle and the enumeration build labelings without re-checking
    # their mode; each must equal, hash and print like a public one.
    g = make_group("symmetric:3")
    for target in (EDGES, FULL):
        for mode in (FLEXIBLE, RIGID):
            built = brute_force_labelings(g, triangle, target, mode) + list(
                enumerate_all(g, triangle, target, mode)
            )
            assert built
            for labeling in built:
                if target == EDGES:
                    public = EdgeLabeling(labeling.values, mode)
                else:
                    public = FullLabeling(labeling.vertex_values, labeling.edge_values, mode)
                assert type(labeling) is type(public)
                assert labeling == public
                assert hash(labeling) == hash(public)
                assert repr(labeling) == repr(public)
            # Slotted frozen dataclasses need their own pickle support; the
            # copies must come back equal and of the same type.
            for labeling in (built[0], built[-1], type(built[0])(*dataclasses.astuple(built[0]))):
                for copied in (
                    pickle.loads(pickle.dumps(labeling)),
                    copy.copy(labeling),
                    copy.deepcopy(labeling),
                    dataclasses.replace(labeling),
                ):
                    assert type(copied) is type(labeling)
                    assert copied == labeling
                    assert repr(copied) == repr(labeling)
    with pytest.raises(ValueError, match="mode"):
        EdgeLabeling((0,), "loose")
    with pytest.raises(ValueError, match="mode"):
        FullLabeling((0,), (), "loose")


def test_library_built_labelings_take_no_more_memory_than_public_ones():
    # The oracle and the enumeration hold labelings by the million.  Both
    # types are slotted: no instance has a dict, and a full labeling over
    # shared tuples is one 56-byte object plus its list entry.
    def held(build):
        tracemalloc.start()
        try:
            kept = [build((0, 1, 2), (2, 1), RIGID) for _ in range(10_000)]
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == 10_000
        assert not any(hasattr(labeling, "__dict__") for labeling in kept)
        return size

    assert held(balance._full_labeling) <= 72 * 10_000
    assert held(balance._full_labeling) <= 1.05 * held(FullLabeling)
    assert held(lambda v, e, mode: balance._edge_labeling(e, mode)) <= 1.05 * held(
        lambda v, e, mode: EdgeLabeling(e, mode)
    )


def test_labeling_shape_mismatch(triangle):
    g = make_group("cyclic:2")
    with pytest.raises(ValueError, match="3 edges"):
        is_balanced_edges(g, triangle, EdgeLabeling((0,)))
    with pytest.raises(ValueError, match="shape"):
        is_balanced_full(g, triangle, FullLabeling((0,), (0, 0, 0)))


@st.composite
def graph_and_labeling(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    edges = tuple((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m))
    values = tuple(draw(st.integers(0, 5)) for _ in range(m))
    return Digraph(n, edges), values


@given(graph_and_labeling(), st.data())
@settings(max_examples=150, deadline=None)
def test_reversing_an_edge_inverts_its_label(pair, data):
    # flexible balance is insensitive to edge orientation when the flipped
    # edge's label is inverted
    d, values = pair
    g = make_group("symmetric:3")
    e = data.draw(st.integers(0, d.n_edges - 1))
    u, w = d.edges[e]
    flipped = Digraph(d.n_vertices, d.edges[:e] + ((w, u),) + d.edges[e + 1 :])
    fvals = values[:e] + (g.inv(values[e]),) + values[e + 1 :]
    assert is_balanced_edges(g, d, EdgeLabeling(values)) == is_balanced_edges(
        g, flipped, EdgeLabeling(fvals)
    )


def test_adding_edges_to_strongly_connected_graph_keeps_edge_count(triangle, theta):
    # flexible edge count is |G|^(V-1) regardless of extra edges
    rng = random.Random(3)
    for g in (make_group("cyclic:2"), make_group("cyclic:3")):
        for d in (triangle, theta):
            base = brute_force_count(g, d, EDGES, FLEXIBLE)
            assert base == g.order ** (d.n_vertices - 1)
            for _ in range(3):
                extra = (rng.randrange(d.n_vertices), rng.randrange(d.n_vertices))
                bigger = Digraph(d.n_vertices, d.edges + (extra,))
                assert brute_force_count(g, bigger, EDGES, FLEXIBLE) == base


SRC = Path(balance.__file__).parent


def bgains_imports(module: str) -> set[str]:
    """The bgains modules that ``bgains/<module>.py`` imports, by short name."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"bgains.{base}" if base else "bgains"
            names += [base] + [f"{base}.{a.name}" for a in node.names]
    return {n.split(".")[1] for n in names if n.startswith("bgains.")}


def test_oracle_and_walk_checks_import_nothing_from_enumeration():
    # The oracle and is_balanced_* check the bijections, so they must not
    # reach enumeration's code, directly or through another bgains module.
    reached, todo = set(), ["balance"]
    while todo:
        module = todo.pop()
        reached.add(module)
        todo += [m for m in bgains_imports(module) - reached if (SRC / f"{m}.py").exists()]
    assert "enumeration" not in reached
    assert {"balance", "digraph", "groups"} <= reached


def test_oracle_and_walk_checks_name_no_frame_code():
    # The frames' spanning forest and edge arrays live in digraph, which
    # balance imports; balance must still not reach them, nor the frames.
    tree = ast.parse((SRC / "balance.py").read_text())
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not named & {"_spanning_forest", "_breadth_first_forest", "_edge_ends", "_Frame"}


def test_oracle_fast_path_and_reference_share_no_walk_code():
    # brute_force_count_reference cross-checks the oracle's walk cache and
    # schedules with the folds of is_balanced_*, so neither side may name
    # the other's code.
    tree = ast.parse((SRC / "balance.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}

    def named(name):
        nodes = list(ast.walk(defs[name]))
        return {n.id for n in nodes if isinstance(n, ast.Name)} | {
            n.attr for n in nodes if isinstance(n, ast.Attribute)
        }

    fast = {"_walk_family", "_WalkFamily", "_schedule", "_filter_blocks"}
    assert not named("brute_force_count_reference") & fast
    for name in fast:
        assert not named(name) & {"_fold_edges", "_fold_full"}, name
