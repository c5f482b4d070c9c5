"""Counting formulas, bijections, enumeration streams and sampling."""

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgains.balance import (
    EDGES,
    FLEXIBLE,
    FULL,
    RIGID,
    EdgeLabeling,
    FullLabeling,
    brute_force_labelings,
    is_balanced_edges,
    is_balanced_full,
)
from bgains.digraph import Digraph, analyze, iter_connected_multigraphs, load_graph
from bgains.enumeration import (
    BalancedCount,
    NotWeaklyConnectedError,
    Potential,
    UnbalancedLabelingError,
    count,
    edges_to_potential,
    enumerate_all,
    full_to_pair,
    full_to_pair_rigid,
    pair_to_full_bipartite,
    pair_to_full_odd,
    pair_to_full_rigid,
    potential_to_edges,
    sample_uniform,
)
from bgains import digraph, enumeration
from bgains.groups import make_group

from graph_helpers import DATA, kept_graph, random_connected_digraph

CASES = [(t, m) for t in (EDGES, FULL) for m in (FLEXIBLE, RIGID)]


def key(lab):
    if isinstance(lab, EdgeLabeling):
        return lab.values
    return lab.vertex_values + lab.edge_values


# -------------------------------------------------------------- count


def test_count_examples(triangle, theta, path2):
    c2, c3, s3 = (make_group(s) for s in ("cyclic:2", "cyclic:3", "symmetric:3"))
    single = Digraph(1, ())
    assert count(c3, single, EDGES, FLEXIBLE) == BalancedCount(0, 0, 1)
    assert count(s3, triangle, FULL, FLEXIBLE) == BalancedCount(1, 2, 144)
    assert count(c2, path2, FULL, FLEXIBLE) == BalancedCount(0, 2, 4)
    assert count(c2, theta, EDGES, RIGID) == BalancedCount(0, 3, 8)
    assert count(c3, path2, EDGES, RIGID) == BalancedCount(0, 1, 3)
    assert count(c3, path2, FULL, RIGID) == BalancedCount(0, 3, 27)


def test_count_factored_value(groups, triangle, cycle4):
    for g in groups.values():
        flex_full = count(g, triangle, FULL, FLEXIBLE)
        assert flex_full.s == 1 and flex_full.t == 2
        assert flex_full.value == len(g.involutions()) * g.order**2
        bip = count(g, cycle4, FULL, FLEXIBLE)
        assert (bip.s, bip.t) == (0, 4) and bip.value == g.order**4


def test_count_builds_the_int_only_when_read():
    """The int |G2|^s * |G|^t takes milliseconds for a large t, and callers
    that print from s and t never read it."""
    g = make_group("symmetric:3")
    n = 20_000
    c = count(g, Digraph(n, tuple((v, v + 1) for v in range(n - 1))), FULL, RIGID)
    assert (c.s, c.t) == (0, 2 * n - 1)  # n components, n - 1 cross edges
    assert "value" not in vars(c)
    assert c.value == 6 ** c.t
    assert vars(c)["value"] is c.value
    assert c == BalancedCount(c.s, c.t, 6 ** c.t) and hash(c) == hash(BalancedCount(c.s, c.t, 6 ** c.t))
    with pytest.raises(AttributeError):
        c.other
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.value = 1


def test_count_repr_never_raises(triangle, int_str_limit):
    """repr and str are the dataclass repr, except that an int too long for
    str() is shown by its bit length."""
    c = count(make_group("symmetric:3"), triangle, FULL, FLEXIBLE)
    assert repr(c) == str(c) == repr(BalancedCount(1, 2, 144)) == "BalancedCount(s=1, t=2, value=144)"
    n = 20_000
    big = count(make_group("symmetric:3"), Digraph(n, tuple((v, v + 1) for v in range(n - 1))), FULL, RIGID)
    expected = f"BalancedCount(s=0, t={2 * n - 1}, value=<{(6 ** (2 * n - 1)).bit_length()}-bit int>)"
    assert repr(big) == str(big) == expected
    huge = BalancedCount(10**5000, 0, 1)
    assert repr(huge) == f"BalancedCount(s=<{(10**5000).bit_length()}-bit int>, t=0, value=1)"


def test_count_rejects_disconnected():
    g = make_group("cyclic:2")
    with pytest.raises(NotWeaklyConnectedError):
        count(g, Digraph(2, ()), EDGES, FLEXIBLE)
    with pytest.raises(NotWeaklyConnectedError, match="no vertices"):
        count(g, Digraph(0, ()), EDGES, FLEXIBLE)


def test_count_independent_of_edge_direction(groups, triangle):
    # flipping any subset of edge directions changes no flexible count and,
    # here, no rigid count shape either since reversal keeps the triangle
    # strongly connected or breaks it symmetrically; only flexible asserted.
    for g in groups.values():
        base = count(g, triangle, EDGES, FLEXIBLE)
        for flips in itertools.product((False, True), repeat=3):
            edges = tuple(
                (w, u) if flip else (u, w) for (u, w), flip in zip(triangle.edges, flips)
            )
            assert count(g, Digraph(3, edges), EDGES, FLEXIBLE) == base


# ---------------------------------------------------------- potentials


def test_potential_to_edges_examples():
    g = make_group("symmetric:3")
    d = Digraph(2, ((0, 1),))
    assert potential_to_edges(g, d, Potential((0, 0))).values == (0,)
    x = g.element_names.index("102")
    f = potential_to_edges(g, d, Potential((0, x)))
    assert f.values == (x,)
    loop = Digraph(1, ((0, 0),))
    assert potential_to_edges(g, loop, Potential((3,))).values == (g.identity,)


def test_edges_to_potential_roundtrip_examples(triangle):
    g = make_group("cyclic:4")
    p = Potential((0, 3, 1))
    f = potential_to_edges(g, triangle, p)
    assert is_balanced_edges(g, triangle, f)
    assert edges_to_potential(g, triangle, f, base=0) == p


def test_edges_to_potential_detects_unbalanced(triangle):
    g = make_group("cyclic:3")
    with pytest.raises(UnbalancedLabelingError):
        edges_to_potential(g, triangle, EdgeLabeling((1, 0, 0)))


def test_edges_to_potential_requires_flexible(path2):
    g = make_group("cyclic:2")
    with pytest.raises(ValueError, match="flexible"):
        edges_to_potential(g, path2, EdgeLabeling((0,), RIGID))


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_potential_roundtrip_random(seed):
    rng = random.Random(seed)
    d = random_connected_digraph(rng, max_vertices=5, max_edges=6, max_walks=4000)
    g = make_group(rng.choice(["cyclic:2", "cyclic:5", "symmetric:3", "dihedral:4"]))
    values = [rng.randrange(g.order) for _ in range(d.n_vertices)]
    base = rng.randrange(d.n_vertices)
    values[base] = g.identity
    p = Potential(tuple(values), base)
    f = potential_to_edges(g, d, p)
    assert is_balanced_edges(g, d, f)
    assert edges_to_potential(g, d, f, base) == p
    # and the other direction: potential -> edges -> potential -> edges
    assert potential_to_edges(g, d, edges_to_potential(g, d, f, base)) == f


# ------------------------------------------------------ full bijections


def test_pair_to_full_bipartite_path_example(path2):
    g = make_group("cyclic:2")
    h = pair_to_full_bipartite(g, path2, 1, EdgeLabeling((0,)))
    assert h == FullLabeling((1, 1), (0,))
    assert is_balanced_full(g, path2, h)


def odd_triangle_pair(g):
    """The triangle labeling built from an involution a and x*y*z = 1:
    vertices a, x^-1 a x, y^-1 x^-1 a x y; edges ax, (x^-1 a x) y,
    (y^-1 x^-1 a x y) z."""
    a = g.element_names.index("102")
    x = g.element_names.index("210")
    y = g.element_names.index("021")
    z = g.inv(g.mul(x, y))
    conj = lambda el, by: g.mul(g.mul(g.inv(by), el), by)
    v = (a, conj(a, x), conj(conj(a, x), y))
    e = (g.mul(v[0], x), g.mul(v[1], y), g.mul(v[2], z))
    return a, (x, y, z), FullLabeling(v, e)


def test_pair_to_full_odd_matches_conjugation_construction(triangle):
    g = make_group("symmetric:3")
    a, (x, y, z), expected = odd_triangle_pair(g)
    got = pair_to_full_odd(g, triangle, a, EdgeLabeling((x, y, z)))
    assert got == expected
    assert is_balanced_full(g, triangle, got)


def test_pair_to_full_rejects_unbalanced_edge_labelings(triangle, cycle4):
    c3 = make_group("cyclic:3")
    with pytest.raises(UnbalancedLabelingError):
        pair_to_full_bipartite(c3, cycle4, 0, EdgeLabeling((1, 0, 0, 0)))
    with pytest.raises(UnbalancedLabelingError):
        pair_to_full_odd(c3, triangle, 0, EdgeLabeling((1, 0, 0)))


def test_pair_to_full_bipartite_rejects_odd_graphs(triangle):
    with pytest.raises(UnbalancedLabelingError, match="bipartite"):
        pair_to_full_bipartite(make_group("cyclic:2"), triangle, 1, EdgeLabeling((0, 0, 0)))


def test_pair_to_full_odd_rejects_non_involution(triangle):
    g = make_group("cyclic:3")
    with pytest.raises(ValueError, match="involution"):
        pair_to_full_odd(g, triangle, 1, EdgeLabeling((0, 0, 0)))


def test_full_to_pair_recovers_generators(triangle):
    g = make_group("symmetric:3")
    a, (x, y, z), h = odd_triangle_pair(g)
    got_a, got_f = full_to_pair(g, triangle, h)
    assert got_a == a
    assert got_f.values == (x, y, z)
    assert is_balanced_edges(g, triangle, got_f)


def test_full_to_pair_bipartite_restricts(cycle4):
    g = make_group("symmetric:3")
    f = potential_to_edges(g, cycle4, Potential((0, 2, 5, 1)))
    h = pair_to_full_bipartite(g, cycle4, 4, f)
    a, back = full_to_pair(g, cycle4, h)
    assert a == 4 and back == f


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_pair_full_roundtrip_random(seed):
    rng = random.Random(seed)
    d = random_connected_digraph(rng, max_vertices=4, max_edges=5, max_walks=4000)
    g = make_group(rng.choice(["cyclic:2", "cyclic:4", "symmetric:3", "quaternion:8"]))
    values = [rng.randrange(g.order) for _ in range(d.n_vertices)]
    values[0] = g.identity
    f = potential_to_edges(g, d, Potential(tuple(values)))
    if analyze(d).bipartite:
        a = rng.randrange(g.order)
        h = pair_to_full_bipartite(g, d, a, f)
    else:
        involutions = sorted(g.involutions())
        a = involutions[rng.randrange(len(involutions))]
        h = pair_to_full_odd(g, d, a, f)
    assert is_balanced_full(g, d, h)
    got_a, got_f = full_to_pair(g, d, h)
    assert (got_a, got_f) == (a, f)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_rigid_pair_roundtrip_random(seed):
    rng = random.Random(seed)
    d = random_connected_digraph(rng, max_vertices=4, max_edges=5, max_walks=4000)
    g = make_group(rng.choice(["cyclic:3", "symmetric:3", "dihedral:3"]))
    labelings = list(itertools.islice(enumerate_all(g, d, EDGES, RIGID), 50))
    f = labelings[rng.randrange(len(labelings))]
    vv = tuple(rng.randrange(g.order) for _ in range(d.n_vertices))
    h = pair_to_full_rigid(g, d, vv, f)
    assert h.mode == RIGID
    assert is_balanced_full(g, d, h)
    got_vv, got_f = full_to_pair_rigid(g, d, h)
    assert (got_vv, got_f) == (vv, f)


@pytest.mark.parametrize(
    "bijection, spec, args",
    [
        (pair_to_full_rigid, "cyclic:3", ((0, 0, 0), EdgeLabeling((1, 0, 0), RIGID))),
        (full_to_pair, "cyclic:2", (FullLabeling((1, 0, 0), (0, 0, 0)),)),
        (full_to_pair_rigid, "cyclic:3", (FullLabeling((0, 0, 0), (1, 0, 0), RIGID),)),
    ],
    ids=["pair_to_full_rigid", "full_to_pair", "full_to_pair_rigid"],
)
def test_inverse_maps_reject_unbalanced_labelings(triangle, bijection, spec, args):
    with pytest.raises(UnbalancedLabelingError):
        bijection(make_group(spec), triangle, *args)


def test_pair_to_full_odd_rejects_bipartite_graphs(path2):
    # On a bipartite graph the odd extension is not the inverse of
    # full_to_pair: it would send (1, (0,)) to h with full_to_pair(h) = (1, (1,)).
    with pytest.raises(UnbalancedLabelingError, match="bipartite"):
        pair_to_full_odd(make_group("cyclic:2"), path2, 1, EdgeLabeling((0,)))


@pytest.mark.parametrize("value", [-1, 3])
def test_labeling_values_must_be_element_indices(path2, triangle, value):
    g = make_group("cyclic:3")
    with pytest.raises(ValueError, match="element indices"):
        potential_to_edges(g, path2, Potential((value, 0)))
    with pytest.raises(ValueError, match="element indices"):
        edges_to_potential(g, path2, EdgeLabeling((value,)))
    with pytest.raises(ValueError, match="element indices"):
        full_to_pair_rigid(g, path2, FullLabeling((0, value), (0,), RIGID))
    # The pair maps place these values without passing them through encode.
    with pytest.raises(ValueError, match="element indices"):
        pair_to_full_rigid(g, path2, (value, 0), EdgeLabeling((1,), RIGID))
    with pytest.raises(ValueError, match="element indices"):
        pair_to_full_bipartite(g, path2, value, EdgeLabeling((1,)))
    with pytest.raises(ValueError, match="element indices"):
        pair_to_full_odd(g, triangle, value, EdgeLabeling((0, 0, 0)))


def test_rigid_mode_mismatch(path2):
    g = make_group("cyclic:2")
    with pytest.raises(ValueError, match="rigid"):
        pair_to_full_rigid(g, path2, (0, 0), EdgeLabeling((0,), FLEXIBLE))
    with pytest.raises(ValueError, match="rigid"):
        full_to_pair_rigid(g, path2, FullLabeling((0, 0), (0,), FLEXIBLE))


# --------------------------------------------------------- enumeration


def test_enumerate_rigid_edges_examples(path2, triangle, theta):
    c2 = make_group("cyclic:2")
    # single cross edge: both values free
    labs = list(enumerate_all(c2, path2, EDGES, RIGID))
    assert labs == [EdgeLabeling((0,), RIGID), EdgeLabeling((1,), RIGID)]
    # strongly connected triangle: potential-induced, 4 labelings
    labs = list(enumerate_all(c2, triangle, EDGES, RIGID))
    assert len(labs) == 4
    assert all(is_balanced_edges(c2, triangle, f) for f in labs)
    labs = list(enumerate_all(c2, theta, EDGES, RIGID))
    assert len(labs) == 8 == count(c2, theta, EDGES, RIGID).value
    assert all(is_balanced_edges(c2, theta, f) for f in labs)


def test_enumerate_single_vertex_edges():
    g = make_group("cyclic:3")
    labs = list(enumerate_all(g, Digraph(1, ()), EDGES, FLEXIBLE))
    assert labs == [EdgeLabeling((), FLEXIBLE)]


def test_enumerate_order_is_frozen(triangle):
    c2 = make_group("cyclic:2")
    got = [f.values for f in enumerate_all(c2, triangle, EDGES, FLEXIBLE)]
    assert got == [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)]


@pytest.mark.parametrize("block_values", [1, 40, enumeration.BLOCK_VALUES])
def test_block_stream_is_the_row_by_row_decode(monkeypatch, block_values):
    """However the stream is cut into blocks, it is the one-row decode of
    every coordinate vector in lexicographic order, as labelings and as
    lines."""
    monkeypatch.setattr(enumeration, "BLOCK_VALUES", block_values)
    tokens = ("e", "x", "y")
    g = make_group("cyclic:3")
    for path in sorted(DATA.glob("*.txt")):
        d = load_graph(path.read_text())
        for target, mode in CASES:
            frame = enumeration._Frame(g, d, target, mode)
            expected = [frame.decode(c) for c in itertools.product(*map(range, frame.radices))]
            assert list(enumerate_all(g, d, target, mode)) == expected, (path.name, target, mode)
            lines = [
                " ".join(tokens[v] for v in (h.values if target == EDGES else h.vertex_values + h.edge_values))
                for h in expected
            ]
            assert list(enumerate_all(g, d, target, mode, tokens=tokens)) == lines


def test_encode_accepts_exactly_the_oracle_labelings():
    """In all four cases ``_Frame.encode`` accepts exactly the labelings the
    brute-force oracle finds balanced, each with coordinates that decode
    back to it, and rejects every other candidate."""
    table_f = make_group(f"table:{DATA / 's3_identity_at_1.table'}")
    grids = [(iter_connected_multigraphs(3, 3), [make_group("cyclic:2"), make_group("cyclic:3")]),
             (iter_connected_multigraphs(2, 3), [make_group("symmetric:3"), table_f])]
    for graphs, groups in grids:
        for d in graphs:
            for g in groups:
                for target, mode in CASES:
                    frame = enumeration._Frame(g, d, target, mode)
                    balanced = {key(h) for h in brute_force_labelings(g, d, target, mode)}
                    accepted = 0
                    for values in itertools.product(range(g.order), repeat=frame.slots):
                        h = (EdgeLabeling(values, mode) if target == EDGES
                             else FullLabeling(values[: d.n_vertices], values[d.n_vertices :], mode))
                        try:
                            coords = frame.encode(h)
                        except UnbalancedLabelingError:
                            assert values not in balanced, (d, g.name, target, mode, values)
                            continue
                        assert values in balanced and frame.decode(coords) == h, (d, g.name, target, mode, values)
                        accepted += 1
                    assert accepted == len(balanced)


def test_tokens_must_name_every_element(theta):
    with pytest.raises(ValueError, match="2 tokens for a group of order 3"):
        next(enumerate_all(make_group("cyclic:3"), theta, EDGES, FLEXIBLE, tokens=("a", "b")))


def test_enumerate_deterministic(theta):
    g = make_group("cyclic:3")
    first = list(enumerate_all(g, theta, EDGES, RIGID))
    second = list(enumerate_all(g, theta, EDGES, RIGID))
    assert first == second


def test_enumerate_matches_oracle_sets(groups):
    # full agreement, labeling by labeling, on a small grid
    for d in iter_connected_multigraphs(2, 2):
        for g in (groups["cyclic:2"], groups["cyclic:3"]):
            for target in (EDGES, FULL):
                for mode in (FLEXIBLE, RIGID):
                    enum = sorted(key(l) for l in enumerate_all(g, d, target, mode))
                    oracle = sorted(key(l) for l in brute_force_labelings(g, d, target, mode))
                    assert enum == oracle, (d, g.name, target, mode)
                    assert len(enum) == count(g, d, target, mode).value


def test_enumerate_counts_match_formula(groups, triangle, path2, cycle4, theta):
    cases = [
        (groups["symmetric:3"], triangle, FULL, FLEXIBLE, 144),
        (groups["cyclic:3"], path2, FULL, RIGID, 27),
        (groups["cyclic:2"], cycle4, FULL, FLEXIBLE, 16),
        (groups["cyclic:2"], theta, EDGES, RIGID, 8),
    ]
    for g, d, target, mode, expected in cases:
        labs = list(enumerate_all(g, d, target, mode))
        assert len(labs) == expected
        assert len(set(labs)) == expected


def test_enumerated_full_labelings_conjugate_structure(triangle):
    # on a non-bipartite graph every vertex value of a balanced full
    # labeling is conjugate to the base value, which is an involution
    g = make_group("symmetric:3")
    for h in enumerate_all(g, triangle, FULL, FLEXIBLE):
        a = h.vertex_values[0]
        assert g.mul(a, a) == g.identity
        for hv in h.vertex_values:
            assert any(g.conj(a, c) == hv for c in range(g.order))


@pytest.mark.parametrize("target, mode", [(EDGES, FLEXIBLE), (EDGES, RIGID), (FULL, FLEXIBLE), (FULL, RIGID)])
def test_stream_and_sample_analyze_the_graph_once(monkeypatch, triangle, target, mode):
    calls = []

    def counted(d):
        calls.append(d)
        return analyze(d)

    monkeypatch.setattr(enumeration, "analyze", counted)
    g = make_group("cyclic:2")
    assert len(list(enumerate_all(g, triangle, target, mode))) > 1
    assert len(calls) == 1
    sample_uniform(g, triangle, target, mode, seed=3)
    assert len(calls) == 2


@pytest.mark.parametrize("size", ["small", "large"])
def test_a_kept_graph_is_analyzed_once_and_searched_once_per_part_choice(monkeypatch, size):
    """Counts, streams, samples and every applicable bijection map, in all
    four cases, share one structure computation and at most one spanning
    forest per part choice (whole graph or strongly connected components)."""
    d, g = kept_graph(size), make_group("symmetric:3")
    assert (d.n_edges >= digraph._ARRAY_EDGES) == (size == "large")
    # The list path runs the Tarjan search once.  On the large graph the
    # array path settles every component before Tarjan's loop (trimming
    # removes the trees, forward-backward the cycle), so it never runs.
    analyses, forests = [], []
    tarjan, arrays = digraph._strong_components, digraph._analyze_arrays
    monkeypatch.setattr(digraph, "_strong_components", lambda succ: analyses.append("tarjan") or tarjan(succ))
    monkeypatch.setattr(digraph, "_analyze_arrays", lambda d: analyses.append("arrays") or arrays(d))
    search = digraph._breadth_first_forest
    monkeypatch.setattr(
        digraph, "_breadth_first_forest", lambda d, part: forests.append(part is not None) or search(d, part)
    )
    for seed, (target, mode) in enumerate(CASES):
        assert count(g, d, target, mode).value > 1
        assert len(list(itertools.islice(enumerate_all(g, d, target, mode), 3))) == 3
        lab = sample_uniform(g, d, target, mode, seed)
        if (target, mode) == (EDGES, FLEXIBLE):
            assert potential_to_edges(g, d, edges_to_potential(g, d, lab)) == lab
        elif (target, mode) == (FULL, FLEXIBLE):
            extend = pair_to_full_bipartite if analyze(d).bipartite else pair_to_full_odd
            assert extend(g, d, *full_to_pair(g, d, lab)) == lab
        elif (target, mode) == (FULL, RIGID):
            assert pair_to_full_rigid(g, d, *full_to_pair_rigid(g, d, lab)) == lab
    assert analyses == (["tarjan"] if size == "small" else ["arrays"])
    assert sorted(forests) == [False, True]


@pytest.mark.parametrize("case", ["sample", "full-flexible", "edges-flexible", "full-rigid"])
def test_maps_on_a_parsed_graph_leave_its_edge_tuples_unbuilt(case):
    """A parsed graph holds only its edge array, and its spanning forests
    read that array: a sample, the inverse bijection maps and
    ``potential_to_edges`` on a parsed even cycle, which is bipartite, build
    no edge tuple."""
    n = 10_000
    d, g = load_graph("".join(f"{v} {(v + 1) % n}\n" for v in range(n))), make_group("symmetric:3")
    if case == "sample":
        sample_uniform(g, d, FULL, FLEXIBLE, 0)
    elif case == "full-flexible":
        h = sample_uniform(g, d, FULL, FLEXIBLE, 1)
        assert pair_to_full_bipartite(g, d, *full_to_pair(g, d, h)) == h
    elif case == "edges-flexible":
        f = sample_uniform(g, d, EDGES, FLEXIBLE, 2)
        assert potential_to_edges(g, d, edges_to_potential(g, d, f)) == f
    else:
        h = sample_uniform(g, d, FULL, RIGID, 3)
        assert pair_to_full_rigid(g, d, *full_to_pair_rigid(g, d, h)) == h
    assert "edges" not in d.__dict__


# ------------------------------------------------------------ sampling


def test_sample_deterministic(theta):
    g = make_group("symmetric:3")
    for target, mode in ((EDGES, FLEXIBLE), (FULL, FLEXIBLE), (EDGES, RIGID), (FULL, RIGID)):
        a = sample_uniform(g, theta, target, mode, seed=20240817)
        b = sample_uniform(g, theta, target, mode, seed=20240817)
        assert a == b
        if target == EDGES:
            assert is_balanced_edges(g, theta, a)
        else:
            assert is_balanced_full(g, theta, a)


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "cyclic:3", "symmetric:3", "symmetric:4"])
def test_samples_decode_one_randrange_per_radix(spec, triangle, cycle4, theta):
    """Radices 1, 2, 3, 6 and 24; on the triangle, an odd cycle, full
    flexible frames lead with a |G2| radix (4 for symmetric:3), equal to
    |G| for cyclic:1 and cyclic:2.  The bulk draw of the last run must give
    what one ``randrange`` per radix gives."""
    g = make_group(spec)
    graphs = [triangle, cycle4, theta, Digraph(1, ()), Digraph(2, ((0, 1), (1, 0), (0, 1), (1, 1)))]
    if spec == "symmetric:3":
        graphs.append(kept_graph("large"))
    for d in graphs:
        for target, mode in CASES:
            frame = enumeration._Frame(g, d, target, mode)
            for seed in range(50):
                rng = random.Random(seed)
                expected = frame.decode([rng.randrange(r) for r in frame.radices])
                assert sample_uniform(g, d, target, mode, seed) == expected, (d.n_edges, target, mode, seed)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 6, 7, 24, 1000, 1024, 2**32 - 1, 2**32, 2**40])
def test_bulk_draws_are_the_values_of_randrange(r):
    """With and without a draw ahead of the run; from 2**32 on, by ``randrange`` itself."""
    for seed in range(200):
        for lead in (None, 4):
            rng, bulk = random.Random(seed), random.Random(seed)
            if lead:
                rng.randrange(lead), bulk.randrange(lead)
            m = 1 + seed % 40
            assert enumeration._randrange_run(bulk, r, m).tolist() == [rng.randrange(r) for _ in range(m)]


def test_sample_unique_labeling_cases():
    c1 = make_group("cyclic:1")
    tri = Digraph(3, ((0, 1), (1, 2), (2, 0)))
    assert sample_uniform(c1, tri, EDGES, FLEXIBLE, seed=5).values == (0, 0, 0)
    single = Digraph(1, ())
    for seed in (0, 1, 99):
        assert sample_uniform(make_group("symmetric:3"), single, EDGES, RIGID, seed).values == ()


def test_sample_lands_in_enumerated_set(triangle):
    g = make_group("cyclic:4")
    population = set(enumerate_all(g, triangle, FULL, FLEXIBLE))
    for seed in range(50):
        assert sample_uniform(g, triangle, FULL, FLEXIBLE, seed) in population


def test_sample_smoke_uniformity(triangle):
    # 10^4 seeded draws over the 8 balanced full labelings of the triangle
    # over cyclic:2: all outcomes occur; chi-squared over 7 dof stays under
    # 30 (far above any plausible sampling noise for a uniform sampler,
    # far below what a biased one would produce).
    g = make_group("cyclic:2")
    freq = Counter(key(sample_uniform(g, triangle, FULL, FLEXIBLE, seed)) for seed in range(10_000))
    assert len(freq) == 8
    expected = 10_000 / 8
    chi2 = sum((n - expected) ** 2 / expected for n in freq.values())
    assert chi2 < 30, chi2


def test_sample_rejects_disconnected():
    g = make_group("cyclic:2")
    with pytest.raises(NotWeaklyConnectedError):
        sample_uniform(g, Digraph(3, ((0, 1),)), EDGES, FLEXIBLE, seed=0)
