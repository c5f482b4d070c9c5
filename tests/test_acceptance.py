"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check here is exact integer arithmetic; there are no tolerances.
The grid criteria sweep all weakly connected multigraphs with at most 3
vertices and 4 edges (loops and parallel edges included) against the
brute-force oracle, so the module takes a few minutes rather than
seconds.
"""

import json
import random
import subprocess
import sys

import jsonschema
import pytest

from bgains.balance import (
    EDGES,
    FLEXIBLE,
    FULL,
    RIGID,
    EdgeLabeling,
    all_closed_walks,
    brute_force_count,
    brute_force_labelings,
    is_balanced_edges,
    is_balanced_full,
)
from bgains.cli import main as cli_main
from bgains.digraph import analyze, iter_connected_multigraphs
from bgains.enumeration import (
    Potential,
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
from bgains.groups import make_group

from graph_helpers import DATA, random_connected_digraph
from test_groups import assert_is_group_slow

COMBOS = tuple((target, mode) for target in (EDGES, FULL) for mode in (FLEXIBLE, RIGID))


def _report(capsys, number: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {number} {name}: {'PASS' if ok else 'FAIL'}")


def _key(labeling):
    if isinstance(labeling, EdgeLabeling):
        return labeling.values
    return labeling.vertex_values + labeling.edge_values


@pytest.fixture(scope="session")
def grid_graphs():
    return list(iter_connected_multigraphs(3, 4))


def test_criterion_1_formula_matches_oracle_on_small_graph_grid(capsys, grid_graphs, groups):
    failures = []
    checked = 0
    for d in grid_graphs:
        for spec, g in groups.items():
            for target, mode in COMBOS:
                formula = count(g, d, target, mode).value
                oracle = brute_force_count(g, d, target, mode)
                checked += 1
                if formula != oracle:
                    failures.append((d.n_vertices, d.edges, spec, target, mode, formula, oracle))
    complete = checked == len(grid_graphs) * len(groups) * len(COMBOS)
    _report(capsys, 1, "formula == oracle on the exhaustive small-graph grid", not failures and complete)
    assert len(grid_graphs) >= 400
    assert any(u == w for d in grid_graphs for u, w in d.edges)
    assert any(len(d.edges) != len(set(d.edges)) for d in grid_graphs)
    assert complete
    assert not failures, failures[:5]


def test_criterion_2_full_flexible_dichotomy_spot_checks(capsys, groups, triangle, cycle4):
    s3 = groups["symmetric:3"]
    involutions = len(s3.involutions())
    odd_formula = count(s3, triangle, FULL, FLEXIBLE).value
    odd_oracle = brute_force_count(s3, triangle, FULL, FLEXIBLE)
    even_formula = count(s3, cycle4, FULL, FLEXIBLE).value
    even_oracle = brute_force_count(s3, cycle4, FULL, FLEXIBLE)
    ok = (
        involutions == 4
        and odd_formula == odd_oracle == 144 == involutions * 6**2
        and even_formula == even_oracle == 1296 == 6**4
    )
    _report(capsys, 2, "odd triangle 144 and bipartite 4-cycle 1296 over symmetric:3", ok)
    assert involutions == 4
    assert odd_formula == 144 and odd_oracle == 144
    assert even_formula == 1296 and even_oracle == 1296


def test_criterion_3_theta_graph_structure_and_rigid_count(capsys, groups, theta):
    report = analyze(theta)
    rigid_walks = list(all_closed_walks(theta, RIGID))
    separated = all(not (0 in w.vertices and 3 in w.vertices) for w in rigid_walks)
    formulas = {g.name: count(g, theta, EDGES, RIGID).value for g in groups.values()}
    formulas_ok = all(v == g.order**3 for g, v in zip(groups.values(), formulas.values()))
    oracle = brute_force_count(groups["cyclic:2"], theta, EDGES, RIGID)
    ok = (
        report.scc_count == 1
        and report.cross_scc_edges == 0
        and separated
        and formulas_ok
        and oracle == 8
    )
    _report(capsys, 3, "theta graph: one component, separated rigid walks, |G|^3 rigid count", ok)
    assert report.scc_count == 1 and report.cross_scc_edges == 0
    assert separated, rigid_walks
    assert formulas_ok, formulas
    assert oracle == 8


def test_criterion_4_odd_triangle_construction_and_roundtrip(capsys, triangle):
    g = make_group("symmetric:3")
    a = g.element_names.index("102")
    x = g.element_names.index("210")
    y = g.element_names.index("021")
    z = g.inv(g.mul(x, y))
    f = EdgeLabeling((x, y, z))
    h = pair_to_full_odd(g, triangle, a, f)
    balanced = is_balanced_full(g, triangle, h)
    roundtrip = full_to_pair(g, triangle, h) == (a, f)
    ok = balanced and roundtrip
    _report(capsys, 4, "involution-conjugation construction on the odd triangle", ok)
    assert balanced
    assert roundtrip


def test_criterion_5_randomized_bijection_roundtrips(capsys):
    pool = [
        make_group(s)
        for s in ("cyclic:2", "cyclic:3", "cyclic:4", "symmetric:3", "dihedral:4", "quaternion:8")
    ]
    rng = random.Random(522025)
    rounds = 1000
    failures = []

    def random_potential(g, d):
        values = [rng.randrange(g.order) for _ in range(d.n_vertices)]
        base = rng.randrange(d.n_vertices)
        values[base] = g.identity
        return Potential(tuple(values), base)

    for _ in range(rounds):
        g = rng.choice(pool)
        d = random_connected_digraph(rng, 4, 5, max_walks=1000)
        p = random_potential(g, d)
        f = potential_to_edges(g, d, p)
        if not is_balanced_edges(g, d, f) or edges_to_potential(g, d, f, p.base_vertex) != p:
            failures.append(("edges-potential", g.name, d.edges))

    for _ in range(rounds):
        g = rng.choice(pool)
        d = random_connected_digraph(rng, 4, 5, bipartite=True, max_walks=1000)
        a = rng.randrange(g.order)
        f = potential_to_edges(g, d, random_potential(g, d))
        h = pair_to_full_bipartite(g, d, a, f)
        if not is_balanced_full(g, d, h) or full_to_pair(g, d, h) != (a, f):
            failures.append(("pair-full-bipartite", g.name, d.edges))

    for _ in range(rounds):
        g = rng.choice(pool)
        d = random_connected_digraph(rng, 4, 5, bipartite=False, max_walks=1000)
        a = rng.choice(sorted(g.involutions()))
        f = potential_to_edges(g, d, random_potential(g, d))
        h = pair_to_full_odd(g, d, a, f)
        if not is_balanced_full(g, d, h) or full_to_pair(g, d, h) != (a, f):
            failures.append(("pair-full-odd", g.name, d.edges))

    for _ in range(rounds):
        g = rng.choice(pool)
        d = random_connected_digraph(rng, 4, 5, max_walks=1000)
        f = sample_uniform(g, d, EDGES, RIGID, seed=rng.randrange(2**31))
        vv = tuple(rng.randrange(g.order) for _ in range(d.n_vertices))
        h = pair_to_full_rigid(g, d, vv, f)
        if not is_balanced_full(g, d, h) or full_to_pair_rigid(g, d, h) != (vv, f):
            failures.append(("pair-full-rigid", g.name, d.edges))

    _report(capsys, 5, f"{rounds} randomized roundtrips per bijection pair", not failures)
    assert not failures, failures[:5]


def test_criterion_6_enumeration_matches_oracle_sets(capsys, grid_graphs, groups):
    failures = []
    checked = 0
    for d in grid_graphs:
        for spec, g in groups.items():
            for target, mode in COMBOS:
                expected = count(g, d, target, mode).value
                if expected > 10_000:
                    continue
                checked += 1
                emitted = list(enumerate_all(g, d, target, mode))
                if len(emitted) != expected or len(set(emitted)) != expected:
                    failures.append((d.edges, spec, target, mode, "cardinality"))
                    continue
                accepted = brute_force_labelings(g, d, target, mode)
                if sorted(map(_key, emitted)) != sorted(map(_key, accepted)):
                    failures.append((d.edges, spec, target, mode, "set mismatch"))
    _report(capsys, 6, "enumeration equals the oracle's accepted set on the grid", not failures)
    assert checked > 5000
    assert not failures, failures[:5]


def test_criterion_7_group_engine_axioms_and_involutions(capsys):
    # hand-derived involution counts, independent of the library's scan
    expected_involutions = {"quaternion:8": 2}
    for n in range(1, 25):
        expected_involutions[f"cyclic:{n}"] = 2 if n % 2 == 0 else 1
    for n in range(3, 13):
        expected_involutions[f"dihedral:{n}"] = n + (2 if n % 2 == 0 else 1)
    for n, value in ((1, 1), (2, 2), (3, 4), (4, 10)):
        expected_involutions[f"symmetric:{n}"] = value
    expected_involutions["product:cyclic:2,cyclic:2"] = 4
    expected_involutions["product:cyclic:2,cyclic:6"] = 4
    expected_involutions["product:cyclic:3,cyclic:4"] = 2
    expected_involutions["product:symmetric:3,cyclic:2"] = 8
    expected_involutions["product:cyclic:2,product:cyclic:2,cyclic:2"] = 8

    failures = []
    for spec, expected in expected_involutions.items():
        g = make_group(spec)
        assert g.order <= 24
        try:
            assert_is_group_slow(g)
        except AssertionError:
            failures.append((spec, "axioms"))
            continue
        scanned = sum(1 for a in range(g.order) if g.mul(a, a) == g.identity)
        if not scanned == len(g.involutions()) == expected:
            failures.append((spec, "involutions", scanned, expected))
    _report(capsys, 7, "group constructors up to order 24: axioms and involution counts", not failures)
    assert not failures, failures


ANALYZE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["weakly_connected", "bipartite", "scc_count", "cross_scc_edges", "scc_assignment"],
    "properties": {
        "weakly_connected": {"type": "boolean"},
        "bipartite": {"type": "boolean"},
        "scc_count": {"type": "integer", "minimum": 1},
        "cross_scc_edges": {"type": "integer", "minimum": 0},
        "scc_assignment": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    },
}

COUNT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "mode",
        "target",
        "group_spec",
        "group_order",
        "involution_count",
        "vertices",
        "edges",
        "bipartite",
        "scc_count",
        "cross_scc_edges",
        "s_exponent",
        "t_exponent",
        "count_decimal",
    ],
    "properties": {
        "mode": {"enum": ["flexible", "rigid"]},
        "target": {"enum": ["edges", "full"]},
        "group_spec": {"type": "string"},
        "group_order": {"type": "integer", "minimum": 1},
        "involution_count": {"type": "integer", "minimum": 1},
        "vertices": {"type": "integer", "minimum": 1},
        "edges": {"type": "integer", "minimum": 0},
        "bipartite": {"type": "boolean"},
        "scc_count": {"type": "integer", "minimum": 1},
        "cross_scc_edges": {"type": "integer", "minimum": 0},
        "s_exponent": {"type": "integer", "minimum": 0},
        "t_exponent": {"type": "integer", "minimum": 0},
        "count_decimal": {"type": "string", "pattern": "^[0-9]+$"},
    },
}

GROUP_INFO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["order", "involution_count", "abelian"],
    "properties": {
        "order": {"type": "integer", "minimum": 1},
        "involution_count": {"type": "integer", "minimum": 1},
        "abelian": {"type": "boolean"},
        "elements": {"type": "array", "items": {"type": "string"}},
    },
}


def test_criterion_8_cli_contract(capsys, grid_graphs, groups, tmp_path_factory):
    root = tmp_path_factory.mktemp("grid-graphs")
    verify_failures = []
    for i, d in enumerate(grid_graphs):
        path = root / f"g{i:04d}.txt"
        path.write_text(f"n = {d.n_vertices}\n" + "".join(f"{u} {w}\n" for u, w in d.edges))
        for spec in groups:
            for target, mode in COMBOS:
                code = cli_main(
                    ["verify", str(path), "--group", spec, "--target", target, "--mode", mode]
                )
                if code != 0:
                    verify_failures.append((d.edges, spec, target, mode, code))
    capsys.readouterr()

    schema_ok = True
    try:
        cli_main(["analyze", str(DATA / "theta.txt")])
        jsonschema.validate(json.loads(capsys.readouterr().out), ANALYZE_SCHEMA)
        for argv in (
            ["count", str(DATA / "theta.txt"), "--group", "symmetric:3", "--target", "full", "--mode", "rigid", "--json"],
            ["count", str(DATA / "path2.txt"), "--group", "quaternion:8", "--target", "edges", "--mode", "flexible", "--json"],
        ):
            cli_main(argv)
            jsonschema.validate(json.loads(capsys.readouterr().out), COUNT_SCHEMA)
        for spec in ("cyclic:6", "product:cyclic:2,cyclic:2"):
            cli_main(["group-info", "--group", spec, "--show-elements"])
            jsonschema.validate(json.loads(capsys.readouterr().out), GROUP_INFO_SCHEMA)
    except (jsonschema.ValidationError, json.JSONDecodeError):
        schema_ok = False

    cmd = [
        sys.executable, "-m", "bgains",
        "sample", str(DATA / "theta.txt"),
        "--group", "symmetric:3", "--target", "full", "--mode", "rigid", "--seed", "99",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    sample_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout != b""
    )

    ok = not verify_failures and schema_ok and sample_ok
    _report(capsys, 8, "verify exits 0 on the grid, JSON validates, sampling is byte-stable", ok)
    assert not verify_failures, verify_failures[:5]
    assert schema_ok
    assert sample_ok, (first.returncode, second.returncode, first.stdout, second.stdout)
