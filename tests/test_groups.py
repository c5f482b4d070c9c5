"""Group construction, arithmetic and table validation."""

import itertools
import tracemalloc

import pytest

from bgains.groups import (
    GroupAxiomError,
    GroupSpecError,
    dihedral_group,
    make_group,
    validate_cayley_table,
)


def brute_force_involutions(g):
    return {a for a in range(g.order) if g.mul(a, a) == g.identity}


def assert_is_group_slow(g):
    """Exhaustive pure-python group axiom check, independent of the numpy validator."""
    n = g.order
    t = g.table
    for row in t:
        assert sorted(row) == list(range(n))
    for j in range(n):
        assert sorted(t[i][j] for i in range(n)) == list(range(n))
    e = g.identity
    for a in range(n):
        assert t[e][a] == a and t[a][e] == a
        assert t[a][g.inv(a)] == e and t[g.inv(a)][a] == e
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert t[t[a][b]][c] == t[a][t[b][c]]


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic:1", 1),
        ("cyclic:2", 2),
        ("cyclic:7", 7),
        ("dihedral:3", 6),
        ("dihedral:4", 8),
        ("symmetric:1", 1),
        ("symmetric:3", 6),
        ("symmetric:4", 24),
        ("quaternion:8", 8),
        ("product:cyclic:2,cyclic:2", 4),
        ("product:cyclic:2,product:cyclic:2,cyclic:2", 8),
        ("product:symmetric:3,cyclic:2", 12),
    ],
)
def test_orders(spec, order):
    g = make_group(spec)
    assert g.order == order
    assert g.identity == 0
    assert g.name == spec


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic:0",
        "cyclic:",
        "cyclic",
        "dihedral:2",
        "symmetric:0",
        "symmetric:6",
        "quaternion:4",
        "product:cyclic:2",
        "product:cyclic:2;cyclic:2",
        "frobnicate:5",
        "cyclic:3,cyclic:2",
        "table:",
    ],
)
def test_bad_specs(spec):
    with pytest.raises(GroupSpecError):
        make_group(spec)


@pytest.mark.parametrize("spec", ["cyclic:1025", "dihedral:513"])
def test_order_limit_applies_before_the_table_is_built(spec):
    tracemalloc.start()
    try:
        with pytest.raises(GroupSpecError, match="exceeds the supported limit 1024"):
            make_group(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_order_limit_is_inclusive():
    assert make_group("cyclic:1024").order == 1024


def test_mul_cyclic():
    g = make_group("cyclic:5")
    assert g.mul(2, 4) == 1
    assert g.inv(2) == 3
    assert g.inv(g.identity) == g.identity


def test_identity_laws():
    for spec in ("cyclic:6", "dihedral:5", "symmetric:3", "quaternion:8"):
        g = make_group(spec)
        for a in range(g.order):
            assert g.mul(g.identity, a) == a
            assert g.mul(a, g.identity) == a


def test_symmetric_transpositions_are_involutions():
    g = make_group("symmetric:3")
    # Rebuild the element order independently: lexicographic one-line notation.
    perms = list(itertools.permutations(range(3)))
    assert [p for p in perms][0] == (0, 1, 2)
    transpositions = [i for i, p in enumerate(perms) if sum(p[k] != k for k in range(3)) == 2]
    assert len(transpositions) == 3
    for t in transpositions:
        assert g.mul(t, t) == g.identity


def test_dihedral_reflections_self_inverse():
    g = dihedral_group(3)
    for a in range(g.order):
        if g.element_names[a].startswith("s"):
            assert g.inv(a) == a
            assert g.mul(a, a) == g.identity


def test_involutions():
    assert make_group("cyclic:2").involutions() == {0, 1}
    assert make_group("cyclic:3").involutions() == {0}
    g = make_group("symmetric:3")
    invs = g.involutions()
    assert invs == brute_force_involutions(g)
    assert len(invs) == 4
    # Klein four group: every element is its own inverse.
    v4 = make_group("product:cyclic:2,cyclic:2")
    assert v4.involutions() == {0, 1, 2, 3}
    assert make_group("quaternion:8").involutions() == {0, 1}


def test_is_abelian():
    assert make_group("cyclic:12").is_abelian()
    assert make_group("product:cyclic:2,cyclic:4").is_abelian()
    s3 = make_group("symmetric:3")
    assert not s3.is_abelian()
    # exhibit a non-commuting pair by brute force
    assert any(
        s3.mul(a, b) != s3.mul(b, a) for a in range(6) for b in range(6)
    )
    assert not make_group("quaternion:8").is_abelian()
    assert not make_group("dihedral:4").is_abelian()


@pytest.mark.parametrize(
    "spec",
    ["cyclic:9", "dihedral:6", "symmetric:4", "quaternion:8", "product:cyclic:3,cyclic:4"],
)
def test_constructors_are_groups(spec):
    assert_is_group_slow(make_group(spec))


@pytest.mark.parametrize(
    "spec", ["cyclic:8", "dihedral:5", "symmetric:4", "quaternion:8"]
)
def test_involution_set_structure(spec):
    g = make_group(spec)
    invs = g.involutions()
    assert g.identity in invs
    assert {g.inv(a) for a in invs} == invs
    assert invs == brute_force_involutions(g)


def test_inverse_is_an_involution_map():
    for spec in ("cyclic:10", "dihedral:4", "symmetric:3"):
        g = make_group(spec)
        for a in range(g.order):
            assert g.inv(g.inv(a)) == a


def test_symmetric_element_names_lexicographic():
    g = make_group("symmetric:3")
    assert g.element_names == ("012", "021", "102", "120", "201", "210")


def test_table_file_roundtrip(tmp_path):
    g = make_group("cyclic:3")
    path = tmp_path / "c3.txt"
    lines = ["# cyclic group of order 3", "3"]
    lines += [" ".join(str(x) for x in row) for row in g.table]
    path.write_text("\n".join(lines) + "\n")
    loaded = make_group(f"table:{path}")
    assert loaded.table == g.table
    assert loaded.identity == 0
    assert loaded.order == 3


def test_table_file_identity_not_renumbered(tmp_path):
    # Z3 with elements relabeled so the identity sits at index 2.
    relabel = [2, 0, 1]  # old -> new
    old = make_group("cyclic:3").table
    table = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            table[relabel[a]][relabel[b]] = relabel[old[a][b]]
    path = tmp_path / "shifted.txt"
    path.write_text("3\n" + "\n".join(" ".join(map(str, r)) for r in table) + "\n")
    g = make_group(f"table:{path}")
    assert g.identity == 2
    assert g.mul(2, 0) == 0 and g.mul(1, 2) == 1


def test_table_file_latin_violation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 0\n1 0\n")
    with pytest.raises(GroupAxiomError, match="latin square"):
        make_group(f"table:{path}")


def test_table_file_associativity_violation(tmp_path):
    # Subtraction mod 5 is a quasigroup (latin square) but not associative.
    table = [[(i - j) % 5 for j in range(5)] for i in range(5)]
    path = tmp_path / "sub5.txt"
    path.write_text("5\n" + "\n".join(" ".join(map(str, r)) for r in table) + "\n")
    with pytest.raises(GroupAxiomError, match="associativity fails at"):
        make_group(f"table:{path}")


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "empty table"),
        ("2 2\n0 1\n1 0", "order alone"),
        ("x\n", "not an integer"),
        ("2\n0 1\n1 x", "non-integer"),
        ("2\n0 1\n", "expected 2 table rows"),
        ("2\n0 1 0\n1 0", "expected 2 entries"),
        ("2\n0 3\n1 0", "outside 0..1"),
    ],
)
def test_table_file_parse_errors(tmp_path, content, message):
    path = tmp_path / "t.txt"
    path.write_text(content)
    with pytest.raises((GroupSpecError, GroupAxiomError), match=message):
        make_group(f"table:{path}")


def test_missing_table_file():
    with pytest.raises(GroupSpecError, match="cannot read"):
        make_group("table:/nonexistent/nowhere.txt")


def test_validate_reports_first_axiom_in_order():
    # Both latin and associativity are broken; latin must be reported first.
    with pytest.raises(GroupAxiomError, match="latin square"):
        validate_cayley_table([[0, 0], [0, 0]])


def test_product_identity_renumbered(tmp_path):
    # A product with a table-group factor whose identity is not 0 still
    # lands the product identity at index 0.
    relabel = [1, 0]
    old = make_group("cyclic:2").table
    table = [[0] * 2 for _ in range(2)]
    for a in range(2):
        for b in range(2):
            table[relabel[a]][relabel[b]] = relabel[old[a][b]]
    path = tmp_path / "flip2.txt"
    path.write_text("2\n" + "\n".join(" ".join(map(str, r)) for r in table) + "\n")
    flipped = make_group(f"table:{path}")
    assert flipped.identity == 1
    prod = make_group(f"product:cyclic:2,table:{path}")
    assert prod.identity == 0
    assert prod.order == 4
    assert_is_group_slow(prod)
