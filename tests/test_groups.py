"""Group construction, arithmetic and table validation."""

import itertools
import random
import re
import time
import tracemalloc

import pytest

from bgains import cli
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


_UNRECOGNIZED = "; expected cyclic:n, dihedral:n, symmetric:n, quaternion:8, product:<spec>,<spec> or table:<path>"
BAD_SPECS = {
    "cyclic:0": "cyclic:n requires n >= 1, got 0",
    "cyclic:": "cyclic: expected an integer parameter",
    "cyclic": "unrecognized group spec 'cyclic'" + _UNRECOGNIZED,
    "dihedral:2": "dihedral:n requires n >= 3, got 2",
    "symmetric:0": "symmetric:n requires 1 <= n <= 5, got 0",
    "symmetric:6": "symmetric:n requires 1 <= n <= 5, got 6",
    "quaternion:4": "only quaternion:8 is supported, got quaternion:4",
    "product:cyclic:2": "product:<spec>,<spec> needs two comma-separated specs",
    "product:cyclic:2;cyclic:2": "product:<spec>,<spec> needs two comma-separated specs",
    "frobnicate:5": "unrecognized group spec 'frobnicate:5'" + _UNRECOGNIZED,
    "cyclic:3,cyclic:2": "trailing text ',cyclic:2' after group spec in 'cyclic:3,cyclic:2'",
    "table:": "table: requires a file path",
    "cyclic:²": "cyclic: expected an integer parameter",
    # Look-alikes of a family name: only the exact name before the colon counts.
    "cyclicx:3": "unrecognized group spec 'cyclicx:3'" + _UNRECOGNIZED,
    "Cyclic:3": "unrecognized group spec 'Cyclic:3'" + _UNRECOGNIZED,
    ":3": "unrecognized group spec ':3'" + _UNRECOGNIZED,
}


@pytest.mark.parametrize("spec", BAD_SPECS)
def test_bad_specs(spec):
    with pytest.raises(GroupSpecError, match=f"^{re.escape(BAD_SPECS[spec])}$"):
        make_group(spec)


def test_spec_parameters_are_the_decimal_integers_int_reads(int_str_limit):
    assert make_group("cyclic:٣").name == "cyclic:3"
    with pytest.raises(GroupSpecError, match=f"integer parameter of {int_str_limit + 1} digits is too long"):
        make_group("cyclic:" + "0" * int_str_limit + "3")


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


def test_table_file_order_limit_applies_before_any_row_is_read(tmp_path):
    """An order-1,025 table is refused from its order line, before its
    order^2 entries are read, held and validated."""
    n = 1025
    path = tmp_path / "c1025.txt"
    tokens = [str(j) for j in range(n)] * 2
    path.write_text(f"{n}\n" + "".join(" ".join(tokens[i : i + n]) + "\n" for i in range(n)))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(GroupSpecError, match="table order 1025 exceeds the supported limit 1024"):
            make_group(f"table:{path}")
        _, peak = tracemalloc.get_traced_memory()
        assert cli.main(["group-info", "--group", f"table:{path}"]) == cli.EXIT_USAGE
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert time.perf_counter() - start < 5


def test_order_limit_is_inclusive():
    assert make_group("cyclic:1024").order == 1024


@pytest.mark.parametrize("swap", [False, True])
def test_largest_table_file_is_fully_validated_quickly(tmp_path, swap):
    # Swapping two rows of a group table keeps it a latin square but breaks
    # associativity, which only a full check can see.
    n = 1024
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if swap:
        table[1], table[2] = table[2], table[1]
    path = tmp_path / "c1024.txt"
    path.write_text(f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table))
    start = time.perf_counter()
    if swap:
        with pytest.raises(GroupAxiomError, match="associativity fails at"):
            make_group(f"table:{path}")
    else:
        assert make_group(f"table:{path}").order == n
    assert time.perf_counter() - start < 5


def naive_associativity_violation(t):
    n = len(t)
    return next(
        ((a, b, c) for a in range(n) for b in range(n) for c in range(n) if t[t[a][b]][c] != t[a][t[b][c]]),
        None,
    )


def relabeled(table, new_of_old):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[new_of_old[a]][new_of_old[b]] = new_of_old[table[a][b]]
    return out


def random_loop(rng, n):
    """A random latin square of order n with identity 0, by backtracking."""
    t = [[(i if j == 0 else j if i == 0 else None) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        for v in rng.sample(range(n), n):
            if v not in t[i] and all(t[r][j] != v for r in range(n)):
                t[i][j] = v
                if fill(k + 1):
                    return True
                t[i][j] = None
        return False

    assert fill(0)
    return t


def random_latin_squares(seed):
    """Relabeled groups, random loops and their row/column isotopes (latin
    squares that usually lack an identity), of orders 1 to 6."""
    rng = random.Random(seed)
    specs = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "product:cyclic:2,cyclic:2",
             "cyclic:5", "cyclic:6", "symmetric:3"]
    for spec in specs:
        table = make_group(spec).table
        yield relabeled(table, rng.sample(range(len(table)), len(table)))
    for n in range(1, 7):
        for _ in range(6):
            loop = random_loop(rng, n)
            yield relabeled(loop, rng.sample(range(n), n))
            rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
            yield [[loop[rows[i]][cols[j]] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", range(5))
def test_validator_finds_exactly_the_naive_associativity_violations(seed):
    outcomes = set()
    for t in random_latin_squares(seed):
        if naive_associativity_violation(t) is None:
            # An associative latin square is a group, so its identity and
            # inverses, read off one side, must be two-sided.
            identity, inverse = validate_cayley_table(t)
            assert all(t[identity][a] == a == t[a][identity] for a in range(len(t)))
            assert all(t[a][inverse[a]] == identity == t[inverse[a]][a] for a in range(len(t)))
            outcomes.add("group")
            continue
        with pytest.raises(GroupAxiomError, match="associativity fails at") as info:
            validate_cayley_table(t)
        a, b, c, left, right = map(int, re.search(
            r"at \((\d+),(\d+),(\d+)\): \(\d+\*\d+\)\*\d+=(\d+) but \d+\*\(\d+\*\d+\)=(\d+)",
            str(info.value),
        ).groups())
        assert (left, right) == (t[t[a][b]][c], t[a][t[b][c]])
        assert left != right
        outcomes.add("violation")
    assert outcomes == {"group", "violation"}


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
        ("1\n0\n0\n0\n", "line 3: expected 1 table rows, got more"),
        ("2\n0 1 #" + "-" * 92 + "\n1 0", "line 2: longer than 96 characters"),
        ("1\n" + "\n" * 101 + "0\n", "line 103: more than 102 lines"),
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


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1.5], [1, 0]], "integers"),
        ([[0, 10**20], [1, 0]], "integers"),
        ([[0, 1], [1]], "rows differ in length"),
    ],
)
def test_validate_refuses_tables_it_would_have_to_cast(table, message):
    with pytest.raises(GroupAxiomError, match=message):
        validate_cayley_table(table)


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
