"""Finite groups represented by dense Cayley tables.

Group elements are integers ``0..order-1``; ``table[a][b]`` is the index of
the product ``a * b``.  This flat representation keeps the rest of the
library free of symbolic element types: a labeling of a graph is just a
tuple of ints, and every group operation is a table lookup.

Groups are built from spec strings::

    cyclic:n                 Z_n, 1 <= n <= 1024
    dihedral:n               D_n of order 2n, 3 <= n <= 512
    symmetric:n              S_n, 1 <= n <= 5, elements in lexicographic
                             one-line order
    quaternion:8             the quaternion group {1,-1,i,-i,j,-j,k,-k}
    product:<spec>,<spec>    direct product (nests, e.g.
                             product:cyclic:2,product:cyclic:2,cyclic:2)
    table:<path>             explicit Cayley table file, order <= 1024

Every built-in table is computed as one integer array by broadcasting;
a ``table:`` file is read as rows of ints.  Either way the table is
validated once, by the same two checks: latin square, then associativity.
A table that passes both is a group, so its identity and inverses are read
off, not checked.  The group keeps the validated array as ``table_array``
next to the tuple ``table`` that pure-Python callers index.  For every
built-in constructor the identity is index 0 (``direct_product`` moves it
there when a factor is a table group).  Tables loaded from files are taken
verbatim: the identity is read off but never moved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FiniteGroup",
    "GroupAxiomError",
    "GroupSpecError",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "load_cayley_table",
    "make_group",
    "quaternion_group",
    "symmetric_group",
    "validate_cayley_table",
]

# Every group holds its order^2 table twice, as Python tuples and as an
# intp array, and validation makes a few more order^2 arrays; the cap
# bounds that memory.
_ORDER_LIMIT = 1024

# Order-1 factors never reach the order cap, so product nesting is capped
# on its own; the parser recurses once per level.
_NESTING_LIMIT = 32


class GroupSpecError(ValueError):
    """Malformed group spec string or unsupported parameters."""


class GroupAxiomError(ValueError):
    """A Cayley table violates one of the group axioms."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    Fields
    ------
    name           display string, normally the spec the group was built from
    order          number of elements
    table          ``table[a][b]`` = index of ``a * b``
    identity       index of the identity element
    inverse        ``inverse[a]`` = index of ``a^-1``
    element_names  human-readable name per element (used by ``--show-elements``)
    """

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    element_names: tuple[str, ...]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, b: int) -> int:
        """b^-1 * a * b."""
        t = self.table
        return t[t[self.inverse[b]][a]][b]

    @cached_property
    def table_array(self) -> np.ndarray:
        """``table`` as an (order, order) intp array.  Groups from this module
        come with the validated array; others build it on first use."""
        return np.array(self.table, dtype=np.intp)

    @cached_property
    def over_array(self) -> np.ndarray:
        """``over_array[a, b]`` = index of ``a^-1 * b``, built on first use."""
        return self.table_array[list(self.inverse)]

    def involutions(self) -> frozenset[int]:
        """Indices of all a with a*a = identity.  Always contains the identity."""
        return frozenset(np.flatnonzero(self.table_array.diagonal() == self.identity).tolist())

    def is_abelian(self) -> bool:
        t = self.table_array
        return bool(np.array_equal(t, t.T))


def validate_cayley_table(table, *, source: str = "cayley table") -> tuple[int, tuple[int, ...]]:
    """Check that a square table is a group; return (identity, inverses).

    The table is checked to be a latin square, then associative; the first
    violation raises GroupAxiomError naming the axiom and the offending
    indices.  A table that passes both is a group, so the identity and the
    inverses are read off it.
    """
    _, identity, inverse = _validated(table, source)
    return identity, inverse


def _validated(table, source: str) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """``validate_cayley_table``, also returning the table as an intp array."""
    # Let numpy infer the type, so that floats and huge integers are refused, not cast.
    try:
        t = np.asarray(table)
    except ValueError:
        raise GroupAxiomError(f"{source}: table rows differ in length") from None
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise GroupAxiomError(f"{source}: table must be square and non-empty, got shape {t.shape}")
    n = t.shape[0]
    if t.dtype.kind not in "iu":
        raise GroupAxiomError(f"{source}: entries must be integers in 0..{n - 1}")
    if t.min() < 0 or t.max() >= n:
        bad = np.argwhere((t < 0) | (t >= n))[0]
        raise GroupAxiomError(
            f"{source}: entry at row {bad[0]}, column {bad[1]} is {t[bad[0], bad[1]]}, "
            f"outside 0..{n - 1}"
        )
    array = t.astype(np.intp, copy=False)
    # The narrowest type that holds 0..n-1 makes the order^2 gathers below
    # several times faster than int64.
    t = t.astype(np.min_scalar_type(n - 1))

    idx = np.arange(n)
    for lines, name in ((t, "row"), (t.T, "column")):
        if not np.array_equal(np.sort(lines, axis=1), np.broadcast_to(idx, t.shape)):
            for i in range(n):
                counts = np.bincount(lines[i], minlength=n)
                if counts.max() > 1:
                    v = int(np.argmax(counts))
                    raise GroupAxiomError(
                        f"{source}: latin square axiom fails: {name} {i} repeats element {v}"
                    )

    # Light's test (Clifford & Preston, Algebraic Theory of Semigroups I,
    # 1.2): g passes when (a*g)*b == a*(g*b) for all a, b.  Passing elements
    # are closed under the product, so a passing generating set proves
    # every triple.  Each generator is the smallest element outside the
    # span of the earlier ones and is tested before the span grows, so the
    # span is always a group and at least doubles: a table needs at most
    # log2(n) + 2 tests of n^2 entries each.
    span = np.zeros(n, dtype=bool)
    while not span.all():
        g = int(np.argmin(span))
        left = t[t[:, g]]
        right = t[:, t[g]]
        if not np.array_equal(left, right):
            i, k = (int(x) for x in np.argwhere(left != right)[0])
            raise GroupAxiomError(
                f"{source}: associativity fails at ({i},{g},{k}): "
                f"({i}*{g})*{k}={left[i, k]} but {i}*({g}*{k})={right[i, k]}"
            )
        span[g] = True
        new = np.array([g])
        while new.size:
            members = np.flatnonzero(span)
            grown = span.copy()
            grown[t[np.ix_(new, members)]] = True
            grown[t[np.ix_(members, new)]] = True
            new = np.flatnonzero(grown & ~span)
            span = grown

    # A nonempty associative quasigroup is a group (Bruck, A Survey of
    # Binary Systems, 1958), so the identity and inverses are read off:
    # the identity is the one e with e*0 = 0, and row a holds e once, at a^-1.
    e = int(np.argmax(t[:, 0] == 0))
    return array, e, tuple(np.argmax(t == e, axis=1).tolist())


def _finalize(name, table, names) -> FiniteGroup:
    """Validate ``table``, an integer array or rows of ints, and keep it both
    ways: as tuples and as the validated array."""
    array, identity, inverse = _validated(table, name)
    rows = table.tolist() if isinstance(table, np.ndarray) else table
    group = FiniteGroup(
        name=name,
        order=len(rows),
        table=tuple(map(tuple, rows)),
        identity=identity,
        inverse=inverse,
        element_names=names,
    )
    # Fill the cached_property's slot with the array validated above.
    group.__dict__["table_array"] = array
    return group


def _check_order(kind: str, order: int) -> None:
    if order > _ORDER_LIMIT:
        raise GroupSpecError(f"{kind} order {order} exceeds the supported limit {_ORDER_LIMIT}")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError(f"cyclic:n requires n >= 1, got {n}")
    _check_order("cyclic", n)
    k = np.arange(n)
    return _finalize(f"cyclic:{n}", (k[:, None] + k) % n, tuple(map(str, range(n))))


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n: indices 0..n-1 are rotations r^k, n..2n-1 reflections s*r^k."""
    if n < 3:
        raise GroupSpecError(f"dihedral:n requires n >= 3, got {n}")
    _check_order("dihedral", 2 * n)
    # Element k is x -> x+k on Z_n, element n+k is x -> -x+k; a*b maps x to a(b(x)).
    a, b = np.arange(2 * n)[:, None], np.arange(2 * n)
    flips = a >= n
    table = n * (flips ^ (b >= n)) + np.where(flips, a - b, a + b) % n
    names = tuple(f"r{k}" for k in range(n)) + tuple(f"s{k}" for k in range(n))
    return _finalize(f"dihedral:{n}", table, names)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements in lexicographic one-line order, so the identity is index 0.

    Products compose right-to-left: ``mul(p, q)`` applies q first, then p.
    """
    if not 1 <= n <= 5:
        raise GroupSpecError(f"symmetric:n requires 1 <= n <= 5, got {n}")
    perms = list(itertools.permutations(range(n)))
    p = np.array(perms)
    composed = p[np.arange(len(perms))[:, None, None], p]  # composed[a, b] = p[a] after p[b]
    # Read as base-n numbers, one-line forms sort in lexicographic order.
    place = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(p @ place, composed @ place)
    names = tuple("".join(map(str, q)) for q in perms)
    return _finalize(f"symmetric:{n}", table, names)


def quaternion_group() -> FiniteGroup:
    """Q8 as {1, -1, i, -i, j, -j, k, -k} in that index order."""
    # Element 2u + s is (-1)^s times unit u of 1, i, j, k.  Units multiply
    # as u ^ v (i*j = k and so on) with a sign flip where negate[u, v].
    negate = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    a, b = np.arange(8)[:, None], np.arange(8)
    table = 2 * ((a >> 1) ^ (b >> 1)) + (((a ^ b) & 1) ^ negate[a >> 1, b >> 1])
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return _finalize("quaternion:8", table, names)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with (a1, a2) at index a1 * |H| + a2, except that the identity
    is moved to index 0 (it lands elsewhere when a factor is a table group);
    the other elements keep their relative order."""
    n = g.order * h.order
    _check_order("product", n)
    nh = h.order
    e = g.identity * nh + h.identity
    old_of_new = np.r_[e, np.delete(np.arange(n), e)]
    a1, a2 = np.divmod(old_of_new, nh)
    old_table = g.table_array[np.ix_(a1, a1)] * nh + h.table_array[np.ix_(a2, a2)]
    table = np.argsort(old_of_new)[old_table]
    names = tuple(
        f"({g.element_names[x]},{h.element_names[y]})" for x, y in zip(a1.tolist(), a2.tolist())
    )
    return _finalize(f"product:{g.name},{h.name}", table, names)


def load_cayley_table(path: str) -> FiniteGroup:
    """Load a group from a Cayley table file.

    Format: first significant line is the order n, then n lines of n
    integers in 0..n-1 (row a lists a*0, a*1, ...).  ``#`` starts a comment.
    A line holds at most ``80 + 8 * n`` characters, line end included, and
    the file at most ``100 + 2 * n`` lines, blank and comment lines included.
    The identity is detected but elements are NOT renumbered.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise GroupSpecError(f"cannot read cayley table {path!r}: {exc}") from exc

    rows: list[list[int]] = []
    order: int | None = None
    # Lines are read with a cap, so that a file without line ends cannot
    # exhaust memory: 8 characters per entry, 80 more for a comment, and
    # before the order line, the cap of the largest order.  The lines are
    # capped as well, so that an endless stream of blank lines ends too.
    limit, max_lines = 80 + 8 * _ORDER_LIMIT, 100 + 2 * _ORDER_LIMIT
    with fh:
        for lineno in itertools.count(1):
            line = fh.readline(limit + 1)
            if not line:
                break
            if lineno > max_lines:
                raise GroupSpecError(f"{path}: line {lineno}: more than {max_lines:,} lines")
            if len(line) > limit:
                raise GroupSpecError(f"{path}: line {lineno}: longer than {limit:,} characters")
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            if order is None:
                if len(fields) != 1:
                    raise GroupSpecError(f"{path}: line {lineno}: expected the group order alone")
                try:
                    order = int(fields[0])
                except ValueError:
                    raise GroupSpecError(f"{path}: line {lineno}: order is not an integer") from None
                if order < 1:
                    raise GroupSpecError(f"{path}: line {lineno}: order must be >= 1")
                # Before any row is read: the rows alone take order^2 memory.
                _check_order("table", order)
                limit, max_lines = 80 + 8 * order, 100 + 2 * order
                continue
            if len(rows) == order:
                raise GroupSpecError(f"{path}: line {lineno}: expected {order} table rows, got more")
            try:
                row = [int(f) for f in fields]
            except ValueError:
                raise GroupSpecError(f"{path}: line {lineno}: non-integer table entry") from None
            if len(row) != order:
                raise GroupSpecError(
                    f"{path}: line {lineno}: expected {order} entries, got {len(row)}"
                )
            rows.append(row)
    if order is None:
        raise GroupSpecError(f"{path}: empty table file")
    if len(rows) != order:
        raise GroupSpecError(f"{path}: expected {order} table rows, got {len(rows)}")

    return _finalize(f"table:{path}", rows, tuple(map(str, range(order))))


def make_group(spec: str) -> FiniteGroup:
    """Build a FiniteGroup from a spec string (see module docstring for forms)."""
    group, rest = _parse_spec(spec.strip(), depth=0)
    if rest:
        raise GroupSpecError(f"trailing text {rest!r} after group spec in {spec!r}")
    return group


def _take_int(s: str, head: str) -> tuple[int, str]:
    i = 0
    while i < len(s) and s[i].isdecimal():
        i += 1
    if i == 0:
        raise GroupSpecError(f"{head}: expected an integer parameter")
    try:
        return int(s[:i]), s[i:]
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise GroupSpecError(f"{head}: integer parameter of {i} digits is too long") from None


def _quaternion(n: int) -> FiniteGroup:
    if n != 8:
        raise GroupSpecError(f"only quaternion:8 is supported, got quaternion:{n}")
    return quaternion_group()


# The spec families ``family:n``, by name, and the constructor each takes n to.
_FAMILIES = {"cyclic": cyclic_group, "dihedral": dihedral_group, "symmetric": symmetric_group, "quaternion": _quaternion}


def _parse_spec(s: str, depth: int) -> tuple[FiniteGroup, str]:
    """Parse one spec from the front of ``s``, inside ``depth`` enclosing
    products; return the group and the unparsed rest."""
    family, colon, body = s.partition(":")
    if colon and family in _FAMILIES:
        n, rest = _take_int(body, family)
        return _FAMILIES[family](n), rest
    if s.startswith("product:"):
        if depth == _NESTING_LIMIT:
            raise GroupSpecError(f"product: nests deeper than the supported limit {_NESTING_LIMIT}")
        g, rest = _parse_spec(s[len("product:") :], depth + 1)
        if not rest.startswith(","):
            raise GroupSpecError("product:<spec>,<spec> needs two comma-separated specs")
        h, rest = _parse_spec(rest[1:], depth + 1)
        return direct_product(g, h), rest
    if s.startswith("table:"):
        body = s[len("table:") :]
        if depth == 0:
            path, rest = body, ""
        else:
            # Inside a product the path runs up to the next comma, so paths
            # containing commas cannot be nested; load them at top level.
            cut = body.find(",")
            path, rest = (body, "") if cut < 0 else (body[:cut], body[cut:])
        if not path:
            raise GroupSpecError("table: requires a file path")
        return load_cayley_table(path), rest
    raise GroupSpecError(
        f"unrecognized group spec {s!r}; expected cyclic:n, dihedral:n, symmetric:n, "
        "quaternion:8, product:<spec>,<spec> or table:<path>"
    )
