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
    table:<path>             explicit Cayley table file

For every built-in constructor the identity ends up at index 0 (a
renumbering pass runs after construction if needed).  Tables loaded from
files are taken verbatim: the identity is detected but never moved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

# Full O(n^3) associativity validation is skipped above this order for the
# built-in constructors, which are correct by construction.  Explicit table
# files are always fully validated.
_BUILTIN_ASSOCIATIVITY_LIMIT = 200

# Cyclic, dihedral and product groups materialize an order^2 table; keep
# that desk-sized.
_ORDER_LIMIT = 1024


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

    def involutions(self) -> frozenset[int]:
        """Indices of all a with a*a = identity.  Always contains the identity."""
        e = self.identity
        return frozenset(a for a in range(self.order) if self.table[a][a] == e)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))


def validate_cayley_table(
    table,
    *,
    check_associativity: bool = True,
    source: str = "cayley table",
) -> tuple[int, tuple[int, ...]]:
    """Check the group axioms for a square table; return (identity, inverses).

    Axioms are checked in a fixed order -- latin square, associativity,
    identity, inverses -- and the first violation raises GroupAxiomError
    naming the axiom and the offending indices.
    """
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise GroupAxiomError(f"{source}: table must be square and non-empty, got shape {t.shape}")
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        bad = np.argwhere((t < 0) | (t >= n))[0]
        raise GroupAxiomError(
            f"{source}: entry at row {bad[0]}, column {bad[1]} is {t[bad[0], bad[1]]}, "
            f"outside 0..{n - 1}"
        )

    idx = np.arange(n)
    if not np.array_equal(np.sort(t, axis=1), np.broadcast_to(idx, t.shape)):
        for i in range(n):
            counts = np.bincount(t[i], minlength=n)
            if counts.max() > 1:
                v = int(np.argmax(counts))
                raise GroupAxiomError(
                    f"{source}: latin square axiom fails: row {i} repeats element {v}"
                )
    if not np.array_equal(np.sort(t, axis=0), np.broadcast_to(idx[:, None], t.shape)):
        for j in range(n):
            counts = np.bincount(t[:, j], minlength=n)
            if counts.max() > 1:
                v = int(np.argmax(counts))
                raise GroupAxiomError(
                    f"{source}: latin square axiom fails: column {j} repeats element {v}"
                )

    if check_associativity:
        # (i*j)*k vs i*(j*k), blocked over i to bound memory at large orders.
        block = max(1, 4_000_000 // (n * n))
        for i0 in range(0, n, block):
            sub = t[i0 : i0 + block]
            left = t[sub, :]
            right = sub[:, t]
            if not np.array_equal(left, right):
                b, j, k = (int(x) for x in np.argwhere(left != right)[0])
                i = i0 + b
                raise GroupAxiomError(
                    f"{source}: associativity fails at ({i},{j},{k}): "
                    f"({i}*{j})*{k}={left[b, j, k]} but {i}*({j}*{k})={right[b, j, k]}"
                )

    row_is_id = np.all(t == idx[None, :], axis=1)
    col_is_id = np.all(t == idx[:, None], axis=0)
    candidates = np.flatnonzero(row_is_id & col_is_id)
    if candidates.size == 0:
        raise GroupAxiomError(f"{source}: identity axiom fails: no two-sided identity element")
    e = int(candidates[0])

    inverse = []
    for a in range(n):
        hits = np.flatnonzero(t[a] == e)
        if hits.size != 1 or t[hits[0], a] != e:
            raise GroupAxiomError(f"{source}: inverse axiom fails: element {a} has no two-sided inverse")
        inverse.append(int(hits[0]))
    return e, tuple(inverse)


def _renumbered_identity_first(table, identity, names):
    n = len(table)
    old_of_new = [identity] + [a for a in range(n) if a != identity]
    new_of_old = [0] * n
    for new, old in enumerate(old_of_new):
        new_of_old[old] = new
    new_table = tuple(
        tuple(new_of_old[table[old_of_new[i]][old_of_new[j]]] for j in range(n))
        for i in range(n)
    )
    new_names = tuple(names[old] for old in old_of_new)
    return new_table, new_names


def _finalize(name, table, names, *, renumber=True, force_full_check=False) -> FiniteGroup:
    n = len(table)
    check = force_full_check or n <= _BUILTIN_ASSOCIATIVITY_LIMIT
    identity, inverse = validate_cayley_table(table, check_associativity=check, source=name)
    if renumber and identity != 0:
        table, names = _renumbered_identity_first(table, identity, names)
        new_of_old = {old: new for new, old in enumerate([identity] + [a for a in range(n) if a != identity])}
        inverse = tuple(
            new_of_old[inverse[old]]
            for old in [identity] + [a for a in range(n) if a != identity]
        )
        identity = 0
    return FiniteGroup(
        name=name,
        order=n,
        table=tuple(tuple(int(x) for x in row) for row in table),
        identity=identity,
        inverse=tuple(int(x) for x in inverse),
        element_names=tuple(names),
    )


def _check_order(kind: str, order: int) -> None:
    if order > _ORDER_LIMIT:
        raise GroupSpecError(f"{kind} order {order} exceeds the supported limit {_ORDER_LIMIT}")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError(f"cyclic:n requires n >= 1, got {n}")
    _check_order("cyclic", n)
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return _finalize(f"cyclic:{n}", table, tuple(str(i) for i in range(n)))


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n: indices 0..n-1 are rotations r^k, n..2n-1 reflections s*r^k."""
    if n < 3:
        raise GroupSpecError(f"dihedral:n requires n >= 3, got {n}")
    _check_order("dihedral", 2 * n)

    # Element k is x -> x+k on Z_n, element n+k is x -> -x+k; composition of maps.
    def compose(a: int, b: int) -> int:
        fa, ka = (a >= n, a % n)
        fb, kb = (b >= n, b % n)
        flip = fa ^ fb
        k = (ka + kb) % n if not fa else (ka - kb) % n
        return n * flip + k

    table = tuple(tuple(compose(a, b) for b in range(2 * n)) for a in range(2 * n))
    names = tuple(f"r{k}" for k in range(n)) + tuple(f"s{k}" for k in range(n))
    return _finalize(f"dihedral:{n}", table, names)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements in lexicographic one-line order, so the identity is index 0.

    Products compose right-to-left: ``mul(p, q)`` applies q first, then p.
    """
    if not 1 <= n <= 5:
        raise GroupSpecError(f"symmetric:n requires 1 <= n <= 5, got {n}")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    names = tuple("".join(str(x) for x in p) for p in perms)
    return _finalize(f"symmetric:{n}", table, names)


def quaternion_group() -> FiniteGroup:
    """Q8 as {1, -1, i, -i, j, -j, k, -k} in that index order."""
    # unit part 0..3 = 1, i, j, k; sign carried separately.
    unit_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(a: int, b: int) -> int:
        sa, ua = (-1 if a % 2 else 1), a // 2
        sb, ub = (-1 if b % 2 else 1), b // 2
        s, u = unit_mul[(ua, ub)]
        return 2 * u + (0 if sa * sb * s > 0 else 1)

    table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return _finalize("quaternion:8", table, names)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    _check_order("product", g.order * h.order)
    nh = h.order
    table = tuple(
        tuple(g.table[a1][b1] * nh + h.table[a2][b2] for b1 in range(g.order) for b2 in range(nh))
        for a1 in range(g.order)
        for a2 in range(nh)
    )
    names = tuple(
        f"({g.element_names[a1]},{h.element_names[a2]})"
        for a1 in range(g.order)
        for a2 in range(nh)
    )
    return _finalize(f"product:{g.name},{h.name}", table, names)


def load_cayley_table(path: str) -> FiniteGroup:
    """Load a group from a Cayley table file.

    Format: first significant line is the order n, then n lines of n
    integers in 0..n-1 (row a lists a*0, a*1, ...).  ``#`` starts a comment.
    The identity is detected but elements are NOT renumbered.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise GroupSpecError(f"cannot read cayley table {path!r}: {exc}") from exc

    rows: list[list[int]] = []
    order: int | None = None
    for lineno, line in enumerate(raw, start=1):
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
            continue
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

    name = f"table:{path}"
    names = tuple(str(i) for i in range(order))
    return _finalize(name, tuple(tuple(r) for r in rows), names, renumber=False, force_full_check=True)


def make_group(spec: str) -> FiniteGroup:
    """Build a FiniteGroup from a spec string (see module docstring for forms)."""
    group, rest = _parse_spec(spec.strip(), top=True)
    if rest:
        raise GroupSpecError(f"trailing text {rest!r} after group spec in {spec!r}")
    return group


def _take_int(s: str, head: str) -> tuple[int, str]:
    i = 0
    while i < len(s) and s[i].isdigit():
        i += 1
    if i == 0:
        raise GroupSpecError(f"{head}: expected an integer parameter")
    return int(s[:i]), s[i:]


def _parse_spec(s: str, top: bool = False) -> tuple[FiniteGroup, str]:
    if s.startswith("cyclic:"):
        n, rest = _take_int(s[len("cyclic:") :], "cyclic")
        return cyclic_group(n), rest
    if s.startswith("dihedral:"):
        n, rest = _take_int(s[len("dihedral:") :], "dihedral")
        return dihedral_group(n), rest
    if s.startswith("symmetric:"):
        n, rest = _take_int(s[len("symmetric:") :], "symmetric")
        return symmetric_group(n), rest
    if s.startswith("quaternion:"):
        n, rest = _take_int(s[len("quaternion:") :], "quaternion")
        if n != 8:
            raise GroupSpecError(f"only quaternion:8 is supported, got quaternion:{n}")
        return quaternion_group(), rest
    if s.startswith("product:"):
        g, rest = _parse_spec(s[len("product:") :])
        if not rest.startswith(","):
            raise GroupSpecError("product:<spec>,<spec> needs two comma-separated specs")
        h, rest = _parse_spec(rest[1:])
        return direct_product(g, h), rest
    if s.startswith("table:"):
        body = s[len("table:") :]
        if top:
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
