#!/usr/bin/env python3
"""Mutant gate: check that the tests catch deliberate faults in the library.

    python3 scripts/mutants.py

Each mutant replaces one exact text, which must occur exactly once, in one
file of ``src/bgains``, and names the reason for it and the tests expected
to catch it.  For each mutant the script copies ``src``, ``tests`` and
``scripts`` to a temporary directory, applies the replacement there and
runs the named tests on the copy with pytest, under a timeout of
``TIMEOUT`` seconds.  The mutant is caught when pytest reports a failing
test, and survives when every test passes.  The script prints one line
per mutant and exits 1 if any mutant survives, times out or makes pytest
itself fail (a usage or collection error), or if any replacement text is
not found exactly once.

The catching tests never read ``tests/data/*.json``: the pinned outputs
there catch any drift, so a mutant that only they catch says nothing about
whether the oracle and the walk checks would.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per mutant
CAUGHT, SURVIVED, TIMED_OUT, ERROR, NOT_FOUND = "CAUGHT", "SURVIVED", "TIMED OUT", "ERROR", "NOT FOUND"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/bgains
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "exponents-drop-r",
        "enumeration.py",
        "return 0, v - kbar + r",
        "return 0, v - kbar",
        "the rigid edge count |G|^(v - kbar + r) loses its cross-SCC edges",
        ("tests/test_verify_grid.py::test_a_small_grid_checks_every_instance",),
    ),
    Mutant(
        "cross-scc-edges-equal",
        "digraph.py",
        "cross = sum(comp[u] != comp[w] for u, w in d.edges)",
        "cross = sum(comp[u] == comp[w] for u, w in d.edges)",
        "analyze counts the edges inside components as the cross-SCC edges r",
        ("tests/test_verify_grid.py::test_a_small_grid_checks_every_instance",),
    ),
    Mutant(
        "oracle-keep-any",
        "balance.py",
        "keep = (acc == unit).all(axis=0)",
        "keep = (acc == unit).any(axis=0)",
        "the oracle keeps a candidate balanced on one walk of a chunk, not on all",
        ("tests/test_verify_grid.py::test_a_small_grid_checks_every_instance",),
    ),
    Mutant(
        "walk-search-no-reverse-uses",
        "balance.py",
        "ranked += [(w, e, True, u) for e, (u, w) in enumerate(d.edges)]",
        "ranked += []",
        "flexible closed walks lose every edge traversed against its direction",
        ("tests/test_verify_grid.py::test_a_small_grid_checks_every_instance",),
    ),
    Mutant(
        "fold-full-skips-vertex-term",
        "balance.py",
        "        acc = table[acc][vertex_values[v]]\n",
        "",
        "the full walk product drops the vertex values, so is_balanced_full checks edges alone",
        ("tests/test_acceptance.py::test_criterion_4_odd_triangle_construction_and_roundtrip",),
    ),
    Mutant(
        "conjugation-order",
        "enumeration.py",
        "h = self._table[self._over[p, a], p]",
        "h = self._table[p, self._over[p, a]]",
        "the frames decode full flexible vertex values as p a p^-1, not p^-1 a p",
        ("tests/test_acceptance.py::test_criterion_4_odd_triangle_construction_and_roundtrip",),
    ),
    Mutant(
        "odd-depth-flag-inverted",
        "enumeration.py",
        "a = np.where(self._odd, self._inverse[a], a)",
        "a = np.where(~self._odd, self._inverse[a], a)",
        "bipartite full flexible frames invert the even-depth vertex values, not the odd ones",
        ("tests/test_enumeration.py::test_pair_full_roundtrip_random",),
    ),
    Mutant(
        "inverse-read-off-zero",
        "groups.py",
        "np.argmax(t == e, axis=1)",
        "np.argmax(t == 0, axis=1)",
        "inverses are read off where a row holds element 0, which is the identity only for some tables",
        ("tests/test_groups.py::test_validator_finds_exactly_the_naive_associativity_violations",),
    ),
    Mutant(
        "exponents-bipartite-odd-swapped",
        "enumeration.py",
        "        if report.bipartite:\n            return 0, v\n        return 1, v - 1\n",
        "        if report.bipartite:\n            return 1, v - 1\n        return 0, v\n",
        "the full flexible count takes |G2| * |G|^(v - 1) on bipartite graphs and |G|^v on the others",
        ("tests/test_verify_grid.py::test_a_small_grid_checks_every_instance",),
    ),
    Mutant(
        "rigid-full-edge-gather",
        "enumeration.py",
        "self._over[h[:, self._origins], f]",
        "self._table[h[:, self._origins], f]",
        "rigid full frames decode edge values as h(origin) f(e), not h(origin)^-1 f(e)",
        ("tests/test_enumeration.py::test_rigid_pair_roundtrip_random",),
    ),
    Mutant(
        "rigid-encode-whole-graph-forest",
        "enumeration.py",
        "_spanning_forest(self._d, self._mode == RIGID)",
        "_spanning_forest(self._d, False)",
        "rigid frames encode over a forest of the whole graph, whose tree edges may join two components",
        ("tests/test_enumeration.py::test_rigid_pair_roundtrip_random",),
    ),
    Mutant(
        "bulk-draw-shift",
        "enumeration.py",
        "values = words >> (32 - k)",
        "values = words >> (31 - k)",
        "the bulk draw of a sample keeps k + 1 bits of each word, not the k that randrange keeps",
        ("tests/test_enumeration.py::test_samples_decode_one_randrange_per_radix",),
    ),
    Mutant(
        "byte-parser-underscore-digit",
        "digraph.py",
        "digit = (b >= 48) & (b <= 57)",
        "digit = (b >= 48) & (b <= 57) | (b == 95)",
        "the byte parser reads _ as a digit, so 1_0 0 parses to an edge where the format has a bad line",
        ("tests/test_digraph.py::test_bulk_parse_matches_the_line_parser",),
    ),
    Mutant(
        "byte-parser-return-not-line-end",
        "digraph.py",
        "line_ends = np.flatnonzero((b == 10) | (b == 13))",
        "line_ends = np.flatnonzero(b == 10)",
        "the byte parser reads a lone \\r as a blank, not as a line end, and declines two edges split by one",
        ("tests/test_digraph.py::test_bulk_parse_matches_the_line_parser",),
    ),
    Mutant(
        "weak-search-parity-flipped",
        "digraph.py",
        "depth[tails] % 2 == depth[heads] % 2",
        "depth[tails] % 2 != depth[heads] % 2",
        "the array analyze calls a graph bipartite when every edge joins two depths of one parity",
        ("tests/test_digraph.py::test_the_weak_search_reads_bipartiteness_off_its_depths",),
    ),
    Mutant(
        "weak-search-ignores-loops",
        "digraph.py",
        "bipartite = True, bool(distinct.all()) and not",
        "bipartite = True, not",
        "the array analyze forgets that a loop makes a graph non-bipartite",
        ("tests/test_digraph.py::test_the_weak_search_reads_bipartiteness_off_its_depths",),
    ),
)


def run(mutant: Mutant) -> str:
    """Apply ``mutant`` to a copy of the tree and run its tests there;
    return CAUGHT, SURVIVED, TIMED_OUT, ERROR or NOT_FOUND."""
    text = (ROOT / "src" / "bgains" / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        return NOT_FOUND
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "src" / "bgains" / mutant.file).write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            result = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return TIMED_OUT
    # pytest exits 1 when tests failed; 2 and up are interruptions and usage errors.
    return {0: SURVIVED, 1: CAUGHT}.get(result.returncode, ERROR)


def main() -> int:
    start, failed = time.perf_counter(), 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        outcome = run(mutant)
        failed += outcome != CAUGHT
        print(f"{outcome:<9}  {mutant.name}  ({time.perf_counter() - began:.1f} s): {mutant.reason}", flush=True)
    print(f"{failed} of {len(MUTANTS)} mutants not caught in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
