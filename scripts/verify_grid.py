#!/usr/bin/env python3
"""Exhaustive formula-vs-oracle sweep over small weakly connected digraphs.

For every weakly connected multigraph up to the given size (loops and
parallel edges included), every group, and all four (target, mode)
combinations, the closed-form count must equal the brute-force oracle
count exactly.  Instances that the oracle refuses are reported and
skipped: a candidate space over the budget or past its int64 numbering,
or a closed-walk family past its walk limit.  Exits 1 on any mismatch.

    python3 scripts/verify_grid.py                          # default grid
    python3 scripts/verify_grid.py --max-vertices 3 --max-edges 4
    python3 scripts/verify_grid.py --groups cyclic:2 dihedral:3 --budget 10000000
"""

import argparse
import decimal
import sys
import time

from bgains.balance import (
    DEFAULT_ORACLE_BUDGET,
    EDGES,
    FLEXIBLE,
    FULL,
    RIGID,
    OracleBudgetError,
    brute_force_count,
)
from bgains.digraph import iter_connected_multigraphs
from bgains.enumeration import count
from bgains.groups import make_group

COMBOS = tuple((target, mode) for target in (EDGES, FULL) for mode in (FLEXIBLE, RIGID))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-vertices", type=int, default=3)
    parser.add_argument("--max-edges", type=int, default=4)
    parser.add_argument(
        "--groups",
        nargs="+",
        default=["cyclic:2", "cyclic:3", "cyclic:4", "symmetric:3"],
        metavar="SPEC",
    )
    parser.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)
    args = parser.parse_args()

    groups = [make_group(spec) for spec in args.groups]
    graphs = list(iter_connected_multigraphs(args.max_vertices, args.max_edges))
    print(
        f"{len(graphs)} weakly connected graphs with at most "
        f"{args.max_vertices} vertices and {args.max_edges} edges"
    )

    checked = skipped = mismatches = 0
    started = time.time()
    for d in graphs:
        for group in groups:
            for target, mode in COMBOS:
                expected = count(group, d, target, mode).value
                try:
                    observed = brute_force_count(group, d, target, mode, budget=args.budget)
                except OracleBudgetError as exc:
                    skipped += 1
                    print(
                        f"skip {d.edges} {group.name} {target}/{mode}: "
                        f"needs {decimal.Decimal(exc.required)} candidates"
                    )
                    continue
                except ValueError as exc:
                    skipped += 1
                    print(f"skip {d.edges} {group.name} {target}/{mode}: {exc}")
                    continue
                checked += 1
                if expected != observed:
                    mismatches += 1
                    print(
                        f"MISMATCH {d.n_vertices} vertices {d.edges} "
                        f"{group.name} {target}/{mode}: "
                        f"formula {expected} oracle {observed}"
                    )

    elapsed = time.time() - started
    print(f"{checked} instances checked, {skipped} skipped, {mismatches} mismatches ({elapsed:.1f}s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
