#!/usr/bin/env python3
"""Survey of balanced-labeling counts across simple graph families.

Prints the closed-form count for every (target, mode) combination over
directed paths, directed cycles and inward stars of growing size.  The
cycle family alternates parity with its length, which makes the
involution factor in the full/flexible column come and go; the path and
star families are acyclic, so their rigid counts are driven entirely by
the component structure.

    python3 scripts/count_survey.py
    python3 scripts/count_survey.py --max-size 8 --groups symmetric:3 quaternion:8
"""

import argparse
import decimal
import sys

from bgains.balance import EDGES, FLEXIBLE, FULL, RIGID
from bgains.digraph import Digraph, analyze
from bgains.enumeration import count
from bgains.groups import make_group

COMBOS = tuple((target, mode) for target in (EDGES, FULL) for mode in (FLEXIBLE, RIGID))


def path(n: int) -> Digraph:
    return Digraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Digraph:
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star(n: int) -> Digraph:
    return Digraph(n, tuple((i, 0) for i in range(1, n)))


FAMILIES = (("path", path), ("cycle", cycle), ("star", star))


def factored(result, group) -> str:
    inv = len(group.involutions())
    parts = []
    if result.s:
        parts.append(f"{inv}^{result.s}")
    if result.t:
        parts.append(f"{group.order}^{result.t}")
    formula = " * ".join(parts) if parts else "1"
    # decimal, unlike str, prints counts past the int-to-str digit limit.
    return f"{formula} = {decimal.Decimal(result.value)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-size", type=int, default=2)
    parser.add_argument("--max-size", type=int, default=6)
    parser.add_argument(
        "--groups",
        nargs="+",
        default=["cyclic:2", "symmetric:3"],
        metavar="SPEC",
    )
    args = parser.parse_args()
    groups = [make_group(spec) for spec in args.groups]

    for name, build in FAMILIES:
        for n in range(max(args.min_size, 2), args.max_size + 1):
            d = build(n)
            results = [[count(group, d, target, mode) for target, mode in COMBOS] for group in groups]
            report = analyze(d)  # kept on d by the counts above
            shape = "bipartite" if report.bipartite else "odd"
            print(
                f"{name} n={n}: {d.n_edges} edges, {shape}, "
                f"{report.scc_count} components, {report.cross_scc_edges} cross edges"
            )
            for group, row in zip(groups, results):
                cells = "   ".join(
                    f"{target}/{mode}: {factored(result, group)}"
                    for (target, mode), result in zip(COMBOS, row)
                )
                print(f"  {group.name:<14} {cells}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
