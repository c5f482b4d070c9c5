"""Command line interface.

Subcommands
-----------
analyze     structure report for a graph file, as JSON
count       closed-form count of balanced labelings (text or --json)
verify      closed-form count against the brute-force oracle
enumerate   stream every balanced labeling, one per line
sample      one uniformly random balanced labeling
group-info  order, involution count and abelianness of a group

Exit codes: 0 success (and verify PASS), 1 usage or input error (or
stdout closed before the output ended, which prints nothing), 2 verify
FAIL, 3 oracle budget exceeded.  The oracle budget comes from
--budget when given, else the BG_ORACLE_BUDGET environment variable,
else the library default.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys

from .balance import (
    DEFAULT_ORACLE_BUDGET,
    EDGES,
    FLEXIBLE,
    FULL,
    RIGID,
    EdgeLabeling,
    OracleBudgetError,
    _slot_count,
    brute_force_count,
)
from .digraph import Digraph, GraphFormatError, analyze, load_graph
from .enumeration import BalancedCount, count, enumerate_all, sample_uniform
from .groups import FiniteGroup, make_group

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; here 2 means a
    failed verification, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# A graph file is read whole and parsed from its bytes.  The parse holds the
# file, the temporaries of one 64 KiB step and the int32 edge array, 8 bytes
# per edge, so the file's length bounds its memory, and an endless file such
# as /dev/zero would be read forever.  So the length is capped: 32 MiB holds
# 2.4 million edges between six-digit vertex indices.
GRAPH_FILE_LIMIT = 32 * 2**20


def _load_graph_file(path: str) -> Digraph:
    # Read in chunks: f.read(GRAPH_FILE_LIMIT + 1) would allocate the whole
    # cap at once, however short the file.
    data = bytearray()
    with open(path, "rb") as f:
        while chunk := f.read(2**20):
            data += chunk
            if len(data) > GRAPH_FILE_LIMIT:
                raise GraphFormatError(f"{path}: graph file exceeds the limit of {GRAPH_FILE_LIMIT:,} bytes")
    return load_graph(data)


def _tokens(group: FiniteGroup, show_elements: bool) -> tuple[str, ...]:
    """How each element prints in a labeling line: its name, or its index."""
    if show_elements:
        return group.element_names
    return tuple(map(str, range(group.order)))


# Exact integer arithmetic: any result that would need rounding raises.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


def _count_decimal(group: FiniteGroup, c: BalancedCount) -> str:
    """Base-10 digits of ``c.value = |G2|^s * |G|^t``, computed in decimal
    from the factored form: far faster than converting the int."""
    return str(_EXACT.multiply(_EXACT.power(len(group.involutions()), c.s), _EXACT.power(group.order, c.t)))


def _oracle_budget(args) -> int:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get("BG_ORACLE_BUDGET")
        if env is None:
            return DEFAULT_ORACLE_BUDGET
        try:
            budget, source = int(env), "BG_ORACLE_BUDGET"
        except ValueError:
            raise ValueError(f"BG_ORACLE_BUDGET is not an integer: {env!r}")
    if budget < 0:
        raise ValueError(f"{source} must be nonnegative")
    return budget


def cmd_analyze(args) -> int:
    report = analyze(_load_graph_file(args.graph))
    print(json.dumps(vars(report), indent=2))
    return EXIT_OK


def _count_report(group: FiniteGroup, group_spec: str, d: Digraph, args) -> dict:
    result = count(group, d, args.target, args.mode)
    report = analyze(d)
    return {
        "mode": args.mode,
        "target": args.target,
        "group_spec": group_spec,
        "group_order": group.order,
        "involution_count": len(group.involutions()),
        "vertices": d.n_vertices,
        "edges": d.n_edges,
        "bipartite": report.bipartite,
        "scc_count": report.scc_count,
        "cross_scc_edges": report.cross_scc_edges,
        "s_exponent": result.s,
        "t_exponent": result.t,
        "count_decimal": _count_decimal(group, result),
    }


def cmd_count(args) -> int:
    group = make_group(args.group)
    report = _count_report(group, args.group, _load_graph_file(args.graph), args)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        width = max(len(k) for k in report)
        for k, v in report.items():
            shown = json.dumps(v) if isinstance(v, bool) else v
            print(f"{k:<{width}}  {shown}")
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = _oracle_budget(args)
    group = make_group(args.group)
    d = _load_graph_file(args.graph)
    formula = count(group, d, args.target, args.mode).value
    try:
        oracle = brute_force_count(group, d, args.target, args.mode, budget=budget)
    except OracleBudgetError as exc:
        # exc.required is group.order ** slots; converting it would be quadratic.
        required = _EXACT.power(group.order, _slot_count(d, args.target))
        print(f"BUDGET: instance requires {required} candidates, budget is {exc.budget}")
        return EXIT_BUDGET
    if formula == oracle:
        print(f"PASS: formula {formula} == oracle {oracle}")
        return EXIT_OK
    print(f"FAIL: formula {formula} != oracle {oracle}")
    return EXIT_FAIL


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    group = make_group(args.group)
    d = _load_graph_file(args.graph)
    # Each item is a block's text, whole lines, written as it comes: the
    # text in memory stays bounded by the block.
    left = args.limit
    for text in enumerate_all(group, d, args.target, args.mode, tokens=_tokens(group, args.show_elements)):
        if left is not None:
            lines = text.count("\n")
            if lines > left:
                end = 0
                for _ in range(left):
                    end = text.index("\n", end) + 1
                sys.stdout.write(text[:end])
                total = count(group, d, args.target, args.mode)
                print(f"# truncated: {args.limit} of {_count_decimal(group, total)} labelings shown")
                return EXIT_OK
            left -= lines
        sys.stdout.write(text)
    return EXIT_OK


def cmd_sample(args) -> int:
    group = make_group(args.group)
    d = _load_graph_file(args.graph)
    labeling = sample_uniform(group, d, args.target, args.mode, args.seed)
    if isinstance(labeling, EdgeLabeling):
        values = labeling.values
    else:
        values = labeling.vertex_values + labeling.edge_values
    tokens = _tokens(group, args.show_elements)
    print(" ".join(tokens[v] for v in values))
    return EXIT_OK


def cmd_group_info(args) -> int:
    group = make_group(args.group)
    info = {
        "order": group.order,
        "involution_count": len(group.involutions()),
        "abelian": group.is_abelian(),
    }
    if args.show_elements:
        info["elements"] = list(group.element_names)
    print(json.dumps(info, indent=2))
    return EXIT_OK


def _add_group_arg(sub) -> None:
    sub.add_argument(
        "--group",
        required=True,
        metavar="SPEC",
        help="group spec: cyclic:N, dihedral:N, symmetric:N, quaternion:8, "
        "product:SPEC,SPEC or table:PATH",
    )


def _add_instance_args(sub) -> None:
    sub.add_argument("graph", help="path to a graph file")
    _add_group_arg(sub)
    sub.add_argument(
        "--target",
        required=True,
        choices=(EDGES, FULL),
        help="label only the edges, or the vertices and the edges",
    )
    sub.add_argument(
        "--mode",
        required=True,
        choices=(FLEXIBLE, RIGID),
        help="whether walks may traverse an edge against its direction",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bgains",
        description="Count, enumerate, sample and verify balanced group-valued "
        "labelings of directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="connectivity, parity and component structure")
    p.add_argument("graph", help="path to a graph file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("count", help="closed-form count of balanced labelings")
    _add_instance_args(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="check the closed form against the brute-force oracle")
    _add_instance_args(p)
    p.add_argument("--budget", type=int, default=None, help="max oracle candidates")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="print every balanced labeling")
    _add_instance_args(p)
    p.add_argument("--limit", type=int, default=None, help="stop after N labelings")
    p.add_argument("--show-elements", action="store_true", help="element names instead of indices")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="print one uniformly random balanced labeling")
    _add_instance_args(p)
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--show-elements", action="store_true", help="element names instead of indices")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("group-info", help="order, involutions and abelianness")
    _add_group_arg(p)
    p.add_argument("--show-elements", action="store_true", help="include element names")
    p.set_defaults(func=cmd_group_info)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: building it costs about
    twenty parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``bgains enumerate ... | head``): stop
        # quietly.  Later writes, such as the flush at exit, go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # the library's input errors are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
