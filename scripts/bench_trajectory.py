#!/usr/bin/env python3
"""Print the benchmark's trajectory across the committed BENCH_*.json files.

    python3 scripts/bench_trajectory.py [--repo DIR]

Reads every ``BENCH_<short-sha>.json`` that git tracks at the root of the
repository (by default the one holding this script) and orders the files
by their commit's place in the history of HEAD, oldest first.  A file
whose commit is not in that history goes last, marked ``*``.

For each workload it prints two tables.  The first has one row per file
and one column per end-to-end metric, holding the median over the
file's seeds, and whether every run checked correct.  The second has one
row per traced per-layer metric and one column per file that holds a
traced run.  A value that a file lacks prints as ``-``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout


def ordered_records(repo: Path) -> list[tuple[str, dict]]:
    """(label, record) of every committed BENCH file, oldest commit first;
    the label is the file's short sha, with ``*`` if its commit is not in
    the history of HEAD."""
    history = git(repo, "rev-list", "--topo-order", "--reverse", "HEAD").split()
    place = {sha: k for k, sha in enumerate(history)}
    known, missing = [], []
    for name in git(repo, "ls-files", "--", "BENCH_*.json").split():
        record = json.loads((repo / name).read_text())
        short = name.removeprefix("BENCH_").removesuffix(".json")
        sha = record.get("commit") or short
        k = place.get(sha)
        if k is None:  # a short sha, or a commit outside the history
            k = next((k for full, k in place.items() if full.startswith(sha)), None)
        if k is None:
            missing.append((f"{short}*", record))
        else:
            known.append((k, short, record))
    return [(short, record) for _, short, record in sorted(known, key=lambda item: item[0])] + missing


def names(tables: list[dict]) -> list[str]:
    """The keys of all the tables, in order of first appearance."""
    return list(dict.fromkeys(key for table in tables for key in table))


def median(summary):
    """An end-to-end metric's median, or the ``correct`` flag as it is."""
    return summary["median"] if isinstance(summary, dict) else summary


def cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.4g}"


def print_table(corner: str, rows: list[tuple[str, list]], columns: list[str]) -> None:
    cells = [[corner, *columns]] + [[label, *map(cell, values)] for label, values in rows]
    widths = [max(len(row[k]) for row in cells) for k in range(len(cells[0]))]
    for row in cells:
        print("  ".join(text.ljust(width) for text, width in zip(row, widths)).rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT, help="a git checkout holding BENCH_*.json files")
    args = parser.parse_args(argv)
    records = ordered_records(args.repo)
    for workload in names([r["workloads"] for _, r in records]):
        print(f"== {workload}: end-to-end medians ==")
        summaries = [(label, r["workloads"].get(workload, {})) for label, r in records]
        columns = names([s for _, s in summaries])
        print_table("commit", [(label, [median(s.get(c)) for c in columns]) for label, s in summaries], columns)
        traced = [(label, r["traced"][workload]["metrics"]) for label, r in records if workload in r.get("traced", {})]
        if traced:
            print(f"== {workload}: traced per-layer metrics ==")
            metrics = names([m for _, m in traced])
            rows = [(name, [m[name]["value"] if name in m else None for _, m in traced]) for name in metrics]
            print_table("metric", rows, [label for label, _ in traced])
        print()
    if any(label.endswith("*") for label, _ in records):
        print("* commit not in the history of HEAD; listed last")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
