#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in BENCH_<short-sha>.json.

    python3 scripts/bench_record.py CHECKOUT [CHECKOUT] [--out-dir DIR]

Runs ``bench/run.py --seconds 15 --trace 0`` from each checkout (a source
tree with a ``bench/`` directory, usually a clone at one commit) on every
workload and seed.  Given two checkouts, it alternates them: the first one
named runs first on even positions of the seed list, the second on odd
ones, so that a drift in the host's speed falls on both.  Then each
checkout makes one ``--trace 1`` run per workload on the first seed, the
order alternating from workload to workload in the same way.  Each
checkout gets one file, ``BENCH_<short-sha>.json`` in ``--out-dir``,
holding the median and quartiles of every end-to-end metric per workload,
the seeds, the Python version and every raw result, and under ``traced``
each workload's traced run with its per-layer metrics.  Traced runs feed
no verdict.  With two checkouts, a summary on stdout
gives each metric's medians, how many seeds each side won and a verdict
on the second checkout against the first, with the bounds of the
benchmark's ``BENCHMARK.json``:

gain          better in at least 9 of 10 pairs, and the medians differ by
              more than the first checkout's interquartile range;
regression    the median is worse than the first's by more than the bound,
              a share of the first's median;
unresolved    neither, and the first's interquartile range is wider than
              the bound, unless every run of the second beats every run of
              the first;
within bound  anything else.

A run whose outputs check wrong (``correct: false``), traced or not, still
goes into the files, but then the script prints one ``INCORRECT`` line per
such run, naming the checkout, workload and seed (and ``traced`` for a
traced run), prints no verdict and exits 1.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("enumerate-stream", "large-graph", "verify-grid", "verify-large")
# Fixed, and apart from seeds 101-105, on which the block decoder was
# tuned, and 111-120, on which the oracle's walk loops were measured
# change after change, so that a gain measured here is not fitted to its
# seeds.  Ten seeds, so that the pairs alternate evenly.
SEEDS = tuple(range(301, 311))
SECONDS = 15


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True, capture_output=True, text=True).stdout.strip()


def bench_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``bench/run.py`` run; its result is the last line of stdout."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, **result}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over the runs of one workload."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = quartiles(values)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "unit": runs[0]["metrics"][name]["unit"]}
    out["correct"] = all(r["correct"] for r in runs)
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, q3


def verdict(first: list[float], second: list[float], better: str, bound: float) -> str:
    """The second side's verdict on one metric; ``first[k]`` and ``second[k]``
    are one pair of runs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(first, second))
    q1, q3 = quartiles(first)
    gain = sign * (statistics.median(second) - statistics.median(first))
    if 10 * wins >= 9 * len(first) and gain > q3 - q1:
        return "gain"
    allowed = bound * abs(statistics.median(first))
    if -gain > allowed:
        return "regression"
    if q3 - q1 > allowed and not min(sign * y for y in second) > max(sign * x for x in first):
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path, help="one or two source checkouts")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    checkouts = [c.resolve() for c in args.checkouts]
    for c in checkouts:
        if not (c / "bench" / "run.py").is_file():
            parser.error(f"{c} has no bench/run.py")

    raw = {c: {w: [] for w in WORKLOADS} for c in checkouts}
    for k, seed in enumerate(SEEDS):
        order = checkouts if k % 2 == 0 else checkouts[::-1]
        for workload in WORKLOADS:
            for c in order:
                run = bench_once(c, workload, seed)
                raw[c][workload].append(run)
                items = run["metrics"]["items_per_s"]["value"]
                print(f"seed {seed} {workload} {c.name}: items_per_s {items:.6g} correct {run['correct']}",
                      file=sys.stderr, flush=True)
    traced = {c: {} for c in checkouts}
    for k, workload in enumerate(WORKLOADS):
        for c in checkouts if k % 2 == 0 else checkouts[::-1]:
            run = traced[c][workload] = bench_once(c, workload, SEEDS[0], trace=1)
            print(f"traced seed {SEEDS[0]} {workload} {c.name}: correct {run['correct']}", file=sys.stderr, flush=True)

    for c in checkouts:
        record = {
            "commit": git(c, "rev-parse", "HEAD"),
            "dirty": bool(git(c, "status", "--porcelain", "--untracked-files=no")),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "command": f"bench/run.py --seconds {SECONDS} --trace 0",
            "seeds": list(SEEDS),
            "workloads": {w: summary(runs) for w, runs in raw[c].items()},
            "runs": raw[c],
            "traced_command": f"bench/run.py --seconds {SECONDS} --trace 1",
            "traced": traced[c],
        }
        path = args.out_dir / f"BENCH_{git(c, 'rev-parse', '--short', 'HEAD')}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)

    # A verdict on wrong outputs means nothing, so a run that checked wrong
    # gets no verdict and fails the recording.
    incorrect = [(c, w, f"seed {r['seed']}") for c in checkouts for w in WORKLOADS for r in raw[c][w] if not r["correct"]]
    incorrect += [(c, w, f"seed {r['seed']} traced") for c in checkouts for w, r in traced[c].items() if not r["correct"]]
    for c, w, run in incorrect:
        print(f"INCORRECT {c} {w} {run}")
    if incorrect:
        return 1

    if len(checkouts) == 2:
        bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        a, b = checkouts
        for w in WORKLOADS:
            for name in raw[a][w][0]["metrics"]:
                va = [r["metrics"][name]["value"] for r in raw[a][w]]
                vb = [r["metrics"][name]["value"] for r in raw[b][w]]
                sign = 1 if bounds[name]["better"] == "higher" else -1
                b_wins = sum(sign * (y - x) > 0 for x, y in zip(va, vb))
                a_wins = sum(sign * (x - y) > 0 for x, y in zip(va, vb))
                print(f"{w:16} {name:12} {statistics.median(va):12.6g} -> {statistics.median(vb):12.6g}"
                      f"  second better in {b_wins}/{len(va)}, first in {a_wins}/{len(va)}"
                      f"  {verdict(va, vb, bounds[name]['better'], bounds[name]['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
