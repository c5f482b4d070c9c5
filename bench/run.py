"""The bgains benchmark: one command, four workloads, every output checked.

    python3 bench/run.py --workload enumerate-stream --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout.  Each pass of the workload runs in a
fresh single-threaded interpreter (``worker.py``), one pass at a time; the
passes fill about ``--seconds`` (see ``NOMINAL_PASS_S``).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_TRACED_PAIRS = 2
SETUP_SAMPLES_PER_PASS = 3  # extra set-up-only interpreters after each pass

# Seconds one pass takes at reference speed (its wall_s) at the commit that
# defined the benchmark.  A run makes as many passes as fill --seconds at
# this pace, so the number of passes never depends on how busy the machine
# happens to be.
NOMINAL_PASS_S = {"enumerate-stream": 7.0, "large-graph": 5.7, "verify-grid": 4.4, "verify-large": 3.6}
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "items_per_s": "1/s",
}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_p99(samples: list[float]) -> float | None:
    """p99, but only when at least 10 samples lie beyond it."""
    rank = math.ceil(0.99 * len(samples))
    if len(samples) - rank < 10:
        return None
    return percentile(samples, 99)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # The int-to-str digit limit stays at the interpreter's default.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.pop("PYTHONPATH", None)
    # Set-up imports cached bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(workload: str, seed: int, workdir: Path, trace: bool = False, setup_only: bool = False) -> dict:
    result = workdir / "pass.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--result", str(result)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    subprocess.run(cmd, env=child_env(), check=True, timeout=PASS_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return json.loads(result.read_text())


def items(workload: str, p: dict) -> float:
    """The workload's unit of work in one pass."""
    records = p["records"]
    if workload == "enumerate-stream":
        return sum(r["lines"] for r in records)
    if workload == "verify-large":
        return sum(r["candidates"] for r in records)
    return len(records)  # large-graph: CLI operations; verify-grid: checks


def reference_wall(p: dict) -> float:
    """One pass's timed phase at reference speed (see pace.py)."""
    return sum(r["seconds"] for r in p["records"]) / p["slowdown"]


def reference_setup(p: dict) -> float:
    return p["setup_s"] / p["setup_slowdown"]


def median_wall(passes: list[dict]) -> float:
    return statistics.median(reference_wall(p) for p in passes)


def end_to_end(workload: str, passes: list[dict], setups: list[float], v: checks.Verdicts) -> dict:
    wall = median_wall(passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "success_rate": (v.attempted - v.failed) / v.attempted,
        "items_per_s": items(workload, passes[0]) / wall,
    }


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    per_pass = [tracing.layer_metrics(p["spans"], p["bytes_out"]) for p in traced]
    m = {name: statistics.median(pm[name] for pm in per_pass) for name in per_pass[0]}
    latencies = [r["seconds"] * 1e3 for p in untraced for r in p["records"]] if workload == "verify-grid" else []
    m["balance.check_p50_ms"] = percentile(latencies, 50) if latencies else 0.0
    m["balance.check_p99_ms"] = tail_p99(latencies) or 0.0
    m["trace.overhead_s"] = median_wall(traced) - median_wall(untraced)
    m["host.slowdown"] = statistics.median(p["slowdown"] for p in untraced)
    return m


def make_reference(bgains, passes: list[dict], seed: int, workload: str, reference: dict) -> None:
    """Record the reference-seed digests of one workload (and grid counts)."""
    first = passes[0]["records"]
    if workload == "verify-grid":
        reference["grid_counts"] = [r["oracle"] for r in first]
        return
    digests = {r["op"]: r["sha256"] for r in first if "sha256" in r and r.get("exit", 0) == 0}
    if workload == "verify-large":
        inst = workloads.ORACLE_LABELINGS
        group, d = bgains.make_group(inst.group), bgains.Digraph(inst.n, inst.edges)
        oracle = set(bgains.brute_force_labelings(group, d, inst.target, inst.mode))
        if oracle != set(bgains.enumerate_all(group, d, inst.target, inst.mode)):
            raise SystemExit("oracle survivors differ from enumerate_all; reference not written")
    reference["digests"][workload] = digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's digests in reference.json (checked runs only)")
    args = parser.parse_args(argv)

    if not (SRC / "bgains" / "__init__.py").is_file():
        print(f"error: no bgains sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bgains

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}"
    workloads.write_inputs(args.workload, args.seed, workdir)
    spawn(args.workload, args.seed, workdir, setup_only=True)  # compiles bytecode; not measured

    if args.trace:
        rounds = max(MIN_TRACED_PAIRS, math.floor(args.seconds / (2 * NOMINAL_PASS_S[args.workload]) + 0.5))
    else:
        rounds = max(MIN_PASSES, math.floor(args.seconds / NOMINAL_PASS_S[args.workload] + 0.5))
    untraced, traced, setups = [], [], []
    for _ in range(rounds):
        untraced.append(spawn(args.workload, args.seed, workdir))
        if args.trace:
            traced.append(spawn(args.workload, args.seed, workdir, trace=True))
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setups.append(reference_setup(spawn(args.workload, args.seed, workdir, setup_only=True)))
    setups += [reference_setup(p) for p in untraced]

    reference = checks.load_reference()
    passes = untraced + traced
    if args.write_reference:
        reference["seed"] = args.seed
        make_reference(bgains, passes, args.seed, args.workload, reference)
    verdicts = checks.check(bgains, args.workload, args.seed, passes, reference, workdir)
    for line in verdicts.unexpected[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in sorted(set(verdicts.expected)):
        print(f"expected failure at this commit: {line}", file=sys.stderr)

    correct = verdicts.correct
    if args.trace:
        missing = sorted({site for p in traced for site in tracing.missing_sites(args.workload, p["spans"])})
        for site in missing:
            print(f"FAILED trace: boundary {site} never fired", file=sys.stderr)
        correct = correct and not missing
        values, units = per_layer(args.workload, untraced, traced), tracing.LAYER_METRICS
    else:
        values, units = end_to_end(args.workload, untraced, setups, verdicts), END_TO_END_UNITS

    if args.write_reference and correct:
        checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
