"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --result FILE [--trace] [--setup-only]

Times ``import bgains`` (set-up), then each of the workload's operations
(the timed phase), reads its own peak RSS, and only then digests the outputs and
writes everything, spans included when traced, as JSON to FILE.  A speed
probe (``pace.py``) runs beside both phases and gives each its slowdown.  Output
correctness is judged by ``run.py``, outside the timed phase.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import pace

SRC = Path(__file__).resolve().parent.parent / "src"


class Sink(io.TextIOBase):
    """Stands in for stdout: hashes and counts what the CLI prints and keeps
    the lines at the wanted positions (all lines when ``wanted`` is None)."""

    def __init__(self, wanted=None):
        self.hash = hashlib.sha256()
        self.lines = 0
        self.bytes = 0
        self.wanted = wanted
        self.kept: dict[int, str] = {}
        self._partial: list[str] = []

    def write(self, s):
        data = s.encode()
        self.hash.update(data)
        self.bytes += len(data)
        *done, rest = s.split("\n")
        for part in done:
            if self.wanted is None or self.lines in self.wanted:
                self.kept[self.lines] = "".join(self._partial) + part
            self._partial = []
            self.lines += 1
        if rest and (self.wanted is None or self.lines in self.wanted):
            self._partial.append(rest)
        return len(s)


def run_cli(bgains, argv, sink) -> tuple[int | None, str]:
    """bgains.cli.main in-process with stdout bound to ``sink``."""
    saved = sys.stdout, sys.stderr
    err = io.StringIO()
    sys.stdout, sys.stderr = sink, err
    try:
        code = bgains.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed op, reported with its type
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdout, sys.stderr = saved
    return code, err.getvalue()


def cli_record(label, code, stderr, sink, start, seconds) -> dict:
    return {
        "op": label,
        "exit": code,
        "stderr": stderr[:500],
        "sha256": sink.hash.hexdigest(),
        "lines": sink.lines,
        "bytes": sink.bytes,
        "kept": {str(k): v for k, v in sink.kept.items()},
        "start": start,
        "seconds": seconds,
    }


def cli_ops(bgains, ops, tracer):
    """Time each (label, argv, wanted lines) CLI operation in turn."""
    clock = time.perf_counter
    done = []
    for k, (label, argv, wanted) in enumerate(ops):
        if tracer:
            tracer.op = k
        sink = Sink(wanted)
        t0 = clock()
        code, stderr = run_cli(bgains, argv, sink)
        done.append((label, code, stderr, sink, t0, clock() - t0))
    rss = peak_rss_mb()
    return rss, [cli_record(*d) for d in done], sum(d[3].bytes for d in done)


def enumerate_stream(bgains, w, seed, workdir, tracer):
    ops = []
    for inst in w.stream_instances(seed):
        argv = ["enumerate", str(workdir / f"{inst.name}.txt"), "--group", inst.group,
                "--target", inst.target, "--mode", inst.mode]
        ops.append((inst.name, argv, set(w.checked_indices(seed, inst.name, inst.expected_count))))
    return cli_ops(bgains, ops, tracer)


def large_graph(bgains, w, seed, workdir, tracer):
    ops = w.large_graph_ops(seed, str(workdir / "large.txt"))
    return cli_ops(bgains, [(label, argv, None) for label, argv in ops], tracer)


def verify_grid(bgains, w, seed, workdir, tracer):
    checks = [
        (i, bgains.Digraph(n, edges), target, mode)
        for i, (n, edges) in enumerate(w.grid_graphs(seed))
        for target, mode in w.CASES
    ]
    balance, enumeration, groups = bgains.balance, bgains.enumeration, bgains.groups
    clock = time.perf_counter
    results = []
    group = groups.make_group(w.GRID_GROUP)
    for k, (i, d, target, mode) in enumerate(checks):
        if tracer:
            tracer.op = k
        t0 = clock()
        try:
            formula = enumeration.count(group, d, target, mode).value
            oracle = balance.brute_force_count(group, d, target, mode)
            outcome = (formula, oracle, None)
        except Exception as exc:  # a raising check is a failed op
            outcome = (None, None, f"{type(exc).__name__}: {exc}")
        results.append((t0, clock() - t0, outcome))
    rss = peak_rss_mb()
    records = [
        {"op": f"{i}-{target}-{mode}", "start": t0, "seconds": dt, "formula": f, "oracle": o, "error": e}
        for (i, _, target, mode), (t0, dt, (f, o, e)) in zip(checks, results)
    ]
    return rss, records, 0


def verify_large(bgains, w, seed, workdir, tracer):
    balance, groups = bgains.balance, bgains.groups
    specs = list(zip(("brute_force_count", "brute_force_labelings"), w.ORACLE_INSTANCES))
    clock = time.perf_counter
    outputs = []
    for k, (fn_name, inst) in enumerate(specs):
        if tracer:
            tracer.op = k
        t0 = clock()
        group = value = error = None
        try:
            group = groups.make_group(inst.group)
            d = bgains.Digraph(inst.n, inst.edges)
            value = getattr(balance, fn_name)(group, d, inst.target, inst.mode)
        except Exception as exc:  # a raising oracle call is a failed op
            error = f"{type(exc).__name__}: {exc}"
        outputs.append((t0, clock() - t0, group, value, error))
    rss = peak_rss_mb()
    records = []
    for (fn_name, inst), (t0, dt, group, value, error) in zip(specs, outputs):
        rec = {"op": f"{fn_name}-{inst.name}", "start": t0, "seconds": dt, "error": error, "survivors": None,
               "candidates": group.order ** _slots(inst) if group else 0}
        if error is None and fn_name == "brute_force_count":
            rec["survivors"] = value
        elif error is None:
            rec["survivors"] = len(value)
            keep = w.checked_indices(seed, inst.name, len(value)) if value else []
            rec.update(_digest_labelings(value, keep))
        records.append(rec)
    return rss, records, 0


def _slots(inst) -> int:
    return len(inst.edges) + (inst.n if inst.target == "full" else 0)


def _digest_labelings(labelings, keep) -> dict:
    """SHA-256 over the survivors as CLI-style lines, plus the kept ones."""
    h = hashlib.sha256()
    kept = {}
    want = set(keep)
    for k, lab in enumerate(labelings):
        line = " ".join(map(str, lab.vertex_values + lab.edge_values))
        h.update(line.encode())
        h.update(b"\n")
        if k in want:
            kept[str(k)] = line
    return {"sha256": h.hexdigest(), "kept": kept}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


PASSES = {
    "enumerate-stream": enumerate_stream,
    "large-graph": large_graph,
    "verify-grid": verify_grid,
    "verify-large": verify_large,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    probe = pace.SpeedProbe().start()
    t0 = time.perf_counter()
    import bgains
    import bgains.cli

    t1 = time.perf_counter()
    result = {"setup_s": t1 - t0}
    if not args.setup_only:
        import workloads

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer, {
                "cli": bgains.cli, "groups": bgains.groups, "enumeration": bgains.enumeration,
                "balance": bgains.balance,
            })
        rss, records, bytes_out = PASSES[args.workload](
            bgains, workloads, args.seed, Path(args.workdir), tracer
        )
        start, end = records[0]["start"], records[-1]["start"] + records[-1]["seconds"]
        result.update(peak_rss_mb=rss, records=records, bytes_out=bytes_out,
                      slowdown=pace.slowdown(probe.samples, start, end))
        if tracer:
            result["spans"] = tracer.spans
    probe.stop()
    result["setup_slowdown"] = pace.slowdown(probe.samples, t0, t1)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
