"""In-memory spans around the public functions of ``bgains``.

Wrappers are installed where the calling module looks a function up
(``bgains.cli.enumerate_all``, ``bgains.enumeration.analyze``, ...), so the
library itself is not edited.  A span records its name, start, end, parent
span, the benchmark operation it belongs to, and how long it was active.
For a call, active time is end - start.  For a generator (the labeling
stream, the closed-walk stream) it is the time spent inside ``next``, and
spans opened during a ``next`` are its children.  Self time is active time
minus the children's active time.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute, span name, kind); kind "gen" wraps a generator function.
SITES = (
    ("cli", "main", "cli.main", "call"),
    ("cli", "make_group", "groups.make_group", "call"),
    ("groups", "make_group", "groups.make_group", "call"),
    ("cli", "load_graph", "digraph.load_graph", "call"),
    ("cli", "analyze", "digraph.analyze", "call"),
    ("enumeration", "analyze", "digraph.analyze", "call"),
    ("cli", "count", "enumeration.count", "call"),
    ("enumeration", "count", "enumeration.count", "call"),
    ("cli", "enumerate_all", "enumeration.enumerate", "gen"),
    ("cli", "sample_uniform", "enumeration.sample", "call"),
    ("balance", "all_closed_walks", "balance.walks", "gen"),
    ("balance", "brute_force_count", "balance.oracle", "call"),
    ("balance", "brute_force_labelings", "balance.oracle", "call"),
)

# Sites each workload must cross at least once in a traced pass.
EXPECTED_SITES = {
    "enumerate-stream": (
        "cli.main", "cli.make_group", "cli.load_graph", "cli.enumerate_all", "enumeration.analyze",
    ),
    "large-graph": (
        "cli.main", "cli.make_group", "cli.load_graph", "cli.analyze", "cli.count",
        "cli.sample_uniform", "enumeration.analyze",
    ),
    "verify-grid": (
        "groups.make_group", "enumeration.count", "enumeration.analyze",
        "balance.brute_force_count", "balance.all_closed_walks",
    ),
    "verify-large": (
        "groups.make_group", "balance.brute_force_count", "balance.brute_force_labelings",
        "balance.all_closed_walks",
    ),
}

# Per-layer metrics of a traced run: name -> unit.
LAYER_METRICS = {
    "groups.make_group_s": "s",
    "groups.make_group_calls": "count",
    "digraph.load_graph_s": "s",
    "digraph.load_graph_edges_per_s": "1/s",
    "digraph.analyze_s": "s",
    "digraph.analyze_calls": "count",
    "digraph.analyze_edges_per_s": "1/s",
    "balance.walks": "count",
    "balance.walks_s": "s",
    "balance.walks_per_s": "1/s",
    "balance.oracle_s": "s",
    "balance.candidates": "count",
    "balance.candidates_per_s": "1/s",
    "balance.survivors": "count",
    "balance.survivor_ratio": "ratio",
    "balance.budget_refusals": "count",
    "balance.check_p50_ms": "ms",
    "balance.check_p99_ms": "ms",
    "enumeration.enumerate_s": "s",
    "enumeration.labelings": "count",
    "enumeration.labelings_per_s": "1/s",
    "enumeration.analyze_per_labeling": "ratio",
    "enumeration.count_s": "s",
    "enumeration.count_calls": "count",
    "enumeration.sample_s": "s",
    "enumeration.sample_calls": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
    "host.slowdown": "ratio",
}


def _oracle_counts(args, kwargs, result):
    group, d, target = args[0], args[1], args[2]
    slots = d.n_edges if target == "edges" else d.n_vertices + d.n_edges
    survivors = result if isinstance(result, int) else len(result)
    return {"candidates": group.order**slots, "survivors": survivors}


_COUNTERS = {
    "cli.main": lambda args, kwargs, result: {"exit": result},
    "digraph.load_graph": lambda args, kwargs, result: {"edges": result.n_edges},
    "digraph.analyze": lambda args, kwargs, result: {"edges": args[0].n_edges},
    "balance.oracle": _oracle_counts,
}


class Tracer:
    """Collects spans in memory; ``spans`` holds one dict per span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def _open(self, name: str, site: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "site": site,
            "start": 0.0,
            "end": 0.0,
            "parent": self.stack[-1] if self.stack else None,
            "op": self.op,
            "active": 0.0,
        }
        self.spans.append(span)
        return span

    def wrap_call(self, name: str, site: str, fn):
        counters = _COUNTERS.get(name)
        clock, stack = self.clock, self.stack

        def traced(*args, **kwargs):
            span = self._open(name, site)
            stack.append(span["id"])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                span["start"], span["end"], span["active"] = start, end, end - start
            if counters is not None:
                span.update(counters(args, kwargs, result))
            return result

        return traced

    def wrap_generator(self, name: str, site: str, fn):
        def traced(*args, **kwargs):
            return self._drive(self._open(name, site), fn(*args, **kwargs))

        return traced

    def _drive(self, span: dict, gen):
        clock, stack = self.clock, self.stack
        active = 0.0
        items = 0
        first = None
        last = None
        try:
            while True:
                stack.append(span["id"])
                t0 = clock()
                if first is None:
                    first = t0
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    last = clock()
                    stack.pop()
                    active += last - t0
                items += 1
                yield item
        finally:
            gen.close()
            span["start"], span["end"], span["active"] = first or 0.0, last or 0.0, active
            span["items"] = items


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every site in ``SITES``, for the rest of the process."""
    for module_name, attr, name, kind in SITES:
        module = modules[module_name]
        wrap = tracer.wrap_generator if kind == "gen" else tracer.wrap_call
        setattr(module, attr, wrap(name, f"{module_name}.{attr}", getattr(module, attr)))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> active time minus the active time of its direct children."""
    child = Counter()
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["active"]
    return {s["id"]: s["active"] - child[s["id"]] for s in spans}


def missing_sites(workload: str, spans: list[dict]) -> list[str]:
    fired = {s["site"] for s in spans}
    return [site for site in EXPECTED_SITES[workload] if site not in fired]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _under(spans: list[dict], name: str) -> set[int]:
    """Ids of spans that have an ancestor called ``name``."""
    by_id = {s["id"]: s for s in spans}
    inside = set()
    for s in spans:
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                inside.add(s["id"])
                break
            p = by_id[p]["parent"]
    return inside


def layer_metrics(spans: list[dict], bytes_out: int) -> dict[str, float]:
    """Per-layer totals of one traced pass (times are inclusive active time,
    except ``cli.self_s``).  ``balance.check_*`` and ``trace.overhead_s``
    come from untraced passes and are filled in by the caller."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str, key: str = "active") -> float:
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    selfs = self_times(spans)
    inside_enumerate = _under(spans, "enumeration.enumerate")
    analyze_in_enum = sum(1 for s in by_name.get("digraph.analyze", ()) if s["id"] in inside_enumerate)
    return {
        "groups.make_group_s": total("groups.make_group"),
        "groups.make_group_calls": calls("groups.make_group"),
        "digraph.load_graph_s": total("digraph.load_graph"),
        "digraph.load_graph_edges_per_s": _ratio(total("digraph.load_graph", "edges"), total("digraph.load_graph")),
        "digraph.analyze_s": total("digraph.analyze"),
        "digraph.analyze_calls": calls("digraph.analyze"),
        "digraph.analyze_edges_per_s": _ratio(total("digraph.analyze", "edges"), total("digraph.analyze")),
        "balance.walks": total("balance.walks", "items"),
        "balance.walks_s": total("balance.walks"),
        "balance.walks_per_s": _ratio(total("balance.walks", "items"), total("balance.walks")),
        "balance.oracle_s": total("balance.oracle"),
        "balance.candidates": total("balance.oracle", "candidates"),
        "balance.candidates_per_s": _ratio(total("balance.oracle", "candidates"), total("balance.oracle")),
        "balance.survivors": total("balance.oracle", "survivors"),
        "balance.survivor_ratio": _ratio(total("balance.oracle", "survivors"), total("balance.oracle", "candidates")),
        "balance.budget_refusals": sum(
            1 for s in by_name.get("balance.oracle", ()) if s.get("raised") == "OracleBudgetError"
        ),
        "enumeration.enumerate_s": total("enumeration.enumerate"),
        "enumeration.labelings": total("enumeration.enumerate", "items"),
        "enumeration.labelings_per_s": _ratio(total("enumeration.enumerate", "items"), total("enumeration.enumerate")),
        "enumeration.analyze_per_labeling": _ratio(analyze_in_enum, total("enumeration.enumerate", "items")),
        "enumeration.count_s": total("enumeration.count"),
        "enumeration.count_calls": calls("enumeration.count"),
        "enumeration.sample_s": total("enumeration.sample"),
        "enumeration.sample_calls": calls("enumeration.sample"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": sum(selfs[s["id"]] for s in by_name.get("cli.main", ())),
        "cli.bytes_out": bytes_out,
        "cli.nonzero_exits": sum(1 for s in by_name.get("cli.main", ()) if s.get("exit") != 0),
    }
