"""Output checks, run after every pass has ended (outside the timed phase).

Every operation of every pass gets a verdict.  An operation fails when it
crashes, exits nonzero, or its output does not check out.  A failure the
reference table lists as expected at this commit still counts as failed,
but does not make the run incorrect; any other failure does.

Digests: an output must match the reference table where the table holds
for the run's seed (always for ``verify-large``, whose instances the seed
does not relabel); otherwise it must be byte-identical in every pass.  Independently of the seed,
counts are compared with ``count(...).value`` and a seed-chosen subset of
labelings goes through the walk-based ``is_balanced_*`` and, where the
library has one, the inverse bijection and back.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import workloads as w

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    expected: list[str] = field(default_factory=list)

    def add(self, label: str, problem: str | None, expected_failure: str | None = None) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if expected_failure is not None and expected_failure in problem:
            self.expected.append(f"{label}: {problem}")
        else:
            self.unexpected.append(f"{label}: {problem}")

    @property
    def correct(self) -> bool:
        return not self.unexpected


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _digest_problem(want, k, digest, first) -> str | None:
    """Against the reference digest when there is one, else against pass 0."""
    if want is not None:
        if digest != want:
            return f"digest {digest[:12]} differs from the reference {want[:12]}"
    elif k > 0 and digest != first:
        return f"digest {digest[:12]} differs from pass 0 ({first[:12]})"
    return None


def _seed_digests(workload, seed, reference) -> dict:
    """Reference digests that hold for this seed's (relabeled) inputs."""
    return reference["digests"][workload] if seed == reference["seed"] else {}


def _safely(check, *args) -> str | None:
    """Run one output check; one that cannot run on this output fails the op."""
    try:
        return check(*args)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def _text(record: dict) -> str:
    return "\n".join(record["kept"][str(i)] for i in range(record["lines"]))


def _values(line: str) -> tuple[int, ...]:
    return tuple(int(t) for t in line.split())


def _labeling(bgains, d, target, mode, values):
    if target == "edges":
        return bgains.EdgeLabeling(values, mode)
    n = d.n_vertices
    return bgains.FullLabeling(values[:n], values[n:], mode)


def _round_trip(bgains, group, d, lab) -> bool:
    """Through the inverse bijection and back; raises on an unbalanced input."""
    if isinstance(lab, bgains.EdgeLabeling):
        if lab.mode == "rigid":
            return True  # the library has no inverse for rigid edge labelings
        return bgains.potential_to_edges(group, d, bgains.edges_to_potential(group, d, lab)) == lab
    if lab.mode == "rigid":
        vertex_values, f = bgains.full_to_pair_rigid(group, d, lab)
        return bgains.pair_to_full_rigid(group, d, vertex_values, f) == lab
    a, f = bgains.full_to_pair(group, d, lab)
    bgains.edges_to_potential(group, d, f)
    extend = bgains.pair_to_full_bipartite if bgains.analyze(d).bipartite else bgains.pair_to_full_odd
    return extend(group, d, a, f) == lab


def _subset_problem(bgains, group, d, target, mode, kept: dict, wanted: list[int]) -> str | None:
    """Balance (walk-based), round trips and distinctness of kept labelings."""
    if sorted(int(k) for k in kept) != wanted:
        return "kept lines are not the seed-chosen positions"
    balanced = bgains.is_balanced_edges if target == "edges" else bgains.is_balanced_full
    slots = d.n_edges + (d.n_vertices if target == "full" else 0)
    seen = set()
    for k, line in kept.items():
        values = _values(line)
        if len(values) != slots or not all(0 <= v < group.order for v in values):
            return f"line {k} has the wrong shape: {line[:60]!r}"
        lab = _labeling(bgains, d, target, mode, values)
        if not balanced(group, d, lab):
            return f"line {k} is not balanced"
        try:
            if not _round_trip(bgains, group, d, lab):
                return f"line {k} does not survive the round trip"
        except ValueError as exc:
            return f"line {k} fails the inverse bijection: {exc}"
        seen.add(values)
    if len(seen) != len(kept):
        return "kept lines repeat"
    return None


def check_enumerate_stream(bgains, seed, passes, reference, v: Verdicts) -> None:
    instances = {i.name: i for i in w.stream_instances(seed)}
    digests = _seed_digests("enumerate-stream", seed, reference)
    first = {r["op"]: r for r in passes[0]["records"]}
    subset_problems = {}
    for k, p in enumerate(passes):
        for r in p["records"]:
            label, inst = r["op"], instances[r["op"]]
            problem = None
            if r["exit"] != 0:
                problem = f"exit {r['exit']}: {r['stderr'][:200]}"
            elif r["lines"] != inst.expected_count:
                problem = f"{r['lines']} lines, expected {inst.expected_count}"
            else:
                problem = _digest_problem(digests.get(label), k, r["sha256"], first[label]["sha256"])
            if problem is None and r["kept"] != first[label]["kept"]:
                problem = "kept lines differ from pass 0"
            if problem is None:
                if label not in subset_problems:
                    subset_problems[label] = _safely(_instance_problem, bgains, seed, inst, r["kept"])
                problem = subset_problems[label]
            v.add(label, problem)


def _instance_problem(bgains, seed, inst, kept) -> str | None:
    """The closed-form count, then the seed-chosen subset of one output."""
    group = bgains.make_group(inst.group)
    d = bgains.Digraph(inst.n, inst.edges)
    if bgains.count(group, d, inst.target, inst.mode).value != inst.expected_count:
        return f"count() disagrees with the expected {inst.expected_count}"
    wanted = w.checked_indices(seed, inst.name, inst.expected_count)
    return _subset_problem(bgains, group, d, inst.target, inst.mode, kept, wanted)


def _closed_form_exponents(target, mode, report) -> tuple[int, int]:
    n = len(report["scc_assignment"])
    kbar, r = report["scc_count"], report["cross_scc_edges"]
    if mode == "flexible":
        if target == "edges":
            return 0, n - 1
        return (0, n) if report["bipartite"] else (1, n - 1)
    return 0, (n if target == "edges" else 2 * n) - kbar + r


def _rigid_balanced(bgains, group, d, f, comp) -> bool:
    """Rigid edge balance on a big graph: inside every strongly connected
    component the labeling must come from a potential (checked with the
    flexible inverse bijection on that component); cross edges are free."""
    members: dict[int, list[int]] = {}
    for v, c in enumerate(comp):
        members.setdefault(c, []).append(v)
    inner: dict[int, list[int]] = {}
    for e, (u, x) in enumerate(d.edges):
        if comp[u] == comp[x]:
            inner.setdefault(comp[u], []).append(e)
    for c, edge_ids in inner.items():
        local = {v: i for i, v in enumerate(members[c])}
        sub = bgains.Digraph(len(local), tuple((local[d.edges[e][0]], local[d.edges[e][1]]) for e in edge_ids))
        try:
            bgains.edges_to_potential(group, sub, bgains.EdgeLabeling(tuple(f[e] for e in edge_ids)))
        except ValueError:
            return False
    return True


def _large_graph_op_problem(bgains, r, group, d, report) -> str | None:
    op = r["op"]
    if op == "analyze":
        rep = json.loads(_text(r))
        comp = rep["scc_assignment"]
        if not rep["weakly_connected"] or len(comp) != d.n_vertices:
            return "analyze report does not describe the input graph"
        if rep["scc_count"] != len(set(comp)) or max(comp) + 1 != rep["scc_count"]:
            return "scc_count disagrees with scc_assignment"
        cross = sum(1 for u, x in d.edges if comp[u] != comp[x])
        if cross != rep["cross_scc_edges"]:
            return "cross_scc_edges disagrees with scc_assignment"
        return None
    _, target, mode = op.split("-")
    if op.startswith("count"):
        rep = json.loads(_text(r))
        s, t = _closed_form_exponents(target, mode, report)
        if (rep["s_exponent"], rep["t_exponent"]) != (s, t):
            return f"exponents {(rep['s_exponent'], rep['t_exponent'])}, expected {(s, t)}"
        value = len(group.involutions()) ** s * group.order**t
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if rep["count_decimal"] != str(value):
                return "count_decimal differs from the closed form"
        finally:
            sys.set_int_max_str_digits(limit)
        return None
    if r["lines"] != 1:
        return f"sample printed {r['lines']} lines"
    values = _values(r["kept"]["0"])
    slots = d.n_edges + (d.n_vertices if target == "full" else 0)
    if len(values) != slots or not all(0 <= x < group.order for x in values):
        return "sample has the wrong shape"
    lab = _labeling(bgains, d, target, mode, values)
    try:
        if not _round_trip(bgains, group, d, lab):
            return "sample does not survive the round trip"
    except ValueError as exc:
        return f"sample fails the inverse bijection: {exc}"
    if mode == "rigid":
        f = values if target == "edges" else bgains.full_to_pair_rigid(group, d, lab)[1].values
        if not _rigid_balanced(bgains, group, d, f, report["scc_assignment"]):
            return "sample is not rigid-balanced"
    return None


def check_large_graph(bgains, seed, passes, reference, v: Verdicts, workdir: Path) -> None:
    d = bgains.load_graph((workdir / "large.txt").read_text())
    group = bgains.make_group(w.LARGE_GROUP)
    expected = reference["expected_failures"].get("large-graph", {})
    digests = _seed_digests("large-graph", seed, reference)
    first = {r["op"]: r for r in passes[0]["records"]}
    analyze_rec = first["analyze"]
    report = None
    if analyze_rec["exit"] == 0:
        try:
            report = json.loads(_text(analyze_rec))
        except (KeyError, ValueError):
            pass  # the analyze op itself fails its check below
    semantic = {}
    for k, p in enumerate(passes):
        for r in p["records"]:
            label = r["op"]
            if r["exit"] != 0:
                problem = f"exit {r['exit']}: {r['stderr'].strip()[:200]}"
            else:
                problem = _digest_problem(digests.get(label), k, r["sha256"], first[label]["sha256"])
                if problem is None and label not in semantic:
                    if report is None and label != "analyze":
                        semantic[label] = "no analyze report to check against"
                    else:
                        semantic[label] = _safely(_large_graph_op_problem, bgains, r, group, d, report)
                problem = problem or semantic.get(label)
            v.add(label, problem, expected.get(label))


def check_verify_grid(bgains, seed, passes, reference, v: Verdicts) -> None:
    ref_counts = reference["grid_counts"]
    for p in passes:
        if len(p["records"]) != len(ref_counts):
            v.add("verify-grid", f"{len(p['records'])} checks, expected {len(ref_counts)}")
            continue
        for r, want in zip(p["records"], ref_counts):
            problem = None
            if r["error"] is not None:
                problem = r["error"]
            elif r["formula"] != r["oracle"]:
                problem = f"formula {r['formula']} != oracle {r['oracle']}"
            elif r["oracle"] != want:
                problem = f"count {r['oracle']} differs from the reference {want}"
            v.add(r["op"], problem)


def check_verify_large(bgains, seed, passes, reference, v: Verdicts) -> None:
    instances = dict(zip(("brute_force_count", "brute_force_labelings"), w.ORACLE_INSTANCES))
    digests = reference["digests"]["verify-large"]  # the instances are the same on every seed
    first = {r["op"]: r for r in passes[0]["records"]}
    subset = {}
    for k, p in enumerate(passes):
        for r in p["records"]:
            label = r["op"]
            inst = instances[label.split("-")[0]]
            problem = r["error"]
            if problem is None and r["survivors"] != inst.expected_count:
                problem = f"{r['survivors']} survivors, expected {inst.expected_count}"
            if problem is None and "sha256" in r:
                problem = _digest_problem(digests.get(label), k, r["sha256"], first[label]["sha256"])
                if problem is None and r["kept"] != first[label]["kept"]:
                    problem = "kept labelings differ from pass 0"
                if problem is None:
                    if label not in subset:
                        subset[label] = _safely(_instance_problem, bgains, seed, inst, r["kept"])
                    problem = subset[label]
            v.add(label, problem)


def check(bgains, workload: str, seed: int, passes: list[dict], reference: dict, workdir: Path) -> Verdicts:
    v = Verdicts()
    if workload == "enumerate-stream":
        check_enumerate_stream(bgains, seed, passes, reference, v)
    elif workload == "large-graph":
        check_large_graph(bgains, seed, passes, reference, v, workdir)
    elif workload == "verify-grid":
        check_verify_grid(bgains, seed, passes, reference, v)
    else:
        check_verify_large(bgains, seed, passes, reference, v)
    return v
