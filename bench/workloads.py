"""Seeded inputs and the timed operations of each benchmark workload.

Nothing here imports ``bgains``: the worker times ``import bgains`` first,
and the inputs must not depend on the code under test.

The seed picks the vertex labels and edge order of the ``enumerate-stream``
and ``verify-grid`` instances, and the whole random graph of
``large-graph``.  Relabeling leaves the amount of work unchanged (same
counts, walks and candidates), so timings compare across seeds while the
outputs differ.  The ``verify-large`` instances keep their labels: the
oracle's peak memory depends on which closed walk it filters first, so
relabeling would make ``peak_rss_mb`` differ between seeds.  There the seed
only picks the survivors that are checked.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("enumerate-stream", "large-graph", "verify-grid", "verify-large")

CASES = (("edges", "flexible"), ("edges", "rigid"), ("full", "flexible"), ("full", "rigid"))

# Two directed cycles sharing the edge 1->2 (strongly connected, 4 vertices).
THETA = ((0, 1), (3, 1), (2, 0), (2, 3), (1, 2))
CYCLE4 = ((0, 1), (1, 2), (2, 3), (3, 0))
CYCLE5 = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
# Triangles 0->1->2->0 and 3->4->5->3 joined by 2->3 and 1->4: 2 SCCs, 2 cross edges.
TWO_TRIANGLES = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (1, 4))


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    group: str
    target: str
    mode: str
    expected_count: int


# enumerate-stream: one instance per (target, mode) case, plus the odd and
# the bipartite full-flexible paths.
STREAM_INSTANCES = (
    Instance("theta-s3-full-rigid", 4, THETA, "symmetric:3", "full", "rigid", 279_936),
    Instance("cycle5-d4-full-flexible", 5, CYCLE5, "dihedral:4", "full", "flexible", 24_576),
    Instance("cycle4-c12-full-flexible", 4, CYCLE4, "cyclic:12", "full", "flexible", 20_736),
    Instance("cycle5-s4-edges-flexible", 5, CYCLE5, "symmetric:4", "edges", "flexible", 331_776),
    Instance("triangles-c6-edges-rigid", 6, TWO_TRIANGLES, "cyclic:6", "edges", "rigid", 46_656),
)

# verify-large, in this order: near the default oracle budget of 10,000,000 candidates.
ORACLE_COUNT = Instance("cycle5-c5-full-flexible", 5, CYCLE5, "cyclic:5", "full", "flexible", 625)
ORACLE_LABELINGS = Instance("triangles-c3-full-rigid", 6, TWO_TRIANGLES, "cyclic:3", "full", "rigid", 531_441)
ORACLE_INSTANCES = (ORACLE_COUNT, ORACLE_LABELINGS)

LARGE_VERTICES = 50_000
LARGE_EDGES = 100_000
LARGE_GROUP = "symmetric:3"

GRID_MAX_VERTICES = 3
GRID_MAX_EDGES = 4
GRID_GROUP = "cyclic:3"

# Labelings per stream instance (and survivors of the labelings oracle call)
# whose values are kept for the walk-based balance check.
CHECKED_PER_OUTPUT = 40


def relabel(n: int, edges, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Random vertex permutation and edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[w]) for u, w in edges]
    rng.shuffle(out)
    return tuple(out)


def seeded(instance: Instance, rng: random.Random) -> Instance:
    return replace(instance, edges=relabel(instance.n, instance.edges, rng))


def graph_text(n: int, edges) -> str:
    return f"n={n}\n" + "".join(f"{u} {w}\n" for u, w in edges)


def stream_instances(seed: int) -> list[Instance]:
    rng = random.Random(f"enumerate-stream:{seed}")
    return [seeded(i, rng) for i in STREAM_INSTANCES]


def checked_indices(seed: int, name: str, total: int) -> list[int]:
    """Seed-chosen positions in an output stream; always the first and last."""
    rng = random.Random(f"checked:{name}:{seed}")
    picks = {0, total - 1} | set(rng.sample(range(total), CHECKED_PER_OUTPUT - 2))
    return sorted(picks)


def large_graph_edges(seed: int) -> list[tuple[int, int]]:
    """Random spanning tree with random orientations, plus uniform extra
    edges (loops and parallels allowed), under a random relabeling."""
    rng = random.Random(f"large-graph:{seed}")
    n = LARGE_VERTICES
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    while len(edges) < LARGE_EDGES:
        edges.append((rng.randrange(n), rng.randrange(n)))
    return list(relabel(n, edges, rng))


def large_graph_ops(seed: int, path: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of the nine CLI operations, each rereading the file."""
    ops = [("analyze", ["analyze", path])]
    for target, mode in CASES:
        ops.append(
            (
                f"count-{target}-{mode}",
                ["count", path, "--group", LARGE_GROUP, "--target", target, "--mode", mode, "--json"],
            )
        )
    for k, (target, mode) in enumerate(CASES):
        ops.append(
            (
                f"sample-{target}-{mode}",
                ["sample", path, "--group", LARGE_GROUP, "--target", target, "--mode", mode,
                 "--seed", str(sample_seed(seed, k))],
            )
        )
    return ops


def sample_seed(seed: int, k: int) -> int:
    return random.Random(f"sample:{seed}:{k}").randrange(2**31)


def _weakly_connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, w in edges:
        parent[find(u)] = find(w)
    return len({find(v) for v in range(n)}) == 1


def grid_graphs(seed: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Every weakly connected multigraph (loops and parallels included) with
    at most 3 vertices and 4 edges, as edge multisets, each relabeled."""
    rng = random.Random(f"verify-grid:{seed}")
    graphs = []
    for n in range(1, GRID_MAX_VERTICES + 1):
        pairs = [(u, w) for u in range(n) for w in range(n)]
        for m in range(GRID_MAX_EDGES + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                if _weakly_connected(n, combo):
                    graphs.append((n, relabel(n, combo, rng)))
    return graphs


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the graph files the CLI workloads read."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "enumerate-stream":
        for inst in stream_instances(seed):
            (workdir / f"{inst.name}.txt").write_text(graph_text(inst.n, inst.edges))
    elif workload == "large-graph":
        (workdir / "large.txt").write_text(graph_text(LARGE_VERTICES, large_graph_edges(seed)))
