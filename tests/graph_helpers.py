"""Helpers shared by the test modules: the data directory, small graphs and
the hash of a CLI run's stdout.

They live here, not in ``conftest.py``, because ``bench/tests`` has a
``conftest.py`` too and both import under the one module name ``conftest``.
"""

import hashlib
import io
import random
import sys
from pathlib import Path

from bgains import cli
from bgains.balance import FLEXIBLE, all_closed_walks
from bgains.digraph import _ARRAY_EDGES, Digraph, analyze

DATA = Path(__file__).parent / "data"


def data_text(name: str) -> str:
    return (DATA / name).read_text()


def _walk_family_fits(d: Digraph, cap: int) -> bool:
    count = 0
    for _ in all_closed_walks(d, FLEXIBLE):
        count += 1
        if count > cap:
            return False
    return True


def random_connected_digraph(rng: random.Random, max_vertices=4, max_edges=5, bipartite=None, max_walks=20_000):
    """Rejection-sample a small weakly connected digraph, optionally with a
    required parity of the underlying undirected graph.

    Loops and parallel edges piled on few vertices make the closed-walk
    family factorial in the edge count, and every consumer of these graphs
    checks balance by exhausting that family, so graphs above ``max_walks``
    flexible walks are rejected as well.
    """
    while True:
        n = rng.randint(1, max_vertices)
        m = rng.randint(0, max_edges)
        d = Digraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))
        report = analyze(d)
        if not report.weakly_connected:
            continue
        if bipartite is not None and report.bipartite != bipartite:
            continue
        if not _walk_family_fits(d, max_walks):
            continue
        return d


def kept_graph(size: str) -> Digraph:
    """Below ``_ARRAY_EDGES``: a directed 4-cycle with a pendant edge, which
    is bipartite.  Above it: a directed 101-cycle with every later vertex v
    hung off v // 2, which is not.  Both have cross-component edges."""
    if size == "small":
        return Digraph(5, ((0, 1), (1, 2), (2, 3), (3, 0), (3, 4)))
    n = _ARRAY_EDGES + 8
    return Digraph(n, tuple((v, (v + 1) % 101) for v in range(101)) + tuple((v // 2, v) for v in range(101, n)))


class HashingStdout(io.TextIOBase):
    """Stands in for stdout and keeps only the sha256 of what is written."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, s):
        self.sha256.update(s.encode())
        return len(s)


def cli_stdout_sha256(monkeypatch, *argv) -> str:
    out = HashingStdout()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", out)
        assert cli.main(["enumerate", *map(str, argv)]) == cli.EXIT_OK
    return out.sha256.hexdigest()
