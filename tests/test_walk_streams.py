"""Frozen closed-walk streams.

``tests/data/walk_streams.json`` pins, in both modes, the sha256 of the
``all_closed_walks`` stream (each walk's vertices and steps, in stream
order) for every graph in ``tests/data`` and every graph of
``iter_connected_multigraphs(3, 4)``.  The order matters beyond balance:
the oracle filters candidates walk by walk, so its time and peak memory
depend on which walk comes first.

``PYTHONPATH=src python tests/test_walk_streams.py`` rewrites the file from
the code; do that only for a deliberate change of the stream.
"""

import hashlib
import json
import sys

import pytest

from bgains.balance import FLEXIBLE, RIGID, all_closed_walks
from bgains.digraph import iter_connected_multigraphs, load_graph

from graph_helpers import DATA

PINNED = DATA / "walk_streams.json"
MODES = (FLEXIBLE, RIGID)


def graphs():
    """(name, digraph) for every pinned graph."""
    for path in sorted(DATA.glob("*.txt")):
        yield path.name, load_graph(path.read_text())
    for d in iter_connected_multigraphs(3, 4):
        yield f"n={d.n_vertices} " + " ".join(f"{u}-{w}" for u, w in d.edges), d


def stream_sha256(d, mode: str) -> str:
    h = hashlib.sha256()
    for walk in all_closed_walks(d, mode):
        vertices = " ".join(map(str, walk.vertices))
        steps = " ".join(f"{s.edge}{'-' if s.reverse else '+'}" for s in walk.steps)
        h.update(f"{vertices} | {steps}\n".encode())
    return h.hexdigest()


def streams(mode: str) -> dict[str, str]:
    return {name: stream_sha256(d, mode) for name, d in graphs()}


PINNED_STREAMS = json.loads(PINNED.read_text()) if PINNED.exists() else {}


@pytest.mark.parametrize("mode", MODES)
def test_walk_streams_match_pinned(mode):
    assert streams(mode) == PINNED_STREAMS[mode]


def test_pinned_file_covers_every_graph():
    names = [name for name, _ in graphs()]
    assert len(names) == len(set(names)) == 473
    assert all(list(PINNED_STREAMS[mode]) == names for mode in MODES)


if __name__ == "__main__":
    PINNED.write_text(json.dumps({mode: streams(mode) for mode in MODES}, indent=1) + "\n")
    print(f"wrote {PINNED}", file=sys.stderr)
