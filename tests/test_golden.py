"""Frozen enumeration streams and seeded samples.

``tests/data/golden.json`` pins, for every graph in ``tests/data`` over
cyclic:2, cyclic:3 and symmetric:3 in all four (target, mode) cases, the
count, the sha256 of the ``enumerate`` stream in the CLI's line format (for
streams of at most ``MAX_STREAM`` labelings) and ``sample_uniform`` for
seeds 0-4.  Enumeration order and seeded samples are part of the contract,
so any change to them shows up here.

``PYTHONPATH=src python tests/test_golden.py`` rewrites the file from the code;
do that only for a deliberate change of the contract.
"""

import hashlib
import json
import sys

import pytest

from bgains.balance import EDGES, FLEXIBLE, FULL, RIGID, EdgeLabeling
from bgains.digraph import load_graph
from bgains.enumeration import count, enumerate_all, sample_uniform
from bgains.groups import make_group

from conftest import DATA

GOLDEN = DATA / "golden.json"
GROUPS = ("cyclic:2", "cyclic:3", "symmetric:3")
CASES = ((EDGES, FLEXIBLE), (EDGES, RIGID), (FULL, FLEXIBLE), (FULL, RIGID))
SEEDS = range(5)
MAX_STREAM = 20_000


def line(labeling) -> str:
    """A labeling as ``bgains enumerate`` prints it."""
    if isinstance(labeling, EdgeLabeling):
        values = labeling.values
    else:
        values = labeling.vertex_values + labeling.edge_values
    return " ".join(str(v) for v in values)


def record(graph: str, spec: str, target: str, mode: str) -> dict:
    group = make_group(spec)
    d = load_graph((DATA / graph).read_text())
    total = count(group, d, target, mode).value
    digest = None
    if total <= MAX_STREAM:
        h = hashlib.sha256()
        for labeling in enumerate_all(group, d, target, mode):
            h.update((line(labeling) + "\n").encode())
        digest = h.hexdigest()
    return {
        "graph": graph,
        "group": spec,
        "target": target,
        "mode": mode,
        "count": total,
        "stream_sha256": digest,
        "samples": [line(sample_uniform(group, d, target, mode, seed)) for seed in SEEDS],
    }


def instances():
    for path in sorted(DATA.glob("*.txt")):
        for spec in GROUPS:
            for target, mode in CASES:
                yield path.name, spec, target, mode


GOLDEN_RECORDS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_covers_every_instance():
    pinned = [(r["graph"], r["group"], r["target"], r["mode"]) for r in GOLDEN_RECORDS]
    assert pinned == list(instances())
    assert any(r["stream_sha256"] is None for r in GOLDEN_RECORDS)


@pytest.mark.parametrize(
    "expected", GOLDEN_RECORDS, ids=lambda r: f"{r['graph']}-{r['group']}-{r['target']}-{r['mode']}"
)
def test_stream_and_samples_match_golden(expected):
    got = record(expected["graph"], expected["group"], expected["target"], expected["mode"])
    assert got == expected


if __name__ == "__main__":
    records = [record(*inst) for inst in instances()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
