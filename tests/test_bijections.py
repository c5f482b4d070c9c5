"""Frozen outputs of the seven bijection maps.

``tests/data/bijections.json`` pins, for every graph in ``tests/data`` over
cyclic:3, symmetric:3 and a ``table:`` group whose identity is index 1, the
sha256 of what each map returns on the balanced inputs that
``sample_uniform`` draws for seeds 0-4:

* ``edges_to_potential`` and ``full_to_pair`` at every base vertex;
* ``pair_to_full_bipartite`` (bipartite graphs) or ``pair_to_full_odd``
  (the others) for every valid extra element at every base vertex;
* ``pair_to_full_rigid`` and ``full_to_pair_rigid``.

It also pins the signatures of the seven maps and ``bgains.__all__``.

``PYTHONPATH=src python tests/test_bijections.py`` rewrites the file from
the code; do that only for a deliberate change of the contract.
"""

import functools
import hashlib
import inspect
import json
import sys

import pytest

import bgains
from bgains.balance import EDGES, FLEXIBLE, FULL, RIGID, EdgeLabeling, FullLabeling
from bgains.digraph import analyze, load_graph
from bgains.enumeration import (
    Potential,
    edges_to_potential,
    full_to_pair,
    full_to_pair_rigid,
    pair_to_full_bipartite,
    pair_to_full_odd,
    pair_to_full_rigid,
    potential_to_edges,
    sample_uniform,
)
from bgains.groups import make_group

from graph_helpers import DATA

PINNED = DATA / "bijections.json"
TABLE_F = DATA / "s3_identity_at_1.table"
GROUPS = ("cyclic:3", "symmetric:3", "table:F")
SEEDS = range(5)
MAPS = (
    potential_to_edges,
    edges_to_potential,
    pair_to_full_bipartite,
    pair_to_full_odd,
    pair_to_full_rigid,
    full_to_pair,
    full_to_pair_rigid,
)


def plain(value):
    """A map's output as JSON-ready lists."""
    if isinstance(value, EdgeLabeling):
        return [list(value.values), value.mode]
    if isinstance(value, FullLabeling):
        return [list(value.vertex_values), list(value.edge_values), value.mode]
    if isinstance(value, Potential):
        return [list(value.values), value.base_vertex]
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    return value


def sha256(outputs) -> str:
    return hashlib.sha256(json.dumps(plain(outputs)).encode()).hexdigest()


@functools.cache
def outputs(graph: str, spec: str) -> dict[str, list]:
    """Each map's outputs on one graph and group, in a fixed order."""
    g = make_group(spec.replace("table:F", f"table:{TABLE_F}"))
    d = load_graph((DATA / graph).read_text())
    bases = range(d.n_vertices)
    extend, heads = (
        (pair_to_full_bipartite, range(g.order)) if analyze(d).bipartite else (pair_to_full_odd, sorted(g.involutions()))
    )
    out = {m: [] for m in ("edges_to_potential", "full_to_pair", extend.__name__, "pair_to_full_rigid", "full_to_pair_rigid")}
    for seed in SEEDS:
        f = sample_uniform(g, d, EDGES, FLEXIBLE, seed)
        h = sample_uniform(g, d, FULL, FLEXIBLE, seed)
        rigid_f = sample_uniform(g, d, EDGES, RIGID, seed)
        rigid_h = sample_uniform(g, d, FULL, RIGID, seed)
        out["edges_to_potential"] += [edges_to_potential(g, d, f, base) for base in bases]
        out["full_to_pair"] += [full_to_pair(g, d, h, base) for base in bases]
        out[extend.__name__] += [extend(g, d, a, f, base) for a in heads for base in bases]
        out["pair_to_full_rigid"].append(pair_to_full_rigid(g, d, rigid_h.vertex_values, rigid_f))
        out["full_to_pair_rigid"].append(full_to_pair_rigid(g, d, rigid_h))
    return out


def records() -> list[dict]:
    return [
        {"graph": path.name, "group": spec, "map": name, "sha256": sha256(values)}
        for path in sorted(DATA.glob("*.txt"))
        for spec in GROUPS
        for name, values in outputs(path.name, spec).items()
    ]


def interface() -> dict:
    return {
        "signatures": {m.__name__: str(inspect.signature(m)) for m in MAPS},
        "all": list(bgains.__all__),
    }


PINNED_DATA = json.loads(PINNED.read_text()) if PINNED.exists() else {"records": [], "interface": {}}


def test_pin_covers_every_graph_group_and_map():
    got = [(r["graph"], r["group"], r["map"]) for r in records()]
    assert [(r["graph"], r["group"], r["map"]) for r in PINNED_DATA["records"]] == got


@pytest.mark.parametrize("expected", PINNED_DATA["records"], ids=lambda r: f"{r['graph']}-{r['group']}-{r['map']}")
def test_map_outputs_match_pin(expected):
    assert sha256(outputs(expected["graph"], expected["group"])[expected["map"]]) == expected["sha256"]


def test_signatures_and_public_names_match_pin():
    assert interface() == PINNED_DATA["interface"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({"interface": interface(), "records": records()}, indent=1) + "\n")
    print(f"wrote {PINNED}", file=sys.stderr)
