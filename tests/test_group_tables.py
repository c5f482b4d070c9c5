"""Frozen group tables.

``tests/data/group_tables.json`` pins, for each group spec below, the sha256
of the group's identity, inverse map, Cayley table and element names.
Printed labelings are element indices, so the element order every
constructor produces, product renumbering included, is part of the
contract.  ``F`` in a spec stands for ``tests/data/s3_identity_at_1.table``,
a ``table:`` group whose identity is index 1.

``PYTHONPATH=src python tests/test_group_tables.py`` rewrites the file from
the code; do that only for a deliberate change of the contract.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from bgains.groups import make_group

from graph_helpers import DATA

PINNED = DATA / "group_tables.json"
TABLE_F = DATA / "s3_identity_at_1.table"
SPECS = (
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:5",
    "cyclic:6",
    "cyclic:7",
    "cyclic:8",
    "cyclic:9",
    "cyclic:10",
    "cyclic:12",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "symmetric:1",
    "symmetric:3",
    "symmetric:4",
    "quaternion:8",
    "product:cyclic:2,cyclic:2",
    "product:cyclic:2,cyclic:4",
    "product:cyclic:3,cyclic:4",
    "product:cyclic:2,product:cyclic:2,cyclic:2",
    "product:symmetric:3,cyclic:2",
    "cyclic:1024",
    "dihedral:512",
    "symmetric:5",
    "product:symmetric:5,cyclic:8",
    "table:F",
    "product:cyclic:2,table:F",
    "product:table:F,cyclic:3",
)


def build(spec: str):
    return make_group(spec.replace("table:F", f"table:{TABLE_F}"))


def sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def record(spec: str) -> dict:
    g = build(spec)
    return {
        "spec": spec,
        "order": g.order,
        "identity": sha256(g.identity),
        "inverse": sha256(g.inverse),
        "table": sha256(g.table),
        "element_names": sha256(g.element_names),
    }


PINNED_RECORDS = json.loads(PINNED.read_text()) if PINNED.exists() else []


def test_pin_covers_every_spec():
    assert [r["spec"] for r in PINNED_RECORDS] == list(SPECS)


@pytest.mark.parametrize("expected", PINNED_RECORDS, ids=lambda r: r["spec"])
def test_group_table_matches_pin(expected):
    assert record(expected["spec"]) == expected


@pytest.mark.parametrize("spec", SPECS)
def test_array_views_agree_with_the_tuple_table(spec):
    g = build(spec)
    # The validated array comes with the group, not rebuilt from the tuples.
    assert "table_array" in vars(g)
    n, t = g.order, g.table
    assert g.table_array.dtype == np.intp
    assert g.table_array.tolist() == [[t[a][b] for b in range(n)] for a in range(n)]
    assert g.over_array.tolist() == [[g.mul(g.inv(a), b) for b in range(n)] for a in range(n)]
    assert g.involutions() == {a for a in range(n) if t[a][a] == g.identity}
    assert g.is_abelian() == all(t[a][b] == t[b][a] for a in range(n) for b in range(n))


if __name__ == "__main__":
    records = [record(spec) for spec in SPECS]
    PINNED.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {PINNED}", file=sys.stderr)
