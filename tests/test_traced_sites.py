"""Every call site that a traced benchmark run expects still fires.

``bench/tracing.py`` wraps functions where the calling module looks them
up, and a traced run whose workload never crosses one of its
``EXPECTED_SITES`` reports ``correct: false``.  A refactor that calls a
wrapped function through another name (an alias, a private twin) keeps
every output right and still breaks the traced benchmark, so each
workload's calls are run here in miniature with every site wrapped.
"""

import importlib.util
from pathlib import Path

import pytest

from bgains import balance, cli, enumeration, groups
from bgains.digraph import load_graph

from graph_helpers import DATA

ROOT = Path(__file__).resolve().parent.parent
THETA = str(DATA / "theta.txt")
CASES = (("edges", "flexible"), ("edges", "rigid"), ("full", "flexible"), ("full", "rigid"))


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _enumerate_stream():
    for target, mode in CASES:
        cli.main(["enumerate", THETA, "--group", "cyclic:2", "--target", target, "--mode", mode])


def _large_graph():
    cli.main(["analyze", THETA])
    for target, mode in CASES:
        cli.main(["count", THETA, "--group", "symmetric:3", "--target", target, "--mode", mode, "--json"])
    for target, mode in CASES:
        cli.main(["sample", THETA, "--group", "symmetric:3", "--target", target, "--mode", mode, "--seed", "7"])


def _verify_grid():
    group = groups.make_group("cyclic:3")
    d = load_graph(DATA.joinpath("triangle.txt").read_text())
    for target, mode in CASES:
        assert enumeration.count(group, d, target, mode).value == balance.brute_force_count(group, d, target, mode)


def _verify_large():
    group = groups.make_group("cyclic:2")
    d = load_graph(DATA.joinpath("theta.txt").read_text())
    balance.brute_force_count(group, d, "full", "flexible")
    balance.brute_force_labelings(group, d, "full", "rigid")


WORKLOADS = {
    "enumerate-stream": _enumerate_stream,
    "large-graph": _large_graph,
    "verify-grid": _verify_grid,
    "verify-large": _verify_large,
}


def test_every_workload_is_covered():
    assert set(WORKLOADS) == set(tracing.EXPECTED_SITES)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_workload_crosses_its_expected_sites(monkeypatch, capsys, workload):
    # As tracing.install, but undone after the test.
    tracer = tracing.Tracer()
    modules = {"cli": cli, "groups": groups, "enumeration": enumeration, "balance": balance}
    for module_name, attr, name, kind in tracing.SITES:
        module = modules[module_name]
        wrap = tracer.wrap_generator if kind == "gen" else tracer.wrap_call
        monkeypatch.setattr(module, attr, wrap(name, f"{module_name}.{attr}", getattr(module, attr)))
    # A cached walk family would spare the oracle its walk search.
    balance._walk_family.cache_clear()
    WORKLOADS[workload]()
    capsys.readouterr()
    assert tracing.missing_sites(workload, tracer.spans) == []
    assert not any("raised" in span for span in tracer.spans)
