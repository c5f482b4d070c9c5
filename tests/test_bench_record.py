"""The verdicts that scripts/bench_record.py prints for two checkouts, the
INCORRECT lines that replace them when a run checks wrong, and the traced
runs that it records beside them."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)
verdict = bench_record.verdict

PARENT = [4.0, 4.1, 3.9, 4.05, 3.95, 4.0, 4.2, 3.8, 4.0, 4.1]  # quartiles 3.9625 and 4.0875


@pytest.mark.parametrize(
    "second,better,expected",
    [
        ([3.0] * 10, "lower", "gain"),
        ([3.0] * 9 + [4.5], "lower", "gain"),  # 9 of 10 pairs suffice
        ([3.0] * 8 + [4.5] * 2, "lower", "within bound"),
        ([x - 0.1 for x in PARENT], "lower", "within bound"),  # within the parent's quartile spread
        ([x * 1.2 for x in PARENT], "lower", "within bound"),
        ([x * 1.3 for x in PARENT], "lower", "regression"),
        ([x * 0.7 for x in PARENT], "higher", "regression"),
        ([x * 1.3 for x in PARENT], "higher", "gain"),
    ],
)
def test_verdict(second, better, expected):
    assert verdict(PARENT, second, better, 0.25) == expected


def test_a_steady_metric_has_no_spread_to_beat():
    assert verdict([1.0] * 10, [1.0] * 10, "higher", 0.05) == "within bound"
    assert verdict([1.0] * 10, [0.9] * 10, "higher", 0.05) == "regression"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(wide, [x * 1.05 for x in wide], "lower", 0.25) == "unresolved"
    assert verdict(wide, [0.9] * 10, "lower", 0.25) == "within bound"  # every run better, by less than the spread
    assert verdict(wide, [0.4] * 10, "lower", 0.25) == "gain"
    assert verdict(wide, [0.95] * 10, "higher", 0.25) == "regression"


@pytest.fixture
def stubbed_runs(tmp_path, monkeypatch):
    """Two checkouts whose runs are stubbed; returns them, the set of
    (checkout name, workload, seed, trace) runs that report wrong outputs
    and the list of runs made, in order."""
    checkouts = []
    for name in ("parent", "change"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").touch()
        checkouts.append(tmp_path / name)
    wrong, made = set(), []

    def bench_once(checkout, workload, seed, trace=0):
        made.append((checkout.name, workload, seed, trace))
        if trace:
            metrics = {"digraph.analyze_s": {"value": 0.5 if checkout.name == "parent" else 0.25, "unit": "s"}}
        else:
            metrics = {"wall_s": {"value": 1.0, "unit": "s"}, "items_per_s": {"value": 5.0, "unit": "1/s"}}
        return {"seed": seed, "metrics": metrics, "correct": (checkout.name, workload, seed, trace) not in wrong}

    monkeypatch.setattr(bench_record, "bench_once", bench_once)
    monkeypatch.setattr(bench_record, "git", lambda checkout, *args: checkout.name)
    return checkouts, wrong, made


def test_correct_runs_get_verdicts(stubbed_runs, tmp_path, capsys):
    checkouts, _, _ = stubbed_runs
    assert bench_record.main([*map(str, checkouts), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "INCORRECT" not in out
    assert "within bound" in out
    assert (tmp_path / "BENCH_change.json").is_file()


def test_incorrect_runs_are_named_and_fail_the_recording(stubbed_runs, tmp_path, capsys):
    checkouts, wrong, _ = stubbed_runs
    wrong |= {("change", "verify-grid", 303, 0), ("parent", "large-graph", 310, 0)}
    assert bench_record.main([*map(str, checkouts), "--out-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"INCORRECT {checkouts[0]} large-graph seed 310",
        f"INCORRECT {checkouts[1]} verify-grid seed 303",
    ]
    # The records are written before the check, with the run's result.
    record = json.loads((tmp_path / "BENCH_change.json").read_text())
    assert record["workloads"]["verify-grid"]["correct"] is False
    assert record["workloads"]["large-graph"]["correct"] is True


def test_one_traced_run_per_workload_is_recorded_apart(stubbed_runs, tmp_path, capsys):
    checkouts, _, made = stubbed_runs
    assert bench_record.main([*map(str, checkouts), "--out-dir", str(tmp_path)]) == 0
    traced = [run for run in made if run[3]]
    # After every untraced run, alternating like them: the parent first on
    # even workloads, the change first on odd ones.
    assert made[-len(traced):] == traced == [
        (name, workload, 301, 1)
        for k, workload in enumerate(bench_record.WORKLOADS)
        for name in (("parent", "change") if k % 2 == 0 else ("change", "parent"))
    ]
    for name, analyze_s in (("parent", 0.5), ("change", 0.25)):
        record = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
        assert record["traced_command"] == "bench/run.py --seconds 15 --trace 1"
        assert set(record["traced"]) == set(bench_record.WORKLOADS)
        for run in record["traced"].values():
            assert run == {"seed": 301, "metrics": {"digraph.analyze_s": {"value": analyze_s, "unit": "s"}}, "correct": True}
        # The end-to-end summaries hold the untraced runs only.
        assert all(set(summary) == {"wall_s", "items_per_s", "correct"} for summary in record["workloads"].values())
    # Traced metrics get no verdict line.
    assert "analyze" not in capsys.readouterr().out


def test_an_incorrect_traced_run_is_named_and_fails_the_recording(stubbed_runs, tmp_path, capsys):
    checkouts, wrong, _ = stubbed_runs
    wrong.add(("change", "large-graph", 301, 1))
    assert bench_record.main([*map(str, checkouts), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"INCORRECT {checkouts[1]} large-graph seed 301 traced"]
    record = json.loads((tmp_path / "BENCH_change.json").read_text())
    assert record["traced"]["large-graph"]["correct"] is False
