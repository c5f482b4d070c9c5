"""The verdicts that scripts/bench_record.py prints for two checkouts, and
the INCORRECT lines that replace them when a run checks wrong."""

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
    """Two checkouts whose runs are stubbed; returns them and the set of
    (checkout name, workload, seed) runs that report wrong outputs."""
    checkouts = []
    for name in ("parent", "change"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").touch()
        checkouts.append(tmp_path / name)
    wrong = set()

    def bench_once(checkout, workload, seed):
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}, "items_per_s": {"value": 5.0, "unit": "1/s"}}
        return {"seed": seed, "metrics": metrics, "correct": (checkout.name, workload, seed) not in wrong}

    monkeypatch.setattr(bench_record, "bench_once", bench_once)
    monkeypatch.setattr(bench_record, "git", lambda checkout, *args: checkout.name)
    return checkouts, wrong


def test_correct_runs_get_verdicts(stubbed_runs, tmp_path, capsys):
    checkouts, _ = stubbed_runs
    assert bench_record.main([*map(str, checkouts), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "INCORRECT" not in out
    assert "within bound" in out
    assert (tmp_path / "BENCH_change.json").is_file()


def test_incorrect_runs_are_named_and_fail_the_recording(stubbed_runs, tmp_path, capsys):
    checkouts, wrong = stubbed_runs
    wrong |= {("change", "verify-grid", 303), ("parent", "large-graph", 310)}
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
