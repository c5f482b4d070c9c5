"""The verdicts that scripts/bench_record.py prints for two checkouts."""

import importlib.util
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
