"""scripts/count_survey.py prints every count, however many digits it has."""

import decimal
import importlib.util
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "count_survey", Path(__file__).resolve().parent.parent / "scripts" / "count_survey.py"
)
count_survey = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_survey)


def test_counts_past_the_int_to_str_digit_limit_are_printed(monkeypatch, capsys):
    # A path of 1,502 vertices has 1,501 edges: 1024**1501 has 4,519 digits.
    argv = ["count_survey.py", "--min-size", "1502", "--max-size", "1502", "--groups", "cyclic:1024"]
    monkeypatch.setattr(sys, "argv", argv)
    assert count_survey.main() == 0
    out = capsys.readouterr().out
    digits = str(decimal.Decimal(1024**1501))
    assert len(digits) > 4300
    assert "path n=1502: 1501 edges, bipartite, 1502 components, 1501 cross edges" in out
    assert f"edges/flexible: 1024^1501 = {digits}" in out
