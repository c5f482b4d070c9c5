"""scripts/verify_grid.py sweeps the small multigraphs against the oracle."""

import importlib.util
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "verify_grid", Path(__file__).resolve().parent.parent / "scripts" / "verify_grid.py"
)
verify_grid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verify_grid)


def test_a_small_grid_checks_every_instance(monkeypatch, capsys):
    argv = ["verify_grid.py", "--max-vertices", "2", "--max-edges", "2", "--groups", "cyclic:2", "cyclic:3"]
    monkeypatch.setattr(sys, "argv", argv)
    assert verify_grid.main() == 0
    out = capsys.readouterr().out
    assert "96 instances checked, 0 skipped, 0 mismatches" in out
