"""The library imports nothing but the standard library, numpy and itself.

``pyproject.toml`` declares numpy alone.  A module that imported another
package found installed next to it, such as scipy or networkx (a test
dependency), would pass here and fail on a clean install, and would add
that package's import time and memory to every run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bgains"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bgains"}


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_library_imports_only_the_standard_library_and_numpy(path):
    assert imported_packages(path) - ALLOWED == set()


def test_the_guard_sees_imports_anywhere_in_a_module(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nfrom . import x\ndef f():\n    from scipy.sparse import csgraph\n    import networkx as nx\n")
    assert imported_packages(module) - ALLOWED == {"scipy", "networkx"}


def test_the_package_namespace_is_its_all_and_its_modules():
    """The package republishes its modules' ``__all__`` by wildcard imports;
    a fresh interpreter shows exactly those names and the modules."""
    code = "import bgains; print(*sorted(bgains.__all__)); print(*sorted(vars(bgains)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    exported, names = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    public = {name for name in names.split() if not name.startswith("__")}
    modules = {"balance", "digraph", "enumeration", "groups"}
    assert public == set(exported.split()) - {"__version__"} | modules
