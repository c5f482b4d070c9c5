import sys

import pytest

from bgains.digraph import load_graph
from bgains.groups import make_group

from graph_helpers import data_text


@pytest.fixture(scope="session")
def groups():
    """The four groups used throughout the desk-scale checks."""
    return {spec: make_group(spec) for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "symmetric:3")}


@pytest.fixture(scope="session")
def theta():
    return load_graph(data_text("theta.txt"))


@pytest.fixture(scope="session")
def triangle():
    return load_graph(data_text("triangle.txt"))


@pytest.fixture(scope="session")
def cycle4():
    return load_graph(data_text("cycle4.txt"))


@pytest.fixture(scope="session")
def path2():
    return load_graph(data_text("path2.txt"))


@pytest.fixture()
def int_str_limit():
    """Python's default int-to-str limit of 4,300 digits for the test's
    duration, whatever PYTHONINTMAXSTRDIGITS or -X int_max_str_digits set;
    the test is skipped on interpreters without the limit (before 3.10.7)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(before)
