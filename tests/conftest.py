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
