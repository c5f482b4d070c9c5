"""Command line behavior: output contracts and exit codes, in process
except where a real pipe is needed."""

import json
import subprocess
import sys

import pytest

from bgains import cli, enumeration
from bgains.balance import FullLabeling, is_balanced_full
from bgains.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from bgains.digraph import analyze
from bgains.groups import make_group

from conftest import DATA

THETA = str(DATA / "theta.txt")
TRIANGLE = str(DATA / "triangle.txt")
PATH2 = str(DATA / "path2.txt")
SINGLE = str(DATA / "single.txt")
LOOP1 = str(DATA / "loop1.txt")


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    return _run


# --------------------------------------------------------------- analyze


def test_analyze_theta(run):
    code, out, _ = run("analyze", THETA)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["weakly_connected"] is True
    assert report["bipartite"] is False
    assert report["scc_count"] == 1
    assert report["cross_scc_edges"] == 0
    assert report["scc_assignment"] == [0, 0, 0, 0]


def test_analyze_parities(run):
    assert json.loads(run("analyze", SINGLE)[1])["bipartite"] is True
    assert json.loads(run("analyze", LOOP1)[1])["bipartite"] is False


def test_analyze_parse_error_carries_line_number(run, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n = 2\n0 1\n0 1 2\n")
    code, _, err = run("analyze", str(bad))
    assert code == EXIT_USAGE
    assert "line 3" in err


def test_analyze_missing_file(run):
    code, _, err = run("analyze", str(DATA / "no-such-graph.txt"))
    assert code == EXIT_USAGE
    assert "error" in err


# ----------------------------------------------------------------- count


def count_json(run, graph, group, target, mode):
    code, out, _ = run("count", graph, "--group", group, "--target", target, "--mode", mode, "--json")
    assert code == EXIT_OK
    return json.loads(out)


def test_count_examples(run):
    assert count_json(run, TRIANGLE, "cyclic:2", "full", "flexible")["count_decimal"] == "8"
    report = count_json(run, TRIANGLE, "symmetric:3", "full", "flexible")
    assert report["count_decimal"] == "144"
    assert report["involution_count"] == 4
    assert (report["s_exponent"], report["t_exponent"]) == (1, 2)
    assert count_json(run, PATH2, "cyclic:3", "full", "rigid")["count_decimal"] == "27"


def test_count_report_schema(run):
    report = count_json(run, THETA, "cyclic:4", "edges", "rigid")
    assert set(report) == {
        "mode",
        "target",
        "group_spec",
        "group_order",
        "involution_count",
        "vertices",
        "edges",
        "bipartite",
        "scc_count",
        "cross_scc_edges",
        "s_exponent",
        "t_exponent",
        "count_decimal",
    }
    assert report["group_spec"] == "cyclic:4"
    assert report["vertices"] == 4 and report["edges"] == 5
    assert report["count_decimal"] == str(4**3)


def test_count_text_output(run):
    code, out, _ = run("count", TRIANGLE, "--group", "symmetric:3", "--target", "full", "--mode", "flexible")
    assert code == EXIT_OK
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["count_decimal"] == "144"
    assert lines["bipartite"] == "false"


def test_count_rejects_disconnected(run, tmp_path):
    graph = tmp_path / "two.txt"
    graph.write_text("n = 2\n")
    code, _, err = run("count", str(graph), "--group", "cyclic:2", "--target", "edges", "--mode", "flexible")
    assert code == EXIT_USAGE
    assert "connected" in err


def test_count_deterministic(run):
    a = run("count", THETA, "--group", "symmetric:3", "--target", "full", "--mode", "rigid", "--json")
    b = run("count", THETA, "--group", "symmetric:3", "--target", "full", "--mode", "rigid", "--json")
    assert a == b


def test_count_analyzes_the_graph_once(run, monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return analyze(d)

    monkeypatch.setattr(cli, "analyze", counted)
    monkeypatch.setattr(enumeration, "analyze", counted)
    report = count_json(run, THETA, "symmetric:3", "full", "rigid")
    assert len(calls) == 1
    assert (report["scc_count"], report["cross_scc_edges"]) == (1, 0)


# ---------------------------------------------------------------- verify


def test_verify_pass(run):
    code, out, _ = run("verify", TRIANGLE, "--group", "cyclic:2", "--target", "full", "--mode", "flexible")
    assert code == EXIT_OK
    assert out.startswith("PASS") and "8" in out
    code, out, _ = run("verify", THETA, "--group", "cyclic:2", "--target", "edges", "--mode", "rigid")
    assert code == EXIT_OK
    assert "8 == oracle 8" in out


def test_verify_budget_exceeded(run):
    code, out, _ = run(
        "verify", TRIANGLE, "--group", "cyclic:2", "--target", "full", "--mode", "flexible",
        "--budget", "10",
    )
    assert code == EXIT_BUDGET
    assert "64" in out and "10" in out


def test_verify_budget_env(run, monkeypatch):
    monkeypatch.setenv("BG_ORACLE_BUDGET", "10")
    args = ("verify", TRIANGLE, "--group", "cyclic:2", "--target", "full", "--mode", "flexible")
    assert run(*args)[0] == EXIT_BUDGET
    # explicit flag wins over the environment
    assert run(*args, "--budget", "100")[0] == EXIT_OK
    monkeypatch.setenv("BG_ORACLE_BUDGET", "lots")
    code, _, err = run(*args)
    assert code == EXIT_USAGE
    assert "BG_ORACLE_BUDGET" in err


def test_verify_fail_exit_code(run, monkeypatch):
    monkeypatch.setattr(cli, "brute_force_count", lambda *a, **k: 999)
    code, out, _ = run("verify", TRIANGLE, "--group", "cyclic:2", "--target", "full", "--mode", "flexible")
    assert code == EXIT_FAIL
    assert out.startswith("FAIL") and "999" in out


# ------------------------------------------------------------- enumerate


def test_enumerate_single_vertex_edges(run):
    code, out, _ = run("enumerate", SINGLE, "--group", "cyclic:3", "--target", "edges", "--mode", "flexible")
    assert code == EXIT_OK
    assert out == "\n"


def test_enumerate_triangle(run):
    code, out, _ = run("enumerate", TRIANGLE, "--group", "cyclic:2", "--target", "edges", "--mode", "flexible")
    assert code == EXIT_OK
    assert out.splitlines() == ["0 0 0", "0 1 1", "1 1 0", "1 0 1"]


def test_enumerate_limit_marker(run):
    code, out, _ = run(
        "enumerate", TRIANGLE, "--group", "cyclic:2", "--target", "full", "--mode", "flexible",
        "--limit", "2",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 6 for line in lines[:2])
    assert lines[2].startswith("#") and "2" in lines[2] and "8" in lines[2]


@pytest.fixture()
def long_path(tmp_path):
    """A 6,000-vertex path: 6**5999 balanced edge labelings over cyclic:6,
    a count of 4,669 digits, past the interpreter's int-to-str limit."""
    path = tmp_path / "path6000.txt"
    path.write_text("n=6000\n" + "".join(f"{v} {v + 1}\n" for v in range(5999)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(6**5999)
    finally:
        sys.set_int_max_str_digits(limit)
    return str(path), digits


def test_counts_beyond_the_int_to_str_limit(run, long_path):
    graph, digits = long_path
    assert len(digits) > sys.get_int_max_str_digits()
    assert count_json(run, graph, "cyclic:6", "edges", "flexible")["count_decimal"] == digits
    code, out, err = run(
        "enumerate", graph, "--group", "cyclic:6", "--target", "edges", "--mode", "flexible",
        "--limit", "0",
    )
    assert (code, err) == (EXIT_OK, "")
    assert out == f"# truncated: 0 of {digits} labelings shown\n"


def test_verify_budget_beyond_the_int_to_str_limit(run, long_path):
    graph, digits = long_path
    code, out, err = run(
        "verify", graph, "--group", "cyclic:6", "--target", "edges", "--mode", "flexible",
        "--budget", "10",
    )
    assert (code, err) == (EXIT_BUDGET, "")
    assert out == f"BUDGET: instance requires {digits} candidates, budget is 10\n"


def test_enumerate_into_closed_pipe_is_quiet():
    cmd = [
        sys.executable, "-m", "bgains", "enumerate", THETA,
        "--group", "symmetric:3", "--target", "full", "--mode", "rigid",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode == EXIT_USAGE


def test_enumerate_limit_not_reached_prints_no_marker(run):
    code, out, _ = run(
        "enumerate", TRIANGLE, "--group", "cyclic:2", "--target", "edges", "--mode", "flexible",
        "--limit", "100",
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) == 4 and "#" not in out


def test_enumerate_show_elements(run):
    code, out, _ = run(
        "enumerate", PATH2, "--group", "symmetric:3", "--target", "edges", "--mode", "flexible",
        "--show-elements",
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["012", "021", "102", "120", "201", "210"]


def test_enumerate_negative_limit(run):
    code, _, err = run(
        "enumerate", TRIANGLE, "--group", "cyclic:2", "--target", "edges", "--mode", "flexible",
        "--limit", "-1",
    )
    assert code == EXIT_USAGE
    assert "nonnegative" in err


# ---------------------------------------------------------------- sample


def test_sample_deterministic(run):
    args = ("sample", THETA, "--group", "symmetric:3", "--target", "full", "--mode", "flexible", "--seed", "11")
    assert run(*args) == run(*args)


def test_sample_output_is_balanced(run, theta):
    g = make_group("symmetric:3")
    code, out, _ = run("sample", THETA, "--group", "symmetric:3", "--target", "full", "--mode", "rigid", "--seed", "3")
    assert code == EXIT_OK
    values = [int(tok) for tok in out.split()]
    h = FullLabeling(tuple(values[:4]), tuple(values[4:]), "rigid")
    assert is_balanced_full(g, theta, h)


def test_sample_unique_instance(run):
    for seed in ("0", "1", "17"):
        code, out, _ = run("sample", TRIANGLE, "--group", "cyclic:1", "--target", "edges", "--mode", "flexible", "--seed", seed)
        assert code == EXIT_OK
        assert out == "0 0 0\n"


# ------------------------------------------------------------ group-info


def test_group_info_examples(run):
    code, out, _ = run("group-info", "--group", "symmetric:3")
    assert code == EXIT_OK
    assert json.loads(out) == {"order": 6, "involution_count": 4, "abelian": False}
    assert json.loads(run("group-info", "--group", "cyclic:7")[1])["involution_count"] == 1
    info = json.loads(run("group-info", "--group", "product:cyclic:2,cyclic:2")[1])
    assert info["involution_count"] == 4 and info["abelian"] is True


def test_group_info_show_elements(run):
    code, out, _ = run("group-info", "--group", "quaternion:8", "--show-elements")
    info = json.loads(out)
    assert info["order"] == 8
    assert len(info["elements"]) == 8 and info["elements"][0] == "1"


def test_group_info_bad_spec(run):
    code, _, err = run("group-info", "--group", "cyclic:zero")
    assert code == EXIT_USAGE
    assert "error" in err


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_one(run):
    assert run("count", TRIANGLE, "--group", "cyclic:2", "--target", "oops", "--mode", "flexible")[0] == EXIT_USAGE
    assert run("count", TRIANGLE, "--target", "edges", "--mode", "flexible")[0] == EXIT_USAGE
    assert run("no-such-command")[0] == EXIT_USAGE
    assert run()[0] == EXIT_USAGE
