"""Command line behavior: output contracts and exit codes, in process
except where a real pipe is needed."""

import decimal
import hashlib
import json
import random
import resource
import subprocess
import sys
import tracemalloc

import pytest

from bgains import cli, digraph, enumeration, groups
from bgains.balance import FULL, RIGID, FullLabeling, is_balanced_full
from bgains.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from bgains.digraph import Digraph, load_graph
from bgains.groups import make_group

from graph_helpers import DATA, HashingStdout, cli_stdout_sha256, data_text

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
    # The exact text, key order and indentation included.
    assert out == (
        '{\n  "weakly_connected": true,\n  "bipartite": false,\n  "scc_count": 1,\n'
        '  "cross_scc_edges": 0,\n  "scc_assignment": [\n    0,\n    0,\n    0,\n    0\n  ]\n}\n'
    )


def test_analyze_parities(run):
    assert json.loads(run("analyze", SINGLE)[1])["bipartite"] is True
    assert json.loads(run("analyze", LOOP1)[1])["bipartite"] is False


def test_analyze_parse_error_carries_line_number(run, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n = 2\n0 1\n0 1 2\n")
    code, _, err = run("analyze", str(bad))
    assert code == EXIT_USAGE
    assert "line 3" in err


def test_analyze_rejects_too_many_vertices(run, tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text("n=1000001\n0 1\n")
    code, out, err = run("analyze", str(huge))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and "limit" in err


def test_analyze_missing_file(run):
    code, _, err = run("analyze", str(DATA / "no-such-graph.txt"))
    assert code == EXIT_USAGE
    assert "error" in err


def run_under_memory_cap(*argv, stdin=None):
    """``bgains *argv`` in a child process whose address space is capped at
    512 MiB (the limit is set in the child only), with a 60 s timeout."""
    limit = 512 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "bgains", *argv],
        stdin=stdin, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )


def test_analyze_endless_file_is_refused_under_a_memory_cap():
    """/dev/zero never ends: the read stops one byte past the graph file
    cap, well inside an address-space limit set in the child only."""
    proc = run_under_memory_cap("analyze", "/dev/zero")
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == f"error: /dev/zero: graph file exceeds the limit of {cli.GRAPH_FILE_LIMIT:,} bytes\n"


def test_graph_file_cap_is_in_bytes(run, tmp_path, monkeypatch):
    text = "n=3\r\n0 1\r\n# \u00e9\r2 1\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    monkeypatch.setattr(cli, "GRAPH_FILE_LIMIT", len(text.encode()))
    # The file's bytes are parsed as they are: the lone \r ends a line, and
    # the cap counts the two bytes of the é in the comment.
    assert cli._load_graph_file(str(path)) == load_graph(path.read_text()) == Digraph(3, ((0, 1), (2, 1)))
    monkeypatch.setattr(cli, "GRAPH_FILE_LIMIT", len(text.encode()) - 1)
    code, out, err = run("analyze", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {path}: graph file exceeds the limit of {len(text.encode()) - 1:,} bytes\n"


@pytest.mark.parametrize(
    "text",
    ["1_0 0\n", "+1 0\n", "\u0663 0\n", "0\xa01\n", "0 1\v1 0\n"],
    ids=["underscore", "plus", "arabic-indic-digit", "no-break-space", "vertical-tab"],
)
def test_graph_files_outside_the_format_are_refused(run, tmp_path, text):
    """Each of these once parsed to a graph, through str.splitlines, int()
    and str.split; the format allows ASCII digits, spaces and tabs alone."""
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    code, out, err = run("analyze", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: line 1: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data", [b"0 1 # \x1c 1 2\n", b"0 1 # \xff\xfe 1 2\n"], ids=["file-separator", "not-utf-8"]
)
def test_a_comment_holds_any_byte_to_the_line_end(run, tmp_path, data):
    """A \x1c once ended the line, and a byte that is not UTF-8 once failed
    the decode; in a comment, both are comment bytes like any other."""
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    assert cli._load_graph_file(str(path)) == Digraph(2, ((0, 1),))
    code, out, _ = run("analyze", str(path))
    assert code == EXIT_OK and json.loads(out)["scc_assignment"] == [0, 1]


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
    """``count`` and the JSON's structure fields share one computation.  The
    spy sits behind the report that ``analyze`` keeps, on the Tarjan search
    that both of its paths run once."""
    calls = []
    search = digraph._strong_components
    monkeypatch.setattr(digraph, "_strong_components", lambda succ: calls.append(succ) or search(succ))
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


@pytest.mark.parametrize("flag,env", [("-1", None), (None, "-5"), ("-1", "10")])
def test_verify_negative_budget_is_a_usage_error(run, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("BG_ORACLE_BUDGET", env)
    args = ["verify", TRIANGLE, "--group", "cyclic:2", "--target", "full", "--mode", "flexible"]
    if flag is not None:
        args += ["--budget", flag]
    code, out, err = run(*args)
    source = "--budget" if flag is not None else "BG_ORACLE_BUDGET"
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {source} must be nonnegative\n"


def test_verify_zero_budget_is_exceeded(run):
    code, out, _ = run(
        "verify", TRIANGLE, "--group", "cyclic:2", "--target", "full", "--mode", "flexible",
        "--budget", "0",
    )
    assert code == EXIT_BUDGET
    assert out.endswith("budget is 0\n")


def test_verify_candidate_space_past_int64_is_a_usage_error(run, tmp_path):
    # 2**64 candidates: within the budget, beyond the oracle's int64 numbering.
    path = tmp_path / "path64.txt"
    path.write_text("n=65\n" + "".join(f"{v} {v + 1}\n" for v in range(64)))
    code, out, err = run(
        "verify", str(path), "--group", "cyclic:2", "--target", "edges", "--mode", "rigid",
        "--budget", "100000000000000000000000000000",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: brute force over 2**64 candidate labelings exceeds "
        "the oracle's limit of 2**63 - 1 candidates\n"
    )


def test_verify_past_the_walk_limit_is_a_usage_error(tmp_path):
    # 256 candidates but a factorial closed-walk family: the oracle refuses
    # it at the walk limit instead of running for minutes.
    loops = tmp_path / "loops8.txt"
    loops.write_text("n=1\n" + "0 0\n" * 8)
    argv = ["verify", str(loops), "--group", "cyclic:2", "--target", "edges", "--mode", "flexible"]
    proc = subprocess.run(
        [sys.executable, "-m", "bgains", *argv], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr.count("error:") == 1
    assert proc.stderr.startswith("error: brute force over more than 131072 closed walks")


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


@pytest.mark.parametrize(
    "spec", ["cyclic:1", "cyclic:2", "cyclic:10", "dihedral:4", "symmetric:3", "quaternion:8",
             "product:cyclic:2,cyclic:5"],
)
def test_count_decimal_from_the_factored_form(spec):
    group = make_group(spec)
    for s, t in [(0, 0), (0, 1), (1, 0), (1, 7), (3, 250), (0, 1000)]:
        c = enumeration.BalancedCount.of(s, t, group)
        assert cli._count_decimal(group, c) == str(c.value)


def test_counts_print_without_converting_the_int(run, long_path, monkeypatch):
    """Counts, the truncation marker and the BUDGET line print from decimal
    powers: converting the int, in time quadratic in its digits, would call
    decimal.Decimal on it."""
    graph, digits = long_path

    def refuse(n):
        raise AssertionError("converted the whole int")

    monkeypatch.setattr(decimal, "Decimal", refuse)
    assert count_json(run, graph, "cyclic:6", "edges", "flexible")["count_decimal"] == digits
    code, out, _ = run(
        "enumerate", graph, "--group", "cyclic:6", "--target", "edges", "--mode", "flexible",
        "--limit", "0",
    )
    assert (code, out) == (EXIT_OK, f"# truncated: 0 of {digits} labelings shown\n")
    code, out, _ = run(
        "verify", graph, "--group", "cyclic:6", "--target", "edges", "--mode", "flexible",
        "--budget", "10",
    )
    assert (code, out) == (EXIT_BUDGET, f"BUDGET: instance requires {digits} candidates, budget is 10\n")


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


def test_enumerate_limit_past_sys_maxsize(run):
    code, out, err = run(
        "enumerate", TRIANGLE, "--group", "cyclic:2", "--target", "edges", "--mode", "flexible",
        "--limit", str(10**30),
    )
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == ["0 0 0", "0 1 1", "1 1 0", "1 0 1"]


def test_enumerate_show_elements(run):
    code, out, _ = run(
        "enumerate", PATH2, "--group", "symmetric:3", "--target", "edges", "--mode", "flexible",
        "--show-elements",
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["012", "021", "102", "120", "201", "210"]


def test_enumerate_limit_cuts_the_stream_anywhere(monkeypatch):
    """``--limit`` at the stream's ends and at and inside a block boundary:
    the lines shown are the library stream's prefix, and the marker
    appears exactly when lines were cut."""
    group, d = make_group("symmetric:3"), load_graph(data_text("theta.txt"))
    total = enumeration.count(group, d, FULL, RIGID).value
    block = next(enumeration._Frame(group, d, FULL, RIGID).blocks()).shape[0]
    limits = sorted({0, 1, block, block + block // 2, total - 1, total, total + 1})
    assert 1 < block < block + block // 2 < total - 1
    prefix, h = {}, hashlib.sha256()
    for shown, labeling in enumerate(enumeration.enumerate_all(group, d, FULL, RIGID), start=1):
        h.update((" ".join(map(str, labeling.vertex_values + labeling.edge_values)) + "\n").encode())
        if shown in limits:
            prefix[shown] = h.copy()
    prefix[0] = hashlib.sha256()
    prefix[total + 1] = prefix[total]
    for limit in limits:
        expected = prefix[limit].copy()
        if limit < total:
            expected.update(f"# truncated: {limit} of {total} labelings shown\n".encode())
        got = cli_stdout_sha256(monkeypatch, THETA, "--group", "symmetric:3", "--target", FULL,
                                "--mode", RIGID, "--limit", limit)
        assert got == expected.hexdigest(), limit


def test_enumerate_limit_cuts_named_lines_of_unequal_widths(monkeypatch, run):
    """``--show-elements`` over ``quaternion:8``, whose names take one or two
    characters, in blocks of 64 lines: the lines shown are the prefix of the
    library's text, and the marker follows exactly when lines were cut."""
    monkeypatch.setattr(enumeration, "BLOCK_VALUES", 8 * 100)
    cycle4 = str(DATA / "cycle4.txt")
    group, d = make_group("quaternion:8"), load_graph(data_text("cycle4.txt"))
    text = "".join(enumeration.enumerate_all(group, d, FULL, "flexible", tokens=group.element_names))
    lines = text.splitlines(keepends=True)
    block = next(enumeration._Frame(group, d, FULL, "flexible").blocks()).shape[0]
    total = len(lines)
    assert block == 64 and total == 4096
    for limit in (1, block, block + block // 2, total - 1, total):
        code, out, err = run("enumerate", cycle4, "--group", "quaternion:8", "--target", FULL,
                             "--mode", "flexible", "--show-elements", "--limit", str(limit))
        marker = f"# truncated: {limit} of {total} labelings shown\n" if limit < total else ""
        assert (code, err) == (EXIT_OK, "")
        assert out == "".join(lines[:limit]) + marker, limit


def traced_peak(monkeypatch, argv) -> int:
    """Peak traced allocation of one CLI run, its stdout only hashed."""
    monkeypatch.setattr(sys, "stdout", HashingStdout())
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumerate_memory_is_bounded_by_the_block(monkeypatch):
    argv = ["enumerate", THETA, "--group", "symmetric:3", "--target", "full", "--mode", "rigid"]
    assert traced_peak(monkeypatch, argv) < 8_000_000


@pytest.mark.parametrize("target,mode", [(t, m) for t in ("edges", "full") for m in ("flexible", "rigid")])
def test_enumerate_wide_labelings_in_bounded_memory(monkeypatch, long_path, target, mode):
    """6,000 vertices: every labeling has thousands of values, so a block
    holds a single row."""
    argv = ["enumerate", long_path[0], "--group", "cyclic:6", "--target", target, "--mode", mode, "--limit", "3"]
    assert traced_peak(monkeypatch, argv) < 8_000_000


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


def test_large_graph_operations_read_the_parsed_edge_array_alone(run, tmp_path, monkeypatch):
    """The nine operations of the ``large-graph`` benchmark, on a smaller
    graph built the same way (a random spanning tree with random
    orientations, then uniform extra edges) but still above
    ``_ARRAY_EDGES`` edges, never build the graph's edge tuples."""
    rng = random.Random(5)
    n = 6_000
    edges = [(rng.randrange(v), v) if rng.random() < 0.5 else (v, rng.randrange(v)) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n + 1)]
    path = tmp_path / "large.txt"
    path.write_text(f"n={n}\n" + "".join(f"{u} {w}\n" for u, w in edges))
    graphs = []
    monkeypatch.setattr(cli, "load_graph", lambda text: graphs.append(load_graph(text)) or graphs[-1])
    cases = [("--target", target, "--mode", mode) for target in ("edges", "full") for mode in ("flexible", "rigid")]
    ops = [("analyze", path)]
    ops += [("count", path, "--group", "symmetric:3", *case, "--json") for case in cases]
    ops += [("sample", path, "--group", "symmetric:3", *case, "--seed", str(k)) for k, case in enumerate(cases)]
    for argv in ops:
        code, _, err = run(*map(str, argv))
        assert code == EXIT_OK, err
    assert len(graphs) == 9 and graphs[0].n_edges >= digraph._ARRAY_EDGES
    assert not any("edges" in d.__dict__ for d in graphs)


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


def test_group_info_refuses_deep_product_nesting(run):
    # Order-1 factors never reach the order cap, so only the nesting limit
    # stops the parser's recursion.
    code, out, err = run("group-info", "--group", "product:cyclic:1," * 1200 + "cyclic:1")
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "nests deeper" in err
    depth = groups._NESTING_LIMIT
    assert run("group-info", "--group", "product:cyclic:1," * (depth + 1) + "cyclic:1")[0] == EXIT_USAGE
    code, out, _ = run("group-info", "--group", "product:cyclic:1," * depth + "cyclic:1")
    assert code == EXIT_OK and json.loads(out)["order"] == 1


def test_group_info_refuses_a_table_without_line_ends_under_a_memory_cap():
    """/dev/zero has no line end: its first line is refused at the line cap
    for the largest order, well inside the memory cap."""
    proc = run_under_memory_cap("group-info", "--group", "table:/dev/zero")
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == "error: /dev/zero: line 1: longer than 8,272 characters\n"


def test_group_info_refuses_an_endless_stream_of_rows_at_the_first_extra_row():
    """An order-1 table followed by rows of ``0`` without end, through a
    pipe: the second row is refused as soon as it is read."""
    writer = subprocess.Popen(
        [sys.executable, "-c", "import sys\nsys.stdout.write('1\\n')\nwhile True:\n    sys.stdout.write('0\\n' * 4096)"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        proc = run_under_memory_cap("group-info", "--group", "table:/dev/stdin", stdin=writer.stdout)
    finally:
        writer.kill()
        writer.wait()
        writer.stdout.close()
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == "error: /dev/stdin: line 3: expected 1 table rows, got more\n"


def test_group_info_refuses_an_endless_stream_of_blank_lines_at_the_line_cap():
    """Blank lines without end, through a pipe: before the order line the
    file may hold the lines of the largest order, and no more."""
    writer = subprocess.Popen(
        [sys.executable, "-c", "import sys\nwhile True:\n    sys.stdout.write('\\n' * 4096)"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        proc = run_under_memory_cap("group-info", "--group", "table:/dev/stdin", stdin=writer.stdout)
    finally:
        writer.kill()
        writer.wait()
        writer.stdout.close()
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == "error: /dev/stdin: line 2149: more than 2,148 lines\n"


def test_group_info_refuses_a_table_entry_past_int64(run, tmp_path):
    path = tmp_path / "huge.table"
    path.write_text("2\n0 99999999999999999999\n1 0\n")
    code, out, err = run("group-info", "--group", f"table:{path}")
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "integers" in err


# ------------------------------------------------------------ exit codes


def test_main_builds_the_parser_once(run, monkeypatch):
    real = cli.build_parser
    assert real() is not real()
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    for spec in ("cyclic:2", "cyclic:3"):
        assert run("group-info", "--group", spec)[0] == EXIT_OK
    assert run("no-such-command")[0] == EXIT_USAGE
    assert len(builds) == 1


def test_usage_errors_exit_one(run):
    assert run("count", TRIANGLE, "--group", "cyclic:2", "--target", "oops", "--mode", "flexible")[0] == EXIT_USAGE
    assert run("count", TRIANGLE, "--target", "edges", "--mode", "flexible")[0] == EXIT_USAGE
    assert run("no-such-command")[0] == EXIT_USAGE
    assert run()[0] == EXIT_USAGE
