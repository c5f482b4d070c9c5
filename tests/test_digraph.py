"""Graph loading and structural analysis."""

import copy
import itertools
import pickle
import random
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgains import digraph
from bgains.digraph import (
    _ARRAY_EDGES,
    Digraph,
    GraphFormatError,
    StructureReport,
    _analyze_arrays,
    _Declined,
    _array_digraph,
    _edge_ends,
    _parse_bytes,
    _spanning_forest,
    analyze,
    iter_connected_multigraphs,
    load_graph,
)

from graph_helpers import data_text, kept_graph


def test_load_single_vertex():
    d = load_graph("n=1\n")
    assert d.n_vertices == 1 and d.edges == ()


def test_load_infers_vertex_count():
    d = load_graph("0 1\n1 4\n")
    assert d.n_vertices == 5
    assert d.edges == ((0, 1), (1, 4))


def test_load_comments_and_blanks():
    d = load_graph("# header\n\nn=3\n0 1  # trailing\n\n# gap\n2 1\n")
    assert d.n_vertices == 3
    assert d.edges == ((0, 1), (2, 1))


def test_load_theta():
    d = load_graph(data_text("theta.txt"))
    assert d.n_vertices == 4
    assert d.edges == ((0, 1), (3, 1), (2, 0), (2, 3), (1, 2))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1 2\n", "line 1"),
        ("a b\n", "must be integers"),
        ("n=2\n0 5\n", "out of range"),
        ("0 1\nn=3\n", "first significant line"),
        ("", "vertex count is undefined"),
        ("-1 0\n", "nonnegative"),
        ("n=1000001\n", "exceeds the limit"),
        ("0 1000000\n", "exceeds the limit"),
    ],
)
def test_load_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        load_graph(text)


def test_load_at_vertex_limit():
    assert load_graph("n=1000000\n").n_vertices == 1_000_000
    assert load_graph("0 999999\n").n_vertices == 1_000_000


# Pieces of graph file lines: (plain, odd).  A text of plain pieces is well
# formed unless an index is out of range; an odd piece is most often outside
# the format.
_INDICES = (
    st.sampled_from([*map(str, range(13))] * 3 + ["007", "999999", "1000000", "18446744073709551617"]),
    st.sampled_from(["-1", "+1", "1_0", "٣", "１", "x", "1.0", "0000000000000000000001"]),
)
_GAPS = (st.sampled_from([" ", "\t", "  ", " \t "]), st.sampled_from(["\xa0", "\x1f", "\u2003", "\v", "\f"]))
_PADS = (st.sampled_from(["", " ", "\t"]), st.sampled_from(["\xa0", "\x0c", "\x1c"]))
_COMMENTS = (
    st.sampled_from(["", "# c", "#", "# n=3", "# 1 2 3", "#\t#", "#\x85 5 6", "# \x1c 1 2", "#\v 3 4", "#\x00",
                     "# \udcff 7 8", "#\udc80"]),
    st.sampled_from(["# \r 4", "\r# c", "# \u2028 9"]),
)
_ENDS = (st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["\x0b", "\x85", "\u2029", " "]))
_N_VALUES = (st.sampled_from(["0", "5", "13", "1000000"]),
             st.sampled_from(["1000001", "٣", "-1", "00000000000000000005"]))
_ODD_LINES = st.sampled_from(["1", "1 2 3", "n", "n=", "= 3", "a b", "0 1 # 2 \x85 3", "\udcff"])


def _piece(draw, pieces, odd_share):
    plain, odd = pieces
    return draw(odd if draw(st.integers(0, 99)) < odd_share else plain)


@st.composite
def _graph_texts(draw):
    """Graph file texts, as a str or, as often, as bytes.  A surrogate of
    the str, in a comment or not, becomes a byte that is not UTF-8."""
    odd_share = draw(st.sampled_from([0, 0, 1, 5, 30]))  # percent of odd pieces

    def line():
        kind = draw(st.sampled_from(["edge"] * 12 + ["blank"] * 2 + ["n", "odd"]))
        if kind == "edge":
            body = _piece(draw, _INDICES, odd_share) + _piece(draw, _GAPS, odd_share) + _piece(draw, _INDICES, odd_share)
        elif kind == "n":
            body = "n=" + _piece(draw, _N_VALUES, odd_share)
        elif kind == "odd" and odd_share:
            body = draw(_ODD_LINES)
        else:
            body = ""
        pad, end = _piece(draw, _PADS, odd_share), _piece(draw, _ENDS, odd_share)
        return pad + body + pad + _piece(draw, _COMMENTS, odd_share) + end

    lines = [line() for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        lines.insert(0, _piece(draw, _PADS, odd_share) + "n" + _piece(draw, _PADS, odd_share) + "="
                     + _piece(draw, _PADS, odd_share) + _piece(draw, _N_VALUES, odd_share) + "\n")
    text = "".join(lines) + draw(st.sampled_from(["", "0 1", "# tail", "\n"]))
    return text.encode("utf-8", "surrogateescape") if draw(st.booleans()) else text


def _as_bytes(text):
    """The bytes that ``load_graph`` reads of ``text``."""
    return text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text


# The format's significant lines, comment included; a line of bytes.splitlines
# holds no \n or \r, so a comment may hold any byte.
_N_ROW = re.compile(rb"[ \t]*n[ \t]*=[ \t]*([0-9]{1,18})[ \t]*(?:#.*)?", re.DOTALL)
_EDGE_ROW = re.compile(rb"[ \t]*([0-9]{1,18})[ \t]+([0-9]{1,18})[ \t]*(?:#.*)?", re.DOTALL)
_BLANK_ROW = re.compile(rb"[ \t]*(?:#.*)?", re.DOTALL)


def _line_parser(text):
    """The graph file format as a reference, one line of ``text``'s bytes at
    a time: the graph, or the number of the first bad line (0 when no line
    is significant, so that the vertex count is undefined)."""
    n, edges = None, []
    for lineno, line in enumerate(_as_bytes(text).splitlines(), start=1):
        if _BLANK_ROW.fullmatch(line):
            continue
        head, edge = _N_ROW.fullmatch(line), _EDGE_ROW.fullmatch(line)
        if head and n is None and not edges and int(head[1]) <= 1_000_000:
            n = int(head[1])
        elif edge and max(int(edge[1]), int(edge[2])) < (1_000_000 if n is None else n):
            edges.append((int(edge[1]), int(edge[2])))
        else:
            return lineno
    if n is None and not edges:
        return 0
    return Digraph(1 + max(map(max, edges)) if n is None else n, edges)


def _outcome(text):
    """``load_graph(text)``, or the line number its error names (0 for none)."""
    try:
        return load_graph(text)
    except GraphFormatError as exc:
        number = re.match(r"line (\d+): ", str(exc))
        return int(number[1]) if number else 0


def _bulk_graph(text):
    """The graph that the byte parser reads from ``text``, or None where it
    declines it."""
    parsed = _parse_bytes(_as_bytes(text))
    return None if isinstance(parsed, _Declined) else _array_digraph(*parsed)


@given(_graph_texts())
@example("1_0 0\n")  # each newly refused token, alone in a text
@example("+1 0\n")
@example("٣ 0\n")
@example("0\xa01\n")
@example("0 1\v1 0\n")
@example("0000000000000000000001 2\n")
@example("0 1 # \x1c 1 2\n")  # comment bytes that once ended a line
@example(b"0 1 # \xff\n")  # and bytes that are not UTF-8
@example("n=3\r0 1\r1 2\r")  # lone \r line ends
@settings(max_examples=1500, deadline=None)
def test_bulk_parse_matches_the_line_parser(text):
    """``load_graph`` reads what the reference reads and names the line
    that it names: so ``_first_error`` finds a bad line in every text that
    the byte parser declines."""
    expected = _line_parser(text)
    assert _outcome(text) == expected
    assert (_bulk_graph(text) is None) == (not isinstance(expected, Digraph))
    if isinstance(expected, Digraph):
        _assert_is_the_public_graph(load_graph(text))


@given(_graph_texts(), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_chunks_cut_at_any_line_end_parse_alike(text, chunk):
    """The byte parser's steps end at line ends past each multiple of
    ``_CHUNK`` bytes; with steps of a byte to a line or two it reads what it
    reads in one, and an error names the same line."""
    expected = _outcome(text)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(digraph, "_CHUNK", chunk)
        assert _outcome(text) == expected


def test_an_error_past_a_step_cut_is_named_by_its_line_in_a_crlf_file(monkeypatch):
    """``_first_error`` reads only from the step that the byte parser
    declined, and numbers its lines after the line ends before it, each
    \\r\\n one.  A cut at the \\r of a \\r\\n takes the \\n into its step:
    here the first cut lands on the \\r of line 2."""
    monkeypatch.setattr(digraph, "_CHUNK", 8)
    data = b"0 1\r\n" * 10 + b"1_0 0\r\n"
    assert data[8:10] == b"\r\n"
    declined = _parse_bytes(data)
    assert declined == _Declined(50, None, True) and data[declined.offset :] == b"1_0 0\r\n"
    with pytest.raises(GraphFormatError) as exc:
        load_graph(data)
    assert str(exc.value) == "line 11: expected numbers of 1 to 18 ASCII digits between spaces or tabs, got '1_0 0'"


@pytest.mark.parametrize("line", [b"\f\f", b"\v", "\xa0".encode()], ids=["form-feeds", "vertical-tab", "no-break-space"])
def test_a_line_of_other_whitespace_is_a_bad_token(line):
    """Only spaces and tabs are blanks.  A line of other whitespace has no
    field to count, so it gets the message for bytes outside the format."""
    with pytest.raises(GraphFormatError) as exc:
        load_graph(b"0 1\n" + line + b"\n")
    got = line.decode()
    assert str(exc.value) == f"line 2: expected numbers of 1 to 18 ASCII digits between spaces or tabs, got {got!r}"


def _assert_is_the_public_graph(d):
    """A graph built without the constructor's checks is the graph that the
    public constructor makes, with plain-int tuples."""
    public = Digraph(d.n_vertices, tuple((int(u), int(w)) for u, w in d.edges))
    assert d == public and hash(d) == hash(public)
    assert type(d.n_vertices) is int and type(d.edges) is tuple
    assert all(type(e) is tuple and len(e) == 2 and set(map(type, e)) == {int} for e in d.edges)


@pytest.mark.parametrize(
    "text",
    [
        "n=3\n0 1\n2 1\n",
        "# header\n\n n = 3 # count\n0\t1  # edge\n\n2 1",
        "0 1\r\n1 2\r\n# comment\r\n",
        "n=4\n",
        "n=1000000\n999999 0\n",
        "\t007 1 \n",
        "n=3\r0 1\r2 1\r",
        b"0 1 # \xff\xfe\n# \xc3\n1 0\n",
        "000000000000000009 1\n",
    ],
)
def test_well_formed_texts_take_the_bulk_path(text):
    assert isinstance(_line_parser(text), Digraph)
    assert _bulk_graph(text) == _line_parser(text)


@pytest.mark.parametrize(
    "text",
    [
        "n=3\n0 1\n2 1\n",
        "n=4\n",
        "0 0\n",
        "n=1000000\n999999 0\n",
        "\t007 1 \n300 299\n299 300\n",
    ],
)
def test_bulk_loaded_graph_equals_the_public_one(text):
    _assert_is_the_public_graph(_bulk_graph(text))


@pytest.mark.parametrize(
    "text,message",
    [
        ("n=2\n0 2\n", "line 2: vertex index 2 out of range for n=2"),
        ("n=3\n1 0\n7 1\n", "line 3: vertex index 7 out of range for n=3"),
        ("n=0\n0 0\n", "line 2: vertex index 0 out of range for n=0"),
        ("0 1\n1000000 1\n", "line 2: vertex index 1000000 exceeds the limit of 1000000 vertices"),
    ],
)
def test_out_of_range_files_still_raise(text, message):
    assert _bulk_graph(text) is None
    with pytest.raises(GraphFormatError) as exc:
        load_graph(text)
    assert str(exc.value) == message


# The messages of test_load_errors and test_out_of_range_files_still_raise,
# in full: a str and its UTF-8 bytes get the same one.
_REFUSALS = [
    ("0 1 2\n", "line 1: expected 'origin endpoint', got '0 1 2'"),
    ("a b\n", "line 1: vertex indices must be integers"),
    ("n=2\n0 5\n", "line 2: vertex index 5 out of range for n=2"),
    ("0 1\nn=3\n", "line 2: n= is only allowed as the first significant line"),
    ("", "no n= line and no edges: vertex count is undefined"),
    ("-1 0\n", "line 1: vertex indices must be nonnegative"),
    ("n=1000001\n", "line 1: n=1000001 exceeds the limit of 1000000 vertices"),
    ("0 1000000\n", "line 1: vertex index 1000000 exceeds the limit of 1000000 vertices"),
    ("n=2\n0 2\n", "line 2: vertex index 2 out of range for n=2"),
    ("n=3\n1 0\n7 1\n", "line 3: vertex index 7 out of range for n=3"),
    ("n=0\n0 0\n", "line 2: vertex index 0 out of range for n=0"),
    ("0 1\n1000000 1\n", "line 2: vertex index 1000000 exceeds the limit of 1000000 vertices"),
]


@pytest.mark.parametrize("text,message", _REFUSALS)
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_refusal_messages_are_the_same_for_str_and_bytes(text, message, as_bytes):
    with pytest.raises(GraphFormatError) as exc:
        load_graph(text.encode() if as_bytes else text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "0 1\r", "0 1 # c\r1 2\n", "0\r1\n", "n=3\r0 1\n", "0 1\r# c\n",
        "0 1 #\v2 1\n", "0 1 #\f\n", "0 1 # \x1c\n", "0 1 #\x00\n",
    ],
)
def test_other_line_breaks_go_to_the_line_parser(text):
    """A lone \\r ends a line as \\n does, and \\v, \\f, \\x1c and NUL are
    comment bytes like any other: ``load_graph`` reads these texts as the
    reference line parser does, so ``0\\r1`` is two bad lines and the
    others are well formed."""
    assert _outcome(text) == _line_parser(text)
    assert (_bulk_graph(text) is None) == (text == "0\r1\n")


def test_load_graph_memory_is_the_graph_and_little_more():
    """Matching the whole text with one greedy repetition would keep some
    200 bytes of backtracking state per line."""
    rng = random.Random(0)
    lines = 100_000
    text = f"n={lines}\n" + "".join(f"{rng.randrange(lines)} {rng.randrange(lines)}\n" for _ in range(lines))
    tracemalloc.start()
    try:
        d = load_graph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.n_edges == lines
    assert peak - kept < 50 * lines


def test_a_parsed_graph_keeps_its_edge_array_alone():
    """A parsed graph holds its int32 edge array, 8 bytes per edge, and no
    edge tuples, which take over 100 bytes per edge."""
    rng = random.Random(0)
    lines = 100_000
    text = f"n={lines}\n" + "".join(f"{rng.randrange(lines)} {rng.randrange(lines)}\n" for _ in range(lines))
    tracemalloc.start()
    try:
        d = load_graph(text)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.n_edges == lines
    assert kept < 16 * lines


@pytest.mark.parametrize("parsed", [False, True], ids=["constructed", "parsed"])
def test_copies_keep_no_caches_and_a_read_only_edge_array(parsed):
    """A copy is rebuilt from the vertex count and the edges, or the edge
    array of a parsed graph whose edges were never read, so it carries no
    kept report, forest or writeable array.  The parsed graph is analyzed on
    its array, which reads no edge tuple."""
    d = load_graph("n=4\n" + "0 1\n1 0\n" * (_ARRAY_EDGES // 2)) if parsed else Digraph(4, ((0, 1), (1, 2)))
    analyze(d), _edge_ends(d)
    if not parsed:
        _spanning_forest(d, rigid=True)
    copies = [pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)]
    for c in copies:
        assert set(c.__dict__) == ({"n_vertices", "_ends"} if parsed else {"n_vertices", "edges"})
        assert not _edge_ends(c).flags.writeable
    if not parsed:
        assert len(pickle.dumps(d)) == len(pickle.dumps(Digraph(4, ((0, 1), (1, 2)))))
    for c in copies:
        assert c == d and hash(c) == hash(d) and repr(c) == repr(d) and analyze(c) == analyze(d)


def test_edge_ids_follow_file_order():
    d = load_graph("n=3\n2 0\n0 1\n2 0\n")
    assert d.edges[0] == (2, 0) and d.edges[1] == (0, 1) and d.edges[2] == (2, 0)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (2, ((0, 1.0),), "edge 0 = (0, 1.0) is not a pair of integers"),
        (2, ((0, 1), (1, "0")), "edge 1 = (1, '0') is not a pair of integers"),
        (2, [(0, 1), (0, 1, 1)], "edge 1 = (0, 1, 1) is not a pair of integers"),
        (2.5, ((0, 1),), "n_vertices must be an integer, got 2.5"),
        ("2", (), "n_vertices must be an integer, got '2'"),
        (2, [(0, 2)], "edge 0 = (0, 2) has a vertex outside 0..1"),
        (3, ((0, 1), (-1, 2)), "edge 1 = (-1, 2) has a vertex outside 0..2"),
    ],
)
def test_non_integer_input_is_refused(n, edges, message):
    with pytest.raises(ValueError) as exc:
        Digraph(n, edges)
    assert str(exc.value) == message


def test_integer_likes_are_normalised_to_ints():
    """Bools and numpy ints become ints; a tuple of two ints is kept as it is."""
    kept = (0, 2)
    d = Digraph(np.int64(3), ((np.int64(0), np.int32(1)), (1, np.uint8(2)), (True, np.int8(2)), kept))
    assert d == Digraph(3, ((0, 1), (1, 2), (1, 2), (0, 2)))
    assert d.edges[3] is kept
    assert type(d.n_vertices) is int and {type(v) for e in d.edges for v in e} == {int}
    assert analyze(d).scc_count == 3


def test_list_edges_are_normalised_to_tuples():
    d = Digraph(3, [[0, 1], (1, 2), [2, 0]])
    assert d.edges == ((0, 1), (1, 2), (2, 0))
    assert d == Digraph(3, ((0, 1), (1, 2), (2, 0)))
    assert hash(d) == hash(Digraph(3, ((0, 1), (1, 2), (2, 0))))


def test_analyze_single_vertex():
    r = analyze(Digraph(1, ()))
    assert r.weakly_connected and r.bipartite
    assert r.scc_count == 1 and r.cross_scc_edges == 0
    assert r.scc_assignment == (0,)


def test_analyze_triangle(triangle):
    r = analyze(triangle)
    assert r.weakly_connected
    assert not r.bipartite
    assert r.scc_count == 1 and r.cross_scc_edges == 0


def test_analyze_theta(theta):
    r = analyze(theta)
    assert r.weakly_connected
    assert not r.bipartite  # vertices 0,1,2 form an undirected triangle
    assert r.scc_count == 1
    assert r.cross_scc_edges == 0


def test_analyze_single_edge(path2):
    r = analyze(path2)
    assert r.weakly_connected and r.bipartite
    assert r.scc_count == 2 and r.cross_scc_edges == 1
    assert r.scc_assignment == (0, 1)


def test_analyze_loop_not_bipartite():
    r = analyze(Digraph(1, ((0, 0),)))
    assert not r.bipartite
    assert r.scc_count == 1 and r.cross_scc_edges == 0


def test_analyze_parallel_and_antiparallel_stay_bipartite():
    assert analyze(Digraph(2, ((0, 1), (0, 1)))).bipartite
    assert analyze(Digraph(2, ((0, 1), (1, 0)))).bipartite


def test_analyze_disconnected():
    r = analyze(Digraph(3, ((0, 1),)))
    assert not r.weakly_connected
    assert r.scc_count == 3


def test_cycle4_bipartite(cycle4):
    r = analyze(cycle4)
    assert r.bipartite and r.scc_count == 1


def test_two_cycles_bridged():
    # two directed 2-cycles joined by a one-way edge: 2 SCCs, 1 cross edge
    d = Digraph(4, ((0, 1), (1, 0), (2, 3), (3, 2), (1, 2)))
    r = analyze(d)
    assert r.weakly_connected
    assert r.scc_count == 2
    assert r.cross_scc_edges == 1
    assert r.scc_assignment == (0, 0, 1, 1)


@pytest.mark.parametrize(
    "closed,permuted",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-permuted", "True-permuted"],
)
def test_analyze_deep_graphs(closed, permuted):
    """A 200,000-vertex directed path or cycle, in vertex order or with
    shuffled labels: every array search gives up at its round bound, and
    Tarjan's loop and the spanning forest, which run without recursion, go
    as deep as the graph."""
    n = 200_000
    label = list(range(n))
    if permuted:
        random.Random(n).shuffle(label)
    d = Digraph(n, tuple((label[v], label[v + 1]) for v in range(n - 1)) + (((label[-1], label[0]),) if closed else ()))
    r = analyze(d)
    assert r.weakly_connected and r.bipartite
    if closed:
        assert (r.scc_count, r.cross_scc_edges) == (1, 0)
        assert set(r.scc_assignment) == {0}
    else:
        assert (r.scc_count, r.cross_scc_edges) == (n, n - 1)
        assert r.scc_assignment == tuple(range(n))


def test_analyze_above_the_cut_disconnected_bipartite_with_isolated_vertices():
    """An even cycle, a path and isolated vertices under shuffled labels, on
    the array path."""
    rng = random.Random(3)
    label = list(range(30_000))
    rng.shuffle(label)
    cycle = [(label[v], label[(v + 1) % 6_000]) for v in range(6_000)]
    path = [(label[v], label[v + 1]) for v in range(6_000, 15_999)]
    edges = cycle + path
    rng.shuffle(edges)
    d = Digraph(30_000, tuple(edges))
    assert d.n_edges >= _ARRAY_EDGES
    r = analyze(d)
    assert (r.weakly_connected, r.bipartite) == (False, True)
    assert (r.scc_count, r.cross_scc_edges) == (1 + 24_000, 9_999)
    assert r == _networkx_report(d)


@pytest.mark.parametrize(
    "d,expected",
    [
        (Digraph(0, ()), StructureReport(True, True, 0, 0, ())),
        (Digraph(1, ()), StructureReport(True, True, 1, 0, (0,))),
        (Digraph(4, ()), StructureReport(False, True, 4, 0, (0, 1, 2, 3))),
        (Digraph(1, ((0, 0),) * 3), StructureReport(True, False, 1, 0, (0,))),
        (Digraph(3, ((2, 2), (0, 0))), StructureReport(False, False, 3, 0, (0, 1, 2))),
        (
            Digraph(9_000, tuple((v, v) for v in range(9_000))),
            StructureReport(False, False, 9_000, 0, tuple(range(9_000))),
        ),
    ],
    ids=["empty", "one-vertex", "no-edges", "one-vertex-loops", "loops", "loops-above-the-cut"],
)
def test_analyze_edgeless_and_loop_only_graphs_on_both_paths(d, expected):
    assert analyze(d) == _analyze_arrays(d) == expected


def test_both_paths_agree_on_every_small_connected_multigraph():
    graphs = list(iter_connected_multigraphs(3, 4))
    assert len(graphs) == 467
    for d in graphs:
        assert _analyze_arrays(d) == analyze(d), d


def every_small_multigraph():
    """Every multigraph with at most 4 vertices and 3 edges, connected or
    not, the zero-vertex graph included."""
    for n in range(5):
        pairs = [(u, w) for u in range(n) for w in range(n)]
        for m in range(4):
            for combo in itertools.combinations_with_replacement(pairs, m):
                yield Digraph(n, combo)


def test_both_paths_agree_on_every_small_multigraph():
    graphs = list(every_small_multigraph())
    assert len(graphs) == 1_229
    assert sum(not analyze(d).weakly_connected for d in graphs) > 0
    for d in graphs:
        assert _analyze_arrays(d) == analyze(d), d


def test_spanning_forest_contract_on_every_small_multigraph():
    """One tree per connected piece of a part, over the part's own edges and
    rooted at the piece's smallest vertex: for the whole graph a piece is a
    weak component, for the strongly connected components it is the
    component.  Every other vertex is reached exactly once, by an edge whose
    ends differ in depth parity."""
    for d in every_small_multigraph():
        g = nx.MultiDiGraph()
        g.add_nodes_from(range(d.n_vertices))
        g.add_edges_from(d.edges)
        for rigid, pieces in (
            (False, nx.weakly_connected_components(g)),
            (True, nx.strongly_connected_components(g)),
        ):
            ids = analyze(d).scc_assignment if rigid else (0,) * d.n_vertices
            tree, odd = _spanning_forest(d, rigid)
            assert len(odd) == d.n_vertices
            reached = [w for _, _, w, _ in tree]
            assert len(set(reached)) == len(reached)
            roots = sorted(set(range(d.n_vertices)) - set(reached))
            assert roots == sorted(map(min, pieces)), (d, rigid)
            assert not any(odd[r] for r in roots)
            seen = set(roots)
            for e, u, w, backwards in tree:
                assert d.edges[e] == ((w, u) if backwards else (u, w))
                assert ids[u] == ids[w]
                assert u in seen  # u was reached before w
                seen.add(w)
                assert odd[w] != odd[u]


@st.composite
def small_digraphs(draw, max_vertices=4, max_edges=6):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    edges = tuple(
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    )
    return Digraph(n, edges)


@given(small_digraphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_analyze_independent_of_edge_order(d, rng):
    shuffled = list(d.edges)
    rng.shuffle(shuffled)
    assert analyze(Digraph(d.n_vertices, tuple(shuffled))) == analyze(d)


@given(small_digraphs())
@settings(max_examples=100, deadline=None)
def test_condensation_is_acyclic(d):
    comp = analyze(d).scc_assignment
    # Kahn's algorithm on the condensation must consume every component.
    comps = sorted(set(comp))
    succ = {c: set() for c in comps}
    indeg = {c: 0 for c in comps}
    for u, w in d.edges:
        if comp[u] != comp[w] and comp[w] not in succ[comp[u]]:
            succ[comp[u]].add(comp[w])
            indeg[comp[w]] += 1
    ready = [c for c in comps if indeg[c] == 0]
    seen = 0
    while ready:
        c = ready.pop()
        seen += 1
        for w in succ[c]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    assert seen == len(comps)


@given(small_digraphs())
@settings(max_examples=100, deadline=None)
def test_scc_assignment_normalized(d):
    comp = analyze(d).scc_assignment
    seen = []
    for c in comp:
        if c not in seen:
            seen.append(c)
    assert seen == list(range(len(seen)))


def _networkx_report(d: Digraph) -> StructureReport:
    """The StructureReport of a graph with at least one vertex, from
    networkx, with component ids numbered by first appearance."""
    undirected, directed = nx.MultiGraph(), nx.MultiDiGraph()
    for g in (undirected, directed):
        g.add_nodes_from(range(d.n_vertices))
        g.add_edges_from(d.edges)
    sccs = list(nx.strongly_connected_components(directed))
    comp_of = {v: i for i, scc in enumerate(sccs) for v in scc}
    first = {}
    return StructureReport(
        weakly_connected=nx.is_connected(undirected),
        bipartite=all(u != w for u, w in d.edges) and nx.is_bipartite(undirected),
        scc_count=len(sccs),
        cross_scc_edges=sum(comp_of[u] != comp_of[w] for u, w in d.edges),
        scc_assignment=tuple(first.setdefault(comp_of[v], len(first)) for v in range(d.n_vertices)),
    )


@given(small_digraphs(max_vertices=40, max_edges=60))
@settings(max_examples=200, deadline=None)
def test_analyze_matches_networkx(d):
    expected = _networkx_report(d)
    assert analyze(d) == expected
    assert _analyze_arrays(d) == expected


# ------------------------------------ array strongly connected components


def _relabeled(n: int, edges, rng: random.Random) -> Digraph:
    label = list(range(n))
    rng.shuffle(label)
    return Digraph(n, tuple((label[u], label[w]) for u, w in edges))


def _bench_style_graph(seed: int, n: int = 50_000, m: int = 100_000) -> Digraph:
    """Built as the ``large-graph`` benchmark builds its graph: a random
    spanning tree with random orientations, then uniform extra edges (loops
    and parallel edges allowed), under a random relabeling."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(m - len(edges))]
    return _relabeled(n, edges, rng)


def _random_multigraph(seed: int) -> Digraph:
    """A bench-style graph of 8,192 to 20,000 edges with extra loops and
    parallel edges."""
    rng = random.Random(seed)
    m = rng.randrange(_ARRAY_EDGES, 18_000)
    edges = list(_bench_style_graph(seed, m // 2, m).edges)
    edges += rng.sample(edges, 1_000) + [(v, v) for v in rng.sample(range(m // 2), 500)]
    rng.shuffle(edges)
    return Digraph(m // 2, tuple(edges))


def _chain(n: int, cycle: int, rng: random.Random) -> Digraph:
    """Directed cycles of ``cycle`` vertices (a path when ``cycle`` is 1),
    each joined to the next by one edge, under shuffled labels."""
    n -= n % cycle
    edges = [(v, v - v % cycle + (v + 1) % cycle) for v in range(n)] if cycle > 1 else []
    edges += [(v, v + 1) for v in range(cycle - 1, n - 1, cycle)]
    return _relabeled(n, edges, rng)


def _giant_with_trees(rng: random.Random) -> Digraph:
    """One strongly connected core (a cycle with chords), in-trees that run
    into it and out-trees that hang off it, triangles with an edge into it or
    out of it, which trimming leaves to the other steps, and isolated
    vertices."""
    core, n = 3_000, 12_000
    edges = [(v, (v + 1) % core) for v in range(core)]
    edges += [(rng.randrange(core), rng.randrange(core)) for _ in range(2_000)]
    for v in range(core, 7_000):  # into the core, or into an earlier in-tree vertex
        edges.append((v, rng.randrange(v)))
    for v in range(7_000, 11_000):  # out of the core, or of an earlier out-tree vertex
        edges.append((rng.randrange(core) if v == 7_000 or rng.random() < 0.5 else rng.randrange(7_000, v), v))
    for v in range(11_000, 11_600, 3):
        edges += [(v, v + 1), (v + 1, v + 2), (v + 2, v)]
        edges.append((v, rng.randrange(core)) if v < 11_300 else (rng.randrange(core), v))
    return _relabeled(n, edges, rng)


def _disjoint_cycles(rng: random.Random) -> Digraph:
    """Directed cycles of 2 to 40 vertices, no edge between them."""
    edges, v = [], 0
    while len(edges) < 10_000:
        k = rng.randrange(2, 41)
        edges += [(v + i, v + (i + 1) % k) for i in range(k)]
        v += k
    return _relabeled(v, edges, rng)


def _array_families():
    rng = random.Random(25)
    for seed in range(3):
        yield pytest.param(_random_multigraph(seed), id=f"random-{seed}")
    yield pytest.param(_chain(12_000, 1, rng), id="path")
    yield pytest.param(_chain(12_000, 2, rng), id="2-cycle-chain")
    yield pytest.param(_chain(12_000, 3, rng), id="triangle-chain")
    yield pytest.param(_giant_with_trees(rng), id="giant-with-trees")
    yield pytest.param(_disjoint_cycles(rng), id="disjoint-cycles")
    yield pytest.param(_relabeled(10_000, [(v, v) for v in range(9_000)] * 2, rng), id="loops-only")
    yield pytest.param(_relabeled(30_000, [(v, (v + 1) % 9_000) for v in range(9_000)], rng), id="cycle-and-isolated")


@pytest.mark.parametrize("d", _array_families())
def test_array_components_match_networkx(d):
    """Families that end in each of the three steps of ``_strong_arrays``:
    trimming, the forward-backward search and Tarjan's loop."""
    assert d.n_edges >= _ARRAY_EDGES
    assert _analyze_arrays(d) == _networkx_report(d)


@pytest.fixture
def tarjan_sizes(monkeypatch):
    """The vertex counts that ``_strong_components`` is called on."""
    sizes = []
    tarjan = digraph._strong_components
    monkeypatch.setattr(digraph, "_strong_components", lambda succ: sizes.append(len(succ)) or tarjan(succ))
    return sizes


def test_bench_style_and_kept_graphs_need_no_tarjan(tarjan_sizes):
    """Trimming and one forward-backward search settle every component: the
    random graph's giant component is found in about 30 rounds each way, and
    the kept graph's 101-cycle in 100."""
    for d in (_bench_style_graph(0), kept_graph("large")):
        report = _analyze_arrays(d)
        assert report.scc_count < d.n_vertices
        assert tarjan_sizes == []


def test_bench_style_and_kept_graphs_need_no_forest():
    """The weak search from vertex 0 reaches every vertex within its round
    bound, so the depths it finds give bipartiteness and no spanning forest
    is built."""
    for d in (_bench_style_graph(0), kept_graph("large")):
        assert _analyze_arrays(d).weakly_connected
        assert "_forest" not in d.__dict__


def _tree_and(extra: str) -> Digraph:
    """A random tree of 10,000 vertices, each hung off a smaller one, under
    random orientations, and a loop or a chord that closes a triangle."""
    rng = random.Random(32)
    n = 10_000
    parent = [0] + [rng.randrange(v) for v in range(1, n)]
    edges = [(parent[v], v) if rng.random() < 0.5 else (v, parent[v]) for v in range(1, n)]
    v = n - 1
    edges += {"tree": [], "loop": [(v, v)], "triangle": [(parent[parent[v]], v)]}[extra]
    return Digraph(n, tuple(edges))


@pytest.mark.parametrize("extra", ["tree", "loop", "triangle"])
def test_the_weak_search_reads_bipartiteness_off_its_depths(extra):
    """A shallow connected graph above the cut is bipartite exactly when it
    has no loop and no edge joins two depths of one parity."""
    d = _tree_and(extra)
    assert d.n_edges >= _ARRAY_EDGES
    report = _analyze_arrays(d)
    assert "_forest" not in d.__dict__
    assert report.bipartite == (extra == "tree")
    assert report == _networkx_report(d)


@pytest.mark.parametrize("extra", ["loop", "triangle"])
def test_deep_graphs_take_their_weak_facts_from_the_forest(extra):
    """A 200,000-vertex path with a loop at its end, or beside a triangle:
    the weak search gives up at its round bound, and the forest that the
    Python path reads gives connectivity and bipartiteness."""
    n = 200_000
    path = tuple((v, v + 1) for v in range(n - 1))
    if extra == "loop":
        d = Digraph(n, path + ((n - 1, n - 1),))
    else:
        d = Digraph(n + 3, path + ((n, n + 1), (n + 1, n + 2), (n + 2, n)))
    assert _analyze_arrays(d) == _networkx_report(d)
    assert "_forest" in d.__dict__


def test_zero_vertices_above_the_cut_take_the_forest(monkeypatch):
    """With no vertex the weak search has no start: the forest answers."""
    monkeypatch.setattr(digraph, "_ARRAY_EDGES", 0)
    d = Digraph(0, ())
    assert analyze(d) == StructureReport(True, True, 0, 0, ())
    assert "_forest" in d.__dict__


def test_a_deep_parsed_graph_is_analyzed_without_its_edge_tuples():
    """The forest and the bipartiteness check read a parsed graph's edge
    array, as the rest of the array path does."""
    n = 200_000
    d = load_graph("".join(f"{v} {v + 1}\n" for v in range(n - 1)) + f"{n - 1} {n - 1}\n")
    report = analyze(d)
    assert (report.weakly_connected, report.bipartite, report.scc_count, report.cross_scc_edges) == (True, False, n, n - 1)
    assert "_forest" in d.__dict__ and "edges" not in d.__dict__


def test_a_long_path_falls_back_to_tarjan(tarjan_sizes):
    """Each round trims only the two ends of a path, and the forward search
    gains one vertex a round, so both give up and Tarjan's loop gets the rest."""
    n = 200_000
    d = Digraph(n, tuple((v, v + 1) for v in range(n - 1)))
    assert _analyze_arrays(d) == StructureReport(True, True, n, n - 1, tuple(range(n)))
    assert tarjan_sizes == [n - 2 * digraph._TRIM_ROUNDS]


def test_iter_connected_multigraphs_small():
    graphs = list(iter_connected_multigraphs(1, 4))
    # one vertex with 0..4 loops on it
    assert len(graphs) == 5
    assert all(g.n_vertices == 1 for g in graphs)

    graphs = list(iter_connected_multigraphs(2, 2))
    assert all(analyze(g).weakly_connected for g in graphs)
    assert len(set(graphs)) == len(graphs)
    # n=1: 0..2 loops (3); n=2: one non-loop edge (2), plus size-2 multisets
    # containing at least one non-loop edge (C(4+1,2)=10 total minus {00,00},
    # {00,11}, {11,11} = 7): 12 graphs in all
    assert len(graphs) == 12


def test_generated_graphs_are_the_public_ones():
    for d in iter_connected_multigraphs(3, 3):
        _assert_is_the_public_graph(d)


def test_iter_connected_multigraphs_counts_against_filter():
    # agree with a direct product-space filter for n=2, m<=2
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    expect = set()
    for m in range(3):
        for combo in itertools.combinations_with_replacement(pairs, m):
            d = Digraph(2, combo)
            if analyze(d).weakly_connected:
                expect.add(d)
    got = {g for g in iter_connected_multigraphs(2, 2) if g.n_vertices == 2}
    assert got == expect
