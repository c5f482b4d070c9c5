"""Tests of the benchmark's own arithmetic and checks (not of bgains).

    python3 -m pytest bench/tests -q
"""

import time

import pytest

import checks
import pace
import run
import tracing


def span(id, name, active, parent=None, **extra):
    return {"id": id, "name": name, "site": name, "start": 0.0, "end": active,
            "parent": parent, "op": 0, "active": active, **extra}


def hand_built_tree():
    # cli.main 10s
    # +- groups.make_group 1s
    # +- enumeration.enumerate 6s (generator: active time inside next)
    #    +- digraph.analyze 0.5s
    #    +- digraph.analyze 0.25s
    # cli.main 2s (no children)
    return [
        span(0, "cli.main", 10.0, exit=0),
        span(1, "groups.make_group", 1.0, parent=0),
        span(2, "enumeration.enumerate", 6.0, parent=0, items=100),
        span(3, "digraph.analyze", 0.5, parent=2, edges=5),
        span(4, "digraph.analyze", 0.25, parent=2, edges=5),
        span(5, "cli.main", 2.0, exit=1),
    ]


def test_self_time_is_active_time_minus_direct_children():
    selfs = tracing.self_times(hand_built_tree())
    assert selfs == {0: 3.0, 1: 1.0, 2: 5.25, 3: 0.5, 4: 0.25, 5: 2.0}


def test_layer_metrics_on_hand_built_tree():
    m = tracing.layer_metrics(hand_built_tree(), bytes_out=123)
    assert m["cli.main_s"] == 12.0
    assert m["cli.self_s"] == 5.0
    assert m["cli.nonzero_exits"] == 1
    assert m["cli.bytes_out"] == 123
    assert m["enumeration.labelings"] == 100
    assert m["enumeration.labelings_per_s"] == 100 / 6.0
    assert m["enumeration.analyze_per_labeling"] == 2 / 100
    assert m["digraph.analyze_calls"] == 2
    assert m["digraph.analyze_edges_per_s"] == 10 / 0.75
    assert m["balance.oracle_s"] == 0


def test_tracer_records_nesting_and_generator_items():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    traced_inner = tracer.wrap_call("digraph.analyze", "enumeration.analyze", lambda d: inner())

    class D:
        n_edges = 3

    def stream():
        for _ in range(2):
            yield traced_inner(D())

    gen = tracer.wrap_generator("enumeration.enumerate", "cli.enumerate_all", stream)
    assert list(gen()) == [7, 7]
    outer, a, b = tracer.spans
    assert outer["items"] == 2 and outer["parent"] is None
    assert a["parent"] == b["parent"] == outer["id"]
    assert a["edges"] == 3
    assert tracer.stack == []
    assert tracing.missing_sites("enumerate-stream", tracer.spans) == [
        "cli.main", "cli.make_group", "cli.load_graph",
    ]


def test_wall_is_rescaled_to_reference_speed():
    passes = [{"records": [{"seconds": 3.0}, {"seconds": 1.0}], "slowdown": 2.0},
              {"records": [{"seconds": 2.0}, {"seconds": 1.0}], "slowdown": 1.5},
              {"records": [{"seconds": 1.0}, {"seconds": 0.5}], "slowdown": 0.5}]
    assert [run.reference_wall(p) for p in passes] == [2.0, 2.0, 3.0]
    assert run.median_wall(passes) == 2.0
    assert run.reference_setup({"setup_s": 0.3, "setup_slowdown": 1.5}) == pytest.approx(0.2)


def test_each_stretch_between_samples_is_divided_by_its_slowdown():
    ref = pace.REFERENCE_KERNEL_S
    # slowdown 2 for the first second, 4 for the next; one preempted sample
    samples = [(k / 10, (2 if k < 10 else 4) * ref) for k in range(20)]
    samples[5] = (0.5, 100 * ref)
    assert pace.reference_seconds(samples, 0.0, 2.0) == pytest.approx(1.0 / 2 + 1.0 / 4)
    assert pace.slowdown(samples, 0.0, 2.0) == pytest.approx(2.0 / 0.75)
    assert pace.slowdown(samples, 5.0, 6.0) == pytest.approx(4.0)  # none inside: the one before
    probe = pace.SpeedProbe(period=0.001).start()
    time.sleep(0.05)
    probe.stop()
    assert probe.samples and all(s > 0 for _, s in probe.samples)


def test_p99_only_with_ten_samples_beyond_it():
    assert run.tail_p99([1.0] * 999) is None
    samples = [float(i) for i in range(1, 1001)]
    assert run.tail_p99(samples) == 990.0  # 10 samples lie beyond it
    assert run.percentile(samples, 50) == 500.0
    assert run.tail_p99([float(i) for i in range(1, 1869)]) == 1850.0


def test_corrupted_reference_digest_is_a_failed_op():
    reference = checks.load_reference()
    name = "theta-s3-full-rigid"
    good = reference["digests"]["enumerate-stream"][name]
    reference["digests"]["enumerate-stream"][name] = "0" * len(good)
    record = {"op": name, "exit": 0, "stderr": "", "lines": 279_936, "sha256": good, "kept": {},
              "seconds": 1.0}
    passes = [{"records": [record], "peak_rss_mb": 1.0, "slowdown": 1.0}]
    v = checks.Verdicts()
    checks.check_enumerate_stream(None, reference["seed"], passes, reference, v)
    assert (v.attempted, v.failed) == (1, 1)
    assert not v.correct
    assert "reference" in v.unexpected[0]
    metrics = run.end_to_end("enumerate-stream", passes, [0.1], v)
    assert 1 - metrics["success_rate"] > 0  # the error rate shows it


def test_other_seeds_need_byte_identical_passes():
    assert checks._digest_problem(None, 1, "a" * 64, "a" * 64) is None
    problem = checks._digest_problem(None, 1, "b" * 64, "a" * 64)
    assert problem is not None and "pass 0" in problem
    reference = checks.load_reference()
    assert checks._seed_digests("enumerate-stream", reference["seed"] + 1, reference) == {}


def test_expected_failure_counts_as_failed_but_keeps_run_correct():
    reference = checks.load_reference()
    expected = reference["expected_failures"]["large-graph"]["count-edges-flexible"]
    v = checks.Verdicts()
    v.add("count-edges-flexible", f"exit 1: error: {expected}; use sys.set_int_max_str_digits()", expected)
    v.add("sample-edges-flexible", None)
    assert (v.attempted, v.failed) == (2, 1)
    assert v.correct
    v.add("count-edges-rigid", "exit 1: error: something else", expected)
    assert not v.correct


def test_grid_count_mismatch_against_reference_is_a_failed_op():
    reference = checks.load_reference()
    counts = reference["grid_counts"]
    records = [{"op": str(k), "formula": c, "oracle": c, "error": None, "seconds": 0.001}
               for k, c in enumerate(counts)]
    reference["grid_counts"] = [counts[0] + 1] + counts[1:]
    v = checks.Verdicts()
    checks.check_verify_grid(None, 0, [{"records": records}], reference, v)
    assert v.attempted == len(counts) and v.failed == 1
