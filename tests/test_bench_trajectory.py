"""scripts/bench_trajectory.py prints the BENCH records oldest commit first."""

import importlib.util
import json
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_trajectory", Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def _git(repo, *args):
    cmd = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args]
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()


def _record(commit, wall_s, traced=None):
    record = {
        "commit": commit,
        "workloads": {"large-graph": {"wall_s": {"median": wall_s, "q1": 0, "q3": 0, "unit": "s"}, "correct": True}},
    }
    if traced is not None:
        record["traced"] = {"large-graph": {"metrics": {"digraph.analyze_s": {"value": traced, "unit": "s"}}}}
    return record


def test_records_print_oldest_commit_first_and_strays_last(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    shas = []
    for k in range(2):
        (repo / "f.txt").write_text(str(k))
        _git(repo, "add", "f.txt")
        _git(repo, "commit", "-q", "-m", f"commit {k}")
        shas.append(_git(repo, "rev-parse", "HEAD"))
    stray = "f" * 40
    # Written newest first, and the stray sorts first by name, so that
    # neither file order nor name order gives the expected output.
    records = [(shas[1], 1.5, 0.75), (shas[0], 2.25, None), (stray, 9.0, 0.5)]
    for sha, wall_s, traced in records:
        (repo / f"BENCH_{sha[:7]}.json").write_text(json.dumps(_record(sha, wall_s, traced)))
    (repo / "BENCH_0000000.json").write_text("not committed, so not read")
    _git(repo, "add", *(f"BENCH_{sha[:7]}.json" for sha, _, _ in records))
    _git(repo, "commit", "-q", "-m", "records")

    assert bench_trajectory.main(["--repo", str(repo)]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in out[out.index("== large-graph: end-to-end medians ==") + 2 :][:3]]
    assert rows == [
        [shas[0][:7], "2.25", "true"],
        [shas[1][:7], "1.5", "true"],
        ["fffffff*", "9", "true"],
    ]
    traced = out[out.index("== large-graph: traced per-layer metrics ==") + 1 :]
    assert traced[0].split() == ["metric", shas[1][:7], "fffffff*"]
    assert traced[1].split() == ["digraph.analyze_s", "0.75", "0.5"]
    assert out[-1] == "* commit not in the history of HEAD; listed last"
