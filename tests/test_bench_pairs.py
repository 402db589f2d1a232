"""`tools/bench_pairs.py` aggregates alternating benchmark runs; here on canned results."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    # as a script, the tool finds its sibling src_lines.py on its own directory
    sys.path.insert(0, str(TOOL.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOL.parent))
        sys.dont_write_bytecode = dont_write
    return module


def result(dynamic, rss=50.0, failed=0, correct=True):
    """A result line's object as `perfbench/run.py --trace 0` prints it."""
    return {
        "correct": correct,
        "attempted": 15,
        "failed": failed,
        "metrics": {
            "solve_s.dynamic": {"value": dynamic, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def test_summary_gives_parent_quartiles_change_median_and_wins(bench_pairs):
    parent = [0.4, 0.1, 0.3, 0.2]
    change = [0.3, 0.2, 0.1, 0.15]
    pairs = [(result(p), result(c, rss=49.0 + i)) for i, (p, c) in enumerate(zip(parent, change))]
    lines = bench_pairs.summarize(pairs)
    # exclusive quartiles of 0.1-0.4: 0.125, 0.25, 0.375; change median 0.175
    assert lines[0] == "solve_s.dynamic  0.25 [0.125, 0.375] -> 0.175 (-30.0%, lower in 3 of 4)"
    assert lines[1] == "peak_rss_mb      50 [50, 50] -> 50.5 (+1.0%, lower in 1 of 4)"


def test_single_pair_has_its_value_as_quartiles(bench_pairs):
    lines = bench_pairs.summarize([(result(0.2), result(0.1))])
    assert lines[0].startswith("solve_s.dynamic  0.2 [0.2, 0.2] -> 0.1 (-50.0%, lower in 1 of 1)")


def test_faults_name_failed_incorrect_and_broken_runs(bench_pairs):
    runs = [
        ("parent seed 1", result(0.2)),
        ("change seed 1", result(0.2, failed=2)),
        ("parent seed 2", result(0.2, correct=False)),
        ("change seed 2", {"error": "exit 1: boom"}),
    ]
    assert bench_pairs.faults(runs) == [
        "change seed 1: 2 of 15 solves failed, correct=True",
        "parent seed 2: 0 of 15 solves failed, correct=False",
        "change seed 2: exit 1: boom",
    ]


def test_main_alternates_order_and_exits_on_a_fault(bench_pairs, monkeypatch, capsys):
    calls = []
    canned = {("p", 7): result(0.3), ("c", 7): result(0.2),
              ("p", 8): result(0.4), ("c", 8): result(0.1)}

    def fake_run(tree, workload, seed, seconds):
        calls.append((str(tree), seed))
        assert workload == "desk" and seconds == 5.0
        return canned[str(tree), seed]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["p", "c", "--workload", "desk", "--pairs", "2", "--seconds", "5", "--seed-start", "7"]
    assert bench_pairs.main(argv) == 0
    assert calls == [("p", 7), ("c", 7), ("c", 8), ("p", 8)]
    out = capsys.readouterr().out
    assert "solve_s.dynamic  0.35 [0.275, 0.425] -> 0.15 (-57.1%, lower in 2 of 2)" in out
    assert "FAULT" not in out

    canned["c", 8] = result(0.1, failed=1)
    assert bench_pairs.main(argv) == 1
    assert "FAULT change seed 8: 1 of 15 solves failed" in capsys.readouterr().out


@pytest.mark.parametrize("stdout", ["", "  \n", "progress\nnot json\n"])
def test_run_without_a_result_line_is_a_fault(bench_pairs, monkeypatch, stdout):
    def fake_subprocess_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    got = bench_pairs.run_once(Path("tree"), "desk", 1, 5.0)
    assert set(got) == {"error"} and got["error"].startswith("exit 0 without a result line")
    assert bench_pairs.faults([("parent seed 1", got)]) == [f"parent seed 1: {got['error']}"]


def test_run_with_a_result_line_returns_it(bench_pairs, monkeypatch):
    line = '{"correct": true, "attempted": 15, "failed": 0, "metrics": {}}'

    def fake_subprocess_run(cmd, **kwargs):
        assert cmd[1:3] == ["perfbench/run.py", "--workload"] and kwargs["cwd"] == Path("tree")
        return subprocess.CompletedProcess(cmd, 0, stdout="progress\n" + line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.run_once(Path("tree"), "desk", 1, 5.0)["attempted"] == 15


def test_table_ends_with_both_trees_src_totals(bench_pairs, tmp_path, monkeypatch, capsys):
    # each tree's src/ holds two files; a docstring, a comment and a blank
    # line count as lines but not as code lines
    texts = {
        "parent": ['"""Doc."""\n\nx = 1\n', "# note\ny = [\n    2,\n]\n"],
        "change": ['"""Doc."""\nx = 1\n', "y = [2]\n"],
    }
    for side, files in texts.items():
        pkg = tmp_path / side / "src" / "pkg"
        pkg.mkdir(parents=True)
        for i, text in enumerate(files):
            (pkg / f"m{i}.py").write_text(text)
        (tmp_path / side / "tools.py").write_text("outside = src\n")
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert bench_pairs.src_totals(parent) == [7, 4]
    assert bench_pairs.src_totals(change) == [3, 2]
    assert bench_pairs.src_rows(parent, change) == [
        "src/ lines       7 -> 3 (-4)",
        "src/ code lines  4 -> 2 (-2)",
    ]

    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, *args: result(0.2))
    argv = [str(parent), str(change), "--workload", "desk", "--pairs", "1", "--seconds", "5",
            "--seed-start", "1"]
    assert bench_pairs.main(argv) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[-2:] == ["src/ lines       7 -> 3 (-4)", "src/ code lines  4 -> 2 (-2)"]


RATIOS_OUT = """algos seed=5: 3 passes, 36 solves, 0 failed; per ratio and configuration, medians over passes
ratio algorithm/strategy/test          ms  time ratio  flop ratio
 0.75 twist/none/-                  80.00       1.000       1.000
 0.75 twist/dynamic/dst3            20.50       0.256       0.127
"""


def test_ratio_rows_are_parsed_from_the_report(bench_pairs, monkeypatch):
    def fake_subprocess_run(cmd, **kwargs):
        assert cmd[1:4] == ["perfbench/report.py", "ratios", "--workload"]
        return subprocess.CompletedProcess(cmd, 0, stdout=RATIOS_OUT, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.run_ratios(Path("tree"), "algos", 5, 5.0) == [
        {"ratio": 0.75, "config": "twist/none/-", "ms": 80.0, "time_ratio": 1.0, "flop_ratio": 1.0},
        {"ratio": 0.75, "config": "twist/dynamic/dst3", "ms": 20.5, "time_ratio": 0.256,
         "flop_ratio": 0.127},
    ]


def test_json_record_has_a_fixed_schema_and_key_order(bench_pairs, tmp_path, monkeypatch):
    rows = [{"ratio": 0.75, "config": "twist/none/-", "ms": 80.0, "time_ratio": 1.0,
             "flop_ratio": 1.0}]
    runs = {("p", 5): result(0.4, rss=50.0), ("c", 5): result(0.3, rss=51.0),
            ("p", 6): result(0.2, rss=50.0), ("c", 6): result(0.1, rss=49.0)}
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, w, seed, s: runs[str(tree), seed])
    monkeypatch.setattr(bench_pairs, "run_ratios", lambda tree, w, seed, s: rows)
    monkeypatch.setattr(bench_pairs, "src_totals", lambda tree: [10, 7] if str(tree) == "p" else [12, 8])
    monkeypatch.setattr(bench_pairs, "git_head", lambda tree: f"{tree}-head")
    monkeypatch.setattr(bench_pairs, "machine", lambda: {"cpu": "x", "cores": 2})
    out = tmp_path / "BENCH.json"
    # a workload recorded earlier stays, and the workloads are sorted by name
    out.write_text(json.dumps({"workloads": {"group": {"pairs": 1}}}))
    argv = ["p", "c", "--workload", "desk", "--pairs", "2", "--seconds", "5", "--seed-start", "5",
            "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    text = out.read_text()
    bench = json.loads(text)
    assert list(bench) == ["schema", "heads", "src", "machine", "workloads"]
    assert bench["heads"] == {"parent": "p-head", "change": "c-head"}
    assert bench["src"] == {"parent": {"lines": 10, "code_lines": 7},
                            "change": {"lines": 12, "code_lines": 8}}
    assert list(bench["workloads"]) == ["desk", "group"]
    desk = bench["workloads"]["desk"]
    assert list(desk) == ["pairs", "seconds", "seeds", "metrics", "ratios"]
    assert (desk["pairs"], desk["seconds"], desk["seeds"]) == (2, 5.0, [5, 6])
    assert list(desk["metrics"]) == ["solve_s.dynamic", "peak_rss_mb"]
    # quartiles of 0.2 and 0.4 with two values: 0.15, 0.3, 0.45
    dynamic = desk["metrics"]["solve_s.dynamic"]
    assert list(dynamic) == ["unit", "parent_median", "parent_q1", "parent_q3", "change_median",
                             "change_lower_in"]
    assert dynamic["unit"] == "s" and dynamic["change_lower_in"] == 2
    assert dynamic["parent_median"] == pytest.approx(0.3)
    assert dynamic["change_median"] == pytest.approx(0.2)
    assert desk["metrics"]["peak_rss_mb"]["change_lower_in"] == 1
    assert desk["ratios"] == {"parent": rows, "change": rows}
    # one metric and one ratio row per line, so that two files diff line by line
    lines = text.splitlines()
    assert sum('"solve_s.dynamic": {"unit": "s"' in line for line in lines) == 1
    assert sum(line.strip().startswith('{"ratio": 0.75') for line in lines) == 2
    # writing the same record again gives the same bytes
    assert bench_pairs.main(argv) == 0
    assert out.read_text() == text
