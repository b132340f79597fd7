"""Smoke test of ``tools/bench_matrix.py`` on one tiny row."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gp2 import bench, corpus, textio

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("nodes", "edges", "outcome", "candidates", "iter_steps",
          "frames_opened", "frames_committed", "frames_undone", "journal_entries")
TIMES = ("parse_host_ms", "build_ms", "run_ms", "print_ms", "e2e_ms")
RELS = ("parse_host_rel", "build_rel", "run_rel", "print_rel", "e2e_rel")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_matrix",
                                                  ROOT / "tools" / "bench_matrix.py")
    bench_matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_matrix)
    return bench_matrix


def test_one_row_on_two_sides_has_every_field_and_the_same_counts(tmp_path):
    out, src = tmp_path / "bench.json", ROOT / "src"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_matrix.py"), "-o", str(out),
                    "--only", "gen_tree", "[ (0 (R), 4) | ]", f"one={src}", f"two={src}"],
                   check=True, capture_output=True)
    result = json.loads(out.read_text())
    modules = {path.stem: len(path.read_text().splitlines())
               for path in (src / "gp2").glob("*.py")}
    meta = result["meta"]
    assert list(meta) == ["sides", "processes", "repeats", "cli_repeats", "python", "machine",
                          "cpus"]
    assert (meta["processes"], meta["repeats"], meta["cli_repeats"]) == (3, 1, 2)
    for side in meta["sides"].values():
        assert list(side) == ["src", "commit", "gp2_lines", "gp2_module_lines"]
        assert side["gp2_module_lines"] == modules
        assert side["gp2_lines"] == sum(modules.values())
    rows = result["rows"]
    # the sides alternate, and so does which one goes first
    assert [(row["side"], row["backend"]) for row in rows] == [
        ("one", "chain"), ("two", "chain"), ("two", "index_scan"), ("one", "index_scan")]
    for row in rows:
        assert list(row) == ["side", "commit", "program", "host", "backend", "mode",
                             *COUNTS, *TIMES, *RELS, "reference_ms", "peak_rss_mb"]
        assert (row["program"], row["host"], row["mode"]) == (
            "gen_tree", "[ (0 (R), 4) | ]", "preserve")
        assert all(row[key] > 0 for key in (*TIMES, *RELS, "reference_ms"))
        # a fresh interpreter that imports gp2 and runs one tiny row
        assert 5 < row["peak_rss_mb"] < 200
        # each time over the reference pass around it, so about the ratio of the medians
        for ms, rel in zip(TIMES, RELS):
            assert 0.5 < row[rel] * row["reference_ms"] / row[ms] < 2, (ms, row)
        # one frame per expansion of the root cursor; the last one is
        # undone; each journals gen!'s and ret's writes, not step!'s
        assert [row[key] for key in COUNTS] == [1, 0, "success", 341, 0, 23, 22, 1, 119]


def test_a_side_is_the_median_of_all_its_samples_and_its_counts_must_agree():
    bench_matrix = load_tool()
    counts = dict(zip(COUNTS, [1, 0, "success", 341, 0, 23, 22, 1, 119]))
    samples = [{"program": "p", **counts, **{key: [t] for key in TIMES},
                **{key: [t * 10] for key in RELS}, "reference_ms": [t * 1e5, 150.0],
                "peak_rss_mb": [t * 1e4]}
               for t in (0.001, 0.005, 0.002)]
    samples[1]["run_ms"] = [0.003, 0.004]
    samples[1]["run_rel"] = [0.03, 0.04]
    row = bench_matrix.merge(samples)
    assert row == {"program": "p", **counts, "parse_host_ms": 2.0, "build_ms": 2.0,
                   "run_ms": 2.5, "print_ms": 2.0, "e2e_ms": 2.0, "parse_host_rel": 0.02,
                   "build_rel": 0.02, "run_rel": 0.025, "print_rel": 0.02, "e2e_rel": 0.02,
                   "reference_ms": 150.0, "peak_rss_mb": 20.0}
    samples[2]["frames_undone"] = 2
    with pytest.raises(SystemExit, match="counts differ"):
        bench_matrix.merge(samples)


def test_a_failed_recognition_is_a_fail_row_and_the_cli_must_exit_with_its_code(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    bench_matrix = load_tool()
    row = bench_matrix.measure("is_tree", "grid:3x3", "chain", "preserve")
    assert (row["outcome"], len(row["e2e_ms"]), len(row["e2e_rel"])) == ("fail", 2, 2)
    # one pass before and one after the run's layers, and one before the
    # first CLI run and one after each
    assert len(row["run_rel"]) == 1 and len(row["reference_ms"]) == 5
    assert len(row["peak_rss_mb"]) == 1         # one probe, after the CLI runs
    cell = {key: row[key] for key in ("program", "host", "backend", "mode")}
    host_text = textio.print_graph(bench.generate(bench.parse_spec("grid:3x3")))
    with pytest.raises(SystemExit, match=r"^the CLI exited 2, not 0 for 'success', on "
                                         r"\{'program': 'is_tree', 'host': 'grid:3x3'"):
        bench_matrix._cli_times(cell, corpus.load_program("is_tree"), host_text, "success")


CELL = {"program": "p", "host": "discrete:1", "backend": "chain", "mode": "preserve"}


def test_a_cli_run_that_exits_with_the_outcome_s_code_is_timed(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    bench_matrix = load_tool()
    calls = []
    times = bench_matrix._cli_times(CELL, "Main = skip", "[ (0, empty) | ]", "success",
                                    lambda: calls.append(1))
    assert len(times) == len(calls) == bench_matrix.CLI_REPEATS and all(t > 0 for t in times)


@pytest.mark.parametrize("program, outcome, code", [
    ("Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]", "fail", 0),
    ("Main = ", "success", 1),
], ids=["fail-exits-0", "syntax-error-exits-1"])
def test_a_cli_exit_code_that_is_not_the_outcome_s_stops_the_matrix(monkeypatch, program,
                                                                     outcome, code):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    bench_matrix = load_tool()
    expected = bench_matrix.EXIT_CODES[outcome]
    message = rf"^the CLI exited {code}, not {expected} for '{outcome}', on \{{'program': 'p'"
    with pytest.raises(SystemExit, match=message):
        bench_matrix._cli_times(CELL, program, "[ (0, empty) | ]", outcome)
    with pytest.raises(SystemExit, match=message):
        bench_matrix._probe_rss_mb(CELL, ROOT / "src", program, "[ (0, empty) | ]", outcome)
