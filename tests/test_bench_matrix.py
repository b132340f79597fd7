"""Smoke test of ``tools/bench_matrix.py`` on one tiny row."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("nodes", "edges", "outcome", "candidates", "iter_steps",
          "frames_opened", "frames_committed", "frames_undone")
TIMES = ("parse_host_ms", "build_ms", "run_ms", "print_ms", "e2e_ms")


def test_one_row_on_two_sides_has_every_field_and_the_same_counts(tmp_path):
    out, src = tmp_path / "bench.json", ROOT / "src"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_matrix.py"), "-o", str(out),
                    "--only", "gen_tree", "[ (0 (R), 4) | ]", f"one={src}", f"two={src}"],
                   check=True, capture_output=True)
    result = json.loads(out.read_text())
    lines = sum(len(path.read_text().splitlines()) for path in (src / "gp2").glob("*.py"))
    meta = result["meta"]
    assert list(meta) == ["sides", "processes", "repeats", "cli_repeats", "python", "machine",
                          "cpus"]
    assert (meta["processes"], meta["repeats"], meta["cli_repeats"]) == (3, 1, 2)
    assert [side["gp2_lines"] for side in meta["sides"].values()] == [lines, lines]
    rows = result["rows"]
    # the sides alternate, and so does which one goes first
    assert [(row["side"], row["backend"]) for row in rows] == [
        ("one", "chain"), ("two", "chain"), ("two", "index_scan"), ("one", "index_scan")]
    for row in rows:
        assert list(row) == ["side", "commit", "program", "host", "backend", "mode",
                             *COUNTS, *TIMES]
        assert (row["program"], row["host"], row["mode"]) == (
            "gen_tree", "[ (0 (R), 4) | ]", "preserve")
        assert all(row[key] > 0 for key in TIMES)
        # one frame per expansion of the root cursor; the last one is undone
        assert [row[key] for key in COUNTS] == [1, 0, "success", 348, 0, 23, 22, 1]


def test_a_side_is_the_median_of_all_its_samples_and_its_counts_must_agree():
    path = ROOT / "tools" / "bench_matrix.py"
    spec = importlib.util.spec_from_file_location("bench_matrix", path)
    bench_matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_matrix)
    counts = dict(zip(COUNTS, [1, 0, "success", 348, 0, 23, 22, 1]))
    samples = [{"program": "p", **counts, **{key: [t] for key in TIMES}}
               for t in (0.001, 0.005, 0.002)]
    samples[1]["run_ms"] = [0.003, 0.004]
    row = bench_matrix.merge(samples)
    assert row == {"program": "p", **counts, "parse_host_ms": 2.0, "build_ms": 2.0,
                   "run_ms": 2.5, "print_ms": 2.0, "e2e_ms": 2.0}
    samples[2]["frames_undone"] = 2
    with pytest.raises(SystemExit, match="counts differ"):
        bench_matrix.merge(samples)
