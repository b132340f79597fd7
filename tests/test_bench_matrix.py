"""Smoke test of ``tools/bench_matrix.py`` on one tiny row."""

import json
import subprocess
import sys
from pathlib import Path

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
    assert list(meta) == ["sides", "repeats", "cli_repeats", "python", "machine", "cpus"]
    assert (meta["repeats"], meta["cli_repeats"]) == (3, 7)
    assert [side["gp2_lines"] for side in meta["sides"].values()] == [lines, lines]
    rows = result["rows"]
    # the sides alternate, and so does which one goes first
    assert [(row["side"], row["backend"]) for row in rows] == [
        ("one", "chain"), ("two", "chain"), ("two", "index_scan"), ("one", "index_scan")]
    for row in rows:
        assert list(row) == ["side", "commit", "program", "host", "backend", *COUNTS, *TIMES]
        assert (row["program"], row["host"]) == ("gen_tree", "[ (0 (R), 4) | ]")
        assert all(row[key] > 0 for key in TIMES)
        # one frame per expansion of the root cursor; the last one is undone
        assert [row[key] for key in COUNTS] == [1, 0, "success", 348, 0, 23, 22, 1]
