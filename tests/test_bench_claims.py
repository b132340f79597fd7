"""The paper's complexity claims, read off the newest committed BENCH file.

``tools/bench_matrix.py`` writes ``BENCH_<n>.json``; its rows reach
hosts of 40,000 nodes, far beyond the sizes Tier-1 runs.  Each claim is
checked on the rows of the file's change side, in preserve mode, of one
program on one host family and backend, ordered by node count.
"""

import json
import re
from pathlib import Path

import pytest

from gp2 import bench

ROOT = Path(__file__).resolve().parents[1]

# (program, host family, backend, measure, growth); "constant" means the
# measure is the same at every size
CLAIMS = [
    # chains skip what the index scan walks over
    ("is_discrete", "discrete", "chain", "candidates", "~linear"),
    ("is_discrete", "discrete", "chain", "iter_steps", "~linear"),
    ("is_discrete", "discrete", "index_scan", "candidates", "~linear"),
    ("is_discrete", "discrete", "index_scan", "iter_steps", "~quadratic"),
    ("is_bin_dag", "tree", "chain", "candidates", "~linear"),
    ("is_bin_dag", "tree", "chain", "iter_steps", "~linear"),
    ("is_bin_dag", "tree", "index_scan", "candidates", "~linear"),
    ("is_bin_dag", "tree", "index_scan", "iter_steps", "~quadratic"),
    # a rooted program on bounded degree
    ("is_con", "tree", "chain", "candidates", "~linear"),
    ("is_con", "tree", "chain", "iter_steps", "~linear"),
    ("is_con", "tree", "index_scan", "candidates", "~linear"),
    ("is_con", "tree", "index_scan", "iter_steps", "~linear"),
    # unbounded degree: the centre's edge list is walked on every call
    ("is_con", "star", "chain", "candidates", "~quadratic"),
    ("is_con", "star", "index_scan", "candidates", "~quadratic"),
    # par is not rooted and scans every node per call
    ("is_series_par", "list", "chain", "candidates", "~quadratic"),
    ("is_series_par", "list", "chain", "iter_steps", "~quadratic"),
    ("is_series_par", "list", "index_scan", "candidates", "~quadratic"),
    ("is_series_par", "list", "index_scan", "iter_steps", "~quadratic"),
    # one chain walk finds the first node, whatever the tree's size
    ("is_tree", "tree", "chain", "candidates", "~linear"),
    ("is_tree", "tree", "chain", "iter_steps", "constant"),
    ("is_tree", "tree", "index_scan", "candidates", "~linear"),
    ("is_tree", "tree", "index_scan", "iter_steps", "~linear"),
]


def newest_bench() -> Path:
    return max(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.search(r"\d+", p.stem)[0]))


def broken_claims(rows: list[dict]) -> list[tuple]:
    """The claims that the change side of ``rows`` does not bear out,
    each with the points it was judged on."""
    broken = []
    for program, family, backend, measure, growth in CLAIMS:
        points = sorted((row["nodes"], row[measure]) for row in rows
                        if row["side"] == "change" and row["mode"] == "preserve"
                        and (row["program"], row["backend"]) == (program, backend)
                        and row["host"].split(":")[0] == family)
        values = [value for _, value in points]
        if len(points) < 3:
            found = "too few sizes"
        elif growth == "constant":
            found = "constant" if len(set(values)) == 1 else "other"
        else:
            found = bench.classify([r for _, r in bench.doubling_ratios(points)])
        if found != growth:
            broken.append((program, family, backend, measure, growth, found, points))
    return broken


def test_the_newest_bench_file_bears_out_every_claim():
    assert broken_claims(json.loads(newest_bench().read_text())["rows"]) == []


@pytest.mark.parametrize("program, family, measure, growth", [
    ("is_discrete", "discrete", "iter_steps", "~linear"),
    ("is_bin_dag", "tree", "candidates", "~linear"),
    ("is_tree", "tree", "iter_steps", "constant"),
])
def test_chain_rows_made_to_grow_faster_break_their_claim(program, family, measure, growth):
    rows = json.loads(newest_bench().read_text())["rows"]
    group = [row for row in rows
             if (row["side"], row["mode"], row["program"], row["backend"]) == (
                 "change", "preserve", program, "chain") and row["host"].startswith(family)]
    smallest = min(row["nodes"] for row in group)
    for row in group:   # one more factor of the size: linear becomes quadratic
        row[measure] = row[measure] * row["nodes"] // smallest
    assert [claim[:5] for claim in broken_claims(rows)] == [
        (program, family, "chain", measure, growth)]
