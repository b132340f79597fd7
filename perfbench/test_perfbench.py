"""Tests of the benchmark itself, at tiny sizes."""

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from gp2 import textio  # noqa: E402
from gp2.graph import Graph  # noqa: E402

TINY = {"read_discrete": 50, "scan_discrete": 50, "grow_tree": 3,
        "search_sierpinski": 2}


def tiny(name):
    return dataclasses.replace(jobs.JOBS[name], size=TINY[name])


def tiny_run(name, tmp_path, seed=1):
    job = tiny(name)
    files = jobs.write_inputs(job, seed, tmp_path)
    jobs.check_host(job, files)
    return job, files, jobs.run_cli(files.argv(job))


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_job_passes_its_check(name, tmp_path):
    job, _, result = tiny_run(name, tmp_path)
    assert jobs.failure(result, job.checker()) is None


def _drop_first_edge(output):
    return re.sub(r"\((\d+), (\d+), (\d+), [^)]*\) ", "", output, count=1)


@pytest.mark.parametrize("name,corrupt", [
    ("grow_tree", _drop_first_edge),
    ("search_sierpinski", _drop_first_edge),
    ("grow_tree", lambda output: re.sub(r"\((\d+), (\d+)\)", r"(\1, \2 # dashed)",
                                        output, count=1)),
    ("read_discrete", lambda output: "[ (0, empty) | ]"),
])
def test_corrupted_output_is_counted_as_failed(name, corrupt, tmp_path):
    job, _, result = tiny_run(name, tmp_path)
    bad = dataclasses.replace(result, output=corrupt(result.output))
    assert bad.output != result.output
    tally = jobs.Tally(job.checker())
    assert tally.record(result)
    assert not tally.record(bad)
    assert (tally.attempted, len(tally.failures)) == (2, 1)


def test_discrete_host_depends_only_on_seed():
    a = jobs.discrete_host(20, random.Random(5))
    assert a == jobs.discrete_host(20, random.Random(5))
    assert a != jobs.discrete_host(20, random.Random(6))
    assert len(jobs.parse_printed(a).nodes) == 20


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds A [1, 4] (which holds B [2, 3]) and A [5, 9]
    kind = [tracing.KIND_ID[k] for k in (tracing.CLI, tracing.FIND,
                                         tracing.COND, tracing.FIND)]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    self_s, incl_s, calls = tracing.span_totals(kind, start, end, parent)
    at = tracing.KIND_ID
    assert self_s[at[tracing.CLI]] == 3.0
    assert self_s[at[tracing.FIND]] == 2.0 + 4.0
    assert self_s[at[tracing.COND]] == 1.0
    assert incl_s[at[tracing.FIND]] == 7.0
    assert calls[at[tracing.FIND]] == 2


def test_wrappers_are_restored_when_a_run_raises():
    before = tracing.current_objects()
    t = tracing.Tracer()
    with pytest.raises(textio.SourceError):
        with tracing.traced(t):
            assert vars(Graph)["add_node"] is not before[Graph, "add_node"]
            textio.parse_program("Main = ")
    after = tracing.current_objects()
    assert all(after[site] is obj for site, obj in before.items())
    assert t.open == [-1] and t.end[0] > 0.0


def test_traced_counts_repeat_exactly(tmp_path):
    job, files, _ = tiny_run("grow_tree", tmp_path)
    counts = []
    for _ in range(2):
        t = tracing.Tracer()
        with tracing.traced(t):
            result = jobs.run_cli(files.argv(job))
        assert jobs.failure(result, job.checker()) is None
        m = tracing.layer_metrics(t, len(result.output))
        counts.append({k: m[k] for k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["graph.node_adds"] > 0
    assert counts[0]["engine.frames_committed"] > 0


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert {w["name"] for w in spec["workloads"]} == set(jobs.JOBS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = [*tracing.layer_metrics(tracing.Tracer(), 0), "trace.overhead_ratio"]
    assert per_layer == {name: run.layer_unit(name) for name in reported}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grow_tree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_workload_is_independent_of_gp2():
    import reference
    assert not any(name.startswith("gp2") for name in vars(reference))
    assert "gp2" not in (HERE / "reference.py").read_text().split('"""', 2)[2]
    assert reference.time_ms() > 0.0


def test_probe_reports_its_own_peak_not_its_parents(tmp_path):
    job = tiny("grow_tree")
    files = jobs.write_inputs(job, 1, tmp_path)
    ballast = bytearray(96 * 1024 * 1024)
    ballast[::4096] = b"\x01" * len(range(0, len(ballast), 4096))
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(HERE.parent / "src"),
         *files.argv(job)],
        capture_output=True, text=True, timeout=60)
    del ballast
    rep = json.loads(proc.stdout.splitlines()[-1])
    assert rep["exit_code"] == 0
    assert 0 < rep["rss_kb"] < 64 * 1024
