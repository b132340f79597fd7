"""Benchmark of the gp2 command-line path, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one CLI job (see ``jobs.JOBS``), timed in-process
through ``gp2.cli.main`` on files generated from the seed, with every
output checked.  With ``--trace 0`` the run reports the end-to-end
metrics: ``setup_s`` (write the inputs, import gp2, one warm-up run;
median of the in-process set-up and of each fresh-interpreter probe,
each scaled to a machine on which a pass of the fixed workload in
``reference`` takes REF_NOMINAL_MS),
``run_rel_p50`` (median over the runs made in ``--seconds`` of each
run's wall time divided by that of the fixed workload in ``reference``,
measured just before and after it) and ``peak_rss_mb`` (median peak RSS
of the probes, each a fresh interpreter that runs the job once).  The
median wall time itself, ``run_ms_p50``, is printed for reading.
With ``--trace 1`` it reports the per-layer split from traced runs
instead (see ``tracing``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
same figures for reading, with ``failed_share`` and the run metadata.
Generated inputs and trace spans go to ``.perfbench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PROBES = 2              # fresh interpreters per end-to-end run
MIN_RUNS = 3            # timed runs per end-to-end run, however slow
MIN_TRACED = 2          # traced runs, so that their counts can be compared
PROBE_TIMEOUT_S = 60
# A pass of the reference workload on a 2-vCPU VM.  Set-up times are
# reported at this reference speed; it must not change between commits.
REF_NOMINAL_MS = 150.0

E2E_UNITS = {"setup_s": "s", "run_rel_p50": "ratio", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("ms", "ms"), ("_bytes", "bytes"),
                         ("_per_s", "1/s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit() -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "gp2").glob("*.py"))


class Bench:
    def __init__(self, jobs, job, seed: int):
        self.jobs = jobs
        self.job = job
        self.seed = seed
        self.tally = None
        self.files = None

    def set_up(self, import_s: float) -> float:
        """Write the inputs and make the warm-up run; returns the set-up
        time including the given gp2 import time."""
        t0 = time.perf_counter()
        self.files = self.jobs.write_inputs(self.job, self.seed, WORK)
        write_s = time.perf_counter() - t0
        warm = self.jobs.run_cli(self.files.argv(self.job))
        setup_s = import_s + write_s + warm.ms / 1000.0
        self.jobs.check_host(self.job, self.files)
        self.tally = self.jobs.Tally(self.job.checker())
        self.tally.record(warm)
        return setup_s

    def probe(self) -> tuple[float, float] | None:
        """One fresh interpreter: (set-up seconds, peak RSS in MiB)."""
        t0 = time.perf_counter()
        self.files = self.jobs.write_inputs(self.job, self.seed, WORK)
        write_s = time.perf_counter() - t0
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC),
             *self.files.argv(self.job)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        try:
            rep = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rep = None
        if proc.returncode != 0 or rep is None:
            self.tally.record(self.jobs.RunResult(
                0.0, proc.returncode or 1, "", f"probe failed: {proc.stderr}"))
            return None
        ok = self.tally.record(self.jobs.RunResult(
            rep["run_s"] * 1000.0, rep["exit_code"], rep["output"], rep["diagnostic"]))
        if not ok:
            return None
        return write_s + rep["import_s"] + rep["run_s"], rep["rss_kb"] / 1024.0

    def timed_runs(self, reference, before: float, seconds: float) -> tuple[list, list]:
        """Untraced runs for ``seconds`` (at least MIN_RUNS), each
        between two passes of the reference workload, the first of which
        took ``before`` ms.  Returns, for the runs that passed their
        check, their wall times and those times relative to the mean of
        the two reference passes around them."""
        argv = self.files.argv(self.job)
        times, rel = [], []
        runs = 0
        deadline = time.perf_counter() + seconds
        while runs < MIN_RUNS or time.perf_counter() < deadline:
            gc.collect()        # earlier runs' cyclic garbage, outside the clock
            r = self.jobs.run_cli(argv)
            runs += 1
            after = reference.time_ms()
            if self.tally.record(r):
                times.append(r.ms)
                rel.append(r.ms / ((before + after) / 2.0))
            before = after
        return times, rel

    def traced_runs(self, tracing, seconds: float) -> tuple[list, list, list]:
        """Pairs of one untraced and one traced run for ``seconds`` (at
        least MIN_TRACED pairs), so that drift in machine speed touches
        both sides alike.  Returns the untraced wall times and, per traced
        run, its per-layer metrics and wall time, for the runs that passed
        their check.  The spans of the last traced run are written out."""
        argv = self.files.argv(self.job)
        untraced, layers, traced = [], [], []
        pairs = 0
        deadline = time.perf_counter() + seconds
        while pairs < MIN_TRACED or time.perf_counter() < deadline:
            gc.collect()
            r = self.jobs.run_cli(argv)
            if self.tally.record(r):
                untraced.append(r.ms)
            gc.collect()
            t = tracing.Tracer()
            with tracing.traced(t):
                r = self.jobs.run_cli(argv)
            pairs += 1
            if self.tally.record(r):
                layers.append(tracing.layer_metrics(t, len(r.output.encode())))
                traced.append(r.ms)
        t.write(WORK / f"spans_{self.job.name}.tsv")
        return untraced, layers, traced


def median_or_none(values):
    return statistics.median(values) if values else None


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of wall time scaled by REF_NOMINAL_MS over the mean of
    the reference passes (ms) just before and after it."""
    return seconds * REF_NOMINAL_MS / ((ref_before + ref_after) / 2.0)


def end_to_end(bench: Bench, reference, setup_s: float, refs: tuple[float, float],
               seconds: float):
    """The end-to-end metrics, a note of their sample counts and of the
    plain wall times, and whether the run's own consistency checks held.
    ``refs`` are the reference passes (ms) around the in-process set-up."""
    wall = [setup_s]
    setups = [at_reference_speed(setup_s, *refs)]
    rss = []
    before = refs[1]
    for _ in range(PROBES):
        probe = bench.probe()
        after = reference.time_ms()
        if probe is not None:
            wall.append(probe[0])
            setups.append(at_reference_speed(probe[0], before, after))
            rss.append(probe[1])
        before = after
    times, rel = bench.timed_runs(reference, before, seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_rel_p50": median_or_none(rel),
        "peak_rss_mb": median_or_none(rss),
    }
    note = f"wall time, not scaled: run_ms_p50 = {median_or_none(times)} ms, " \
           f"set-up median {statistics.median(wall)} s; run_rel_p50 over " \
           f"n={len(times)} runs; setup_s over {len(setups)} set-ups; " \
           f"peak_rss_mb over {len(rss)} probes"
    return metrics, note, True


def per_layer(bench: Bench, tracing, seconds: float):
    """As ``end_to_end``, for the per-layer metrics of traced runs."""
    before = tracing.current_objects()
    times, layers, traced_times = bench.traced_runs(tracing, seconds)
    after = tracing.current_objects()
    ok = True
    if any(after[site] is not obj for site, obj in before.items()):
        print("perfbench: a traced attribute was not restored", file=sys.stderr)
        ok = False
    counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m in layers]
    if any(c != counts[0] for c in counts):
        print(f"perfbench: traced counts differ between runs: {counts}", file=sys.stderr)
        ok = False
    metrics = {name: median_or_none([m[name] for m in layers])
               for name in (layers[0] if layers else {})}
    metrics.update(counts[0] if counts else {})
    metrics["trace.overhead_ratio"] = \
        statistics.median(traced_times) / statistics.median(times) \
        if times and traced_times else None
    note = f"{len(layers)} traced runs; untraced median over n={len(times)}"
    return metrics, note, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gp2" / "cli.py").is_file():
        print(f"perfbench: no gp2 sources in {SRC}", file=sys.stderr)
        return 2
    import reference
    ref_before = reference.time_ms()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gp2.cli
    import_s = time.perf_counter() - t0
    if Path(gp2.cli.__file__).resolve().parent != SRC / "gp2":
        print(f"perfbench: gp2 was imported from {gp2.cli.__file__}", file=sys.stderr)
        return 2
    import jobs
    import tracing

    if args.workload not in jobs.JOBS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(jobs.JOBS)}", file=sys.stderr)
        return 2
    job = jobs.JOBS[args.workload]
    bench = Bench(jobs, job, args.seed)
    setup_s = bench.set_up(import_s)
    if args.trace == 0:
        refs = (ref_before, reference.time_ms())
        metrics, note, ok = end_to_end(bench, reference, setup_s, refs, args.seconds)
        units = E2E_UNITS
    else:
        metrics, note, ok = per_layer(bench, tracing, args.seconds)
        units = {name: layer_unit(name) for name in metrics}

    tally = bench.tally
    for reason in tally.failures:
        print(f"perfbench: failed run: {reason}", file=sys.stderr)
    failed = len(tally.failures)
    correct = ok and failed == 0 and bool(metrics) and None not in metrics.values()
    print(f"workload {job.name}: {job.program} on {job.host_spec}, "
          f"flags [{' '.join(job.flags)}], seed {args.seed}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(f"  failed_share = {failed / tally.attempted} ({failed}/{tally.attempted} runs)")
    print(f"  {note}")
    print("meta " + json.dumps({"src_gp2_lines": src_lines(), "commit": commit()}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
