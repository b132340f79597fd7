"""Before/after rows of one fixed matrix of programs x hosts x modes x backends.

    python3 tools/bench_matrix.py -o BENCH_24.json parent=../parent/src change=src

Each ``NAME=SRC`` argument is one side: a ``src`` directory that holds a
``gp2`` package.  Every row of ``MATRIX`` runs on both backends, in its
root mode, ``PROCESSES`` times on each side, each time in a fresh
interpreter with ``PYTHONPATH`` set to its side's ``src``.  The sides
alternate process by process, and which goes first alternates row by
row, so a spell in which the machine runs slow falls on both sides.  A
row records the host's size, the outcome, the exact work counts
(candidates examined, iteration steps, journal frames opened, committed
and undone, and the journal entries, counted as each frame closes), and
the median over all of a side's processes of the
timings of each layer the CLI goes through (``parse_host_graph``,
``Executable(...)``, ``run``, ``print_graph``), ``REPEATS`` a process,
and of the wall times of ``python3 -m gp2.cli`` in a subprocess,
``CLI_REPEATS`` a process.  Each time is also given relative to the
machine's speed at that moment (``*_rel``): the pass of perfbench's
reference workload (``perfbench/reference.py`` of this checkout, the
same for every side) is timed just before and just after the layers of
one run, and before the first CLI run and after each one, and each time
is divided by the mean of the two passes around it.  A row keeps the
median pass, in ms
(``reference_ms``).  A slow spell of a shared machine outlasts a process
and slows all of its timings; it slows the reference passes with them.
The counts come from one more, untimed run in each process, and must be
equal in all of a side's processes: the script stops with an error if
they are not, and also if a CLI run exits with another code than the
row's outcome gives (0 for success, 2 for fail).  Wall times are rough
on a shared machine; the counts are exact.  After its CLI runs, each
process makes one untimed run of perfbench's probe (``perfbench/probe.py``
of this checkout, used unchanged) on its side's ``src``, a fresh
interpreter whose peak resident set (``VmHWM``) a row keeps as the median
over the side's processes, in MiB (``peak_rss_mb``).
Each side's meta holds the lines of its ``gp2`` package, in all and by
module.

The rows use only APIs that every side since the first BENCH file has:
``textio.parse_program``/``parse_host_graph``/``print_graph``,
``engine.Executable``/``ExecConfig``/``ChangeStack`` and its ``frames``,
``bench.generate``/``parse_spec`` and ``corpus.load_program``.
``--only PROGRAM HOST`` runs one row, in preserve mode, instead of the matrix.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROCESSES = 3           # measuring processes per side and row
REPEATS = 1             # in-process timings of each layer, per process
CLI_REPEATS = 2         # wall times of the CLI, for e2e_ms, per process
COUNTS = ("nodes", "edges", "outcome", "candidates", "iter_steps",
          "frames_opened", "frames_committed", "frames_undone", "journal_entries")
TIMES = ("parse_host_ms", "build_ms", "run_ms", "print_ms", "e2e_ms")
RELS = tuple(key.replace("_ms", "_rel") for key in TIMES)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
PROBE = REFERENCE.with_name("probe.py")
EXIT_CODES = {"success": 0, "fail": 2}     # of the CLI, by in-process outcome


def seed(value: int) -> str:
    """A one-node rooted host, ``[ (0 (R), value) | ]``, for the generators."""
    return f"[ (0 (R), {value}) | ]"


# (program, host, root mode): a host is a ``bench`` generator spec, or
# host text.  The reflect rows are the recognisers whose closing guard
# changes nothing in reflect mode, so it opens no journal frame there.
MATRIX = [
    *((program, host, "preserve") for program, host in (
        *(("is_discrete", f"discrete:{n}") for n in (10000, 20000, 40000)),
        *((program, host) for program in ("is_tree", "is_con", "is_bin_dag")
          for host in ("tree:12", "tree:13", "tree:14", "grid:100x100")),
        *(("is_con", f"star:{n}") for n in (1000, 2000, 4000)),
        *(("is_series_par", f"list:{n}") for n in (250, 500, 1000)),
        *(("gen_tree", seed(n)) for n in (11, 12)),
        *(("gen_sierpinski", seed(n)) for n in (6, 7)),
        *(("gen_star", seed(n)) for n in (10000, 20000)),
        *(("gen_discrete", seed(n)) for n in (10000, 20000)))),
    ("is_discrete", "discrete:10000", "reflect"),
    ("is_con", "tree:12", "reflect"),
    ("is_series_par", "list:250", "reflect"),
    ("is_bin_dag", "tree:12", "reflect"),
]
BACKENDS = ("chain", "index_scan")


def _reference():
    """``time_ms`` of perfbench's reference workload, imported unchanged."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.time_ms


def measure(program: str, host: str, backend: str, mode: str) -> dict:
    """One process's counts, time samples (in seconds), relative times and
    reference passes (in ms) of a row, measured on the ``gp2`` this
    interpreter imports."""
    import gp2
    from gp2 import bench, corpus, engine, textio

    reference = _reference()
    frames = [0, 0, 0, 0]   # opened, committed, undone, entries

    class CountingStack(engine.ChangeStack):
        def open_frame(self, g):
            frames[0] += 1
            super().open_frame(g)

        def commit_frame(self, g):
            frames[1] += 1
            frames[3] += len(self.frames[-1])
            super().commit_frame(g)

        def undo_frame(self, g):
            frames[2] += 1
            frames[3] += len(self.frames[-1])
            super().undo_frame(g)

    text = corpus.load_program(program)
    host_text = host if host.startswith("[") else \
        textio.print_graph(bench.generate(bench.parse_spec(host)))
    cfg = engine.ExecConfig(backend=backend, root_mode=mode)
    times: dict[str, list[float]] = {key: [] for key in (*TIMES, *RELS, "reference_ms")}

    def passed():
        """One reference pass, in ms, also noted in ``reference_ms``."""
        times["reference_ms"].append(reference())
        return times["reference_ms"][-1]

    def timed(block, before, after):
        """Note each (key, seconds) of a block timed between two reference passes."""
        for key, seconds in block:
            times[key].append(seconds)
            times[key.replace("_ms", "_rel")].append(seconds * 2000.0 / (before + after))

    plain = engine.ChangeStack
    for repeat in range(REPEATS + 1):
        counted = repeat == REPEATS
        engine.ChangeStack = CountingStack if counted else plain
        parsed = textio.parse_program(text)
        before = None if counted else passed()
        clock = time.perf_counter()
        g = textio.parse_host_graph(host_text)
        if repeat == 0:
            size = g.node_count, g.edge_count
        built = time.perf_counter()
        executable = engine.Executable(parsed, cfg)
        ran = time.perf_counter()
        outcome = "success" if executable.run(g) == engine.OK else "fail"
        printed = time.perf_counter()
        textio.print_graph(g)
        done = time.perf_counter()
        if not counted:
            g = executable = None   # no live graph in the reference pass
            timed([(key, end - start) for key, start, end in (
                ("parse_host_ms", clock, built), ("build_ms", built, ran),
                ("run_ms", ran, printed), ("print_ms", printed, done))], before, passed())
    engine.ChangeStack = plain
    row = {"program": program, "host": host, "backend": backend, "mode": mode}
    counts = (*size, outcome, g.candidates, g.iter_steps, *frames)
    g = executable = None
    first = len(times["reference_ms"])
    passed()
    cli = _cli_times(row, text, host_text, outcome, passed)
    passes = times["reference_ms"][first:]
    for seconds, before, after in zip(cli, passes, passes[1:]):
        timed([("e2e_ms", seconds)], before, after)
    rss = _probe_rss_mb(row, Path(gp2.__file__).resolve().parents[1], text, host_text, outcome)
    return {**row, **dict(zip(COUNTS, counts)), **times, "peak_rss_mb": [rss]}


def merge(samples: list[dict]) -> dict:
    """One side's row from its processes' samples: the counts, which
    must be equal in all of them, and the median over all of each time,
    each relative time, the reference passes and the peak RSS."""
    first = samples[0]
    for other in samples[1:]:
        if any(other[key] != first[key] for key in COUNTS):
            raise SystemExit(f"counts differ between the processes of one side: "
                             f"{[[s[key] for key in COUNTS] for s in samples]}")

    def median(key):
        return statistics.median(t for s in samples for t in s[key])

    return {**first, **{key: round(median(key) * 1000.0, 3) for key in TIMES},
            **{key: round(median(key), 6) for key in RELS},
            "reference_ms": round(median("reference_ms"), 3),
            "peak_rss_mb": round(median("peak_rss_mb"), 3)}


def _cli_args(row: dict, tmp: str, program_text: str, host_text: str) -> list[str]:
    """The row's CLI flags and its input files, written into ``tmp``."""
    program_file, host_file = Path(tmp, "program.gp2"), Path(tmp, "host.host")
    program_file.write_text(program_text)
    host_file.write_text(host_text)
    flags = ["-n"] * (row["backend"] == "index_scan") + ["-m"] * (row["mode"] == "reflect")
    return [*flags, str(program_file), str(host_file)]


def _check_exit(code: int, row: dict, outcome: str, stderr: str) -> None:
    """Stop the matrix if a CLI run's exit code is not that of ``outcome``."""
    if code != EXIT_CODES[outcome]:
        raise SystemExit(f"the CLI exited {code}, not {EXIT_CODES[outcome]} for "
                         f"{outcome!r}, on {row}: {stderr.strip()}")


def _cli_times(row: dict, program_text: str, host_text: str, outcome: str,
               after=lambda: None) -> list[float]:
    """Wall times of ``python3 -m gp2.cli`` on the row, in subprocesses.
    Each must exit with the code of the row's in-process ``outcome``.
    ``after`` is called after each run, outside its time."""
    with tempfile.TemporaryDirectory() as tmp:
        args = _cli_args(row, tmp, program_text, host_text)
        times = []
        for _ in range(CLI_REPEATS):
            start = time.perf_counter()
            result = subprocess.run([sys.executable, "-m", "gp2.cli", *args],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    text=True, check=False)
            times.append(time.perf_counter() - start)
            _check_exit(result.returncode, row, outcome, result.stderr)
            after()
    return times


def _probe_rss_mb(row: dict, src: Path, program_text: str, host_text: str,
                  outcome: str) -> float:
    """The peak RSS, in MiB, of one CLI run on the row by perfbench's probe,
    a fresh interpreter that imports ``gp2`` from ``src``.  The run must
    exit with the code of the row's in-process ``outcome``."""
    with tempfile.TemporaryDirectory() as tmp:
        result = subprocess.run([sys.executable, str(PROBE), str(src),
                                 *_cli_args(row, tmp, program_text, host_text)],
                                capture_output=True, text=True, check=False)
    if result.returncode:
        raise SystemExit(f"the probe failed on {row}: {result.stderr.strip()}")
    report = json.loads(result.stdout.splitlines()[-1])
    _check_exit(report["exit_code"], row, outcome, report["diagnostic"])
    return report["rss_kb"] / 1024.0


def _commit(src: Path) -> str | None:
    """The commit of the work tree that holds ``src``, if any, marked
    ``-dirty`` when the tree has uncommitted changes."""
    result = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty",
                             "--abbrev=12"], capture_output=True, text=True, check=False)
    return result.stdout.strip() or None


def _meta(src: Path) -> dict:
    """A side's source, commit, and the lines of its ``gp2`` package, in
    all and by module."""
    modules = {path.stem: len(path.read_text().splitlines())
               for path in sorted((src / "gp2").glob("*.py"))}
    return {"src": str(src), "commit": _commit(src), "gp2_lines": sum(modules.values()),
            "gp2_module_lines": modules}


def _run_side(src: Path, program: str, host: str, backend: str, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    result = subprocess.run([sys.executable, __file__, "--measure", program, host, backend, mode],
                            env=env, capture_output=True, text=True, check=False)
    if result.returncode:
        raise SystemExit(f"side {src}: {result.stderr.strip()}")
    return json.loads(result.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="NAME=SRC")
    parser.add_argument("-o", "--output", type=Path)
    parser.add_argument("--only", nargs=2, metavar=("PROGRAM", "HOST"))
    parser.add_argument("--measure", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(*args.measure)))
        return 0
    sides = dict(side.split("=", 1) for side in args.sides)
    if not sides or not args.output:
        parser.error("give -o FILE and at least one NAME=SRC")
    sources = {name: Path(src) for name, src in sides.items()}
    meta = {name: _meta(src) for name, src in sources.items()}
    matrix = [(*args.only, "preserve")] if args.only else MATRIX
    rows = []
    for i, ((program, host, mode), backend) in enumerate(
            (cell, backend) for cell in matrix for backend in BACKENDS):
        order = list(sources.items())
        order = order[i % 2:] + order[:i % 2]
        samples: dict[str, list[dict]] = {name: [] for name, _ in order}
        for _ in range(PROCESSES):
            for name, src in order:
                samples[name].append(_run_side(src, program, host, backend, mode))
        for name, _ in order:
            row = {"side": name, "commit": meta[name]["commit"], **merge(samples[name])}
            rows.append(row)
            print(f"{name:>8} {program:>15} {host:>20} {mode:>8} {backend:>10} "
                  f"{row['outcome']:>8} run {row['run_ms']:9.1f} ms {row['run_rel']:8.4f}  "
                  f"e2e {row['e2e_ms']:9.1f} ms {row['e2e_rel']:8.4f}  "
                  f"rss {row['peak_rss_mb']:7.2f} MiB",
                  flush=True)
    result = {"meta": {"sides": meta, "processes": PROCESSES, "repeats": REPEATS,
                       "cli_repeats": CLI_REPEATS, "python": platform.python_version(),
                       "machine": platform.machine(), "cpus": os.cpu_count()},
              "rows": rows}
    args.output.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
