"""Before/after rows of one fixed matrix of programs x hosts x backends.

    python3 tools/bench_matrix.py -o BENCH_23.json parent=../parent/src change=src

Each ``NAME=SRC`` argument is one side: a ``src`` directory that holds a
``gp2`` package.  Every row of ``MATRIX`` runs on both backends, each
side in a fresh interpreter with ``PYTHONPATH`` set to its ``src``; the
sides alternate row by row, and which goes first alternates too.  A row
records the host's size, the outcome, the exact work counts (candidates
examined, iteration steps, journal frames opened, committed and
undone), the median of three timings of each layer the CLI goes through
(``parse_host_graph``, ``Executable(...)``, ``run``, ``print_graph``), and
the median of seven wall times of ``python3 -m gp2.cli`` in a
subprocess.  The counts come from a fourth, untimed run.  Wall times are
rough on a shared machine; the counts are exact and must not differ
between runs of the same code.

The rows use only APIs that every side since the first BENCH file has:
``textio.parse_program``/``parse_host_graph``/``print_graph``,
``engine.Executable``/``ExecConfig``/``ChangeStack``,
``bench.generate``/``parse_spec`` and ``corpus.load_program``.
``--only PROGRAM HOST`` runs one row instead of the matrix.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 3             # in-process timings of each layer
CLI_REPEATS = 7         # wall times of the CLI, for e2e_ms


def seed(value: int) -> str:
    """A one-node rooted host, ``[ (0 (R), value) | ]``, for the generators."""
    return f"[ (0 (R), {value}) | ]"


# (program, host): a host is a ``bench`` generator spec, or host text.
MATRIX = [
    *(("is_discrete", f"discrete:{n}") for n in (10000, 20000, 40000)),
    *((program, host) for program in ("is_tree", "is_con", "is_bin_dag")
      for host in ("tree:12", "tree:13", "tree:14", "grid:100x100")),
    *(("is_con", f"star:{n}") for n in (1000, 2000, 4000)),
    *(("is_series_par", f"list:{n}") for n in (250, 500, 1000)),
    *(("gen_tree", seed(n)) for n in (11, 12)),
    *(("gen_sierpinski", seed(n)) for n in (6, 7)),
    *(("gen_star", seed(n)) for n in (10000, 20000)),
    *(("gen_discrete", seed(n)) for n in (10000, 20000)),
]
BACKENDS = ("chain", "index_scan")


def _median_ms(times: list[float]) -> float:
    return round(statistics.median(times) * 1000.0, 3)


def measure(program: str, host: str, backend: str) -> dict:
    """One row, measured on the ``gp2`` this interpreter imports."""
    from gp2 import bench, corpus, engine, textio

    frames = [0, 0, 0]      # opened, committed, undone

    class CountingStack(engine.ChangeStack):
        def open_frame(self, g):
            frames[0] += 1
            super().open_frame(g)

        def commit_frame(self, g):
            frames[1] += 1
            super().commit_frame(g)

        def undo_frame(self, g):
            frames[2] += 1
            super().undo_frame(g)

    text = corpus.load_program(program)
    host_text = host if host.startswith("[") else \
        textio.print_graph(bench.generate(bench.parse_spec(host)))
    cfg = engine.ExecConfig(backend=backend)
    times: dict[str, list[float]] = {"parse_host": [], "build": [], "run": [], "print": []}
    plain = engine.ChangeStack
    for repeat in range(REPEATS + 1):
        counted = repeat == REPEATS
        engine.ChangeStack = CountingStack if counted else plain
        parsed = textio.parse_program(text)
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
            for key, start, end in (("parse_host", clock, built), ("build", built, ran),
                                    ("run", ran, printed), ("print", printed, done)):
                times[key].append(end - start)
    engine.ChangeStack = plain
    row = {"program": program, "host": host, "backend": backend,
           "nodes": size[0], "edges": size[1], "outcome": outcome,
           "candidates": g.candidates, "iter_steps": g.iter_steps,
           "frames_opened": frames[0], "frames_committed": frames[1],
           "frames_undone": frames[2]}
    row.update({f"{key}_ms": _median_ms(values) for key, values in times.items()})
    row["e2e_ms"] = _median_ms(_cli_times(text, host_text, backend))
    return row


def _cli_times(program_text: str, host_text: str, backend: str) -> list[float]:
    """Wall times of ``python3 -m gp2.cli`` on the row, in subprocesses."""
    flags = ["-n"] if backend == "index_scan" else []
    with tempfile.TemporaryDirectory() as tmp:
        program_file, host_file = Path(tmp, "program.gp2"), Path(tmp, "host.host")
        program_file.write_text(program_text)
        host_file.write_text(host_text)
        times = []
        for _ in range(CLI_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "gp2.cli", *flags, str(program_file),
                            str(host_file)], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, check=False)
            times.append(time.perf_counter() - start)
    return times


def _commit(src: Path) -> str | None:
    """The commit of the work tree that holds ``src``, if any, marked
    ``-dirty`` when the tree has uncommitted changes."""
    result = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty",
                             "--abbrev=12"], capture_output=True, text=True, check=False)
    return result.stdout.strip() or None


def _lines(src: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (src / "gp2").glob("*.py"))


def _run_side(src: Path, program: str, host: str, backend: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    result = subprocess.run([sys.executable, __file__, "--measure", program, host, backend],
                            env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="NAME=SRC")
    parser.add_argument("-o", "--output", type=Path)
    parser.add_argument("--only", nargs=2, metavar=("PROGRAM", "HOST"))
    parser.add_argument("--measure", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(*args.measure)))
        return 0
    sides = dict(side.split("=", 1) for side in args.sides)
    if not sides or not args.output:
        parser.error("give -o FILE and at least one NAME=SRC")
    sources = {name: Path(src) for name, src in sides.items()}
    meta = {name: {"src": str(src), "commit": _commit(src), "gp2_lines": _lines(src)}
            for name, src in sources.items()}
    matrix = [tuple(args.only)] if args.only else MATRIX
    rows = []
    for i, ((program, host), backend) in enumerate(
            (cell, backend) for cell in matrix for backend in BACKENDS):
        order = list(sources.items())
        for name, src in order[i % 2:] + order[:i % 2]:
            row = {"side": name, "commit": meta[name]["commit"],
                   **_run_side(src, program, host, backend)}
            rows.append(row)
            print(f"{name:>8} {program:>15} {host:>20} {backend:>10} {row['outcome']:>8} "
                  f"run {row['run_ms']:9.1f} ms  e2e {row['e2e_ms']:9.1f} ms", flush=True)
    result = {"meta": {"sides": meta, "repeats": REPEATS, "cli_repeats": CLI_REPEATS,
                       "python": platform.python_version(), "machine": platform.machine(),
                       "cpus": os.cpu_count()},
              "rows": rows}
    args.output.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
