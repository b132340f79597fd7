"""Print the Python that ``gp2`` generates for every corpus program, as JSON.

    PYTHONPATH=../parent/src python3 tools/dump_generated.py > parent.json
    PYTHONPATH=src python3 tools/dump_generated.py > change.json
    cmp parent.json change.json

For each corpus program and each of the 8 settings (backend x root mode x
plan optimisation), the object holds the source of the generated
``main``, with the functions written beside it, and the source of each
of its rules' steps, all read from ``linecache`` as ``gp2`` compiled them.
Two ``gp2`` packages whose dumps are byte-identical run the same code on
every corpus program.  It uses only ``corpus``, ``textio.parse_program``,
``engine.Executable``/``ExecConfig`` and ``match.compiled_step``.
"""

from __future__ import annotations

import itertools
import json
import linecache
import sys

from gp2 import corpus
from gp2.engine import ExecConfig, Executable
from gp2.match import compiled_step
from gp2.textio import parse_program


def source(function) -> str:
    return "".join(linecache.getlines(function.__code__.co_filename))


def dump() -> dict:
    out = {}
    for program, backend, mode, optimize in itertools.product(
            corpus.PROGRAM_NAMES, ("chain", "index_scan"), ("preserve", "reflect"), (True, False)):
        parsed = parse_program(corpus.load_program(program))
        run = Executable(parsed, ExecConfig(backend, mode, optimize_plans=optimize))
        out[f"{program} {backend} {mode} {'opt' if optimize else 'noopt'}"] = {
            "main": source(run._run),
            "steps": {name: source(compiled_step(rule, optimize, backend, mode == "reflect"))
                      for name, rule in sorted(parsed.rules.items())},
        }
    return out


if __name__ == "__main__":
    json.dump(dump(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
