"""Command-line front end.

    gp2 -p <program>                validate a program
    gp2 -r <rule>                   validate a single rule
    gp2 -h <graph>                  validate a host graph
    gp2 [flags] <program> <graph>   run a program on a host graph

Run flags: -f fast shutdown, -g minimal garbage collection: deleted
nodes are never put back for reuse (needs -f), -n index-scan
iteration instead of node chains, -q skip search-plan optimisation,
-m root-reflecting matches, -o DIR also write the output graph into DIR.

Exit codes: 0 success (graph on stdout), 1 validation/usage error,
2 program failure or runtime error (diagnostics on stderr).  The graph
is written as it is formatted, so a write error partway through can
leave part of it on stdout before the usage error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from . import textio
from .engine import ExecConfig, run_program
from .graph import Graph

USAGE = __doc__


class UsageError(Exception):
    pass


class CliInvocation:
    __slots__ = ("subcommand", "paths", "config", "out_dir", "fast_shutdown")

    def __init__(self, subcommand: str, paths: list[str] | None = None,
                 config: ExecConfig | None = None, out_dir: str | None = None,
                 fast_shutdown: bool = False):
        self.subcommand = subcommand      # help | validate-program | validate-rule |
        self.paths = paths or []          # validate-graph | run
        self.config = config or ExecConfig()
        self.out_dir = out_dir            # a run also writes out.host here
        self.fast_shutdown = fast_shutdown    # leave the graph to the OS on exit


def parse_args(argv: list[str]) -> CliInvocation:
    if not argv:
        raise UsageError("no arguments; see --help")
    if argv[0] == "--help":
        return CliInvocation("help")
    validate_modes = {"-p": "validate-program", "-r": "validate-rule",
                      "-h": "validate-graph"}
    if argv[0] in validate_modes:
        if len(argv) != 2:
            raise UsageError(f"{argv[0]} takes exactly one file")
        return CliInvocation(validate_modes[argv[0]], [argv[1]])

    fast_shutdown = minimal_gc = False
    backend = "chain"
    mode = "preserve"
    optimize = True
    out_dir = None
    paths: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "-f":
            fast_shutdown = True
        elif arg == "-g":
            minimal_gc = True
        elif arg == "-n":
            backend = "index_scan"
        elif arg == "-q":
            optimize = False
        elif arg == "-m":
            mode = "reflect"
        elif arg == "-o":
            if i + 1 >= len(argv):
                raise UsageError("-o needs a directory argument")
            out_dir = argv[i + 1]
            i += 1
        elif arg.startswith("-"):
            raise UsageError(f"unknown flag {arg!r}")
        else:
            paths.append(arg)
        i += 1
    if len(paths) != 2:
        raise UsageError("run mode takes a program file and a host graph file")
    if minimal_gc and not fast_shutdown:
        raise UsageError("minimal garbage collection requires fast shutdown")
    cfg = ExecConfig(backend=backend, root_mode=mode, minimal_gc=minimal_gc,
                     optimize_plans=optimize)
    return CliInvocation("run", paths, config=cfg, out_dir=out_dir,
                         fast_shutdown=fast_shutdown)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _write(path: Path, g: Graph) -> None:
    """Write ``g`` into ``path`` as it is formatted, then a newline."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            textio.print_graph(g, out.write)
            out.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename or path}: {exc.strerror}")


def _print(text: str, g: Graph | None = None) -> None:
    """Write ``g``, if given, as it is formatted, then ``text``, and flush.
    A full or closed standard output is a usage error, and fd 1 then
    points at the null device so exit flushes quietly."""
    try:
        if g is not None:
            textio.print_graph(g, sys.stdout.write)
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise UsageError(f"cannot write standard output: {exc.strerror}")


def main(argv: list[str]) -> int:
    try:
        invocation = parse_args(argv)
        if invocation.subcommand == "help":
            _print(USAGE + "\n")
            return 0
        if invocation.subcommand.startswith("validate-"):
            kind = invocation.subcommand.removeprefix("validate-")
            try:
                textio.validate(kind, _read(invocation.paths[0]))
            except textio.SourceError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            return 0
        return _run(invocation)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:     # reading the files or printing the graph
        print("out of memory", file=sys.stderr)
        return 2


def _run(invocation: CliInvocation) -> int:
    outcome = run_program(_read(invocation.paths[0]), _read(invocation.paths[1]),
                          invocation.config)
    if outcome.status != "success":
        print(outcome.diagnostic, file=sys.stderr)
        return outcome.exit_code
    if invocation.out_dir:
        _write(Path(invocation.out_dir) / "out.host", outcome.graph)
    _print("\n", outcome.graph)
    if invocation.fast_shutdown:
        # leave the graph to the operating system
        sys.stderr.flush()
        os._exit(0)
    return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
