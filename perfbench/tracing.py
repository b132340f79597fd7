"""Per-layer tracing of one CLI run, from outside the program.

``traced`` swaps wrappers in for the public functions and methods of
``textio``, ``engine``, ``match``, ``rules`` and ``graph`` at the call
sites the CLI path goes through, and puts the originals back when it
exits, even on an exception.  Each wrapper records a span (kind, start,
end, parent span) in memory; counts are recorded at the same
boundaries.  A layer's time is self time: a span's duration minus the
durations of its child spans.  Times therefore include the wrappers'
own overhead, which ``trace.overhead_ratio`` reports.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from pathlib import Path

from gp2 import cli, engine, match, textio
from gp2.engine import ChangeStack, Executable
from gp2.graph import Graph

# Span kinds.
CLI = "cli.main"
PARSE_PROGRAM = "textio.parse_program"
PARSE_HOST = "textio.parse_host_graph"
PRINT = "textio.print_graph"
BUILD = "engine.Executable.__init__"
EXEC = "engine.Executable.run"
FIND = "engine.find_match"
APPLY = "engine.apply_rule"
INSTANTIATE = "engine.instantiate_rhs"
COND = "match.eval_cond"
OPEN = "engine.ChangeStack.open_frame"
UNDO = "engine.ChangeStack.undo_frame"
COMMIT = "engine.ChangeStack.commit_frame"
ADD_NODE = "graph.Graph.add_node"
ADD_EDGE = "graph.Graph.add_edge"
DELETE_NODE = "graph.Graph.delete_node"
DELETE_EDGE = "graph.Graph.delete_edge"

# The (owner, attribute) pairs the wrappers replace, with their span kind.
SITES = (
    (cli, "main", CLI),
    (textio, "parse_program", PARSE_PROGRAM),
    (textio, "parse_host_graph", PARSE_HOST),
    (textio, "print_graph", PRINT),
    (Executable, "__init__", BUILD),
    (Executable, "run", EXEC),
    (engine, "find_match", FIND),
    (engine, "apply_rule", APPLY),
    (engine, "instantiate_rhs", INSTANTIATE),
    (match, "eval_cond", COND),
    (ChangeStack, "open_frame", OPEN),
    (ChangeStack, "undo_frame", UNDO),
    (ChangeStack, "commit_frame", COMMIT),
    (Graph, "add_node", ADD_NODE),
    (Graph, "add_edge", ADD_EDGE),
    (Graph, "delete_node", DELETE_NODE),
    (Graph, "delete_edge", DELETE_EDGE),
)
KINDS = tuple(kind for _, _, kind in SITES)
KIND_ID = {k: i for i, k in enumerate(KINDS)}

# Per-layer metrics that are exact counts; two traced runs of one job
# must give the same values.
COUNT_METRICS = (
    "match.calls", "match.hits", "match.candidates", "engine.rule_apps",
    "engine.frames_opened", "engine.frames_committed",
    "engine.frames_undone", "engine.journal_entries", "rules.cond_evals",
    "graph.node_adds", "graph.edge_adds", "graph.node_deletes",
    "graph.edge_deletes", "graph.iter_steps",
)


class Tracer:
    """Spans of one run, kept as parallel arrays; span i's parent is the
    span that was open when it began, or -1."""

    def __init__(self):
        self.kind = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.open = [-1]
        self.counts: Counter = Counter()

    def span(self, kind: str, fn):
        """``fn`` wrapped to record one span of ``kind`` per call."""
        k = KIND_ID[kind]
        kinds, starts, ends, parents, stack = \
            self.kind, self.start, self.end, self.parent, self.open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(kinds)
            kinds.append(k)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines: span, parent, kind,
        start and duration in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as f:
            for i, (k, s, e, p) in enumerate(
                    zip(self.kind, self.start, self.end, self.parent)):
                f.write(f"{i}\t{p}\t{KINDS[k]}\t"
                        f"{(s - t0) * 1e6:.1f}\t{(e - s) * 1e6:.1f}\n")


def span_totals(kind, start, end, parent):
    """Per span kind: self seconds, inclusive seconds and span count."""
    n_kinds = len(KINDS)
    child = [0.0] * len(kind)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    self_s = [0.0] * n_kinds
    incl_s = [0.0] * n_kinds
    calls = [0] * n_kinds
    for i, k in enumerate(kind):
        d = end[i] - start[i]
        self_s[k] += d - child[i]
        incl_s[k] += d
        calls[k] += 1
    return self_s, incl_s, calls


def _wrappers(t: Tracer, originals: dict):
    """The replacement for each site, closed over the original objects."""
    count = t.counts
    parse_host = t.span(PARSE_HOST, originals[textio, "parse_host_graph"])
    find_steps = t.span(FIND, match.find_match_steps)
    undo = t.span(UNDO, originals[ChangeStack, "undo_frame"])
    commit = t.span(COMMIT, originals[ChangeStack, "commit_frame"])
    run = t.span(EXEC, originals[Executable, "run"])

    def parse_host_graph(text, *args, **kwargs):
        count["textio.host_bytes"] += len(text.encode())
        g = parse_host(text, *args, **kwargs)
        count["textio.host_items"] += g.node_count + g.edge_count
        return g

    def find_match(rule, g, mode="preserve", backend="chain", optimize=True):
        m, steps = find_steps(rule, g, mode, backend, optimize)
        count["match.candidates"] += steps
        count["match.hits"] += m is not None
        return m

    def undo_frame(self, g):
        count["engine.journal_entries"] += len(self.frames[-1])
        return undo(self, g)

    def commit_frame(self, g):
        count["engine.journal_entries"] += len(self.frames[-1])
        return commit(self, g)

    def run_executable(self, g):
        before = g.iter_steps
        try:
            return run(self, g)
        finally:
            count["graph.iter_steps"] += g.iter_steps - before

    special = {
        (textio, "parse_host_graph"): parse_host_graph,
        (engine, "find_match"): find_match,
        (ChangeStack, "undo_frame"): undo_frame,
        (ChangeStack, "commit_frame"): commit_frame,
        (Executable, "run"): run_executable,
    }
    for owner, attr, kind in SITES:
        yield owner, attr, special.get((owner, attr)) or \
            t.span(kind, originals[owner, attr])


def current_objects() -> dict:
    return {(owner, attr): vars(owner)[attr] for owner, attr, _ in SITES}


@contextlib.contextmanager
def traced(t: Tracer):
    """Install the wrappers for the duration of the block."""
    originals = current_objects()
    installed = []
    try:
        for owner, attr, wrapper in _wrappers(t, originals):
            setattr(owner, attr, wrapper)
            installed.append((owner, attr))
        yield t
    finally:
        for owner, attr in installed:
            setattr(owner, attr, originals[owner, attr])


def layer_metrics(t: Tracer, output_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced CLI run."""
    self_s, incl_s, calls = span_totals(t.kind, t.start, t.end, t.parent)

    def ms(*kinds):
        return sum(self_s[KIND_ID[k]] for k in kinds) * 1000.0

    def n(kind):
        return calls[KIND_ID[kind]]

    c = t.counts
    parse_host_s = incl_s[KIND_ID[PARSE_HOST]]
    return {
        "textio.parse_host_ms": ms(PARSE_HOST),
        "textio.parse_program_ms": ms(PARSE_PROGRAM),
        "textio.print_ms": ms(PRINT),
        "textio.host_bytes": c["textio.host_bytes"],
        "textio.output_bytes": output_bytes,
        "textio.parse_host_items_per_s":
            c["textio.host_items"] / parse_host_s if parse_host_s else 0.0,
        "engine.build_ms": ms(BUILD),
        "engine.exec_ms": incl_s[KIND_ID[EXEC]] * 1000.0,
        "engine.interp_self_ms": ms(EXEC),
        "engine.rewrite_ms": ms(APPLY),
        "engine.rule_apps": n(APPLY),
        "engine.journal_ms": ms(OPEN, UNDO, COMMIT),
        "engine.frames_opened": n(OPEN),
        "engine.frames_committed": n(COMMIT),
        "engine.frames_undone": n(UNDO),
        "engine.journal_entries": c["engine.journal_entries"],
        "match.ms": ms(FIND),
        "match.calls": n(FIND),
        "match.hits": c["match.hits"],
        "match.candidates": c["match.candidates"],
        "match.hit_ratio": c["match.hits"] / n(FIND) if n(FIND) else 0.0,
        "match.useful_ratio":
            c["match.hits"] / c["match.candidates"] if c["match.candidates"] else 0.0,
        "rules.instantiate_ms": ms(INSTANTIATE),
        "rules.cond_ms": ms(COND),
        "rules.cond_evals": n(COND),
        "graph.write_ms": ms(ADD_NODE, ADD_EDGE, DELETE_NODE, DELETE_EDGE),
        "graph.node_adds": n(ADD_NODE),
        "graph.edge_adds": n(ADD_EDGE),
        "graph.node_deletes": n(DELETE_NODE),
        "graph.edge_deletes": n(DELETE_EDGE),
        "graph.iter_steps": c["graph.iter_steps"],
        "cli.self_ms": ms(CLI),
    }
