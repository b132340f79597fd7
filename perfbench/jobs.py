"""The four benchmark jobs: their inputs, one timed CLI run, and the
output checks.

Each job runs the whole command-line path in-process through
``gp2.cli.main``.  Outputs are read back by a small parser of the
printed graph format written here, not by ``gp2.textio``, and judged
against references that share no code with the matcher.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from gp2 import bench, cli, corpus
from gp2.graph import Graph, GraphError

def discrete_host(n: int, rng: random.Random) -> str:
    """n unlabelled, unconnected nodes; the seed permutes their ids,
    which also shuffles the declaration order."""
    ids = list(range(n))
    rng.shuffle(ids)
    return "[ " + " ".join(f"({i}, empty)" for i in ids) + " | ]"


def seed_host(value: int) -> str:
    return f"[ (0 (R), {value}) | ]"


# -- reading printed graphs -------------------------------------------------

_LABEL = r"(empty|-?\d+(?::-?\d+)*)(?: # (\w+))?"
_NODE = re.compile(r"\((\d+)( \(R\))?, " + _LABEL + r"\)")
_EDGE = re.compile(r"\((\d+), (\d+), (\d+), " + _LABEL + r"\)")


@dataclass
class Printed:
    """A printed graph: nodes by id as (label, mark, root), edges as
    (source id, target id, label, mark).  Labels are int tuples."""
    nodes: dict[int, tuple]
    edges: list[tuple]


class OutputError(Exception):
    pass


def _label(text: str) -> tuple:
    return () if text == "empty" else tuple(int(a) for a in text.split(":"))


def parse_printed(text: str) -> Printed:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")) or text.count("|") != 1:
        raise OutputError("not a printed graph")
    node_part, edge_part = text[1:-1].split("|")
    if _NODE.sub("", node_part).strip() or _EDGE.sub("", edge_part).strip():
        raise OutputError("unreadable node or edge declaration")
    nodes = {}
    for m in _NODE.finditer(node_part):
        nid = int(m[1])
        if nid in nodes:
            raise OutputError(f"duplicate node id {nid}")
        nodes[nid] = (_label(m[3]), m[4] or "none", bool(m[2]))
    edges = []
    for m in _EDGE.finditer(edge_part):
        src, tgt = int(m[2]), int(m[3])
        if src not in nodes or tgt not in nodes:
            raise OutputError(f"edge {m[1]} has an unknown endpoint")
        edges.append((src, tgt, _label(m[4]), m[5] or "none"))
    return Printed(nodes, edges)


def to_graph(p: Printed) -> Graph:
    g = Graph()
    handle = {nid: g.add_node(label, mark, root)
              for nid, (label, mark, root) in p.nodes.items()}
    for src, tgt, label, mark in p.edges:
        g.add_edge(handle[src], handle[tgt], label, mark)
    return g


def _degrees(edges) -> tuple[Counter, Counter]:
    indeg, outdeg = Counter(), Counter()
    for src, tgt, _, _ in edges:
        outdeg[src] += 1
        indeg[tgt] += 1
    return indeg, outdeg


# -- checks -----------------------------------------------------------------


def check_empty(output: str) -> str | None:
    """``is_discrete`` deletes every node of a discrete host."""
    return None if output.strip() == "[ | ]" else "output is not the empty graph"


def check_full_tree(output: str, depth: int) -> str | None:
    """``gen_tree`` with seed d builds the full binary tree whose leaves
    sit d edges below the root, each node labelled by its depth and the
    root by d."""
    p = parse_printed(output)
    if not corpus.is_arborescence(to_graph(p)):
        return "output is not an arborescence"
    if len(p.nodes) != 2 ** (depth + 1) - 1:
        return f"{len(p.nodes)} nodes, expected {2 ** (depth + 1) - 1}"
    if any(root for _, _, root in p.nodes.values()):
        return "a root flag remains"
    indeg, outdeg = _degrees(p.edges)
    if any(outdeg[n] not in (0, 2) for n in p.nodes):
        return "an outdegree is neither 0 nor 2"
    children: dict[int, list[int]] = {}
    for src, tgt, _, _ in p.edges:
        children.setdefault(src, []).append(tgt)
    (top,) = [n for n in p.nodes if indeg[n] == 0]
    if p.nodes[top][0] != (depth,):
        return "the tree root is not labelled with the depth"
    leaf_depths = set()
    level, frontier = 0, [top]
    while frontier:
        following = []
        for n in frontier:
            if n != top and p.nodes[n][0] != (level,):
                return f"node {n} at depth {level} is labelled {p.nodes[n][0]}"
            if n in children:
                following.extend(children[n])
            else:
                leaf_depths.add(level)
        level, frontier = level + 1, following
    if leaf_depths != {depth}:
        return f"leaves at depths {sorted(leaf_depths)}"
    return None


def graph_signature(nodes, edges) -> tuple:
    """Node and edge counts, the multiset of (label, mark, root, indegree,
    outdegree) over nodes and of (source label, target label, edge label)
    over edges.  ``nodes`` maps a key to (label, mark, root); edges are
    (source key, target key, label, mark)."""
    indeg, outdeg = _degrees(edges)
    return (
        len(nodes), len(edges),
        Counter((label, mark, root, indeg[k], outdeg[k])
                for k, (label, mark, root) in nodes.items()),
        Counter((nodes[src][0], nodes[tgt][0], label) for src, tgt, label, _ in edges),
    )


def sierpinski_signature(level: int) -> tuple:
    """The signature of the directly constructed Sierpinski graph."""
    g = bench.gen_sierpinski(level)
    nodes = {id(n): (n.label, n.mark, n.is_root) for n in g.nodes()}
    edges = [(id(e.source), id(e.target), e.label, e.mark) for e in g.edges()]
    return graph_signature(nodes, edges)


def sierpinski_checker(seed: int):
    """``gen_sierpinski`` with seed m builds the level m + 1 graph."""
    expected = sierpinski_signature(seed + 1)

    def check(output: str) -> str | None:
        p = parse_printed(output)
        if graph_signature(p.nodes, p.edges) != expected:
            return f"output differs from the level-{seed + 1} Sierpinski graph"
        return None

    return check


# -- the jobs ------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI invocation: a corpus program on a generated host.  For
    ``is_discrete`` the size is the node count of a discrete host; for
    the generators it is the value on the one-node root seed."""
    name: str
    program: str
    size: int
    flags: tuple[str, ...] = ()

    @property
    def host_spec(self) -> str:
        kind = "discrete" if self.program == "is_discrete" else "seed"
        return f"{kind}:{self.size}"

    def host(self, rng: random.Random) -> str:
        if self.program == "is_discrete":
            return discrete_host(self.size, rng)
        return seed_host(self.size)

    def checker(self):
        """The output check: (output) -> failure reason or None."""
        if self.program == "is_discrete":
            return check_empty
        if self.program == "gen_tree":
            return lambda output: check_full_tree(output, self.size)
        return sierpinski_checker(self.size)


JOBS = {
    job.name: job for job in (
        Job("read_discrete", "is_discrete", 40_000),
        Job("scan_discrete", "is_discrete", 10_000, ("-n",)),
        Job("grow_tree", "gen_tree", 12),
        Job("search_sierpinski", "gen_sierpinski", 6),
    )
}


@dataclass
class Files:
    program: Path
    host: Path

    def argv(self, job: Job) -> list[str]:
        return [*job.flags, str(self.program), str(self.host)]


def write_inputs(job: Job, seed: int, work: Path) -> Files:
    """Generate the job's inputs from the seed and write them to ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    files = Files(work / f"{job.name}.gp2", work / f"{job.name}.host")
    files.program.write_text(corpus.load_program(job.program))
    files.host.write_text(job.host(random.Random(seed)))
    return files


def check_host(job: Job, files: Files) -> None:
    """The recogniser jobs must get a host their oracle accepts."""
    if job.program == "is_discrete" and \
            not corpus.is_discrete(to_graph(parse_printed(files.host.read_text()))):
        raise OutputError("the generated host is not discrete")


@dataclass
class RunResult:
    ms: float
    exit_code: int
    output: str
    diagnostic: str


def run_cli(argv: list[str]) -> RunResult:
    """One in-process CLI run with stdout and stderr captured.  Only
    ``cli.main`` sits inside the clock."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        ms = (time.perf_counter() - t0) * 1000.0
    return RunResult(ms, code, out.getvalue(), err.getvalue())


def failure(result: RunResult, check) -> str | None:
    """Why a run failed, or None when it exited 0 and its output passes."""
    if result.exit_code != 0:
        return f"exit code {result.exit_code}: {result.diagnostic.strip()}"
    try:
        return check(result.output)
    except (OutputError, GraphError) as exc:
        return str(exc)


class Tally:
    """Runs attempted and the reasons of those that failed."""

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, result: RunResult) -> bool:
        self.attempted += 1
        reason = failure(result, self.check)
        if reason is not None:
            self.failures.append(reason)
        return reason is None
