"""Bundled programs, host fixtures, and independent result oracles.

Each recogniser ships with a graph-theoretic decision procedure written
against the host graph directly (no rule machinery), so engine outcomes
can be checked against an implementation that shares nothing with the
matcher or the rewrite loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

from .graph import Graph

PROGRAM_NAMES = (
    "is_discrete", "is_bin_dag", "is_tree", "is_series_par", "is_con",
    "trans_closure", "gen_discrete", "gen_tree", "gen_star", "gen_sierpinski",
)


def load_program(name: str) -> str:
    return resources.files("gp2.programs").joinpath(f"{name}.gp2").read_text()


def load_fixture(name: str) -> str:
    return resources.files("gp2.fixtures").joinpath(f"{name}.host").read_text()


# -- graph-theoretic oracles ----------------------------------------------


def _adjacency(g: Graph):
    nodes = g.nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    out = [[] for _ in nodes]
    for e in g.edges():
        out[index[id(e.source)]].append(index[id(e.target)])
    return nodes, out


def is_discrete(g: Graph) -> bool:
    return g.edge_count == 0


def is_acyclic(g: Graph) -> bool:
    """Depth-first search with an explicit stack: a cycle is an edge
    back to a node still on the stack (state 1)."""
    nodes, out = _adjacency(g)
    state = [0] * len(nodes)
    for start in range(len(nodes)):
        if state[start]:
            continue
        state[start] = 1
        stack = [(start, iter(out[start]))]
        while stack:
            i, successors = stack[-1]
            for j in successors:
                if state[j] == 1:
                    return False
                if state[j] == 0:
                    state[j] = 1
                    stack.append((j, iter(out[j])))
                    break
            else:
                state[i] = 2
                stack.pop()
    return True


def is_binary_dag(g: Graph) -> bool:
    """Acyclic with every node having at most two outgoing edges."""
    return all(n.outdegree <= 2 for n in g.nodes()) and is_acyclic(g)


def is_arborescence(g: Graph) -> bool:
    """A rooted tree with edges oriented parent to child: one node of
    indegree zero from which everything is reachable, n-1 edges."""
    nodes, out = _adjacency(g)
    n = len(nodes)
    if n == 0 or g.edge_count != n - 1:
        return False
    if any(node.indegree > 1 for node in nodes):
        return False
    roots = [i for i, node in enumerate(nodes) if node.indegree == 0]
    if len(roots) != 1:
        return False
    seen = set()
    stack = [roots[0]]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        stack.extend(out[i])
    return len(seen) == n


def is_connected(g: Graph) -> bool:
    """Undirected connectivity via union-find; the empty graph counts."""
    nodes = g.nodes()
    if len(nodes) <= 1:
        return True
    index = {id(n): i for i, n in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in g.edges():
        a, b = find(index[id(e.source)]), find(index[id(e.target)])
        if a != b:
            parent[a] = b
    return len({find(i) for i in range(len(nodes))}) == 1


def is_series_parallel(g: Graph) -> bool:
    """True iff the whole graph reduces to one edge by merging parallel
    edges and contracting through-nodes; exhaustive search with
    memoisation, for small graphs."""
    nodes = g.nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    edges = tuple(sorted((index[id(e.source)], index[id(e.target)]) for e in g.edges()))
    alive = frozenset(range(len(nodes)))
    seen: set = set()

    def solve(alive, edges) -> bool:
        if len(edges) == 1 and len(alive) == 2:
            u, v = edges[0]
            return u != v and {u, v} == set(alive)
        key = (alive, edges)
        if key in seen:
            return False
        seen.add(key)
        n_in = {}
        n_out = {}
        for u, v in edges:
            n_out[u] = n_out.get(u, 0) + 1
            n_in[v] = n_in.get(v, 0) + 1
        # parallel merges
        for i in range(len(edges) - 1):
            if edges[i] == edges[i + 1]:
                if solve(alive, edges[:i] + edges[i + 1:]):
                    return True
        # series contractions through a degree-(1,1) node
        for w in alive:
            if n_in.get(w, 0) == 1 and n_out.get(w, 0) == 1:
                u = next(a for a, b in edges if b == w)
                v = next(b for a, b in edges if a == w)
                if u == w or v == w or u == v:
                    continue
                rest = [e for e in edges if w not in e]
                if solve(alive - {w}, tuple(sorted(rest + [(u, v)]))):
                    return True
        return False

    return solve(alive, edges)


def transitive_closure_graph(g: Graph) -> Graph:
    """Expected trans-closure output: the input plus one empty-labelled
    edge for every distinct reachable pair that has no direct edge."""
    nodes = g.nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    direct = [[False] * n for _ in range(n)]
    out = Graph()
    copies = [out.add_node(node.label, node.mark, node.is_root) for node in nodes]
    for e in g.edges():
        i, j = index[id(e.source)], index[id(e.target)]
        reach[i][j] = True
        direct[i][j] = True
        out.add_edge(copies[i], copies[j], e.label, e.mark)
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    for i in range(n):
        for j in range(n):
            if i != j and reach[i][j] and not direct[i][j]:
                out.add_edge(copies[i], copies[j])
    return out


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str                                  # recogniser | generator | transformer
    oracle: Optional[Callable[[Graph], bool]]
    fixtures: tuple[tuple[str, str], ...]      # (fixture file, expected status)


ENTRIES: dict[str, CorpusEntry] = {
    e.name: e for e in (
        CorpusEntry("is_discrete", "recogniser", is_discrete, (
            ("discrete_pos", "success"), ("discrete_neg", "fail"))),
        CorpusEntry("is_bin_dag", "recogniser", is_binary_dag, (
            ("bin_dag_pos", "success"), ("bin_dag_neg", "fail"))),
        CorpusEntry("is_tree", "recogniser", is_arborescence, (
            ("tree_pos", "success"), ("tree_neg", "fail"))),
        CorpusEntry("is_series_par", "recogniser", is_series_parallel, (
            ("series_par_pos", "success"), ("series_par_neg", "fail"))),
        CorpusEntry("is_con", "recogniser", is_connected, (
            ("con_pos", "success"), ("con_neg", "fail"))),
        CorpusEntry("trans_closure", "transformer", None, (
            ("path3", "success"),)),
        CorpusEntry("gen_discrete", "generator", None, (("seed5", "success"),)),
        CorpusEntry("gen_tree", "generator", None, (("seed3", "success"),)),
        CorpusEntry("gen_star", "generator", None, (("seed5", "success"),)),
        CorpusEntry("gen_sierpinski", "generator", None, (("seed2", "success"),)),
    )
}


def oracle_check(entry: CorpusEntry, host: Graph) -> str:
    """Expected run outcome for a recogniser on the given host."""
    if entry.oracle is None:
        raise ValueError(f"{entry.name} has no boolean oracle")
    return "success" if entry.oracle(host) else "fail"
