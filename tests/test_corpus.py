import random
import time

import pytest

from gp2 import corpus
from gp2.engine import ExecConfig
from gp2.graph import Graph, graphs_isomorphic
from gp2.textio import parse_host_graph, parse_program, print_graph
from helpers import executable


def _run(name, host_text, **cfg):
    # one executable per (program, config), reused across hosts
    return executable(name, ExecConfig(**cfg)).run_text(host_text)


def random_unmarked_host(rng, max_nodes=10, labelled=False) -> Graph:
    """Plain hosts for the recognisers: no marks, no roots."""
    g = Graph()
    labels = [(), (1,), (2,)] if labelled else [()]
    nodes = [g.add_node(rng.choice(labels)) for _ in range(rng.randrange(0, max_nodes + 1))]
    if nodes:
        cap = max(1, int(1.6 * len(nodes)))
        for _ in range(rng.randrange(0, cap)):
            g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(labels))
    return g


RECOGNISERS = ["is_discrete", "is_bin_dag", "is_tree", "is_series_par", "is_con"]


@pytest.mark.parametrize("name", RECOGNISERS)
def test_recogniser_agrees_with_oracle_on_random_hosts(name):
    entry = corpus.ENTRIES[name]
    rng = random.Random(hash(name) & 0xFFFF)
    disagreements = []
    for i in range(200):
        host = random_unmarked_host(rng)
        text = print_graph(host)
        expected = corpus.oracle_check(entry, host)
        got = _run(name, text).status
        if got != expected:
            disagreements.append((i, text, expected, got))
    assert not disagreements, disagreements[:3]


def test_structured_positive_and_negative_instances():
    from gp2.bench import gen_full_binary_tree, gen_grid, gen_linked_list

    # trees are accepted by the tree and binary-dag recognisers
    tree_text = print_graph(gen_full_binary_tree(4))
    assert _run("is_tree", tree_text).status == "success"
    assert _run("is_bin_dag", tree_text).status == "success"
    assert _run("is_con", tree_text).status == "success"

    # grids: connected, binary as dags, but neither trees nor series-parallel
    grid_text = print_graph(gen_grid(4, 4))
    assert _run("is_tree", grid_text).status == "fail"
    assert _run("is_bin_dag", grid_text).status == "success"
    assert _run("is_con", grid_text).status == "success"
    assert _run("is_series_par", grid_text).status == "fail"

    # linked lists are series-parallel
    list_text = print_graph(gen_linked_list(6))
    assert _run("is_series_par", list_text).status == "success"


def test_series_parallel_compositions_are_accepted():
    # build random two-terminal series/parallel compositions bottom-up
    rng = random.Random(7)
    for _ in range(50):
        g = Graph()

        def build(depth):
            s = g.add_node()
            t = g.add_node()
            grow(s, t, depth)
            return s, t

        def grow(s, t, depth):
            if depth == 0 or rng.random() < 0.3:
                g.add_edge(s, t)
                return
            if rng.random() < 0.5:
                # series: s -> mid -> t
                mid = g.add_node()
                grow(s, mid, depth - 1)
                grow(mid, t, depth - 1)
            else:
                # parallel
                grow(s, t, depth - 1)
                grow(s, t, depth - 1)

        build(rng.randrange(1, 4))
        text = print_graph(g)
        assert corpus.is_series_parallel(g)
        assert _run("is_series_par", text).status == "success"


def test_trans_closure_matches_reachability_oracle():
    rng = random.Random(1234)
    for i in range(100):
        host = random_unmarked_host(rng, max_nodes=8, labelled=True)
        text = print_graph(host)
        expected = corpus.transitive_closure_graph(parse_host_graph(text))
        out = _run("trans_closure", text)
        assert out.status == "success"
        got = parse_host_graph(out.output)
        assert graphs_isomorphic(got, expected), (i, text)


def test_is_con_on_discrete_pair_fails():
    g = Graph()
    g.add_node()
    g.add_node()
    assert _run("is_con", print_graph(g)).status == "fail"


def test_trans_closure_path_example():
    out = _run("trans_closure", corpus.load_fixture("path3"))
    g = parse_host_graph(out.output)
    assert g.edge_count == 3
    # the added edge goes from the path's head to its tail
    nodes = g.nodes()
    heads = [n for n in nodes if n.outdegree == 2]
    tails = [n for n in nodes if n.indegree == 2]
    assert len(heads) == 1 and len(tails) == 1
    assert any(e.target is tails[0] for e in g.out_edges(heads[0]))


def test_is_tree_on_grid_2x2_fails():
    from gp2.bench import gen_grid

    assert _run("is_tree", print_graph(gen_grid(2, 2))).status == "fail"


def test_program_rule_inventory():
    """Structural sanity of the transcriptions: rule counts, root usage,
    and mark usage per program."""
    expected = {
        "is_discrete": 2, "is_bin_dag": 11, "is_tree": 7, "is_series_par": 4,
        "is_con": 4, "trans_closure": 1, "gen_discrete": 4, "gen_tree": 5,
        "gen_star": 4, "gen_sierpinski": 4,
    }
    for name, count in expected.items():
        rules = parse_program(corpus.load_program(name)).rules
        assert len(rules) == count, name

    bindag = parse_program(corpus.load_program("is_bin_dag")).rules
    # every deletion rule consumes a rooted node and re-roots a kept one
    for rule_name in ("del1", "del1_d", "del21", "del21_d", "del22", "del22_d"):
        rule = bindag[rule_name]
        lhs_roots = [n for n in rule.lhs.nodes if n.root]
        assert len(lhs_roots) == 1
        assert lhs_roots[0].pid not in rule.interface
        assert sum(1 for n in rule.rhs.nodes if n.root) == 1

    con = parse_program(corpus.load_program("is_con")).rules
    for rule_name in ("fwd", "bck"):
        assert all(e.bidir for e in con[rule_name].lhs.edges)


def test_acyclicity_oracle_scales_to_long_paths():
    g = Graph()
    nodes = [g.add_node() for _ in range(5000)]
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b)
    start = time.perf_counter()
    assert corpus.is_acyclic(g)
    g.add_edge(nodes[-1], nodes[0])
    assert not corpus.is_acyclic(g)
    assert time.perf_counter() - start < 1.0
