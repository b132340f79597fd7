import random
import time

import pytest

from gp2.graph import (
    FLAG_IN_STACK,
    FLAG_ROOT,
    Graph,
    GraphError,
    check_consistency,
    graphs_isomorphic,
)
from gp2.textio import parse_host_graph, print_graph


def test_add_node_to_empty_graph():
    g = Graph()
    n = g.add_node()
    assert g.node_count == 1
    assert g.nodes() == [n]


def test_add_root_node_sets_flag_and_list():
    g = Graph()
    n = g.add_node(root=True)
    assert len(g.root_list) == 1
    assert n.flags & FLAG_ROOT


def test_add_many_nodes_distinct_handles():
    g = Graph()
    added = {id(g.add_node()) for _ in range(1000)}
    seen = {id(n) for n in g.nodes_iter("chain")}
    assert seen == added


def test_wildcard_mark_rejected_on_host_items():
    g = Graph()
    with pytest.raises(GraphError):
        g.add_node(mark="any")
    a, b = g.add_node(), g.add_node()
    with pytest.raises(GraphError):
        g.add_edge(a, b, mark="any")
    with pytest.raises(GraphError):
        g.add_edge(a, b, mark="grey")   # grey is a node mark only
    with pytest.raises(GraphError):
        g.add_node(mark="dashed")       # dashed is an edge mark only


def test_delete_sole_node():
    g = Graph()
    n = g.add_node()
    g.delete_node(n)
    assert g.node_count == 0
    assert g.node_head is None


def test_delete_node_with_edges_is_contract_violation():
    g = Graph()
    a, b = g.add_node(), g.add_node()
    g.add_edge(a, b)
    with pytest.raises(GraphError):
        g.delete_node(a)


def test_deferred_deletion_blocks_slot_reuse():
    g = Graph()
    n = g.add_node()
    entries = g.journal = []      # an open frame: its entry holds the record
    g.delete_node(n)
    assert n.flags & FLAG_IN_STACK
    g.journal = None
    other = g.add_node()
    assert other is not n

    g.release(entries)            # journal lets go: slot now reusable, LIFO
    again = g.add_node()
    assert again is n


def test_edge_basics_and_loop_and_parallel():
    g = Graph()
    a, b = g.add_node(), g.add_node()
    g.add_edge(a, b)
    assert a.outdegree == 1 and b.indegree == 1

    loop = g.add_edge(a, a)
    assert loop in list(g.out_edges(a)) and loop in list(g.in_edges(a))
    assert a.indegree == 1 and a.outdegree == 2

    g.add_edge(a, b)              # parallel edges are allowed
    assert len(list(g.out_edges(a))) == 3
    check_consistency(g)


def test_delete_one_parallel_edge_keeps_other():
    g = Graph()
    a, b = g.add_node(), g.add_node()
    e1 = g.add_edge(a, b)
    e2 = g.add_edge(a, b)
    g.delete_edge(e1)
    assert list(g.out_edges(a)) == [e2]
    assert g.edge_count == 1
    g.delete_edge(e2)
    assert g.edge_count == 0


def test_deleted_edges_are_never_reused():
    g = Graph()
    a, b = g.add_node(), g.add_node()
    deleted = g.add_edge(a, b)
    g.delete_edge(deleted)                  # no open frame
    assert deleted.flags == 0
    assert g.add_edge(a, b) is not deleted
    held = g.add_edge(a, b)
    entries = g.journal = []
    g.delete_edge(held)                     # under an open frame
    assert held.flags == 0
    g.journal = None
    made = [g.add_edge(a, b)]
    g.release(entries)
    made.append(g.add_edge(a, b))
    assert not any(e is held or e is deleted for e in made)
    assert held.flags == deleted.flags == 0


def test_relabel_remark_set_root():
    g = Graph()
    n = g.add_node()
    g.relabel_node(n, (5,))
    assert n.label == (5,)
    g.set_root(n, True)
    g.set_root(n, False)
    assert g.root_list == []


def test_both_backends_see_live_nodes_only():
    g = Graph()
    a, b, c = g.add_node(), g.add_node(), g.add_node()
    g.delete_node(b)
    chain = {id(n) for n in g.nodes_iter("chain")}
    index = {id(n) for n in g.nodes_iter("index_scan")}
    assert chain == index == {id(a), id(c)}


def test_chain_skips_holes_in_constant_steps():
    g = Graph()
    nodes = [g.add_node() for _ in range(10 ** 4)]
    for n in nodes[:-1]:
        g.delete_node(n)
    g.iter_steps = 0
    first = next(g.nodes_iter("chain"))
    assert first is nodes[-1]
    assert g.iter_steps == 1
    assert g.node_head is nodes[-1]

    g.iter_steps = 0
    assert list(g.nodes_iter("chain")) == [nodes[-1]]
    assert g.iter_steps == 1


def test_index_scan_pays_for_holes():
    g = Graph()
    n = 10 ** 5
    nodes = [g.add_node() for _ in range(n)]
    for node in nodes[:-1]:
        g.delete_node(node)
    g.iter_steps = 0
    assert list(g.nodes_iter("index_scan")) == [nodes[-1]]
    assert g.iter_steps == n


def test_abandoned_scans_count_the_steps_taken():
    for backend in ("chain", "index_scan"):
        g = Graph()
        for _ in range(10):
            g.add_node()
        g.iter_steps = 0
        it = g.nodes_iter(backend)
        for _ in range(3):
            next(it)
        del it
        assert g.iter_steps == 3, backend


def test_printing_and_listing_do_not_count_steps():
    g = parse_host_graph("[ (0, 1) (1, 2) (2 (R), 3) | (0, 0, 1, empty) (1, 2, 2, 4) ]")
    assert g.iter_steps == 0
    print_graph(g)
    assert len(g.nodes()) == 3 and len(g.edges()) == 2
    assert g.iter_steps == 0
    assert len(list(g.nodes_iter("chain"))) == 3
    assert g.iter_steps == 3


def test_empty_graph_iteration():
    g = Graph()
    assert list(g.nodes_iter("chain")) == []
    assert list(g.nodes_iter("index_scan")) == []


def test_backend_equivalence_random_mutations():
    rng = random.Random(11)
    for _ in range(1000):
        g = Graph()
        live = []
        for _ in range(rng.randrange(50)):
            op = rng.random()
            if op < 0.55 or not live:
                live.append(g.add_node(root=rng.random() < 0.2))
            elif op < 0.8 and len(live) >= 2:
                src, tgt = rng.choice(live), rng.choice(live)
                g.add_edge(src, tgt)
            else:
                n = rng.choice(live)
                if n.indegree == 0 and n.outdegree == 0:
                    live.remove(n)
                    g.delete_node(n)
        chain = {id(n) for n in g.nodes_iter("chain")}
        index = {id(n) for n in g.nodes_iter("index_scan")}
        assert chain == index == {id(n) for n in live}


def test_degree_counters_and_roots_after_random_mutations():
    rng = random.Random(13)
    g = Graph()
    live = []
    edges = []
    for _ in range(3000):
        op = rng.random()
        if op < 0.4 or not live:
            live.append(g.add_node(root=rng.random() < 0.3))
        elif op < 0.6 and live:
            n = rng.choice(live)
            g.set_root(n, not n.flags & FLAG_ROOT)
        elif op < 0.8 and len(live) >= 1:
            e = g.add_edge(rng.choice(live), rng.choice(live))
            edges.append(e)
        elif edges:
            e = edges.pop(rng.randrange(len(edges)))
            g.delete_edge(e)
        else:
            n = rng.choice(live)
            if not n.indegree and not n.outdegree:
                live.remove(n)
                g.delete_node(n)
    check_consistency(g)


def _path(labels):
    g = Graph()
    nodes = [g.add_node(label=l) for l in labels]
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b)
    return g


def test_isomorphism_examples():
    g = _path([(1,), (2,)])
    assert graphs_isomorphic(g, g)

    h = Graph()
    h.add_node(label=(1,))
    h.add_node(label=(2,))
    assert not graphs_isomorphic(g, h)          # path vs discrete

    t1 = _path([(1,), (2,), (3,)])
    t2 = _path([(1,), (2,), (9,)])
    assert not graphs_isomorphic(t1, t2)        # label mismatch
    assert graphs_isomorphic(t1, t2, ignore_labels=True)


def test_isomorphism_respects_roots_marks_direction():
    g1 = Graph()
    a = g1.add_node(root=True)
    b = g1.add_node()
    g1.add_edge(a, b)

    g2 = Graph()
    c = g2.add_node()
    d = g2.add_node(root=True)
    g2.add_edge(c, d)
    assert not graphs_isomorphic(g1, g2)        # root on source vs target

    g3 = Graph()
    e = g3.add_node(root=True)
    f = g3.add_node()
    g3.add_edge(e, f, mark="dashed")
    assert not graphs_isomorphic(g1, g3)

    g4 = Graph()
    p = g4.add_node()
    q = g4.add_node(root=True)
    g4.add_edge(q, p)
    assert graphs_isomorphic(g1, g4)


def test_isomorphism_parallel_edge_multiplicity():
    g1 = Graph()
    a, b = g1.add_node(), g1.add_node()
    g1.add_edge(a, b)
    g1.add_edge(a, b)

    g2 = Graph()
    c, d = g2.add_node(), g2.add_node()
    g2.add_edge(c, d)
    g2.add_edge(d, c)
    assert not graphs_isomorphic(g1, g2)


def _long_path(n, order_seed=None, reverse_at=None):
    """Directed path 0 -> 1 -> ... -> n-1, nodes added in a shuffled
    order when order_seed is given; the edge leaving reverse_at points
    backwards."""
    g = Graph()
    order = list(range(n))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    nodes = [None] * n
    for i in order:
        nodes[i] = g.add_node()
    for i in range(n - 1):
        a, b = nodes[i], nodes[i + 1]
        g.add_edge(*((b, a) if i == reverse_at else (a, b)))
    return g


def test_isomorphism_scales_to_long_paths():
    start = time.perf_counter()
    assert graphs_isomorphic(_long_path(3000), _long_path(3000, order_seed=1))
    assert not graphs_isomorphic(_long_path(3000), _long_path(3000, reverse_at=1500))
    # same degree multiset, so only the search can tell these apart
    assert not graphs_isomorphic(_long_path(3000, reverse_at=1500),
                                 _long_path(3000, order_seed=2, reverse_at=1501))
    assert time.perf_counter() - start < 1.0
