"""Slot storage as the graph exposes it: the node slot list with its
live-byte mirror, the LIFO free stack, deferred release, and the
intrusive chains threaded through node and edge records."""

import random

import pytest

from gp2.graph import FLAG_IN_STACK, Graph, GraphError
from gp2.oracles import check_consistency


def test_first_alloc_is_slot_zero():
    g = Graph()
    assert g.add_node().slot_index == 0


def test_free_then_alloc_reuses_lifo():
    g = Graph()
    nodes = [g.add_node() for _ in range(3)]
    g.delete_node(nodes[1])
    again = g.add_node()
    assert again is nodes[1]
    assert again.slot_index == 1


def test_free_sole_slot():
    g = Graph()
    n = g.add_node()
    g.delete_node(n)
    assert g.node_count == 0
    assert g.live_bytes == bytearray([0])
    assert g.add_node() is n


def test_hole_list_links_lifo():
    g = Graph()
    a, b = g.add_node(), g.add_node()
    g.delete_node(a)
    g.delete_node(b)
    assert g.add_node() is b
    assert g.add_node() is a


def test_free_alloc_cycle_does_not_grow():
    g = Graph()
    a = g.add_node()
    e = g.add_edge(a, a)
    for _ in range(10_000):
        g.delete_edge(e)
        g.delete_node(a)
        a = g.add_node()
        e = g.add_edge(a, a)
    assert len(g.node_slots) == 1


def test_double_release_is_a_no_op():
    g = Graph()
    n = g.add_node()
    entries = g.journal = []
    g.delete_node(n)
    assert n.flags & FLAG_IN_STACK
    g.journal = None
    g.release()
    g.release()
    a, b = g.add_node(), g.add_node()
    assert a is not b
    assert g.node_count == 2
    check_consistency(g)

    x, y = g.add_node(), g.add_node()
    e = g.add_edge(x, y)
    entries = g.journal = []
    g.delete_edge(e)              # an edge is never held, only unlinked
    assert e.flags == 0
    g.journal = None
    g.release()
    g.release()
    assert e.flags == 0
    assert g.edge_count == 0 and x.out_head is None and y.in_head is None
    check_consistency(g)


def test_a_node_held_twice_is_freed_once():
    g = Graph()
    n = g.add_node()
    g.journal = []
    g.delete_node(n)
    g.undo(g.journal)             # restored, but still listed as held
    g.journal = []
    g.delete_node(n)
    assert g.held == [n, n]
    g.journal = None
    g.release()
    assert g.free_nodes == [n] and g.held == [] and n.flags == 0


def test_use_after_delete_is_rejected():
    g = Graph()
    a, b = g.add_node(), g.add_node()
    e = g.add_edge(a, b)
    g.delete_edge(e)
    with pytest.raises(GraphError):
        g.delete_edge(e)
    g.delete_node(b)
    with pytest.raises(GraphError):
        g.delete_node(b)
    with pytest.raises(GraphError):
        g.add_edge(a, b)


def test_handle_stability_across_growth():
    g = Graph()
    first = g.add_node()
    for _ in range(10 ** 5):
        g.add_node()
    assert g.node_slots[0] is first
    assert first.slot_index == 0


def test_lifo_reuse_matches_stack_model():
    rng = random.Random(7)
    g = Graph()
    live = []
    free_stack = []   # oracle: indices freed, most recent last
    next_fresh = 0
    for _ in range(10 ** 4):
        if live and rng.random() < 0.45:
            node = live.pop(rng.randrange(len(live)))
            g.delete_node(node)
            free_stack.append(node.slot_index)
        else:
            node = g.add_node()
            if free_stack:
                assert node.slot_index == free_stack.pop()
            else:
                assert node.slot_index == next_fresh
                next_fresh += 1
            live.append(node)


def test_index_scan_counts():
    g = Graph()
    g.iter_steps = 0
    assert list(g.nodes_index_scan()) == []
    assert g.iter_steps == 0

    nodes = [g.add_node() for _ in range(3)]
    g.delete_node(nodes[1])
    assert list(g.nodes_index_scan()) == [nodes[0], nodes[2]]
    assert g.iter_steps == 3     # the hole is paid for too

    while len(g.node_slots) < 7:
        g.add_node()
    g.iter_steps = 0
    assert len(list(g.nodes_index_scan())) == g.node_count == 7
    assert g.iter_steps == 7


def test_index_scan_pays_for_every_hole_in_runs_of_49_between_live_nodes():
    """389 slots, live at 0, every fiftieth slot and the last."""
    g = Graph()
    nodes = [g.add_node() for _ in range(389)]
    for n in nodes[1:-1]:
        if n.slot_index % 50:
            g.delete_node(n)
    g.iter_steps = 0
    got = list(g.nodes_index_scan())
    assert got == [n for n in nodes if n.in_graph]
    assert g.iter_steps == len(nodes)


def test_chain_push_and_iterate():
    g = Graph()
    a = g.add_node()
    assert g.nodes() == [a]
    b = g.add_node()
    assert g.nodes() == [b, a]
    e1 = g.add_edge(a, b)
    e2 = g.add_edge(a, b)
    assert list(g.out_edges(a)) == [e2, e1]
    assert list(g.in_edges(b)) == [e2, e1]


def test_chain_push_count_matches_store():
    g = Graph()
    hub = g.add_node()
    for _ in range(50):
        g.add_edge(hub, g.add_node())
    assert len(g.nodes()) == g.node_count == len(g.node_slots) == 51
    assert len(list(g.out_edges(hub))) == hub.outdegree == 50


def test_chain_unlink_sole_entry():
    g = Graph()
    a = g.add_node()
    e = g.add_edge(a, a)
    g.delete_edge(e)
    assert a.out_head is None and a.in_head is None
    g.delete_node(a)
    assert g.node_head is None


def test_chain_unlink_middle_and_head():
    g = Graph()
    a, b, c = g.add_node(), g.add_node(), g.add_node()
    g.delete_node(b)
    assert g.nodes() == [c, a]
    g.delete_node(c)
    assert g.nodes() == [a]
    assert g.node_head is a and a.prev is None

    ea, eb, ec = (g.add_edge(a, a) for _ in range(3))
    g.delete_edge(eb)
    assert list(g.out_edges(a)) == list(g.in_edges(a)) == [ec, ea]
    g.delete_edge(ec)
    assert a.out_head is a.in_head is ea


def _chain(g):
    """The node chain walked from its head."""
    chain, node = [], g.node_head
    while node is not None:
        chain.append(node)
        node = node.next
    return chain


def test_chain_runs_oldest_first():
    g = Graph()
    a, b, c = g.add_node(), g.add_node(), g.add_node()
    assert _chain(g) == [a, b, c]
    assert g.node_head is a and g.node_tail is c
    assert g.nodes() == [c, b, a]
    assert list(g.nodes_iter("chain")) == list(g.nodes_iter("index_scan"))
    check_consistency(g)


def test_deleting_the_tail_the_head_and_the_sole_node():
    g = Graph()
    a, b, c = g.add_node(), g.add_node(), g.add_node()
    g.delete_node(c)
    assert _chain(g) == [a, b] and g.node_tail is b and b.next is None
    check_consistency(g)
    g.delete_node(a)
    assert _chain(g) == [b] and g.node_head is g.node_tail is b
    assert b.prev is None and b.next is None
    check_consistency(g)
    g.delete_node(b)
    assert g.node_head is None and g.node_tail is None
    check_consistency(g)
    d = g.add_node()
    assert _chain(g) == [d] and g.node_head is g.node_tail is d
    check_consistency(g)


def test_a_reused_slot_goes_to_the_tail():
    g = Graph()
    a, b, c = g.add_node(), g.add_node(), g.add_node()
    g.delete_node(b)
    assert g.add_node() is b
    assert _chain(g) == [a, c, b] and g.node_tail is b
    assert list(g.nodes_index_scan()) == [a, b, c]      # slot order
    check_consistency(g)


def test_undoing_a_tail_deletion_relinks_at_the_tail():
    g = Graph()
    a, b = g.add_node(), g.add_node()
    entries = g.journal = []
    g.delete_node(b)
    assert g.node_tail is a
    c = g.add_node()                # b is held, so c takes a new slot
    assert _chain(g) == [a, c] and g.node_tail is c
    g.undo(entries)
    assert _chain(g) == [a, b] and g.node_tail is b
    check_consistency(g)


def test_chain_matches_shadow_set_after_random_mutations():
    rng = random.Random(21)
    g = Graph()
    hub = g.add_node()
    nodes = {}
    edges = {}
    for step in range(2000):
        if nodes and rng.random() < 0.4:
            key = rng.choice(sorted(nodes))
            g.delete_edge(edges.pop(key))
            g.delete_node(nodes.pop(key))
        else:
            nodes[step] = g.add_node(label=(step,))
            edges[step] = g.add_edge(hub, nodes[step])
        if step % 97 == 0:
            assert {n.label for n in g.nodes() if n is not hub} == \
                {(k,) for k in nodes}
            assert set(g.out_edges(hub)) == set(edges.values())
    check_consistency(g)
