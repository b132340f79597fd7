"""Graph oracles for tests: a structural consistency check of a host
graph's records and links, and an isomorphism test.

No run calls this code, and no module that a run imports (``cli``,
``engine``, ``graph``, ``match``, ``rules``, ``textio``) imports this
one, so a run never compiles it.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from typing import Optional

from .graph import FLAG_ROOT, Graph, Node


def check_consistency(g: Graph) -> None:
    """Test-build auditor for the structural invariants."""
    chain = []
    node = g.node_head
    while node is not None:
        assert node.prev is (chain[-1] if chain else None)
        chain.append(node)
        node = node.next
    assert g.node_tail is (chain[-1] if chain else None)
    nodes = g.nodes()
    assert nodes == chain[::-1]
    assert len(nodes) == g.node_count
    roots = [n for n in nodes if n.flags & FLAG_ROOT]
    assert set(id(n) for n in roots) == set(id(n) for n in g.root_list)
    total_out = 0
    for n in nodes:
        assert g.node_slots[n.slot_index] is n
        out, inc = list(g.out_edges(n)), list(g.in_edges(n))
        assert n.indegree == len(inc)
        assert n.outdegree == len(out)
        total_out += n.outdegree
        for a, b in zip(out, out[1:]):
            assert b.src_prev is a
        for a, b in zip(inc, inc[1:]):
            assert b.tgt_prev is a
        for e in out:
            assert e.source is n
        for e in inc:
            assert e.target is n
    assert total_out == g.edge_count
    live_idx = {n.slot_index for n in nodes}
    assert len(g.live_bytes) == len(g.node_slots)
    for i in range(len(g.node_slots)):
        assert (g.live_bytes[i] == 1) == (i in live_idx)


# Isomorphism ----------------------------------------------------------


def _node_signature(n: Node, with_labels: bool) -> tuple:
    label = n.label if with_labels else None
    return (label, n.mark, bool(n.flags & FLAG_ROOT), n.indegree, n.outdegree)


def _edge_blocks(g: Graph, index: dict, with_labels: bool) -> dict:
    """Multiset of (label, mark) per ordered node pair, loops included."""
    blocks: dict[tuple[int, int], Counter] = {}
    for e in g.edges():
        key = (index[id(e.source)], index[id(e.target)])
        blocks.setdefault(key, Counter())[
            (e.label if with_labels else None, e.mark)] += 1
    return blocks


def _neighbours(count: int, blocks: dict) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(count)]
    for (a, b) in blocks:
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


def graphs_isomorphic(g1: Graph, g2: Graph, ignore_labels: bool = False) -> bool:
    """Label-, mark-, root- and direction-preserving isomorphism test.

    Iterative backtracking over node bijections.  Nodes of g1 are taken
    in an order that reaches each component from its rarest signature
    and then grows along edges, so every later node has an already-mapped
    neighbour; its candidates are that neighbour's image's neighbours
    with the same signature.  A candidate is accepted when the edge
    multisets to every already-mapped neighbour, on either side, agree.
    """
    with_labels = not ignore_labels
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return False
    n1 = g1.nodes()
    n2 = g2.nodes()
    sig1 = [_node_signature(n, with_labels) for n in n1]
    sig2 = [_node_signature(n, with_labels) for n in n2]
    if Counter(sig1) != Counter(sig2):
        return False

    blocks1 = _edge_blocks(g1, {id(n): i for i, n in enumerate(n1)}, with_labels)
    blocks2 = _edge_blocks(g2, {id(n): i for i, n in enumerate(n2)}, with_labels)
    nbrs1 = _neighbours(len(n1), blocks1)
    nbrs2 = _neighbours(len(n2), blocks2)

    by_sig: dict[tuple, list[int]] = {}
    for i, s in enumerate(sig2):
        by_sig.setdefault(s, []).append(i)

    def rarity(i: int) -> tuple[int, int]:
        return len(by_sig[sig1[i]]), i

    order: list[int] = []
    placed = [False] * len(n1)
    for start in sorted(range(len(n1)), key=rarity):
        if placed[start]:
            continue
        heap = [(rarity(start), start)]
        while heap:
            _, i = heappop(heap)
            if placed[i]:
                continue
            placed[i] = True
            order.append(i)
            for j in nbrs1[i]:
                if not placed[j]:
                    heappush(heap, (rarity(j), j))

    mapping: list[Optional[int]] = [None] * len(n1)   # g1 index -> g2 index
    inverse: list[Optional[int]] = [None] * len(n2)

    def candidates(a: int) -> list[int]:
        for p in nbrs1[a]:
            q = mapping[p]
            if q is not None:
                return [b for b in nbrs2[q] if sig2[b] == sig1[a]]
        return by_sig[sig1[a]]

    def compatible(a: int, b: int) -> bool:
        if blocks1.get((a, a)) != blocks2.get((b, b)):
            return False
        for p in nbrs1[a]:
            q = mapping[p]
            if q is not None and (blocks1.get((a, p)) != blocks2.get((b, q)) or
                                  blocks1.get((p, a)) != blocks2.get((q, b))):
                return False
        for q in nbrs2[b]:
            p = inverse[q]
            if p is not None and p not in nbrs1[a]:
                return False
        return True

    if not order:
        return True
    pending = [iter(candidates(order[0]))]
    while pending:
        a = order[len(pending) - 1]
        for b in pending[-1]:
            if inverse[b] is None and compatible(a, b):
                mapping[a] = b
                inverse[b] = a
                break
        else:
            pending.pop()
            if pending:
                prev = order[len(pending) - 1]
                inverse[mapping[prev]] = None
                mapping[prev] = None
            continue
        if len(pending) == len(order):
            return True
        pending.append(iter(candidates(order[len(pending)])))
    return False
