"""Host graphs: nodes, edges, labels, marks, roots.

Node and edge records carry their own links.  Live nodes form one
doubly linked chain from ``Graph.node_head``, the oldest, to
``Graph.node_tail``, the newest: a node is appended at the tail, so the
chain backend visits the oldest first, and ``nodes()`` walks back from
the tail, newest first, as a graph prints.  Each node heads its out-
and in-edge lists, threaded through ``src_prev``/``src_next`` and
``tgt_prev``/``tgt_next`` on the edges, which are head-inserted.  All
three unlink in O(1).

Two iteration backends coexist over the same records.  The chain
backend follows the live-node chain and therefore skips deleted nodes
in one step; the index-scan backend walks every slot index below the
high-water mark (``node_slots``) and filters on ``live_bytes``, which
is how the legacy layout iterated.  Both see exactly the live nodes.

Deleted nodes go on a LIFO free stack and are reused by the next add,
keeping their slot index; in minimal-GC mode they are never returned to
the free stack.  Edges have no slots: they are reached only through
their endpoints' lists, so a deleted edge is simply dropped and every
add makes a new one.

The graph journals its own mutations.  While ``Graph.journal`` holds a
list (a rollback frame, opened by ``engine.ChangeStack``), every
mutator appends an entry naming its inverse mutator and that mutator's
arguments, e.g. ``(Graph.relabel_node, node, label)``, so ``undo``
replays a frame newest first through the same mutators.  Undo puts
every order back: a deleted node or edge is relinked after its old
predecessors, and a root at its old place in ``root_list``.  A node
deleted under an open frame is held (``FLAG_IN_STACK``) instead of
freed, so the handles the entries keep never alias a new node;
``release``, once the outermost frame commits, puts it on the free
stack.  Entries are written and read only in this module.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from typing import Iterator, Optional

# Marks ----------------------------------------------------------------

MARK_NONE = "none"
MARK_RED = "red"
MARK_GREEN = "green"
MARK_BLUE = "blue"
MARK_GREY = "grey"
MARK_DASHED = "dashed"
MARK_ANY = "any"

NODE_MARKS = frozenset((MARK_NONE, MARK_RED, MARK_GREEN, MARK_BLUE, MARK_GREY))
EDGE_MARKS = frozenset((MARK_NONE, MARK_RED, MARK_GREEN, MARK_BLUE, MARK_DASHED))

# Flag bits, packed into one byte per record.
FLAG_ROOT = 0x01
FLAG_IN_GRAPH = 0x02
FLAG_IN_STACK = 0x04      # a deleted node, held by a journal entry
FLAG_MATCHED = 0x08

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1
MAX_EXTERNAL_ID = 2 ** 63 - 1


class GraphError(Exception):
    pass


class Node:
    __slots__ = (
        "slot_index", "label", "mark", "flags", "indegree", "outdegree",
        "prev", "next", "out_head", "in_head",
    )

    def __init__(self, slot_index: int) -> None:
        self.slot_index = slot_index
        self.indegree = 0
        self.outdegree = 0
        self.out_head: Optional[Edge] = None
        self.in_head: Optional[Edge] = None

    @property
    def is_root(self) -> bool:
        return bool(self.flags & FLAG_ROOT)

    @property
    def in_graph(self) -> bool:
        return bool(self.flags & FLAG_IN_GRAPH)


class Edge:
    __slots__ = (
        "label", "mark", "flags", "source", "target",
        "src_prev", "src_next", "tgt_prev", "tgt_next",
    )


# How many flag bytes an index scan inspects per chunk before giving
# control back to Python.  Chunks are skipped at C speed via find().
SCAN_CHUNK = 128


class Graph:
    __slots__ = (
        "node_slots", "free_nodes", "node_head", "node_tail", "root_list",
        "node_count", "edge_count", "live_bytes", "iter_steps", "minimal_gc",
        "journal",
    )

    def __init__(self):
        self.node_slots: list[Node] = []
        self.free_nodes: list[Node] = []
        self.node_head: Optional[Node] = None
        self.node_tail: Optional[Node] = None
        self.root_list: list[Node] = []
        self.node_count = 0
        self.edge_count = 0
        # One byte per node slot mirroring the in-graph bit; lets the
        # index-scan backend skip hole runs without touching records.
        self.live_bytes = bytearray()
        self.iter_steps = 0
        self.minimal_gc = False             # set by the run, see ExecConfig
        self.journal: Optional[list] = None    # the open rollback frame

    # -- nodes ----------------------------------------------------------

    def add_node(self, label: tuple = (), mark: str = MARK_NONE, root: bool = False) -> Node:
        if mark not in NODE_MARKS:
            raise GraphError(f"not a node mark: {mark}")
        if self.free_nodes:
            node = self.free_nodes.pop()
            self.live_bytes[node.slot_index] = 1
        else:
            node = Node(len(self.node_slots))
            self.node_slots.append(node)
            self.live_bytes.append(1)
        node.label = label
        node.mark = mark
        node.flags = FLAG_IN_GRAPH
        self._link_node(node, self.node_tail, None)
        if root:
            node.flags |= FLAG_ROOT
            self.root_list.append(node)
        self.node_count += 1
        if self.journal is not None:
            self.journal.append((Graph.delete_node, node))
        return node

    def _link_node(self, node: Node, prev: Optional[Node], nxt: Optional[Node]):
        node.prev = prev
        node.next = nxt
        if prev is None:
            self.node_head = node
        else:
            prev.next = node
        if nxt is None:
            self.node_tail = node
        else:
            nxt.prev = node

    def delete_node(self, node: Node) -> None:
        if not node.flags & FLAG_IN_GRAPH:
            raise GraphError("node is not in the graph")
        if node.indegree or node.outdegree:
            raise GraphError("cannot delete a node with incident edges")
        prev, nxt = node.prev, node.next
        if prev is None:
            self.node_head = nxt
        else:
            prev.next = nxt
        if nxt is None:
            self.node_tail = prev
        else:
            nxt.prev = prev
        node.prev = node.next = None
        self.live_bytes[node.slot_index] = 0
        flags = node.flags
        root_at = self.root_list.index(node) if flags & FLAG_ROOT else None
        if root_at is not None:
            del self.root_list[root_at]
        node.flags = 0
        self.node_count -= 1
        if self.journal is not None:
            self.journal.append((Graph.restore_node, node, flags, prev, nxt, root_at))
            node.flags = FLAG_IN_STACK
        elif not self.minimal_gc:
            self.free_nodes.append(node)

    def restore_node(self, node: Node, flags: int, prev: Optional[Node],
                     nxt: Optional[Node], root_at: Optional[int]) -> None:
        """Relink a held node with its old flags between its old chain
        neighbours, and a root at its old place in ``root_list``: undo
        replays newest first, so both are as they were after the deletion."""
        node.flags = flags
        self._link_node(node, prev, nxt)
        self.live_bytes[node.slot_index] = 1
        if root_at is not None:
            self.root_list.insert(root_at, node)
        self.node_count += 1

    # -- edges ----------------------------------------------------------

    def add_edge(self, src: Node, tgt: Node, label: tuple = (), mark: str = MARK_NONE) -> Edge:
        if mark not in EDGE_MARKS:
            raise GraphError(f"not an edge mark: {mark}")
        if not src.flags & FLAG_IN_GRAPH or not tgt.flags & FLAG_IN_GRAPH:
            raise GraphError("edge endpoint is not live")
        edge = Edge()
        edge.label = label
        edge.mark = mark
        edge.flags = FLAG_IN_GRAPH
        edge.source = src
        edge.target = tgt
        self._link_edge(edge)
        if self.journal is not None:
            self.journal.append((Graph.delete_edge, edge))
        return edge

    def _link_edge(self, edge: Edge, src_prev: Optional[Edge] = None,
                   tgt_prev: Optional[Edge] = None) -> None:
        """Link ``edge`` into its endpoints' lists after the given edges,
        or at the heads when they are None."""
        src, tgt = edge.source, edge.target
        if src_prev is None:
            nxt, src.out_head = src.out_head, edge
        else:
            nxt, src_prev.src_next = src_prev.src_next, edge
        edge.src_prev, edge.src_next = src_prev, nxt
        if nxt is not None:
            nxt.src_prev = edge
        if tgt_prev is None:
            nxt, tgt.in_head = tgt.in_head, edge
        else:
            nxt, tgt_prev.tgt_next = tgt_prev.tgt_next, edge
        edge.tgt_prev, edge.tgt_next = tgt_prev, nxt
        if nxt is not None:
            nxt.tgt_prev = edge
        src.outdegree += 1
        tgt.indegree += 1
        self.edge_count += 1

    def delete_edge(self, edge: Edge) -> None:
        if not edge.flags & FLAG_IN_GRAPH:
            raise GraphError("edge already deleted")
        src, tgt = edge.source, edge.target
        src_prev, nxt = edge.src_prev, edge.src_next
        if src_prev is None:
            src.out_head = nxt
        else:
            src_prev.src_next = nxt
        if nxt is not None:
            nxt.src_prev = src_prev
        tgt_prev, nxt = edge.tgt_prev, edge.tgt_next
        if tgt_prev is None:
            tgt.in_head = nxt
        else:
            tgt_prev.tgt_next = nxt
        if nxt is not None:
            nxt.tgt_prev = tgt_prev
        edge.src_prev = edge.src_next = edge.tgt_prev = edge.tgt_next = None
        src.outdegree -= 1
        tgt.indegree -= 1
        edge.flags = 0
        self.edge_count -= 1
        if self.journal is not None:
            self.journal.append((Graph.restore_edge, edge, src_prev, tgt_prev))

    def restore_edge(self, edge: Edge, src_prev: Optional[Edge],
                     tgt_prev: Optional[Edge]) -> None:
        """Relink a deleted edge after the edges it followed in its
        endpoints' lists, which undo has put back before it."""
        edge.flags = FLAG_IN_GRAPH
        self._link_edge(edge, src_prev, tgt_prev)

    # -- in-place updates ------------------------------------------------

    def relabel_node(self, node: Node, label: tuple) -> None:
        if self.journal is not None:
            self.journal.append((Graph.relabel_node, node, node.label))
        node.label = label

    def remark_node(self, node: Node, mark: str) -> None:
        if self.journal is not None:
            self.journal.append((Graph.remark_node, node, node.mark))
        node.mark = mark

    def set_root(self, node: Node, flag: bool, at: Optional[int] = None) -> None:
        """Make ``node`` a root or not; undo passes ``at``, its old root-list place."""
        was_root = bool(node.flags & FLAG_ROOT)
        if flag and not was_root:
            node.flags |= FLAG_ROOT
            self.root_list.insert(len(self.root_list) if at is None else at, node)
        elif not flag and was_root:
            node.flags &= ~FLAG_ROOT
            at = self.root_list.index(node)
            del self.root_list[at]
        if self.journal is not None:
            self.journal.append((Graph.set_root, node, was_root, at))

    # -- the journal ------------------------------------------------------

    def undo(self, entries: list) -> None:
        """Revert journaled mutations, newest first, through their
        inverse mutators.  Leaves the journal closed, so the reverting
        mutations are not journaled."""
        self.journal = None
        for inverse, *args in reversed(entries):
            inverse(self, *args)

    def release(self, entries: list) -> None:
        """Let go of the nodes that committed entries hold: each one still
        deleted goes on the free stack.  A node no entry holds any more is
        left alone, so releasing twice frees nothing twice."""
        for entry in entries:
            record = entry[1]           # only a deleted node is ever held
            if record.flags & FLAG_IN_STACK:
                record.flags = 0
                if not self.minimal_gc:
                    self.free_nodes.append(record)

    # -- iteration --------------------------------------------------------

    def nodes_chain(self) -> Iterator[Node]:
        node = self.node_head
        while node is not None:
            self.iter_steps += 1
            nxt = node.next
            yield node
            node = nxt

    def nodes_index_scan(self) -> Iterator[Node]:
        live = self.live_bytes
        slots = self.node_slots
        i = 0
        while True:
            hw = len(slots)
            if i >= hw:
                return
            end = min(i + SCAN_CHUNK, hw)
            j = live.find(1, i, end)
            if j < 0:
                self.iter_steps += end - i
                i = end
                continue
            self.iter_steps += j - i + 1
            yield slots[j]
            i = j + 1

    def nodes_iter(self, backend: str = "chain") -> Iterator[Node]:
        if backend == "chain":
            return self.nodes_chain()
        if backend == "index_scan":
            return self.nodes_index_scan()
        raise GraphError(f"unknown iteration backend: {backend}")

    def out_edges(self, node: Node) -> Iterator[Edge]:
        edge = node.out_head
        while edge is not None:
            nxt = edge.src_next
            yield edge
            edge = nxt

    def in_edges(self, node: Node) -> Iterator[Edge]:
        edge = node.in_head
        while edge is not None:
            nxt = edge.tgt_next
            yield edge
            edge = nxt

    # The backends above count their steps in ``iter_steps``; these
    # walks, for printing and the oracles, do not.

    def nodes(self) -> list[Node]:
        """The live nodes, newest first."""
        nodes = []
        node = self.node_tail
        while node is not None:
            nodes.append(node)
            node = node.prev
        return nodes

    def edges(self) -> list[Edge]:
        return [e for node in self.nodes() for e in self.out_edges(node)]


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
