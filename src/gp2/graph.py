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
is how the legacy layout iterated.  The compiled rule steps (see
``match``) walk both inline, counting in ``iter_steps`` the steps
``nodes_iter`` (left to tests) counts, and in ``candidates``
the items they examine, unless a condition raises mid-search.

A host reader makes its records, which ``adopt`` links as ``add_node``
and ``add_edge`` would.  Deleted nodes go on a LIFO free stack and are
reused by the next add, keeping their slot index; in minimal-GC mode
they are never returned to the free stack.  Edges have no slots: they
are reached only through their endpoints' lists, so a deleted edge is
simply dropped and every add makes a new one.

The graph journals its own mutations.  While ``Graph.journal`` holds a
list (a rollback frame, opened by ``engine.ChangeStack``), every
mutator appends an entry naming its inverse mutator and that mutator's
arguments, e.g. ``(Graph.relabel, item, label)``, so ``undo``
replays a frame newest first through the same mutators.  A root move is
one-way: ``root`` journals ``(Graph.unroot, node)`` and ``unroot``
journals ``(Graph.root, node, at)``, its place in ``root_list``.  Undo
puts every order back: a deleted node or edge is relinked after its old
predecessors, and a root at its old place in ``root_list``.  A node
deleted under an open frame is held (``FLAG_IN_STACK``, and listed in
``held``) instead of freed, so the handles the entries keep never alias
a new node; ``release``, once the outermost frame closes, puts each
node still held on the free stack.  A node deleted while no frame is
open, as after the outermost frame's commit, is freed at once.  Entries
are written and read only in this module.  The consistency check and the isomorphism test that
tests run over these records are in ``oracles``."""

from __future__ import annotations

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
FLAG_MATCHED = 0x08       # held by a search, where another left-hand item may meet it

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


class Graph:
    __slots__ = (
        "node_slots", "free_nodes", "node_head", "node_tail", "root_list",
        "node_count", "edge_count", "live_bytes", "iter_steps", "candidates",
        "minimal_gc", "journal", "held",
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
        self.candidates = 0
        self.minimal_gc = False             # set by the run, see ExecConfig
        self.journal: Optional[list] = None    # the open rollback frame
        self.held: list[Node] = []          # nodes deleted under it, to release

    # -- nodes ----------------------------------------------------------

    def adopt(self, head: Optional[Node], edges: list[Edge]) -> None:
        """Take in, as this empty graph's records, the nodes chained from
        ``head`` through ``next`` and ``edges``, with their labels, marks,
        node flags and edge ends, laid out as by ``add_node`` along the
        chain, then ``add_edge`` along ``edges`` newest first."""
        slots, roots = self.node_slots, self.root_list
        prev, node = None, head
        while node is not None:
            node.slot_index = len(slots)
            slots.append(node)
            node.prev = prev
            node.indegree = node.outdegree = 0
            node.out_head = node.in_head = None
            if node.flags & FLAG_ROOT:
                roots.append(node)
            prev, node = node, node.next
        self.node_head, self.node_tail = head, prev
        self.node_count = len(slots)
        self.live_bytes = bytearray(b"\x01" * len(slots))
        for edge in reversed(edges):
            self.restore_edge(edge, None, None)

    def add_node(self, label: tuple = (), mark: str = MARK_NONE, root: bool = False) -> Node:
        if mark not in NODE_MARKS:
            raise GraphError(f"not a node mark: {mark}")
        if self.free_nodes:     # a freed node has no edges
            node = self.free_nodes.pop()
            self.live_bytes[node.slot_index] = 1
        else:
            node = Node()
            node.slot_index = len(self.node_slots)
            node.indegree = node.outdegree = 0
            node.out_head = node.in_head = None
            self.node_slots.append(node)
            self.live_bytes.append(1)
        node.label = label
        node.mark = mark
        node.flags = FLAG_IN_GRAPH
        tail = node.prev = self.node_tail
        node.next = None
        if tail is None:
            self.node_head = node
        else:
            tail.next = node
        self.node_tail = node
        if root:
            node.flags |= FLAG_ROOT
            self.root_list.append(node)
        self.node_count += 1
        if self.journal is not None:
            self.journal.append((Graph.delete_node, node))
        return node

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
            self.held.append(node)
        elif not self.minimal_gc:
            self.free_nodes.append(node)

    def restore_node(self, node: Node, flags: int, prev: Optional[Node],
                     nxt: Optional[Node], root_at: Optional[int]) -> None:
        """Relink a held node with its old flags between its old chain
        neighbours, and a root at its old place in ``root_list``: undo
        replays newest first, so both are as they were after the deletion."""
        node.flags = flags
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
        edge.src_prev = edge.tgt_prev = None
        nxt = edge.src_next = src.out_head
        if nxt is not None:
            nxt.src_prev = edge
        src.out_head = edge
        nxt = edge.tgt_next = tgt.in_head
        if nxt is not None:
            nxt.tgt_prev = edge
        tgt.in_head = edge
        src.outdegree += 1
        tgt.indegree += 1
        self.edge_count += 1
        if self.journal is not None:
            self.journal.append((Graph.delete_edge, edge))
        return edge

    def delete_edge(self, edge: Edge) -> None:
        if not edge.flags & FLAG_IN_GRAPH:
            raise GraphError("edge already deleted")
        if self.journal is not None:
            self.journal.append((Graph.restore_edge, edge, edge.src_prev, edge.tgt_prev))
        prev, nxt = edge.src_prev, edge.src_next
        if prev is None:
            edge.source.out_head = nxt
        else:
            prev.src_next = nxt
        if nxt is not None:
            nxt.src_prev = prev
        prev, nxt = edge.tgt_prev, edge.tgt_next
        if prev is None:
            edge.target.in_head = nxt
        else:
            prev.tgt_next = nxt
        if nxt is not None:
            nxt.tgt_prev = prev
        edge.src_prev = edge.src_next = edge.tgt_prev = edge.tgt_next = None
        edge.source.outdegree -= 1
        edge.target.indegree -= 1
        edge.flags = 0
        self.edge_count -= 1

    def restore_edge(self, edge: Edge, src_prev: Optional[Edge],
                     tgt_prev: Optional[Edge]) -> None:
        """Relink a deleted edge after the edges it followed in its
        endpoints' lists, which undo has put back before it, or at the
        heads where it had none."""
        edge.flags = FLAG_IN_GRAPH
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

    # -- in-place updates ------------------------------------------------

    def relabel(self, item, label: tuple) -> None:
        """Give a node or an edge ``label``, where it is."""
        if self.journal is not None:
            self.journal.append((Graph.relabel, item, item.label))
        item.label = label

    def remark(self, item, mark: str) -> None:
        """Give a node or an edge ``mark``, where it is."""
        if self.journal is not None:
            self.journal.append((Graph.remark, item, item.mark))
        item.mark = mark

    def root(self, node: Node, at: Optional[int] = None) -> None:
        """Make non-root ``node`` a root, last in ``root_list``; undo
        passes ``at``, its old place there."""
        node.flags |= FLAG_ROOT
        self.root_list.insert(len(self.root_list) if at is None else at, node)
        if self.journal is not None:
            self.journal.append((Graph.unroot, node))

    def unroot(self, node: Node) -> None:
        """Make root ``node`` a non-root."""
        node.flags &= ~FLAG_ROOT
        at = self.root_list.index(node)
        del self.root_list[at]
        if self.journal is not None:
            self.journal.append((Graph.root, node, at))

    # -- the journal ------------------------------------------------------

    def undo(self, entries: list) -> None:
        """Revert journaled mutations, newest first, through their
        inverse mutators.  Leaves the journal closed, so the reverting
        mutations are not journaled."""
        self.journal = None
        for inverse, *args in reversed(entries):
            inverse(self, *args)

    def release(self) -> None:
        """Let go of the nodes deleted under frames that have all closed:
        each one still held goes on the free stack.  One that undo put
        back is no longer held, and one held twice is freed once."""
        for node in self.held:
            if node.flags & FLAG_IN_STACK:
                node.flags = 0
                if not self.minimal_gc:
                    self.free_nodes.append(node)
        self.held = []

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
        while (j := live.find(1, i, len(slots))) >= 0:
            self.iter_steps += j - i + 1
            yield slots[j]
            i = j + 1
        self.iter_steps += len(slots) - i

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
    # walks, for the corpus checks, the oracles and perfbench, do not.

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
