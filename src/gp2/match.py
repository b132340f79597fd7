"""Search plans and injective host-graph matching.

``compile_plan`` builds each rule's one search plan: root nodes are
claimed first from the host's root list, every further pattern item is
reached by walking an incident-edge chain of an already-bound node, and
only pattern components unreachable from any root fall back to global
node iteration.  That ordering is what confines matching of fast rules
to the neighbourhood of the host's roots.  Each step carries everything
the search reads (ids, labels, marks, degrees, edge phases), so the
plan is built once per rule and setting and cached in ``Rule.plans``.

``find_match_steps`` is the one search.  It walks the plan iteratively,
keeping one candidate iterator and one trail mark per step, so a
left-hand side of any size matches without recursion.  Each candidate
is checked when it is bound: injectivity, mark, root, degree, then
label.  A node the rule deletes must have its exact degree (the dangling
condition), so a dangling candidate is rejected before the rule's
condition is ever evaluated.  A node the rule keeps must have at least
as many out- and in-edges as its non-bidirectional left-hand edges give
it, so a host node that cannot take them is rejected before its label
is unified.  The condition runs once every step is bound.

Injectivity is enforced with per-record matched flags, set while a
candidate is held and cleared again on backtracking, so each attempt
costs only the items it touched.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from .graph import FLAG_MATCHED, FLAG_ROOT, MARK_ANY, Graph
from .rules import Rule, eval_cond, label_match


class Match:
    __slots__ = ("node_images", "edge_images", "assignment", "orientations")

    def __init__(self, node_images, edge_images, assignment, orientations):
        self.node_images = node_images      # pattern node id -> host node
        self.edge_images = edge_images      # pattern edge id -> host edge
        self.assignment = assignment
        self.orientations = orientations    # pattern edge id -> True if flipped

    def key(self):
        return (
            tuple(sorted((pid, img.slot_index) for pid, img in self.node_images.items())),
            tuple(sorted((eid, id(img)) for eid, img in self.edge_images.items())),
        )


def compile_plan(rule: Rule, optimize: bool = True) -> list[tuple]:
    """The rule's search plan for ``find_match_steps``, built once per
    (rule, optimize) and cached in ``Rule.plans``.

    A node step is (kind, pid, label, mark, degree, out_min, in_min)
    with kind 'root' (candidates from the root list) or 'node' (every
    host node).  An edge step is ('edge', eid, label, mark, phases,
    anchor_pid, other_pid, binds, other_label, other_mark, other_root,
    degree, out_min, in_min, bidir): it walks the bound anchor's
    out-edges or in-edges, one list per (reverse, flipped) phase, and
    either binds the other endpoint (``binds``) or checks it against
    that endpoint's image.  A mark is None where the pattern accepts
    any.  degree is the exact degree a deleted node must have (-1 for a
    kept node); out_min and in_min are a kept node's least out- and
    in-degree, its non-bidirectional left-hand edges out and in (a loop
    counts once each way).  Both are checked when the node is bound.

    With ``optimize`` the roots come first, and before each further node
    every edge reachable from a bound node is taken: all edges with both
    ends bound in index order, then the lowest edge with one, repeating.
    Only nodes no edge reaches get a global step.  Without it the nodes
    come in textual order, then the edges.
    """
    cached = rule.plans.get(optimize)
    if cached is not None:
        return cached
    lhs = rule.lhs
    nodes = lhs.nodes
    deleted = set(rule.deleted)
    degree = [0 if pn.pid in deleted else -1 for pn in nodes]
    out_min = [0] * len(nodes)
    in_min = [0] * len(nodes)
    ends = [(lhs.by_id[e.src], lhs.by_id[e.tgt]) for e in lhs.edges]
    incident: list[list[int]] = [[] for _ in nodes]
    for ei, (si, ti) in enumerate(ends):
        if not lhs.edges[ei].bidir:
            out_min[si] += 1
            in_min[ti] += 1
        for ni in (si, ti):
            incident[ni].append(ei)
            if degree[ni] >= 0:
                degree[ni] += 1
    bound = [False] * len(nodes)
    taken = [False] * len(lhs.edges)
    heap: list[tuple[bool, int]] = []   # (only one end bound, edge index)
    steps: list[tuple] = []

    def mark(item):
        return None if item.mark == MARK_ANY else item.mark

    def bind(ni):
        bound[ni] = True
        for ei in incident[ni]:
            si, ti = ends[ei]
            heappush(heap, (not (bound[si] and bound[ti]), ei))

    def take_edges():
        while heap:
            ei = heappop(heap)[1]
            if taken[ei]:
                continue
            taken[ei] = True
            pe = lhs.edges[ei]
            si, ti = ends[ei]
            if bound[si]:
                anchor, oi = pe.src, ti
                phases = ((False, False), (True, True)) if pe.bidir else ((False, False),)
            else:
                anchor, oi = pe.tgt, si
                phases = ((False, True), (True, False)) if pe.bidir else ((True, False),)
            on = nodes[oi]
            steps.append(("edge", pe.eid, pe.label, mark(pe), phases, anchor, on.pid,
                          not bound[oi], on.label, mark(on), on.root, degree[oi],
                          out_min[oi], in_min[oi], pe.bidir))
            if not bound[oi]:
                bind(oi)

    order = range(len(nodes))
    if optimize:
        order = sorted(order, key=lambda ni: not nodes[ni].root)
    for ni in order:
        pn = nodes[ni]
        if optimize and not pn.root:
            take_edges()
        if not bound[ni]:
            steps.append(("root" if pn.root else "node", pn.pid, pn.label, mark(pn),
                          degree[ni], out_min[ni], in_min[ni]))
            bind(ni)
    take_edges()
    rule.plans[optimize] = steps
    return steps


def plan_is_well_formed(rule: Rule, plan: list[tuple]) -> bool:
    """Whether the plan binds every left-hand node and takes every edge
    exactly once, each edge from an anchor already bound, binding its
    other endpoint exactly when that one is not yet bound."""
    edges = {pe.eid: pe for pe in rule.lhs.edges}
    bound: set[int] = set()
    taken: list[int] = []
    for step in plan:
        if step[0] != "edge":
            if step[1] in bound:
                return False
            bound.add(step[1])
            continue
        pe = edges.get(step[1])
        anchor, other, binds = step[5], step[6], step[7]
        if pe is None or (anchor, other) not in ((pe.src, pe.tgt), (pe.tgt, pe.src)) \
                or anchor not in bound or binds != (other not in bound):
            return False
        taken.append(pe.eid)
        bound.add(other)
    return sorted(bound) == sorted(rule.lhs.by_id) and sorted(taken) == sorted(edges)


def find_match(rule: Rule, g: Graph, mode: str = "preserve",
               backend: str = "chain", optimize: bool = True) -> Optional[Match]:
    return find_match_steps(rule, g, mode, backend, optimize)[0]


def find_match_steps(rule: Rule, g: Graph, mode: str = "preserve",
                     backend: str = "chain", optimize: bool = True):
    """The first match in plan order, or None, and the number of host
    candidates examined.

    Backtracking keeps, per plan step, its candidate iterator (a node
    iterator, or the next edge and its phase) and the trail length
    before its binding; stepping back clears the step's matched flags
    and unbinds its variables.  ``images`` may keep a stale entry for a
    step undone: the next binding of that step overwrites it.
    """
    # read the cache first: every call of compile_plan makes its closure cells
    steps = rule.plans.get(optimize) or compile_plan(rule, optimize)
    n = len(steps)
    reflect = mode == "reflect"
    condition = rule.condition
    images: dict = {}           # pattern node id -> host node
    edge_images: dict = {}      # pattern edge id -> host edge
    orientations: dict = {}     # pattern edge id -> True if flipped
    assignment: dict = {}
    trail: list = []
    cursors = [None] * n        # node iterator, or next edge to try
    phase_at = [0] * n
    marks = [0] * n
    candidates = 0
    i = 0
    fresh = True
    try:
        while True:
            if i == n:
                if condition is None or eval_cond(condition, assignment, images):
                    return Match(images, edge_images, assignment, orientations), candidates
                found = False
            elif steps[i][0] != "edge":
                kind, pid, label, mark, degree, out_min, in_min = steps[i]
                root = kind == "root"
                if fresh:
                    cursors[i] = iter(g.root_list) if root else g.nodes_iter(backend)
                    marks[i] = len(trail)
                found = False
                for host in cursors[i]:
                    candidates += 1
                    flags = host.flags
                    if flags & FLAG_MATCHED:
                        continue
                    if mark is not None and mark != host.mark:
                        continue
                    if root:
                        if not flags & FLAG_ROOT:
                            continue
                    elif reflect and flags & FLAG_ROOT:
                        continue
                    if degree >= 0:
                        if host.indegree + host.outdegree != degree:
                            continue
                    elif host.outdegree < out_min or host.indegree < in_min:
                        continue
                    if label_match(label, host.label, assignment, trail):
                        host.flags = flags | FLAG_MATCHED
                        images[pid] = host
                        found = True
                        break
            else:
                (_, eid, label, mark, phases, anchor_pid, other_pid, binds,
                 other_label, other_mark, other_root, degree, out_min, in_min,
                 bidir) = steps[i]
                anchor = images[anchor_pid]
                if fresh:
                    p = 0
                    reverse, flipped = phases[0]
                    edge = anchor.in_head if reverse else anchor.out_head
                    marks[i] = len(trail)
                else:
                    p = phase_at[i]
                    reverse, flipped = phases[p]
                    edge = cursors[i]
                found = False
                while True:
                    # reverse=False walks the anchor's out-edges, True its in-edges
                    while edge is not None:
                        host = edge
                        edge = host.tgt_next if reverse else host.src_next
                        candidates += 1
                        flags = host.flags
                        if flags & FLAG_MATCHED:
                            continue
                        if mark is not None and mark != host.mark:
                            continue
                        other = host.source if reverse else host.target
                        if binds:
                            other_flags = other.flags
                            if other_flags & FLAG_MATCHED:
                                continue
                            if other_mark is not None and other_mark != other.mark:
                                continue
                            if other_root:
                                if not other_flags & FLAG_ROOT:
                                    continue
                            elif reflect and other_flags & FLAG_ROOT:
                                continue
                            if degree >= 0:
                                if other.indegree + other.outdegree != degree:
                                    continue
                            elif other.outdegree < out_min or other.indegree < in_min:
                                continue
                            if not label_match(other_label, other.label, assignment, trail):
                                continue
                        elif other is not images[other_pid]:
                            continue
                        if not label_match(label, host.label, assignment, trail):
                            _unbind(assignment, trail, marks[i])
                            continue
                        host.flags = flags | FLAG_MATCHED
                        edge_images[eid] = host
                        if bidir:
                            orientations[eid] = flipped
                        if binds:
                            other.flags |= FLAG_MATCHED
                            images[other_pid] = other
                        found = True
                        break
                    if found or p + 1 == len(phases):
                        break
                    p += 1
                    reverse, flipped = phases[p]
                    edge = anchor.in_head if reverse else anchor.out_head
                cursors[i] = edge
                phase_at[i] = p
            if found:
                i += 1
                fresh = True
                continue
            # step i has no further candidate (or the condition failed):
            # undo the binding of the step before it and resume there
            i -= 1
            if i < 0:
                return None, candidates
            step = steps[i]
            if step[0] != "edge":
                images[step[1]].flags &= ~FLAG_MATCHED
            else:
                edge_images[step[1]].flags &= ~FLAG_MATCHED
                if step[7]:
                    images[step[6]].flags &= ~FLAG_MATCHED
            _unbind(assignment, trail, marks[i])
            fresh = False
    finally:
        # on a match, and on an exception from the condition; after a
        # failed search every flag is already clear
        for host in images.values():
            host.flags &= ~FLAG_MATCHED
        for host in edge_images.values():
            host.flags &= ~FLAG_MATCHED


def _unbind(assignment: dict, trail: list, mark: int) -> None:
    for name in trail[mark:]:
        del assignment[name]
    del trail[mark:]


# -- exhaustive oracle ------------------------------------------------------


def brute_force_match(rule: Rule, g: Graph, mode: str = "preserve") -> list[Match]:
    """Enumerate every valid match by trying all injective node maps and
    all injective edge assignments; meant for small test hosts."""
    lhs = rule.lhs
    hosts = g.nodes()
    results: list[Match] = []
    seen = set()
    k = len(lhs.nodes)

    def node_maps(i, chosen, assignment, trail):
        if i == k:
            assign_edges(0, {}, assignment, trail, chosen)
            return
        pn = lhs.nodes[i]
        for host in hosts:
            if any(host is c for c in chosen):
                continue
            if pn.mark != MARK_ANY and pn.mark != host.mark:
                continue
            if pn.root and not host.flags & FLAG_ROOT:
                continue
            if not pn.root and mode == "reflect" and host.flags & FLAG_ROOT:
                continue
            n = len(trail)
            if not label_match(pn.label, host.label, assignment, trail):
                continue
            chosen.append(host)
            node_maps(i + 1, chosen, assignment, trail)
            chosen.pop()
            for name in trail[n:]:
                del assignment[name]
            del trail[n:]

    def assign_edges(j, edge_map, assignment, trail, chosen):
        if j == len(lhs.edges):
            finish(edge_map, assignment, chosen)
            return
        pe = lhs.edges[j]
        src_img = chosen[lhs.by_id[pe.src]]
        tgt_img = chosen[lhs.by_id[pe.tgt]]
        options = [(e, False) for e in g.out_edges(src_img) if e.target is tgt_img]
        if pe.bidir and src_img is not tgt_img:
            options += [(e, True) for e in g.in_edges(src_img) if e.source is tgt_img]
        for host_edge, flipped in options:
            if any(host_edge is other for other in edge_map.values()):
                continue
            if pe.mark != MARK_ANY and pe.mark != host_edge.mark:
                continue
            n = len(trail)
            if not label_match(pe.label, host_edge.label, assignment, trail):
                continue
            edge_map[j] = host_edge
            assign_edges(j + 1, edge_map, assignment, trail, chosen)
            del edge_map[j]
            for name in trail[n:]:
                del assignment[name]
            del trail[n:]

    def finish(edge_map, assignment, chosen):
        images = {pn.pid: chosen[i] for i, pn in enumerate(lhs.nodes)}
        if not _dangling_ok(rule, images):
            return
        if rule.condition is not None:
            if not eval_cond(rule.condition, assignment, images):
                return
        edge_images = {lhs.edges[j].eid: e for j, e in edge_map.items()}
        orientations = {}
        for j, e in edge_map.items():
            pe = lhs.edges[j]
            if pe.bidir:
                orientations[pe.eid] = e.source is not chosen[lhs.by_id[pe.src]]
        m = Match(images, edge_images, dict(assignment), orientations)
        key = m.key()
        if key not in seen:
            seen.add(key)
            results.append(m)

    node_maps(0, [], {}, [])
    return results


def audit_match(rule: Rule, g: Graph, m: Match, mode: str = "preserve") -> None:
    """Validity auditor: raises AssertionError unless the match is a
    structure-, label-, mark- and root-compatible injective embedding
    satisfying condition and dangling requirements."""
    lhs = rule.lhs
    node_ids = [id(n) for n in m.node_images.values()]
    assert len(set(node_ids)) == len(node_ids), "node map is not injective"
    edge_ids = [id(e) for e in m.edge_images.values()]
    assert len(set(edge_ids)) == len(edge_ids), "edge map is not injective"

    assignment: dict = {}
    trail: list = []
    for pn in lhs.nodes:
        host = m.node_images[pn.pid]
        assert host.in_graph, "image node is not live"
        assert pn.mark == MARK_ANY or pn.mark == host.mark, "mark mismatch"
        if pn.root:
            assert host.flags & FLAG_ROOT, "root not preserved"
        elif mode == "reflect":
            assert not host.flags & FLAG_ROOT, "root not reflected"
        assert label_match(pn.label, host.label, assignment, trail), \
            "node label does not unify"
    for pe in lhs.edges:
        host = m.edge_images[pe.eid]
        src_img = m.node_images[pe.src]
        tgt_img = m.node_images[pe.tgt]
        if pe.bidir and m.orientations.get(pe.eid):
            src_img, tgt_img = tgt_img, src_img
        assert host.source is src_img and host.target is tgt_img, \
            "edge endpoints do not commute with the node map"
        assert pe.mark == MARK_ANY or pe.mark == host.mark, "edge mark mismatch"
        assert label_match(pe.label, host.label, assignment, trail), \
            "edge label does not unify"
    assert {k: assignment[k] for k in m.assignment} == m.assignment or \
        assignment == m.assignment, "recorded assignment disagrees"
    assert _dangling_ok(rule, m.node_images), "dangling condition violated"
    if rule.condition is not None:
        assert eval_cond(rule.condition, m.assignment,
                         dict(m.node_images)), "condition not satisfied"


def _dangling_ok(rule: Rule, node_images: dict) -> bool:
    """Whether every node the rule deletes has, in the host, exactly as
    many incident edges as the left-hand side gives it (loops twice)."""
    kept = set(rule.interface)
    for pn in rule.lhs.nodes:
        if pn.pid not in kept:
            incident = sum((pe.src == pn.pid) + (pe.tgt == pn.pid)
                           for pe in rule.lhs.edges)
            host = node_images[pn.pid]
            if host.indegree + host.outdegree != incident:
                return False
    return True
