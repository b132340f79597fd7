"""Search plans and injective host-graph matching.

A rule compiles to an ordered plan: root nodes are claimed first from
the host's root list, every further pattern item is reached by walking
an incident-edge chain of an already-matched node, and only pattern
components unreachable from any root fall back to global node
iteration.  That ordering is what confines matching of fast rules to
the neighbourhood of the host's roots.

``find_match_steps`` is the one search.  It walks the plan iteratively,
keeping one candidate iterator and one trail mark per step, so a
left-hand side of any size matches without recursion.  Each candidate
is checked when it is bound: injectivity, mark, root, label and, for a
node the rule deletes, the dangling condition (its exact degree), so a
dangling candidate is rejected before the rule's condition is ever
evaluated.  The condition runs once every step is bound.

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
            tuple(sorted((eid, img.slot_index) for eid, img in self.edge_images.items())),
        )


def compile_plan(rule: Rule, optimize: bool = True) -> list[tuple]:
    """Produce the ordered matching plan for a rule.

    Steps are ('root', n), ('node', n) and ('edge', e, anchor) where
    anchor names the already-matched endpoint ('src' or 'tgt').
    """
    cached = rule.plans.get(optimize)
    if cached is not None:
        return cached
    lhs = rule.lhs
    steps: list[tuple] = []
    ends = [(lhs.by_id[e.src], lhs.by_id[e.tgt]) for e in lhs.edges]
    incident: list[list[int]] = [[] for _ in lhs.nodes]
    for ei, (si, ti) in enumerate(ends):
        incident[si].append(ei)
        incident[ti].append(ei)
    matched = [False] * len(lhs.nodes)
    produced = [False] * len(lhs.edges)
    heap: list[tuple[bool, int]] = []   # (only one end matched, edge index)

    def match_node(ni):
        matched[ni] = True
        for ei in incident[ni]:
            si, ti = ends[ei]
            heappush(heap, (not (matched[si] and matched[ti]), ei))

    def emit_edges():
        # close every edge whose endpoints are all matched, in index
        # order, then extend along the lowest edge with one matched
        # endpoint, repeating until the matched component is exhausted
        while heap:
            ei = heappop(heap)[1]
            if produced[ei]:
                continue
            produced[ei] = True
            si, ti = ends[ei]
            if matched[si]:
                steps.append(("edge", ei, "src"))
                if not matched[ti]:
                    match_node(ti)
            else:
                steps.append(("edge", ei, "tgt"))
                match_node(si)

    if optimize:
        for ni, pn in enumerate(lhs.nodes):
            if pn.root:
                steps.append(("root", ni))
                match_node(ni)
        emit_edges()
        for ni, pn in enumerate(lhs.nodes):
            if not matched[ni]:
                steps.append(("node", ni))
                match_node(ni)
                emit_edges()
    else:
        # textual order, no planning: nodes as declared, then the edges
        for ni, pn in enumerate(lhs.nodes):
            steps.append(("root", ni) if pn.root else ("node", ni))
            match_node(ni)
        emit_edges()

    rule.plans[optimize] = steps
    return steps


def plan_is_well_formed(rule: Rule, plan: list[tuple]) -> bool:
    lhs = rule.lhs
    matched: set[int] = set()
    produced_nodes: list[int] = []
    produced_edges: list[int] = []
    for step in plan:
        if step[0] in ("root", "node"):
            if step[1] in matched:
                return False
            produced_nodes.append(step[1])
            matched.add(step[1])
        else:
            _, ei, anchor = step
            e = lhs.edges[ei]
            anchor_ni = lhs.by_id[e.src if anchor == "src" else e.tgt]
            if anchor_ni not in matched:
                return False
            produced_edges.append(ei)
            for ni in (lhs.by_id[e.src], lhs.by_id[e.tgt]):
                if ni not in matched:
                    produced_nodes.append(ni)
                    matched.add(ni)
    return sorted(produced_nodes) == list(range(len(lhs.nodes))) and \
        sorted(produced_edges) == list(range(len(lhs.edges)))


def search_steps(rule: Rule, optimize: bool = True) -> list[tuple]:
    """The rule's plan resolved for ``find_match_steps``, once per
    (rule, optimize).

    A node step is (kind, pid, label, mark, degree) with kind 'root'
    (candidates from the root list) or 'node' (every host node).  An
    edge step is ('edge', eid, label, mark, phases, anchor_pid,
    other_pid, binds, other_label, other_mark, other_root, degree,
    bidir): it walks the anchor's out-edges or in-edges, one list per
    (reverse, flipped) phase, and either binds the other endpoint or
    checks it against that endpoint's image.  A mark is None where the
    pattern accepts any, and degree is the exact degree a deleted node
    must have (-1 for a kept node), checked when the node is bound.
    """
    cached = rule.searches.get(optimize)
    if cached is not None:
        return cached
    lhs = rule.lhs
    kept = set(rule.interface)
    degree = {pn.pid: -1 if pn.pid in kept else 0 for pn in lhs.nodes}
    for pe in lhs.edges:
        for pid in (pe.src, pe.tgt):
            if pid not in kept:
                degree[pid] += 1

    def mark(item):
        return None if item.mark == MARK_ANY else item.mark

    steps = []
    bound = set()
    for step in compile_plan(rule, optimize):
        if step[0] != "edge":
            pn = lhs.nodes[step[1]]
            steps.append((step[0], pn.pid, pn.label, mark(pn), degree[pn.pid]))
            bound.add(pn.pid)
            continue
        pe = lhs.edges[step[1]]
        if step[2] == "src":
            anchor, other = pe.src, pe.tgt
            phases = ((False, False), (True, True)) if pe.bidir else ((False, False),)
        else:
            anchor, other = pe.tgt, pe.src
            phases = ((False, True), (True, False)) if pe.bidir else ((True, False),)
        on = lhs.nodes[lhs.by_id[other]]
        steps.append(("edge", pe.eid, pe.label, mark(pe), phases, anchor, other,
                      other not in bound, on.label, mark(on), on.root,
                      degree[other], pe.bidir))
        bound.add(other)
    rule.searches[optimize] = steps
    return steps


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
    steps = search_steps(rule, optimize)
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
                kind, pid, label, mark, degree = steps[i]
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
                    if degree >= 0 and host.indegree + host.outdegree != degree:
                        continue
                    if label_match(label, host.label, assignment, trail):
                        host.flags = flags | FLAG_MATCHED
                        images[pid] = host
                        found = True
                        break
            else:
                (_, eid, label, mark, phases, anchor_pid, other_pid, binds,
                 other_label, other_mark, other_root, degree, bidir) = steps[i]
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
                            if degree >= 0 and \
                                    other.indegree + other.outdegree != degree:
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
