"""Search plans and injective host-graph matching.

A rule compiles to an ordered plan: root nodes are claimed first from
the host's root list, every further pattern item is reached by walking
an incident-edge chain of an already-matched node, and only pattern
components unreachable from any root fall back to global node
iteration.  That ordering is what confines matching of fast rules to
the neighbourhood of the host's roots.

Injectivity is enforced with per-record matched flags, set while a
candidate is held and cleared again on backtracking, so each attempt
costs only the items it touched.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graph import FLAG_MATCHED, FLAG_ROOT, MARK_ANY, Graph, Node
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


def prepare_rule(rule: Rule) -> None:
    """Attach matcher metadata to a rule (idempotent)."""
    if rule._scratch is not None:
        return
    lhs = rule.lhs
    interface = set(rule.interface)
    incident = [0] * len(lhs.nodes)
    for e in lhs.edges:
        incident[lhs.by_id[e.src]] += 1
        incident[lhs.by_id[e.tgt]] += 1
    deleted = [i for i, n in enumerate(lhs.nodes) if n.pid not in interface]
    single = None
    if len(lhs.nodes) == 1 and not lhs.edges:
        single = (lhs.nodes[0], bool(deleted))
    rule._scratch = {
        "incident": incident,
        "deleted": deleted,
        "interface": frozenset(interface),
        "single": single,
        "node_img": [None] * len(lhs.nodes),
        "edge_img": [None] * len(lhs.edges),
    }


def compile_plan(rule: Rule, optimize: bool = True) -> list[tuple]:
    """Produce the ordered matching plan for a rule.

    Steps are ('root', n), ('node', n) and ('edge', e, anchor) where
    anchor names the already-matched endpoint ('src' or 'tgt').
    """
    cached = rule.plans.get(optimize)
    if cached is not None:
        return cached
    prepare_rule(rule)
    lhs = rule.lhs
    steps: list[tuple] = []
    matched: set[int] = set()
    produced: set[int] = set()

    def emit_edges():
        # close every edge whose endpoints are all matched, then extend
        # along one edge with a single matched endpoint, repeating until
        # the matched component is exhausted
        progress = True
        while progress:
            progress = False
            for ei, e in enumerate(lhs.edges):
                if ei in produced:
                    continue
                si, ti = lhs.by_id[e.src], lhs.by_id[e.tgt]
                if si in matched and ti in matched:
                    steps.append(("edge", ei, "src"))
                    produced.add(ei)
                    progress = True
            for ei, e in enumerate(lhs.edges):
                if ei in produced:
                    continue
                si, ti = lhs.by_id[e.src], lhs.by_id[e.tgt]
                if si in matched:
                    steps.append(("edge", ei, "src"))
                    produced.add(ei)
                    matched.add(ti)
                    progress = True
                    break
                if ti in matched:
                    steps.append(("edge", ei, "tgt"))
                    produced.add(ei)
                    matched.add(si)
                    progress = True
                    break

    if optimize:
        for ni, pn in enumerate(lhs.nodes):
            if pn.root:
                steps.append(("root", ni))
                matched.add(ni)
        emit_edges()
        for ni, pn in enumerate(lhs.nodes):
            if ni not in matched:
                steps.append(("node", ni))
                matched.add(ni)
                emit_edges()
    else:
        # textual order, no planning: nodes as declared, then the edges
        for ni, pn in enumerate(lhs.nodes):
            steps.append(("root", ni) if pn.root else ("node", ni))
            matched.add(ni)
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


def _node_ok(pn, host, mode: str) -> bool:
    if host.flags & FLAG_MATCHED:
        return False
    if pn.mark != MARK_ANY and pn.mark != host.mark:
        return False
    if pn.root:
        if not host.flags & FLAG_ROOT:
            return False
    elif mode == "reflect" and host.flags & FLAG_ROOT:
        return False
    return True


def _edge_ok(pe, host) -> bool:
    if host.flags & FLAG_MATCHED:
        return False
    return pe.mark == MARK_ANY or pe.mark == host.mark


def find_match(rule: Rule, g: Graph, mode: str = "preserve",
               backend: str = "chain", optimize: bool = True) -> Optional[Match]:
    return _search(rule, g, mode, backend, optimize)[0]


def find_match_steps(rule: Rule, g: Graph, mode: str = "preserve",
                     backend: str = "chain", optimize: bool = True):
    """As find_match, also reporting how many candidates were examined."""
    return _search(rule, g, mode, backend, optimize)


def _search_single(rule: Rule, g: Graph, mode: str, backend: str):
    """Tight path for one-node, zero-edge left-hand sides, which is what
    the inner loops of reduction programs hammer."""
    pn, deletes = rule._scratch["single"]
    label = pn.label
    kind = label.kind
    want = label.detail
    pmark = pn.mark
    any_mark = pmark == MARK_ANY
    reflect = mode == "reflect"
    condition = rule.condition
    steps = 0

    candidates = g.root_list if pn.root else g.nodes_iter(backend)

    for host in candidates:
        steps += 1
        flags = host.flags
        if not any_mark and pmark != host.mark:
            continue
        if pn.root:
            if not flags & FLAG_ROOT:
                continue
        elif reflect and flags & FLAG_ROOT:
            continue
        if deletes and (host.indegree or host.outdegree):
            continue
        if kind == "list_var":
            assignment = {want: host.label}
        elif kind == "const":
            if host.label != want:
                continue
            assignment = {}
        else:
            assignment = {}
            if label_match(label, host.label, assignment) is None:
                continue
        if condition is not None and \
                not eval_cond(condition, assignment, {pn.pid: host}, g):
            continue
        return Match({pn.pid: host}, {}, assignment, {}), steps
    return None, steps


def _search(rule: Rule, g: Graph, mode: str, backend: str, optimize: bool):
    plan = compile_plan(rule, optimize)
    scratch = rule._scratch
    if scratch["single"] is not None:
        return _search_single(rule, g, mode, backend)
    lhs = rule.lhs
    node_img = scratch["node_img"]
    edge_img = scratch["edge_img"]
    for i in range(len(node_img)):
        node_img[i] = None
    for i in range(len(edge_img)):
        edge_img[i] = None
    if plan and plan[0][0] == "root" and not g.root_list:
        return None, 0

    assignment: dict = {}
    trail: list = []
    orientations: dict = {}
    steps_taken = 0
    nsteps = len(plan)
    condition = rule.condition
    deleted = scratch["deleted"]
    incident = scratch["incident"]

    def unbind(n):
        for name in trail[n:]:
            del assignment[name]
        del trail[n:]

    def solve(si: int) -> bool:
        nonlocal steps_taken
        if si == nsteps:
            if condition is not None:
                images = {pn.pid: node_img[i] for i, pn in enumerate(lhs.nodes)}
                if not eval_cond(condition, assignment, images, g):
                    return False
            for ni in deleted:
                host = node_img[ni]
                if host.indegree + host.outdegree != incident[ni]:
                    return False
            return True
        step = plan[si]
        kind = step[0]
        if kind == "edge":
            _, ei, anchor = step
            pe = lhs.edges[ei]
            src_ni = lhs.by_id[pe.src]
            tgt_ni = lhs.by_id[pe.tgt]
            anchor_img = node_img[src_ni if anchor == "src" else tgt_ni]
            phases = (False, True) if pe.bidir else \
                ((False,) if anchor == "src" else (True,))
            for reverse in phases:
                # reverse=False walks the anchor's out-edges, True its in-edges
                if anchor == "src":
                    other_ni = tgt_ni
                    flipped = reverse
                else:
                    other_ni = src_ni
                    flipped = not reverse
                other_expected = node_img[other_ni]
                edge = anchor_img.in_head if reverse else anchor_img.out_head
                while edge is not None:
                    host = edge
                    edge = host.tgt_next if reverse else host.src_next
                    steps_taken += 1
                    if not _edge_ok(pe, host):
                        continue
                    other_host = host.target if not reverse else host.source
                    mark = len(trail)
                    if other_expected is not None:
                        if other_host is not other_expected:
                            continue
                        bound_node = False
                    else:
                        pn = lhs.nodes[other_ni]
                        if not _node_ok(pn, other_host, mode):
                            continue
                        if label_match(pn.label, other_host.label, assignment, trail) is None:
                            continue
                        bound_node = True
                    if label_match(pe.label, host.label, assignment, trail) is None:
                        unbind(mark)
                        continue
                    host.flags |= FLAG_MATCHED
                    edge_img[ei] = host
                    if pe.bidir:
                        orientations[pe.eid] = flipped
                    if bound_node:
                        other_host.flags |= FLAG_MATCHED
                        node_img[other_ni] = other_host
                    if solve(si + 1):
                        return True
                    host.flags &= ~FLAG_MATCHED
                    edge_img[ei] = None
                    if bound_node:
                        other_host.flags &= ~FLAG_MATCHED
                        node_img[other_ni] = None
                    unbind(mark)
            return False

        ni = step[1]
        pn = lhs.nodes[ni]
        candidates = g.root_list if kind == "root" else g.nodes_iter(backend)
        for host in candidates:
            steps_taken += 1
            if not _node_ok(pn, host, mode):
                continue
            mark = len(trail)
            if label_match(pn.label, host.label, assignment, trail) is None:
                continue
            host.flags |= FLAG_MATCHED
            node_img[ni] = host
            if solve(si + 1):
                return True
            host.flags &= ~FLAG_MATCHED
            node_img[ni] = None
            unbind(mark)
        return False

    try:
        found = solve(0)
    except BaseException:
        for img in node_img:
            if img is not None:
                img.flags &= ~FLAG_MATCHED
        for img in edge_img:
            if img is not None:
                img.flags &= ~FLAG_MATCHED
        raise
    if not found:
        return None, steps_taken
    node_images = {pn.pid: node_img[i] for i, pn in enumerate(lhs.nodes)}
    edge_images = {pe.eid: edge_img[i] for i, pe in enumerate(lhs.edges)}
    for img in node_images.values():
        img.flags &= ~FLAG_MATCHED
    for img in edge_images.values():
        img.flags &= ~FLAG_MATCHED
    return Match(node_images, edge_images, dict(assignment), dict(orientations)), steps_taken


# -- exhaustive oracle ------------------------------------------------------


def brute_force_match(rule: Rule, g: Graph, mode: str = "preserve") -> list[Match]:
    """Enumerate every valid match by trying all injective node maps and
    all injective edge assignments; meant for small test hosts."""
    prepare_rule(rule)
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
            if label_match(pn.label, host.label, assignment, trail) is None:
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
            if label_match(pe.label, host_edge.label, assignment, trail) is None:
                continue
            edge_map[j] = host_edge
            assign_edges(j + 1, edge_map, assignment, trail, chosen)
            del edge_map[j]
            for name in trail[n:]:
                del assignment[name]
            del trail[n:]

    def finish(edge_map, assignment, chosen):
        images = {pn.pid: chosen[i] for i, pn in enumerate(lhs.nodes)}
        if rule.condition is not None:
            if not eval_cond(rule.condition, assignment, images, g):
                return
        incident = rule._scratch["incident"]
        for ni in rule._scratch["deleted"]:
            host = chosen[ni]
            if host.indegree + host.outdegree != incident[ni]:
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
    prepare_rule(rule)
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
        assert label_match(pn.label, host.label, assignment, trail) is not None, \
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
        assert label_match(pe.label, host.label, assignment, trail) is not None, \
            "edge label does not unify"
    assert {k: assignment[k] for k in m.assignment} == m.assignment or \
        assignment == m.assignment, "recorded assignment disagrees"
    if rule.condition is not None:
        assert eval_cond(rule.condition, m.assignment,
                         dict(m.node_images), g), "condition not satisfied"
    incident = rule._scratch["incident"]
    for ni in rule._scratch["deleted"]:
        host = m.node_images[lhs.nodes[ni].pid]
        assert host.indegree + host.outdegree == incident[ni], \
            "dangling condition violated"
