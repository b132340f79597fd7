"""Reference matching: the slow, obviously correct counterparts of the
compiled steps in ``match``, which tests check the steps against.

``label_match`` unifies a left-hand label with a host label, as the
generated search does inline.  ``brute_force_match`` enumerates every
valid match of a rule by trying all injective node and edge maps;
``audit_match`` checks one match item by item, dangling condition and
rule condition included (through ``rules.eval_cond``, the reference
interpreter of the conditions ``match`` compiles).  ``plan_is_well_formed``
checks a search plan's shape, which the step generator relies on.

No run calls this code, and no module that a run imports (``cli``,
``engine``, ``graph``, ``match``, ``rules``, ``textio``) imports this
one, so a run never compiles it.
"""

from __future__ import annotations

from .graph import FLAG_ROOT, MARK_ANY, Graph
from .match import Match, Step
from .rules import LabelPattern, Rule, eval_cond


# -- label matching -----------------------------------------------------


def _bind_atom(item, value, assignment, trail) -> bool:
    kind = item[0]
    if kind == "lit":
        return item[1] == value
    name, vtype = item[1], item[2]
    if vtype == "int":
        if not isinstance(value, int):
            return False
    elif vtype == "string":
        if not isinstance(value, str):
            return False
    elif vtype == "char":
        if not (isinstance(value, str) and len(value) == 1):
            return False
    # atom and list types accept anything
    bound = assignment.get(name, _UNSET)
    if bound is _UNSET:
        assignment[name] = value
        trail.append(name)
        return True
    return bound == value


_UNSET = object()


def label_match(pattern: LabelPattern, host_label: tuple, assignment: dict,
                trail: list) -> bool:
    """Unify a pattern label with a host label, extending ``assignment``
    and appending each name this call binds to ``trail``.

    This is the label binder of the matching oracles; the compiled
    matcher inlines the same unification.  On a mismatch it returns
    False with this call's bindings already undone.
    """
    start = len(trail)
    if _unify(pattern, host_label, assignment, trail):
        return True
    for name in trail[start:]:
        del assignment[name]
    del trail[start:]
    return False


def _unify(pattern: LabelPattern, host_label: tuple, assignment, trail) -> bool:
    """label_match, leaving partial bindings on a mismatch: atoms
    positionally around at most one list variable."""
    items = pattern.items
    pos = pattern.list_var_pos
    if pos is None:
        if len(items) != len(host_label):
            return False
        for item, atom in zip(items, host_label):
            if not _bind_atom(item, atom, assignment, trail):
                return False
        return True
    prefix, suffix = items[:pos], items[pos + 1:]
    if len(host_label) < len(prefix) + len(suffix):
        return False
    for item, atom in zip(prefix, host_label):
        if not _bind_atom(item, atom, assignment, trail):
            return False
    for item, atom in zip(reversed(suffix), reversed(host_label)):
        if not _bind_atom(item, atom, assignment, trail):
            return False
    mid = host_label[len(prefix):len(host_label) - len(suffix)]
    return _bind_atom(items[pos], mid, assignment, trail)


def plan_is_well_formed(rule: Rule, plan: list[Step]) -> bool:
    """Whether the plan binds every left-hand node and takes every edge
    exactly once, each edge from an anchor already bound, binding its
    other endpoint exactly when that one is not yet bound, and binds
    every root, and only a root, at a 'root' step."""
    edges = {pe.eid: pe for pe in rule.lhs.edges}
    bound: set[int] = set()
    taken: list[int] = []
    for step in plan:
        pid, pe = step.node.pid, step.edge
        if (step.kind == "root") != (step.binds and step.node.root):
            return False
        if step.kind == "edge":
            ends = (step.anchor.pid, pid)
            if edges.get(pe.eid) is not pe or ends not in ((pe.src, pe.tgt), (pe.tgt, pe.src)) \
                    or ends[0] not in bound or step.binds != (pid not in bound):
                return False
            taken.append(pe.eid)
        elif pid in bound:
            return False
        bound.add(pid)
    return sorted(bound) == sorted(rule.lhs.by_id) and sorted(taken) == sorted(edges)


# -- exhaustive matching --------------------------------------------------


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
        key = match_key(m)
        if key not in seen:
            seen.add(key)
            results.append(m)

    node_maps(0, [], {}, [])
    return results


def match_key(m: Match) -> tuple:
    """The match's node and edge images, comparable between matchers."""
    return (
        tuple(sorted((pid, img.slot_index) for pid, img in m.node_images.items())),
        tuple(sorted((eid, id(img)) for eid, img in m.edge_images.items())),
    )


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
