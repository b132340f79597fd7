"""Helpers shared by the test modules."""

import functools

from gp2 import corpus
from gp2.engine import BROKE, FAILED, OK, ExecConfig, Executable, apply_rule
from gp2.graph import Graph
from gp2.textio import parse_program


@functools.cache
def executable(name, cfg=ExecConfig()):
    """One executable per (corpus program, config), reused across hosts."""
    return Executable(parse_program(corpus.load_program(name)), cfg)


def build_host(nodes, edges):
    """The graph of ``nodes``, (label, mark, root) in declaration order,
    and ``edges``, (source place, target place, label, mark), built as
    hosts were before they were read into their records: ``add_node``
    along the nodes last-declared first, then ``add_edge`` along the
    edges last-declared first.  The reference for the layout a parsed
    host has."""
    g = Graph()
    made = [g.add_node(*node) for node in reversed(nodes)][::-1]
    for source, target, label, mark in reversed(edges):
        g.add_edge(made[source], made[target], label, mark)
    return g


def kept_edges(rule):
    """The ids of the left-hand edges a rule keeps: a right-hand edge has
    the id, the source and target ids and the bidirectional flag of one."""
    ends = {pe.eid: (pe.src, pe.tgt, pe.bidir) for pe in rule.lhs.edges}
    return {pe.eid for pe in rule.rhs.edges if ends.get(pe.eid) == (pe.src, pe.tgt, pe.bidir)}


def predicate(rule, mode):
    """Whether ``rule`` leaves every graph it matches as it was, read off
    its text: the same node ids on both sides, every left-hand edge kept
    (see ``kept_edges``) and no other right-hand edge, and each right-hand
    item its left-hand twin's label pattern written back and its mark
    equal or ``any``, and each node its root flag equal.  In preserve mode
    every node must be rooted too: a non-root one may match a root, whose
    flag the rewrite then clears."""
    kept = kept_edges(rule)
    if set(rule.lhs.by_id) != set(rule.rhs.by_id) or len(kept) != len(rule.lhs.edges) \
            or len(rule.rhs.edges) != len(kept):
        return False
    left_edge = {pe.eid: pe for pe in rule.lhs.edges}
    twins = [(right, rule.lhs.nodes[rule.lhs.by_id[right.pid]]) for right in rule.rhs.nodes]
    for right, left in twins + [(right, left_edge[right.eid]) for right in rule.rhs.edges]:
        if not written_back(right, left) or right.mark not in ("any", left.mark):
            return False
    return all(right.root == left.root and (mode == "reflect" or left.root)
               for right, left in twins)


def written_back(right, left):
    """Whether right-hand item ``right`` writes the label pattern of its
    left-hand twin ``left`` out again, atom for atom."""
    return _atoms(right.label) == [item[:2] for item in left.label.items]


def _atoms(term):
    """A right-hand label as label pattern items, ``None`` for a term
    that is not a literal or a variable."""
    tag = term[0]
    if tag == "cons":
        return _atoms(term[1]) + _atoms(term[2])
    if tag == "var":
        return [term[:2]]
    if tag in ("int", "str"):
        return [("lit", term[1])]
    return [] if tag == "empty" else [None]


def interpret(cmd, rules, cfg):
    """The reference for the generated ``main``: an inlined command as
    ``(run, fail, mutate, clean)``, where ``run(g, stack)`` is a tree of
    nested closures that return OK, FAILED or BROKE, and the effects
    place frames by the rule ``engine._build`` states, computed here on
    their own: a rule set may change the graph unless each of its rules
    is a ``predicate``.  A framed loop body or ``try`` guard that is a
    sequence commits after its last part that may fail (``_committed``)."""
    tag = cmd[0]
    if tag == "rules":
        chosen = [rules[name] for name in cmd[1]]
        setting = (cfg.root_mode, cfg.backend, cfg.optimize_plans)
        mutate = not all(predicate(rule, cfg.root_mode) for rule in chosen)
        return (lambda g, stack: OK if any(apply_rule(rule, g, *setting) for rule in chosen)
                else FAILED), True, mutate, True
    if tag == "loop":
        body, _, mutate, clean = interpret(cmd[1], rules, cfg)
        body = body if clean else _committed(cmd[1], body, rules, cfg)

        def loop(g, stack):
            while body(g, stack) == OK:
                pass
            return OK
        return loop, False, mutate, True
    if tag == "seq":
        parts, fail, mutate, clean = [], False, False, True
        for c in cmd[1:]:
            run, c_fail, c_mutate, c_clean = interpret(c, rules, cfg)
            parts.append(run)
            clean = clean and not (c_fail and (mutate or not c_clean))
            fail, mutate = fail or c_fail, mutate or c_mutate
        return _seq(parts), fail, mutate, clean
    if tag in ("if", "try"):
        (guard, _, g_mutate, g_clean), (then, t_fail, t_mutate, t_clean), \
            (other, e_fail, e_mutate, e_clean) = (interpret(c, rules, cfg) for c in cmd[1:])
        if tag == "if":     # guard effects are always rolled back
            guard = _framed(guard, False) if g_mutate else guard
            effects = t_fail or e_fail, t_mutate or e_mutate, t_clean and e_clean
        else:
            guard = guard if g_clean else _committed(cmd[1], guard, rules, cfg)
            ok_path = not t_fail or (t_clean and not g_mutate)
            effects = t_fail or e_fail, g_mutate or t_mutate or e_mutate, ok_path and e_clean

        def branch(g, stack):
            status = guard(g, stack)
            return BROKE if status == BROKE else (then if status == OK else other)(g, stack)
        return (branch, *effects)
    status = {"skip": OK, "fail": FAILED, "break": BROKE}[tag]
    return (lambda g, stack: status), status == FAILED, False, True


def _seq(parts):
    """The runs ``parts`` one after another, up to the first that does not return OK."""
    def seq(g, stack):
        for part in parts:
            status = part(g, stack)
            if status != OK:
                return status
        return OK
    return seq


def _committed(cmd, run, rules, cfg):
    """``run`` of ``cmd`` in a frame that commits unless it fails, where
    a sequence's frame holds only its parts up to the last that may fail
    and the parts after it run outside."""
    if cmd[0] != "seq":
        return _framed(run, True)
    parts = [interpret(c, rules, cfg) for c in cmd[1:]]
    last = max(j for j, part in enumerate(parts) if part[1])
    return _seq([_framed(_seq([part[0] for part in parts[:last + 1]]), True),
                 *(part[0] for part in parts[last + 1:])])


def _framed(run, keep):
    """``run`` inside a journal frame, committed if ``keep`` and ``run``
    did not fail, and undone otherwise."""
    def framed(g, stack):
        stack.open_frame(g)
        status = run(g, stack)
        (stack.commit_frame if keep and status != FAILED else stack.undo_frame)(g)
        return status
    return framed
