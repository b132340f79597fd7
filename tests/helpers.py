"""Helpers shared by the test modules."""

import functools

from gp2 import corpus
from gp2.engine import BROKE, FAILED, OK, ExecConfig, Executable, apply_rule
from gp2.textio import parse_program


@functools.cache
def executable(name, cfg=ExecConfig()):
    """One executable per (corpus program, config), reused across hosts."""
    return Executable(parse_program(corpus.load_program(name)), cfg)


def kept_edges(rule):
    """The ids of the left-hand edges a rule keeps: a right-hand edge has
    the id, the source and target ids and the bidirectional flag of one."""
    ends = {pe.eid: (pe.src, pe.tgt, pe.bidir) for pe in rule.lhs.edges}
    return {pe.eid for pe in rule.rhs.edges if ends.get(pe.eid) == (pe.src, pe.tgt, pe.bidir)}


def interpret(cmd, rules, cfg):
    """The reference for the generated ``main``: an inlined command as
    ``(run, fail, mutate, clean)``, where ``run(g, stack)`` is a tree of
    nested closures that return OK, FAILED or BROKE, and the effects
    place frames by the rule ``engine._build`` states, computed here on
    their own."""
    tag = cmd[0]
    if tag == "rules":
        chosen = [rules[name] for name in cmd[1]]
        setting = (cfg.root_mode, cfg.backend, cfg.optimize_plans)
        return (lambda g, stack: OK if any(apply_rule(rule, g, *setting) for rule in chosen)
                else FAILED), True, True, True
    if tag == "loop":
        body, _, mutate, clean = interpret(cmd[1], rules, cfg)
        body = body if clean else _framed(body, True)

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

        def seq(g, stack):
            for part in parts:
                status = part(g, stack)
                if status != OK:
                    return status
            return OK
        return seq, fail, mutate, clean
    if tag in ("if", "try"):
        (guard, _, g_mutate, g_clean), (then, t_fail, t_mutate, t_clean), \
            (other, e_fail, e_mutate, e_clean) = (interpret(c, rules, cfg) for c in cmd[1:])
        if tag == "if":     # guard effects are always rolled back
            guard = _framed(guard, False) if g_mutate else guard
            effects = t_fail or e_fail, t_mutate or e_mutate, t_clean and e_clean
        else:
            guard = guard if g_clean else _framed(guard, True)
            ok_path = not t_fail or (t_clean and not g_mutate)
            effects = t_fail or e_fail, g_mutate or t_mutate or e_mutate, ok_path and e_clean

        def branch(g, stack):
            status = guard(g, stack)
            return BROKE if status == BROKE else (then if status == OK else other)(g, stack)
        return (branch, *effects)
    status = {"skip": OK, "fail": FAILED, "break": BROKE}[tag]
    return (lambda g, stack: status), status == FAILED, False, True


def _framed(run, keep):
    """``run`` inside a journal frame, committed if ``keep`` and ``run``
    did not fail, and undone otherwise."""
    def framed(g, stack):
        stack.open_frame(g)
        status = run(g, stack)
        (stack.commit_frame if keep and status != FAILED else stack.undo_frame)(g)
        return status
    return framed
