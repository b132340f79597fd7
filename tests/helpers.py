"""Helpers shared by the test modules."""

import functools

from gp2 import corpus
from gp2.engine import ExecConfig, Executable
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
