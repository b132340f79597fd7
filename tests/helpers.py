"""Helpers shared by the test modules."""

import functools

from gp2 import corpus
from gp2.engine import ExecConfig, Executable
from gp2.textio import parse_program


@functools.cache
def executable(name, cfg=ExecConfig()):
    """One executable per (corpus program, config), reused across hosts."""
    return Executable(parse_program(corpus.load_program(name)), cfg)
