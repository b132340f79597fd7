"""Rooted graph-transformation engine for GP 2 programs.

The package executes GP 2 programs on host graphs under the
deletion-before-insertion (double-pushout with relabelling) discipline,
with two switchable node-iteration backends: a live-node chain linked
through the node records, which skips deleted nodes in one step, and
the legacy index scan over every slot, holes included.
"""

from .engine import ExecConfig, Outcome, run_program
from .graph import Graph, graphs_isomorphic
from .textio import SourceError, parse_host_graph, parse_program, print_graph, validate

__all__ = [
    "ExecConfig", "Graph", "Outcome", "SourceError", "graphs_isomorphic",
    "parse_host_graph", "parse_program", "print_graph", "run_program",
    "validate",
]

__version__ = "0.1.0"
