"""Program execution: rule application and control constructs.

``Executable`` runs Main as ``textio`` parses, checks and inlines it: a
tree of tagged command tuples with no calls left.  ``_build`` walks the
tree once, building it into nested functions ``run(g, stack)`` that
return OK, FAILED or BROKE, compiling each rule set's steps for the
config's setting only, and computing each command's effects (may it
fail, may it change the graph, does a failure leave the graph as it
was) from its children's.  From these alone it places journal frames:
around a loop body or ``try`` guard that may fail after changing the
graph, and an ``if`` guard that may change it.  ``_framed`` alone
opens, commits and undoes frames.

A rule set calls its rules' compiled steps (see ``match``) until one
rewrites at its match, building no ``Match``, and counting its walks'
steps and candidates on the graph (not when a condition raises
EvalError mid-search).  A step evaluates every right-hand label first,
so an EvalError changes nothing, then deletes the matched edges and
left-hand-only nodes, updates interface nodes in place (relabel,
remark, re-root) and creates right-hand-only items last, all through
``Graph``'s mutators.  A framed run's mutations are journalled into its
``ChangeStack`` frame (see ``graph``), so they can be undone exactly;
straight-line execution outside any frame journals nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import textio
from .graph import Graph
from .match import compiled_step, find_match
from .rules import EvalError, Rule, instantiate_rhs

# find_match and instantiate_rhs are not called here: they are for tools.
__all__ = ["OK", "FAILED", "BROKE", "ConfigError", "ExecConfig", "ChangeStack",
           "apply_rule", "Outcome", "Executable", "run_program", "find_match", "instantiate_rhs"]

OK = 0
FAILED = 1
BROKE = 2


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExecConfig:
    backend: str = "chain"            # 'chain' or 'index_scan'
    root_mode: str = "preserve"       # 'preserve' or 'reflect'
    minimal_gc: bool = False          # deleted nodes are never reused
    optimize_plans: bool = True

    def __post_init__(self):
        if self.backend not in ("chain", "index_scan"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.root_mode not in ("preserve", "reflect"):
            raise ConfigError(f"unknown root mode {self.root_mode!r}")


# -- commands ------------------------------------------------------------------


def _build(cmd, rules: dict[str, Rule], cfg: ExecConfig):
    """``cmd`` as ``(run, fail, mutate, clean)``: ``run(g, stack)``
    returns OK, FAILED or BROKE, and ``cmd`` may fail, may change the
    graph, and leaves the graph as it was when it fails.  The three are
    computed from the children's as they are built, and they alone
    place frames: a loop body or ``try`` guard gets one that commits on
    success when it may fail after changing the graph, and an ``if``
    guard one that is always undone when it may change the graph."""
    tag = cmd[0]
    if tag == "rules":
        return _rule_set([rules[name] for name in cmd[1]], cfg), True, True, True
    if tag == "loop":
        body, _, mutate, clean = _build(cmd[1], rules, cfg)
        return _loop(body if clean else _framed(body, True)), False, mutate, True
    if tag == "seq":
        parts, fail, mutate, clean = [], False, False, True
        for c in cmd[1:]:
            run, c_fail, c_mutate, c_clean = _build(c, rules, cfg)
            parts.append(run)
            clean = clean and not (c_fail and (mutate or not c_clean))
            fail, mutate = fail or c_fail, mutate or c_mutate
        return _seq(parts), fail, mutate, clean
    if tag in ("if", "try"):
        (guard, _, g_mutate, g_clean), (then_run, t_fail, t_mutate, t_clean), \
            (else_run, e_fail, e_mutate, e_clean) = (_build(c, rules, cfg) for c in cmd[1:])
        if tag == "if":        # guard effects are always rolled back
            run = _branch(_framed(guard, False) if g_mutate else guard, then_run, else_run)
            return run, t_fail or e_fail, t_mutate or e_mutate, t_clean and e_clean
        run = _branch(guard if g_clean else _framed(guard, True), then_run, else_run)
        ok_path = not t_fail or (t_clean and not g_mutate)
        return (run, t_fail or e_fail, g_mutate or t_mutate or e_mutate,
                ok_path and e_clean)
    status = {"skip": OK, "fail": FAILED, "break": BROKE}[tag]
    return (lambda g, stack: status), status == FAILED, False, True


def _rule_set(chosen: list[Rule], cfg: ExecConfig):
    setting = (cfg.optimize_plans, cfg.backend, cfg.root_mode == "reflect")
    steps = [(rule, compiled_step(rule, *setting)) for rule in chosen]

    def run(g, stack):
        try:
            for rule, step in steps:
                if step(g):
                    return OK
        except EvalError as exc:
            raise EvalError(f"in rule {rule.name!r}: {exc}") from exc
        return FAILED
    return run


def _seq(parts):
    def run(g, stack):
        for part in parts:
            st = part(g, stack)
            if st != OK:
                return st
        return OK
    return run


def _framed(run, keep: bool):
    """``run`` inside a journal frame, committed if ``keep`` and ``run``
    did not fail, and undone otherwise."""
    def framed(g, stack):
        stack.open_frame(g)
        st = run(g, stack)
        if keep and st != FAILED:
            stack.commit_frame(g)
        else:
            stack.undo_frame(g)
        return st
    return framed


def _branch(guard, then_run, else_run):
    def run(g, stack):
        st = guard(g, stack)
        if st == BROKE:
            return BROKE
        return (then_run if st == OK else else_run)(g, stack)
    return run


def _loop(body):
    def run(g, stack):
        while body(g, stack) == OK:
            pass
        return OK
    return run


# -- the change journal -------------------------------------------------------


class ChangeStack:
    """Nested rollback frames over one graph's journal.

    Opening a frame points ``Graph.journal`` at a fresh entry list;
    undoing it reverts the frame's entries.  Committing an inner frame
    folds its entries into the parent so an outer scope can still undo
    them; only when the last frame commits does the graph release the
    records they hold.
    """

    __slots__ = ("frames",)

    def __init__(self):
        self.frames: list[list] = []

    def open_frame(self, g: Graph) -> None:
        g.journal = []
        self.frames.append(g.journal)

    def undo_frame(self, g: Graph) -> None:
        g.undo(self.frames.pop())
        g.journal = self.frames[-1] if self.frames else None

    def commit_frame(self, g: Graph) -> None:
        entries = self.frames.pop()
        if self.frames:
            g.journal = self.frames[-1]
            g.journal.extend(entries)
        else:
            g.journal = None
            g.release(entries)


# -- rule application ----------------------------------------------------------


def apply_rule(rule: Rule, g: Graph, mode: str = "preserve",
               backend: str = "chain", optimize: bool = True) -> bool:
    """Apply the rule at its first match, the one ``find_match`` returns
    on the same graph, and say whether it had one."""
    return compiled_step(rule, optimize, backend, mode == "reflect")(g)


# -- whole-program execution -----------------------------------------------------


class Outcome:
    """Result of a whole run: success carries the printed graph, the
    error variants carry a diagnostic."""

    __slots__ = ("status", "output", "diagnostic", "graph")

    def __init__(self, status, output=None, diagnostic=None, graph=None):
        self.status = status     # success | fail | validation_error | program_error
        self.output = output
        self.diagnostic = diagnostic
        self.graph = graph

    @property
    def exit_code(self) -> int:
        if self.status == "success":
            return 0
        if self.status == "validation_error":
            return 1
        return 2


class Executable:
    __slots__ = ("main", "cfg", "_run")

    def __init__(self, parsed, cfg: ExecConfig):
        self.main = parsed.inlined
        self.cfg = cfg
        self._run = _build(self.main, parsed.rules, cfg)[0]

    def run(self, g: Graph) -> int:
        g.minimal_gc = self.cfg.minimal_gc
        try:
            return self._run(g, ChangeStack())
        finally:
            g.journal = None        # an evaluation error leaves its frames open

    def run_text(self, host_text: str) -> Outcome:
        """Read a host graph, run on it and print the result: the part of
        ``run_program`` that one executable can repeat for many hosts."""
        try:
            g = textio.parse_host_graph(host_text)
        except textio.SourceError as exc:
            # a bad host graph is a runtime problem, not a validation one
            return Outcome("program_error", diagnostic=str(exc))
        try:
            status = self.run(g)
        except EvalError as exc:
            return Outcome("program_error", diagnostic=str(exc))
        if status == OK:
            return Outcome("success", output=textio.print_graph(g), graph=g)
        return Outcome("fail", diagnostic="program evaluated to fail", graph=g)


def run_program(program_text: str, host_text: str, cfg: ExecConfig | None = None) -> Outcome:
    try:
        executable = Executable(textio.parse_program(program_text), cfg or ExecConfig())
    except textio.SourceError as exc:
        return Outcome("validation_error", diagnostic=str(exc))
    return executable.run_text(host_text)
