"""Program execution: rule application and control constructs.

Rule application follows the deletion-before-insertion discipline:
left-hand-only edges go first, then left-hand-only nodes, interface
nodes are updated in place (relabel, remark, re-root), and right-hand
items are created last, all through ``Graph``'s mutators.  ``if``/``try``
guards and loop iterations run inside a ``ChangeStack`` frame, which
the graph journals its mutations into (see ``graph``), so they can be
undone exactly; straight-line execution outside any frame journals
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import FLAG_ROOT, Graph
from .match import find_match, matcher
from .rules import EvalError, Rule, instantiate_rhs

OK = 0
FAILED = 1
BROKE = 2


class ConfigError(Exception):
    pass


@dataclass
class ExecConfig:
    backend: str = "chain"            # 'chain' or 'index_scan'
    root_mode: str = "preserve"       # 'preserve' or 'reflect'
    fast_shutdown: bool = False
    minimal_gc: bool = False
    optimize_plans: bool = True

    def __post_init__(self):
        if self.backend not in ("chain", "index_scan"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.root_mode not in ("preserve", "reflect"):
            raise ConfigError(f"unknown root mode {self.root_mode!r}")
        if self.minimal_gc and not self.fast_shutdown:
            raise ConfigError("minimal garbage collection requires fast shutdown")


# -- command AST ---------------------------------------------------------


class Command:
    __slots__ = ()


class RuleSet(Command):
    __slots__ = ("names", "loc", "rules")

    def __init__(self, names, loc=None):
        self.names = names
        self.loc = loc
        self.rules: list[Rule] = []

    def run(self, ctx):
        g = ctx.graph
        try:
            for rule in self.rules:
                m = find_match(rule, g, ctx.mode, ctx.backend, ctx.optimize)
                if m is not None:
                    apply_rule(rule, m, g)
                    return OK
        except EvalError as exc:
            raise EvalError(f"in rule {rule.name!r}: {exc}") from exc
        except RecursionError:
            # label evaluation recurses on label nesting, and runs deeper
            # in the stack than the parser did
            raise EvalError(f"in rule {rule.name!r}: nesting too deep") from None
        return FAILED


class ProcCall(Command):
    """Placeholder for a named call; inlining replaces it."""

    __slots__ = ("name", "loc")

    def __init__(self, name, loc=None):
        self.name = name
        self.loc = loc

    def run(self, ctx):
        raise RuntimeError(f"procedure call {self.name!r} was never inlined")


class Seq(Command):
    __slots__ = ("commands",)

    def __init__(self, commands):
        self.commands = commands

    def run(self, ctx):
        for cmd in self.commands:
            st = cmd.run(ctx)
            if st != OK:
                return st
        return OK


class If(Command):
    __slots__ = ("guard", "then_cmd", "else_cmd")

    def __init__(self, guard, then_cmd, else_cmd):
        self.guard = guard
        self.then_cmd = then_cmd
        self.else_cmd = else_cmd

    def run(self, ctx):
        ctx.stack.open_frame(ctx.graph)
        st = self.guard.run(ctx)
        ctx.stack.undo_frame(ctx.graph)
        if st == BROKE:
            return BROKE
        branch = self.then_cmd if st == OK else self.else_cmd
        return branch.run(ctx)


class Try(Command):
    __slots__ = ("guard", "then_cmd", "else_cmd")

    def __init__(self, guard, then_cmd, else_cmd):
        self.guard = guard
        self.then_cmd = then_cmd
        self.else_cmd = else_cmd

    def run(self, ctx):
        ctx.stack.open_frame(ctx.graph)
        st = self.guard.run(ctx)
        if st == FAILED:
            ctx.stack.undo_frame(ctx.graph)
            return self.else_cmd.run(ctx)
        ctx.stack.commit_frame(ctx.graph)
        if st == BROKE:
            return BROKE
        return self.then_cmd.run(ctx)


class Loop(Command):
    __slots__ = ("body", "needs_frame")

    def __init__(self, body):
        self.body = body
        # Safe default; prepare_commands() refines it so loops whose
        # bodies can only fail before mutating skip per-iteration frames.
        self.needs_frame = True

    def run(self, ctx):
        body = self.body
        stack = ctx.stack
        if self.needs_frame:
            g = ctx.graph
            while True:
                stack.open_frame(g)
                st = body.run(ctx)
                if st == OK:
                    stack.commit_frame(g)
                    continue
                if st == FAILED:
                    stack.undo_frame(g)
                else:
                    stack.commit_frame(g)
                return OK
        while True:
            st = body.run(ctx)
            if st != OK:
                return OK


class Skip(Command):
    __slots__ = ()

    def run(self, ctx):
        return OK


class Fail(Command):
    __slots__ = ()

    def run(self, ctx):
        return FAILED


class Break(Command):
    __slots__ = ("loc",)

    def __init__(self, loc=None):
        self.loc = loc

    def run(self, ctx):
        return BROKE


# -- static analysis -------------------------------------------------------


def may_fail(cmd) -> bool:
    if isinstance(cmd, (RuleSet, Fail)):
        return True
    if isinstance(cmd, Seq):
        return any(may_fail(c) for c in cmd.commands)
    if isinstance(cmd, (If, Try)):
        return may_fail(cmd.then_cmd) or may_fail(cmd.else_cmd)
    return False     # Skip, Break, Loop


def may_mutate(cmd) -> bool:
    if isinstance(cmd, RuleSet):
        return True
    if isinstance(cmd, Seq):
        return any(may_mutate(c) for c in cmd.commands)
    if isinstance(cmd, Loop):
        return may_mutate(cmd.body)
    if isinstance(cmd, If):
        # guard effects are always rolled back
        return may_mutate(cmd.then_cmd) or may_mutate(cmd.else_cmd)
    if isinstance(cmd, Try):
        return may_mutate(cmd.guard) or may_mutate(cmd.then_cmd) or \
            may_mutate(cmd.else_cmd)
    return False


def fails_cleanly(cmd) -> bool:
    """True when a failure of cmd implies it has not changed the graph."""
    if isinstance(cmd, (RuleSet, Skip, Fail, Break, Loop)):
        return True
    if isinstance(cmd, Seq):
        mutated = False
        for c in cmd.commands:
            if may_fail(c) and (mutated or not fails_cleanly(c)):
                return False
            if may_mutate(c):
                mutated = True
        return True
    if isinstance(cmd, If):
        return fails_cleanly(cmd.then_cmd) and fails_cleanly(cmd.else_cmd)
    if isinstance(cmd, Try):
        ok_path = not may_fail(cmd.then_cmd) or \
            (fails_cleanly(cmd.then_cmd) and not may_mutate(cmd.guard))
        return ok_path and fails_cleanly(cmd.else_cmd)
    return False


# -- inlining and preparation ------------------------------------------------


def _walk(cmd):
    yield cmd
    if isinstance(cmd, Seq):
        for c in cmd.commands:
            yield from _walk(c)
    elif isinstance(cmd, (If, Try)):
        yield from _walk(cmd.guard)
        yield from _walk(cmd.then_cmd)
        yield from _walk(cmd.else_cmd)
    elif isinstance(cmd, Loop):
        yield from _walk(cmd.body)


def inline_procedures(program):
    """Check a parsed program's commands and return Main with every
    procedure call expanded into its body (procedures are macros) and
    bare rule calls turned into one-rule sets.

    Raises SourceError at the offending command for, in this order: a
    call of an undeclared name or a non-rule inside ``{...}`` in any
    body; a recursive procedure, at the call that closes the cycle
    (procedures Main never calls included); a break outside of any loop
    in the expanded Main."""
    from .textio import SourceError

    def err(loc, message):
        line, col = loc or (1, 1)
        raise SourceError("semantic", line, col, message)

    procedures, rules = program.procedures, program.rules
    for body in (*procedures.values(), program.main):
        for cmd in _walk(body):
            if isinstance(cmd, RuleSet):
                for name in cmd.names:
                    if name not in rules:
                        err(cmd.loc, f"unknown rule {name!r} in rule-set call")
            elif isinstance(cmd, ProcCall):
                if cmd.name not in procedures and cmd.name not in rules:
                    err(cmd.loc, f"call of undeclared name {cmd.name!r}")

    # A procedure is expanded once per loop context, and the result is
    # shared by its call sites.  It enters ``expanded`` only when its
    # expansion is done, so a call to one still ``active`` closes a cycle.
    expanded: dict = {}
    active: set[str] = set()

    def expand(cmd, in_loop):
        if isinstance(cmd, ProcCall):
            if cmd.name not in procedures:
                return RuleSet([cmd.name], cmd.loc)
            key = (cmd.name, in_loop)
            if key not in expanded:
                if cmd.name in active:
                    err(cmd.loc, f"recursive procedure {cmd.name!r}")
                active.add(cmd.name)
                expanded[key] = expand(procedures[cmd.name], in_loop)
                active.discard(cmd.name)
            return expanded[key]
        if isinstance(cmd, Break) and not in_loop:
            err(cmd.loc, "break outside of any loop")
        if isinstance(cmd, Seq):
            return Seq([expand(c, in_loop) for c in cmd.commands])
        if isinstance(cmd, If):
            return If(expand(cmd.guard, in_loop), expand(cmd.then_cmd, in_loop),
                      expand(cmd.else_cmd, in_loop))
        if isinstance(cmd, Try):
            return Try(expand(cmd.guard, in_loop), expand(cmd.then_cmd, in_loop),
                       expand(cmd.else_cmd, in_loop))
        if isinstance(cmd, Loop):
            return Loop(expand(cmd.body, True))
        return cmd

    for name in procedures:
        expand(ProcCall(name), True)
    return expand(program.main, False)


def prepare_commands(cmd, rules: dict[str, Rule], optimize: bool) -> None:
    """Resolve rule names, compile each rule's search (``matcher``), and
    mark which loops need a per-iteration journal frame."""
    for c in _walk(cmd):
        if isinstance(c, RuleSet):
            c.rules = [rules[name] for name in c.names]
            for r in c.rules:
                matcher(r, optimize)
        elif isinstance(c, Loop):
            c.needs_frame = not fails_cleanly(c.body)


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


def apply_rule(rule: Rule, m, g: Graph) -> None:
    """Replace the matched left-hand side with the instantiated right-hand
    side.  Evaluation happens first so an evaluation error aborts before
    any mutation."""
    nodes, edges = instantiate_rhs(
        rule, m.assignment, m.node_images, m.edge_images, m.orientations)
    for host in m.edge_images.values():
        g.delete_edge(host)
    images = dict(m.node_images)
    for pid in rule.deleted:
        g.delete_node(images[pid])
    for pn, (label, mark) in zip(rule.rhs.nodes, nodes):
        host = images.get(pn.pid)
        if host is None:
            images[pn.pid] = g.add_node(label, mark, pn.root)
            continue
        if host.label != label:
            g.relabel_node(host, label)
        if host.mark != mark:
            g.remark_node(host, mark)
        if bool(host.flags & FLAG_ROOT) != pn.root:
            g.set_root(host, pn.root)
    for pe, (label, mark, flip) in zip(rule.rhs.edges, edges):
        src, tgt = images[pe.src], images[pe.tgt]
        if flip:
            src, tgt = tgt, src
        g.add_edge(src, tgt, label, mark)


# -- whole-program execution -----------------------------------------------------


class _Ctx:
    __slots__ = ("graph", "stack", "mode", "backend", "optimize")

    def __init__(self, graph, stack, cfg: ExecConfig):
        self.graph = graph
        self.stack = stack
        self.mode = cfg.root_mode
        self.backend = cfg.backend
        self.optimize = cfg.optimize_plans


def exec_command(cmd, g: Graph, cfg: ExecConfig) -> int:
    try:
        return cmd.run(_Ctx(g, ChangeStack(), cfg))
    finally:
        g.journal = None        # an evaluation error leaves its frames open


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
    __slots__ = ("rules", "main", "cfg")

    def __init__(self, parsed, cfg: ExecConfig):
        self.rules = parsed.rules
        self.main = parsed.inlined
        prepare_commands(self.main, self.rules, cfg.optimize_plans)
        self.cfg = cfg

    def run(self, g: Graph) -> int:
        return exec_command(self.main, g, self.cfg)


def run_program(program_text: str, host_text: str, cfg: ExecConfig | None = None) -> Outcome:
    from . import textio

    if cfg is None:
        cfg = ExecConfig()
    try:
        parsed = textio.parse_program(program_text)
        executable = Executable(parsed, cfg)
    except textio.SourceError as exc:
        return Outcome("validation_error", diagnostic=str(exc))
    try:
        g = textio.parse_host_graph(host_text, minimal_gc=cfg.minimal_gc)
    except textio.SourceError as exc:
        # a bad host graph is a runtime problem, not a validation one
        return Outcome("program_error", diagnostic=str(exc))
    try:
        status = executable.run(g)
    except EvalError as exc:
        return Outcome("program_error", diagnostic=str(exc))
    if status == OK:
        return Outcome("success", output=textio.print_graph(g), graph=g)
    return Outcome("fail", diagnostic="program evaluated to fail", graph=g)
