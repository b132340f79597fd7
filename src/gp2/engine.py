"""Program execution: rule application and control constructs.

``Executable`` runs Main as ``textio`` parses, checks and inlines it: a
tree of tagged command tuples with no calls left, in which the call
sites of a procedure share one expansion.  ``_build`` walks the tree
once, building a shared command once, compiling each rule set's steps
(see ``match``) for the config's setting only, and computing each
command's effects (may it fail, may it change the graph, does a failure
leave the graph as it was): a rule set's from its steps, any other's
from its children's.  From these alone it places journal frames: around
a loop body or ``try`` guard that may fail after changing the graph, and
an ``if`` guard that may change it.  A framed body or guard that is a
sequence closes its frame after its last part that may fail: the parts
after it cannot fail, so they run in the parent frame, or unjournaled
when there is none; a ``try`` guard's run at the head of its ``then``
branch.  ``_compile`` writes the result as one generated function
``main(g, stack)`` that returns OK, FAILED or BROKE: a loop is a
``while``, a rule set calls its steps with ``or`` until one rewrites, a
shared command, a command deeper than ``_DEPTH`` and a branch guard that
is not a rule set are functions that return their status, nothing is
written after a ``break`` or ``fail``, and frames are opened, committed
and undone inline through the run's ``ChangeStack``.  Only a framed
run's mutations are journalled (see ``graph``), so they can be undone
exactly.
"""

from __future__ import annotations

from . import textio
from .graph import Graph
from .match import compiled_step, exec_source, find_match
from .rules import EvalError, Rule, instantiate_rhs

# find_match and instantiate_rhs are not called here.  They stay because
# perfbench/tracing.py wraps engine.find_match, engine.apply_rule and
# engine.instantiate_rhs, and match.eval_cond, by name through vars(module)[attr],
# and calls match.find_match_steps: without them, perfbench's --trace 1 fails.
__all__ = ["OK", "FAILED", "BROKE", "ConfigError", "ExecConfig", "ChangeStack",
           "apply_rule", "Outcome", "Executable", "run_program", "find_match", "instantiate_rhs"]

OK = 0
FAILED = 1
BROKE = 2


class ConfigError(Exception):
    pass


class ExecConfig:
    __slots__ = ("backend", "root_mode", "minimal_gc", "optimize_plans")

    def __init__(self, backend: str = "chain", root_mode: str = "preserve",
                 minimal_gc: bool = False, optimize_plans: bool = True):
        if backend not in ("chain", "index_scan"):
            raise ConfigError(f"unknown backend {backend!r}")
        if root_mode not in ("preserve", "reflect"):
            raise ConfigError(f"unknown root mode {root_mode!r}")
        self.backend = backend                # 'chain' or 'index_scan'
        self.root_mode = root_mode            # 'preserve' or 'reflect'
        self.minimal_gc = minimal_gc          # deleted nodes are never reused
        self.optimize_plans = optimize_plans

    def __eq__(self, other) -> bool:        # by value, so a config can key a cache
        return type(other) is ExecConfig and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.__slots__))


# -- commands ------------------------------------------------------------------


def _build(main, rules: dict[str, Rule], cfg: ExecConfig, shared: set):
    """``main`` as ``(code, fail, mutate, clean)``: ``main`` may fail, may
    change the graph, and leaves the graph as it was when it fails.  A
    rule set may change it if one of its steps writes anything; another
    command's effects come from its children's.  They alone place frames:
    a loop body or ``try`` guard gets one that commits on success when it
    may fail after changing the graph, and an ``if`` guard one that is
    always undone when it may change the graph.  A framed body or guard
    that is a sequence commits right after its last part that may fail,
    and the parts after it, its ``tail``, run outside the frame: a loop's
    after its body, a ``try`` guard's at the head of its ``then`` branch.
    ``code`` is ``main`` for ``_compile``, with each rule set's steps and
    names, each loop's frame and tail, and each branch's frame.  A
    command that call sites share is built once, and the id of its code
    put in ``shared``."""
    setting = (cfg.optimize_plans, cfg.backend, cfg.root_mode == "reflect")
    built: dict = {}            # id(cmd) -> build(cmd)

    def split(cmd, code, framed):
        """A framed sequence's code as the part its frame holds, up to its
        last part that may fail, and the parts after it."""
        if not framed or cmd[0] != "seq":
            return code, ()
        last = max(j for j, c in enumerate(cmd[1:], 1) if built[id(c)][1])
        return code[:last + 1], code[last + 1:]

    def build(cmd):
        if id(cmd) in built:
            shared.add(id(built[id(cmd)][0]))
            return built[id(cmd)]
        tag = cmd[0]
        if tag == "rules":
            steps = [compiled_step(rules[name], *setting) for name in cmd[1]]
            writes = any(rules[name].plans[setting][3] for name in cmd[1])
            result = ("rules", steps, ", ".join(cmd[1])), True, writes, True
        elif tag == "loop":
            body, _, mutate, clean = build(cmd[1])
            result = ("loop", *split(cmd[1], body, not clean), not clean), False, mutate, True
        elif tag == "seq":
            parts, fail, mutate, clean = ["seq"], False, False, True
            for c in cmd[1:]:
                code, c_fail, c_mutate, c_clean = build(c)
                parts.append(code)
                clean = clean and not (c_fail and (mutate or not c_clean))
                fail, mutate = fail or c_fail, mutate or c_mutate
            result = tuple(parts), fail, mutate, clean
        elif tag in ("if", "try"):
            (guard, _, g_mutate, g_clean), (then, t_fail, t_mutate, t_clean), \
                (other, e_fail, e_mutate, e_clean) = build(cmd[1]), build(cmd[2]), build(cmd[3])
            if tag == "if":        # guard effects are always rolled back
                result = (("branch", guard, g_mutate, False, then, other), t_fail or e_fail,
                          t_mutate or e_mutate, t_clean and e_clean)
            else:
                ok_path = not t_fail or (t_clean and not g_mutate)
                guard, tail = split(cmd[1], guard, not g_clean)
                then = ("seq", *tail, then) if tail else then
                result = (("branch", guard, not g_clean, True, then, other),
                          t_fail or e_fail, g_mutate or t_mutate or e_mutate, ok_path and e_clean)
        else:
            result = (tag,), tag == "fail", False, True
        built[id(cmd)] = result
        return result

    return build(main)


# Loops and branches deeper than this many indents get a function of their own:
# CPython refuses more than 20 nested blocks in a function, or 100 indents.
_DEPTH = 16


def _compile(code, shared: set):
    """``main(g, stack)`` for ``_build``'s ``code``, its steps closure
    cells of ``make``.  ``write`` emits a command as statements that fall
    through on OK and run ``fail`` on FAILED and ``brk`` on BROKE, neither
    inside a loop that the command opens, and returns whether the command
    ends in one of these jumps, so nothing follows it.  A compound command
    that is ``shared`` between sites, or nested deeper than ``_DEPTH``, and
    a branch guard that is not a rule set, are written once as a function
    that returns its status, which the caller keeps in ``st``."""
    steps: dict = {}                # compiled step -> s + number
    made: dict = {}                 # id of a command written as a function -> its name
    functions: list[str] = []
    lines: list[str] = []

    def emit(depth, text, names=""):
        if text:
            lines.append("    " * depth + text + f"  # {names}" * bool(names))

    def test(rules):
        calls = [f"{steps.setdefault(step, f's{len(steps)}')}(g)" for step in rules[1]]
        return calls[0] if len(calls) == 1 else f"({' or '.join(calls)})"

    def function(code, name=""):
        """Write ``code`` as a function ``(g, stack)`` that returns its status."""
        nonlocal lines
        outer, lines = lines, []
        stops = write(code, 2, f"return {FAILED}", f"return {BROKE}", inline=True)
        name = made[id(code)] = name or f"f{len(functions)}"
        head = [f"    def {name}(g, stack):", "        open_frame, commit_frame, undo_frame = "
                "stack.open_frame, stack.commit_frame, stack.undo_frame"]
        end = [f"        return {OK}"] * (not stops)
        functions.append("".join(f"{line}\n" for line in head + lines + end))
        lines = outer
        return name

    def write(part, depth, fail, brk, inline=False):
        tag = part[0]
        if tag == "rules":
            emit(depth, f"if not {test(part)}: {fail}", part[2])
        elif tag in ("skip", "fail", "break"):
            emit(depth, {"skip": "pass", "fail": fail, "break": brk}[tag])
            return tag != "skip"
        elif not inline and (id(part) in shared or depth > _DEPTH):
            emit(depth, f"st = {made.get(id(part)) or function(part)}(g, stack)")
            emit(depth, f"if st == {FAILED}: {fail}")
            emit(depth, f"if st == {BROKE}: {brk}")
        elif tag == "seq":
            for c in part[1:]:
                if write(c, depth, fail, brk):
                    return True
        elif tag == "loop":
            _, body, tail, framed = part
            if body[0] == "rules":      # fails cleanly: never framed
                emit(depth, f"while {test(body)}: pass", body[2])
                return
            emit(depth, "while True:")
            emit(depth + 1, "open_frame(g)" * framed)
            if not write(body, depth + 1, "undo_frame(g); " * framed + "break",
                         "commit_frame(g); " * framed + "break"):
                emit(depth + 1, "commit_frame(g)" * framed)
                write(("seq", *tail), depth + 1, "break", "break", inline=True)
        else:
            _, guard, framed, keep, then, other = part
            close = ("commit_frame(g); " if keep else "undo_frame(g); ") * framed
            undo = "undo_frame(g); " * framed
            emit(depth, "open_frame(g)" * framed)
            if guard[0] == "rules":
                emit(depth, f"if {test(guard)}:", guard[2])
            else:       # a function, its status in st
                emit(depth, f"st = {made.get(id(guard)) or function(guard)}(g, stack)")
                emit(depth, f"if st == {BROKE}: {close}{brk}")
                emit(depth, f"if st == {OK}:")
            emit(depth + 1, close[:-2])
            stops = write(then, depth + 1, fail, brk)
            if other[0] != "skip" or undo:
                emit(depth, "else:")
                emit(depth + 1, undo[:-2])
                return write(other, depth + 1, fail, brk) and stops

    function(code, "main")
    source = f"def make({', '.join(steps.values())}):\n{''.join(functions)}    return main\n"
    return exec_source(source, "gp2 main", {})["make"](*steps)


# -- the change journal -------------------------------------------------------


class ChangeStack:
    """Nested rollback frames over one graph's journal.

    Opening a frame points ``Graph.journal`` at a fresh entry list;
    undoing it reverts the frame's entries.  Committing an inner frame
    folds its entries into the parent so an outer scope can still undo
    them.  Only when the outermost frame closes, by commit or by undo,
    does the graph release the nodes deleted under it (``Graph.held``),
    if there are any.
    """

    __slots__ = ("frames",)

    def __init__(self):
        self.frames: list[list] = []

    def open_frame(self, g: Graph) -> None:
        g.journal = []
        self.frames.append(g.journal)

    def undo_frame(self, g: Graph) -> None:
        g.undo(self.frames.pop())
        if self.frames:
            g.journal = self.frames[-1]
        elif g.held:
            g.release()

    def commit_frame(self, g: Graph) -> None:
        entries = self.frames.pop()
        if self.frames:
            g.journal = self.frames[-1]
            g.journal.extend(entries)
        else:
            g.journal = None
            if g.held:
                g.release()


# -- rule application ----------------------------------------------------------


def apply_rule(rule: Rule, g: Graph, mode: str = "preserve",
               backend: str = "chain", optimize: bool = True) -> bool:
    """Apply the rule at its first match, the one ``find_match`` returns
    on the same graph, and say whether it had one."""
    return compiled_step(rule, optimize, backend, mode == "reflect")(g)


# -- whole-program execution -----------------------------------------------------


class Outcome:
    """Result of a whole run: success carries the graph, and ``output``
    is its printed text, formatted on first read; the error variants
    carry a diagnostic."""

    __slots__ = ("status", "diagnostic", "graph", "_output")

    def __init__(self, status, diagnostic=None, graph=None):
        self.status = status     # success | fail | validation_error | program_error
        self.diagnostic = diagnostic
        self.graph = graph
        self._output = None

    @property
    def output(self) -> str | None:
        if self._output is None and self.status == "success":
            self._output = textio.print_graph(self.graph)
        return self._output

    @property
    def exit_code(self) -> int:
        if self.status == "success":
            return 0
        if self.status == "validation_error":
            return 1
        return 2


class Executable:
    __slots__ = ("cfg", "_run")

    def __init__(self, parsed, cfg: ExecConfig):
        self.cfg = cfg
        shared: set = set()
        self._run = _compile(_build(parsed.inlined, parsed.rules, cfg, shared)[0], shared)

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
            status = self.run(g)
        except (textio.SourceError, EvalError) as exc:
            # a bad host graph is a runtime problem, not a validation one
            return Outcome("program_error", diagnostic=str(exc))
        except MemoryError:
            return Outcome("program_error", diagnostic="out of memory while running the program")
        if status == OK:
            return Outcome("success", graph=g)
        return Outcome("fail", diagnostic="program evaluated to fail", graph=g)


def run_program(program_text: str, host_text: str, cfg: ExecConfig | None = None) -> Outcome:
    try:
        executable = Executable(textio.parse_program(program_text), cfg or ExecConfig())
    except textio.SourceError as exc:
        return Outcome("validation_error", diagnostic=str(exc))
    return executable.run_text(host_text)
