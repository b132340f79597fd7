"""Search plans, injective host-graph matching and compiled rewriting.

``compile_plan`` builds each rule's one search plan: root nodes are
claimed first from the host's root list, every further pattern item is
reached by walking an incident-edge chain of an already-bound node, and
only pattern components unreachable from any root fall back to global
node iteration.  That ordering is what confines matching of fast rules
to the neighbourhood of the host's roots.  Each step is a ``Step`` that
points at the rule's own left-hand items; the order and each edge's
walk phases are all the plan adds.  ``check_fast_rule`` reads
reachability from a root off the same plan.  The exhaustive matcher and
the match auditor that tests hold the steps to are in ``reference``.

``compiled_step`` compiles each plan to a Python function, once per
rule and setting (plan order, backend, root mode), and caches it in
``Rule.plans``.  Its search is the plan as nested loops, one per step
(two for a bidirectional edge, its phases around its edge list), each
inside the one before, with the step's checks written out: each
variable is a local, and a global node step walks the node chain or the
slots inline.  A nest of more than ``_LOOPS`` loops continues in a
closure defined in ``step``, called at the innermost point: it reads the
locals bound before it as free variables, and binds its own as
``step``'s.  Each candidate is checked when it is bound: a label fixed
before the step first, in one tuple comparison, then injectivity (only
against items that may meet it), mark, an edge's other end, root (a
non-root only in reflect mode; none from the root list, which holds only
roots), degree and any other label.  A node the rule deletes must have
its exact degree (the dangling condition), so a dangling candidate is
rejected before the rule's condition is ever evaluated.  A node the rule
keeps must have at least as many out- and in-edges as its
non-bidirectional left-hand edges give it.  The condition runs at the
innermost point, once every step is bound, as inline Python.  At the
first hit ``step`` rewrites on the locals the search bound, every
right-hand label first, then the mutator calls, none for what stays as
it was: a kept node or edge is updated where it is, and a root flag set
or cleared by the one-way ``Graph.root``/``Graph.unroot``.
``Rule.plans`` notes whether any call is left, for ``engine``'s frames.
In find mode it returns the locals, for ``find_match``.  Each return of
each generated function adds the candidates it examined to
``Graph.candidates`` and its walks' steps to ``Graph.iter_steps``, where
a node-chain walk counts each step once for both; an EvalError raised by
the condition mid-search adds to neither.  Every EvalError the function
raises names its rule (``in rule 'r': ...``) in the message written into
its source, so no caller, ``engine``'s generated ``main`` included, adds
the name.

Injectivity is enforced with per-record matched flags: a step sets its
flags when a candidate passes its checks and clears them when its loop
moves on, so each attempt costs only the items it touched.  The
innermost point clears them all before the condition, and sets them
again if it fails, so every flag is clear on each return and each
raise.  A flag is set only between items that may meet (``_may_meet``):
a record is flagged only if a later item may match the same host item,
and tested only if an earlier one may.
"""

from __future__ import annotations

import linecache
from collections import Counter
from heapq import heappop, heappush
from math import inf
from typing import Optional

from .graph import FLAG_MATCHED, FLAG_ROOT, MARK_ANY, Graph, GraphError
from .rules import EvalError, Rule, eval_cond, has_edge, subterms

# eval_cond is not called here.  It stays because perfbench/tracing.py wraps
# match.eval_cond by name through vars(module)[attr], as engine's comment says.
__all__ = ["UNBOUNDED_TYPES", "Match", "Step", "compile_plan", "check_fast_rule",
           "find_match", "find_match_steps", "compiled_step", "exec_source", "eval_cond"]

# variable types whose repetition or comparison breaks the fast-rule
# guarantees (their domains are unbounded)
UNBOUNDED_TYPES = frozenset(("list", "string", "atom"))


class Match:
    __slots__ = ("node_images", "edge_images", "assignment", "orientations")

    def __init__(self, node_images, edge_images, assignment, orientations):
        self.node_images = node_images      # pattern node id -> host node
        self.edge_images = edge_images      # pattern edge id -> host edge
        self.assignment = assignment
        self.orientations = orientations    # pattern edge id -> True if flipped


class Step:
    """One plan step.  A 'root' step (candidates from the root list) or a
    'node' step (every host node) binds ``node``.  An 'edge' step walks
    the bound ``anchor``'s out-edges or in-edges, one list per (reverse,
    flipped) phase, to match ``edge``, and either binds its other end
    ``node`` (``binds``) or checks it against that end's image.  Each
    field is one of the rule's own left-hand items, not a copy."""

    __slots__ = ("kind", "node", "edge", "anchor", "phases", "binds")

    def __init__(self, kind, node, edge=None, anchor=None, phases=(), binds=True):
        self.kind, self.node, self.edge, self.anchor = kind, node, edge, anchor
        self.phases, self.binds = phases, binds


def compile_plan(rule: Rule, optimize: bool = True) -> list[Step]:
    """The rule's search plan, its steps in order, which ``compiled_step``
    compiles and caches.

    With ``optimize`` the roots come first, and before each further node
    every edge reachable from a bound node is taken: all edges with both
    ends bound in index order, then the lowest edge with one, repeating.
    Only nodes no edge reaches get a global step.  Without it the nodes
    come in textual order, then the edges.  Either way every left-hand
    root, and only a root, is bound by a 'root' step.
    """
    lhs = rule.lhs
    nodes = lhs.nodes
    ends = [(lhs.by_id[e.src], lhs.by_id[e.tgt]) for e in lhs.edges]
    incident: list[list[int]] = [[] for _ in nodes]
    for ei, (si, ti) in enumerate(ends):
        for ni in (si, ti):
            incident[ni].append(ei)
    bound = [False] * len(nodes)
    taken = [False] * len(lhs.edges)
    heap: list[tuple[bool, int]] = []   # (only one end bound, edge index)
    steps: list[Step] = []

    def bind(ni):
        bound[ni] = True
        for ei in incident[ni]:
            si, ti = ends[ei]
            heappush(heap, (not (bound[si] and bound[ti]), ei))

    def take_edges():
        while heap:
            ei = heappop(heap)[1]
            if taken[ei]:
                continue
            taken[ei] = True
            pe = lhs.edges[ei]
            si, ti = ends[ei]
            if bound[si]:
                ai, oi = si, ti
                phases = ((False, False), (True, True)) if pe.bidir else ((False, False),)
            else:
                ai, oi = ti, si
                phases = ((False, True), (True, False)) if pe.bidir else ((True, False),)
            steps.append(Step("edge", nodes[oi], pe, nodes[ai], phases, not bound[oi]))
            if not bound[oi]:
                bind(oi)

    order = range(len(nodes))
    if optimize:
        order = sorted(order, key=lambda ni: not nodes[ni].root)
    for ni in order:
        pn = nodes[ni]
        if optimize and not pn.root:
            take_edges()
        if not bound[ni]:
            steps.append(Step("root" if pn.root else "node", pn))
            bind(ni)
    take_edges()
    return steps


def check_fast_rule(rule: Rule) -> tuple[bool, list[str]]:
    """Decide whether the rule can be matched in constant time on hosts
    with bounded degree and bounded root count.

    The three requirements: every left-hand node is undirectedly
    reachable from a root, that is bound before the optimised plan's
    first global 'node' step; no list/string/atom variable occurs twice
    in either side; and the condition uses no edge predicate and no
    (in)equality with such variables on both sides.
    """
    problems = []

    reached = set()
    for step in compile_plan(rule):
        if step.kind == "node":
            break
        reached.add(step.node.pid)
    unreachable = [n.pid for n in rule.lhs.nodes if n.pid not in reached]
    if unreachable:
        problems.append(
            f"left-hand nodes not undirectedly reachable from a root: {unreachable}")

    lhs_uses = [name for item in rule.lhs.nodes + rule.lhs.edges
                for name, _ in item.label.variables()]
    rhs_uses = [t[1] for item in rule.rhs.nodes + rule.rhs.edges
                for t in subterms(item.label) if t[0] == "var"]
    for side, uses in (("left", lhs_uses), ("right", rhs_uses)):
        for name, count in Counter(uses).items():
            if count > 1 and rule.variables.get(name) in UNBOUNDED_TYPES:
                problems.append(
                    f"{rule.variables[name]} variable {name!r} occurs "
                    f"{count} times in the {side}-hand side")

    def unbounded(expr) -> bool:
        return any(t[0] == "var" and rule.variables.get(t[1]) in UNBOUNDED_TYPES
                   for t in subterms(expr))

    conds = list(subterms(rule.condition)) if rule.condition is not None else []
    if any(t[0] == "edge" for t in conds):
        problems.append("condition uses the edge predicate")
    if any(t[0] == "rel" and t[1] in ("=", "!=") and unbounded(t[2]) and unbounded(t[3])
           for t in conds):
        problems.append(
            "condition compares list/string/atom variables for (in)equality")

    return not problems, problems


def find_match(rule: Rule, g: Graph, mode: str = "preserve",
               backend: str = "chain", optimize: bool = True) -> Optional[Match]:
    return find_match_steps(rule, g, mode, backend, optimize)[0]


def find_match_steps(rule: Rule, g: Graph, mode: str = "preserve",
                     backend: str = "chain", optimize: bool = True):
    """The first match in plan order, or None, and the number of host
    candidates examined; the graph is left as it was."""
    before, m, key = g.candidates, None, (optimize, backend, mode == "reflect")
    found = compiled_step(rule, *key)(g, True)
    if found is not False:
        values = iter(found)
        m = Match(*({name: next(values) for name in keys} for keys in rule.plans[key][2]))
    return m, g.candidates - before


def compiled_step(rule: Rule, optimize: bool = True, backend: str = "chain",
                  reflect: bool = False):
    """The rule's ``step(g, find=False)`` for one setting, compiled on
    first use and cached in ``Rule.plans``: True once it has rewritten at
    the first match, False if there is none.  With ``find``, the match's
    node and edge images, variable values and orientations, in layout order."""
    key = (optimize, backend, reflect)
    cached = rule.plans.get(key)
    if cached is None:
        if backend not in ("chain", "index_scan"):
            raise GraphError(f"unknown iteration backend: {backend}")
        steps = compile_plan(rule, optimize)
        cached = rule.plans[key] = (steps, *_generate(rule, steps, *key))
    return cached[1]


# A nest of more loops than this continues in another function: CPython
# refuses more than 20 nested loops in one.
_LOOPS = 16

# The Python of type tests and of the operators that wrap.
_TYPE_TEST = {"int": "isinstance({0}, int)", "string": "isinstance({0}, str)",
              "char": "isinstance({0}, str) and len({0}) == 1",
              "atom": "not isinstance({0}, tuple)"}
_ARITH = {"add": "+", "sub": "-", "mul": "*"}


class _Terms:
    """Labels and conditions compiled to flat statements, one local
    ``t`` + number per distinct compound subterm (one set under a guard
    is not reused), as ``eval_expr``/``eval_cond`` evaluate them: 32-bit
    wrap, division truncating toward zero, each EvalError where they
    raise it, its message prefixed with the rule's name.  Each value has
    a kind, its GP 2 type where known ("atom" where not): an int kind is
    not tested again.  The right operand of ``and``/``or`` runs under a
    guard, ``if t1: ...``."""

    def __init__(self, emit, names: dict, rule: Rule, node: dict):
        self.emit, self.names, self.types, self.node = emit, names, rule.variables, node
        self.count, self.guard, self.known = 0, None, {}
        self.prefix = f"in rule {rule.name!r}: "

    def let(self, code: str, guarded: bool = True) -> str:
        if code in self.known:
            return self.known[code]
        t = f"t{self.count}"
        self.count += 1
        guard = self.guard if guarded else None
        self.emit(f"if {guard}: {t} = {code}" if guard else f"{t} = {code}")
        if not guard:
            self.known[code] = t
        return t

    def check(self, test: str, message: str) -> None:
        test = f"{self.guard} and ({test})" if self.guard else test
        self.emit(f"if {test}: raise EvalError({self.prefix + message!r})")

    def var(self, name: str) -> str:
        if name not in self.names:
            self.check("True", f"unbound variable {name!r}")
        return self.names.get(name, "None")

    @staticmethod
    def as_list(code: str, kind: str) -> str:
        return code if kind == "list" else f"({code},)"

    def expr(self, t) -> tuple[str, str]:
        """The code and kind of expression ``t``, once the statements it
        needs are emitted: a local, a literal or a degree."""
        tag = t[0]
        if tag in ("int", "str"):
            return repr(t[1]), "int" if tag == "int" else "string"
        if tag == "empty":
            return "()", "list"
        if tag == "var":
            return self.var(t[1]), self.types.get(t[1], "atom")
        if tag in ("indeg", "outdeg"):
            return f"{self.node[t[1]]}.{tag}ree", "int"
        if tag in ("cons", "cat"):
            (a, ka), (b, kb) = self.expr(t[1]), self.expr(t[2])
            if tag == "cons":
                return self.let(f"{self.as_list(a, ka)} + {self.as_list(b, kb)}"), "list"
            if {ka, kb} - {"string", "char"}:
                self.check(f"not (isinstance({a}, str) and isinstance({b}, str))",
                           "'.' requires string operands")
            return self.let(f"{a} + {b}"), "string"
        a = self.int_operand(t[1])
        if tag == "neg":
            code = f"-{a}"
        else:
            b = self.int_operand(t[2])
            if tag == "div":
                self.check(f"{b} == 0", "division by zero")
                code = f"({a} // {b} if ({a} < 0) == ({b} < 0) else -(-{a} // {b}))"
            else:
                code = f"{a} {_ARITH[tag]} {b}"
        return self.let(f"({code} + 0x80000000 & 0xFFFFFFFF) - 0x80000000"), "int"

    def int_operand(self, t) -> str:
        code, kind = self.expr(t)
        if kind != "int":
            self.check(f"not isinstance({code}, int)", "arithmetic on a non-integer value")
        return code

    def cond(self, t) -> str:
        """The local that holds condition ``t``, once it is emitted."""
        tag = t[0]
        if tag == "not":
            return self.let(f"not {self.cond(t[1])}")
        if tag in ("and", "or"):
            a, outer = self.cond(t[1]), self.guard
            test = a if tag == "and" else f"not {a}"
            if outer or tag == "or":
                self.guard = self.let(f"{outer} and {test}" if outer else test, False)
            else:
                self.guard = a      # a local set under no guard
            b = self.cond(t[2])
            self.guard = outer
            return self.let(f"{a} {tag} {b}")
        if tag == "edge":
            label = "None" if t[3] is None else self.as_list(*self.expr(t[3]))
            return self.let(f"has_edge({self.node[t[1]]}, {self.node[t[2]]}, {label})")
        if tag == "typecheck":
            return self.let(_TYPE_TEST[t[1]].format(self.var(t[2])))
        op, (a, ka), (b, kb) = t[1], self.expr(t[2]), self.expr(t[3])
        if op in ("=", "!="):
            if "list" in (ka, kb):
                a, b = self.as_list(a, ka), self.as_list(b, kb)
            return self.let(f"{a} {'==' if op == '=' else '!='} {b}")
        if ka != "int" or kb != "int":
            self.check(f"not (isinstance({a}, int) and isinstance({b}, int))",
                       "ordering comparison on non-integers")
        return self.let(f"{a} {op} {b}")


def _pattern_items(t) -> list:
    """The left-hand pattern items, ('lit', atom) or ('var', name), that
    right-hand label ``t`` writes out again; None stands for any other term."""
    if t[0] == "cons":
        return _pattern_items(t[1]) + _pattern_items(t[2])
    return {"int": [("lit", t[-1])], "str": [("lit", t[-1])], "var": [t], "empty": []}.get(
        t[0], [None])


def _may_meet(a: tuple, b: tuple) -> bool:
    """Whether one host item may match two left-hand items, given each one's kind, mark,
    constant label and reflect-mode root (None: any), label length and degree ranges."""
    return a[0] == b[0] and (a[1] is None or b[1] is None or a[1] == b[1]) \
        and (a[2] is None or b[2] is None or a[2] == b[2]) \
        and (a[3] is None or b[3] is None or a[3] == b[3]) \
        and max(a[4], b[4]) <= min(a[5], b[5]) and max(a[6], b[6]) <= min(a[7], b[7])


def _generate(rule: Rule, steps: list[Step], optimize: bool, backend: str, reflect: bool):
    """The rule's step, its layout, and whether the rewrite writes
    anything (see ``compiled_step``).  It is compiled by ``exec_source``
    under a file name that names the rule and the setting.

    A candidate that fails a check is skipped with ``continue``; one
    that passes them all sets its step's matched flags and enters the
    next step's loop, and the flags are cleared at the end of its body.
    A bidirectional edge's phases are ``p`` + step number.  A function
    that continues the nest, ``step_`` + the number of its first step,
    is a closure in ``step``, before its loops, that reads the locals
    bound before it as free variables, binds its own as ``nonlocal``
    (``step`` sets them to None in one line), adds its own counts, and
    returns True on a match, for the rewrite in ``step``, and False on
    none.  Which variables are bound at each step is fixed by the plan,
    so each is a local, bound by assignment and checked by ``==``.
    Program text enters the source only as generated names (``n``/``e``
    + item index, ``v`` + variable number, ``t`` + subterm number,
    ``c``/``d``/``f`` + step number for the step's cursor and its fixed
    node/edge label) and as ``repr`` of ints, strings and tuples of them.
    """
    lhs = rule.lhs
    node = {pn.pid: f"n{j}" for j, pn in enumerate(lhs.nodes)}
    edge = {pe.eid: f"e{j}" for j, pe in enumerate(lhs.edges)}
    # a node the rule deletes must have its exact degree (a loop counts
    # twice); a kept one at least its non-bidirectional edges out and in
    deleted = set(rule.deleted)
    degree = Counter(end for pe in lhs.edges for end in (pe.src, pe.tgt))
    out_min = Counter(pe.src for pe in lhs.edges if not pe.bidir)
    in_min = Counter(pe.tgt for pe in lhs.edges if not pe.bidir)
    names: dict[str, str] = {}      # GP 2 variable -> local, in binding order
    held: list[list[str]] = []      # per step, the records it flags
    facts: dict[str, tuple] = {}    # bound record -> what _may_meet compares, in binding order

    def fact(kind, item, root, degrees):
        items = item.label.items
        const = tuple(it[1] for it in items) if all(it[0] == "lit" for it in items) else None
        size = len(items)
        return (kind, None if item.mark == MARK_ANY else item.mark, const,
                root if reflect else None,
                *((size, size) if item.label.list_var_pos is None else (size - 1, inf)), *degrees)

    for s in steps:
        if s.kind == "edge":
            facts[edge[s.edge.eid]] = fact("e", s.edge, None, (0, inf))
        if s.binds:
            pid = s.node.pid
            kept = (out_min[pid] + in_min[pid], inf)
            facts[node[pid]] = fact("n", s.node, s.node.root,
                                    (degree[pid],) * 2 if pid in deleted else kept)
    order = list(facts.items())
    tested = {r for j, (r, a) in enumerate(order) if any(_may_meet(a, b) for _, b in order[:j])}
    flagged = {r for j, (r, a) in enumerate(order)
               if any(_may_meet(a, b) for _, b in order[j + 1:])}
    # the steps in runs of at most _LOOPS loops, one function each
    runs: list[list[int]] = [[]]
    loops = 0
    for k, step in enumerate(steps):
        if loops + max(len(step.phases), 1) > _LOOPS:
            runs.append([])
            loops = 0
        runs[-1].append(k)
        loops += max(len(step.phases), 1)
    out: list[str] = []             # the lines of the function being written
    scope: list[str] = []           # the locals bound so far, in binding order
    first: dict[str, str] = {}      # record -> its label, where fixed before its step
    body: dict[int, int] = {}       # step -> the depth of its loop's body

    def emit(depth, text):
        out.append("    " * depth + text)

    def bind(local):
        scope.append(local)
        return local

    def check_node(pn, depth):
        n, pid = node[pn.pid], pn.pid
        if n in first:
            emit(depth, f"if {n}.label != {first[n]}: continue")
        if n in tested:
            emit(depth, f"if {n}.flags & {FLAG_MATCHED}: continue")
        if pn.mark != MARK_ANY:
            emit(depth, f"if {n}.mark != {pn.mark!r}: continue")
        if reflect and not pn.root:     # a root is bound from the root list, which holds only roots
            emit(depth, f"if {n}.flags & {FLAG_ROOT}: continue")
        if pid in deleted:
            emit(depth, f"if {n}.indegree + {n}.outdegree != {degree[pid]}: continue")
        else:
            if out_min[pid]:
                emit(depth, f"if {n}.outdegree < {out_min[pid]}: continue")
            if in_min[pid]:
                emit(depth, f"if {n}.indegree < {in_min[pid]}: continue")
        if n not in first:
            check_label(pn.label, f"{n}.label", depth)

    def check_label(pattern, subject, depth):
        """Check a label that is not fixed before its step (see ``first``)."""
        items, pos = pattern.items, pattern.list_var_pos
        if pos == 0 and len(items) == 1:    # a lone list variable is the whole label
            atoms = [(subject, items[0])]
        else:
            emit(depth, f"label = {subject}")
            if pos is None:
                emit(depth, f"if len(label) != {len(items)}: continue")
                atoms = [(f"label[{p}]", item) for p, item in enumerate(items)]
            else:
                # atoms around the list variable: the prefix left to
                # right, the suffix right to left, then the list
                suffix = len(items) - pos - 1
                emit(depth, f"if len(label) < {len(items) - 1}: continue")
                atoms = [(f"label[{p}]", items[p]) for p in range(pos)]
                atoms += [(f"label[{p - len(items)}]", items[p])
                          for p in reversed(range(pos + 1, len(items)))]
                end = f"len(label) - {suffix}" if suffix else ""
                atoms.append((f"label[{pos}:{end}]", items[pos]))
        for atom, item in atoms:
            if item[0] == "lit":
                emit(depth, f"if {atom} != {item[1]!r}: continue")
            elif item[1] in names:
                emit(depth, f"if {atom} != {names[item[1]]}: continue")
            else:
                local = names[item[1]] = bind(f"v{len(names)}")
                emit(depth, f"{local} = {atom}")
                if item[2] in ("int", "string", "char"):
                    emit(depth, f"if not ({_TYPE_TEST[item[2]].format(local)}): continue")

    def open_step(k, depth):
        """Step k's fixed labels, its loop and its checks; the depth of its body."""
        step = steps[k]
        n = node[step.node.pid]
        fixed = [(n, step.node.label, f"d{k}")] if step.binds else []
        if step.kind == "edge":
            fixed.append((edge[step.edge.eid], step.edge.label, f"f{k}"))
        for record, label, local in fixed:
            if all(item[0] == "lit" for item in label.items):
                first[record] = repr(tuple(item[1] for item in label.items))
            elif all(item[0] == "lit" or item[1] in names for item in label.items):
                first[record] = local
                atoms = ("*" * (item[2] == "list") + names[item[1]] if item[0] == "var"
                         else repr(item[1]) for item in label.items)
                emit(depth, f"{local} = ({''.join(atom + ', ' for atom in atoms)})")
        if step.kind == "root":
            emit(depth, f"for {bind(n)} in g.root_list:")
            emit(depth + 1, "candidates += 1")
        elif step.kind == "node" and backend == "chain":    # each walk counts what nodes_iter counts
            emit(depth, f"c{k} = g.node_head")
            emit(depth, f"while c{k} is not None:")
            emit(depth + 1, f"{bind(n)} = c{k}; c{k} = {n}.next; walked += 1")
        elif step.kind == "node":   # one find per node, as nodes_index_scan
            emit(depth, f"c{k} = 0")
            emit(depth, f"while (j := live.find(1, c{k}, hw)) >= 0:")
            emit(depth + 1, f"walked += j - c{k} + 1; {bind(n)} = slots[j]; c{k} = j + 1")
            emit(depth + 1, "candidates += 1")
        if step.kind != "edge":
            depth += 1
            held.append([n] if n in flagged else [])
            check_node(step.node, depth)
        else:
            pe, a = step.edge, node[step.anchor.pid]
            e = edge[pe.eid]
            held.append([r for r in (e, n)[:1 + step.binds] if r in flagged])
            ways = [(f"{a}.in_head", f"{e}.tgt_next", f"{e}.source"),
                    (f"{a}.out_head", f"{e}.src_next", f"{e}.target")]
            if len(step.phases) > 1:    # the in-list in phase 1
                emit(depth, f"for {bind(f'p{k}')} in (0, 1):")
                depth += 1
                head, nxt, end = (f"{x} if p{k} else {y}" for x, y in zip(*ways))
                far = f"({end})"
            else:
                head, nxt, end = ways[not step.phases[0][0]]
                far = end
            emit(depth, f"c{k} = {head}")
            emit(depth, f"while c{k} is not None:")
            depth += 1
            emit(depth, f"{bind(e)} = c{k}")
            emit(depth, f"c{k} = {nxt}")
            emit(depth, "candidates += 1")
            if e in first:
                emit(depth, f"if {e}.label != {first[e]}: continue")
            if e in tested:
                emit(depth, f"if {e}.flags & {FLAG_MATCHED}: continue")
            if pe.mark != MARK_ANY:
                emit(depth, f"if {e}.mark != {pe.mark!r}: continue")
            if step.binds:
                emit(depth, f"{bind(n)} = {end}")
                check_node(step.node, depth)
            else:
                emit(depth, f"if {far} is not {n}: continue")
            if e not in first:
                check_label(pe.label, f"{e}.label", depth)
        for r in held[k]:
            emit(depth, f"{r}.flags |= {FLAG_MATCHED}")
        body[k] = depth
        return depth

    def open_run(run):
        """Start a function's nest: its counters and the loops of ``run``.
        The statement that adds its counts, and the innermost depth."""
        walks = any(steps[k].kind == "node" for k in run)
        emit(1, "candidates = walked = 0" if walks else "candidates = 0")
        if walks and backend == "index_scan":
            emit(1, "live, slots = g.live_bytes, g.node_slots; hw = len(slots)")
        depth = 1
        for k in run:
            depth = open_step(k, depth)
        return "g.candidates += candidates" + (" + walked" * (backend == "chain")
                                               + "; g.iter_steps += walked") * walks, depth

    def close_run(run, counted):
        """Close the loops of ``run``, each step clearing its flags as its
        loop moves on, and return False."""
        for k in reversed(run):
            for r in held[k]:
                emit(body[k], f"{r}.flags &= ~{FLAG_MATCHED}")
            if steps[k].kind == "node" and backend == "index_scan":
                emit(body[k] - 1, f"walked += hw - c{k}")    # the holes after the last node
        emit(1, counted)
        emit(1, "return False")

    orientations = {step.edge.eid: f"p{k} == {[flip for _, flip in step.phases].index(True)}"
                    for k, step in enumerate(steps) if step.kind == "edge" and step.edge.bidir}
    layout = (node, edge, names, orientations)

    def tail(depth, counted):
        """At the first match: the counts, the match in find mode, then the
        rewrite, every right-hand label first, then the mutator calls
        (matched edges not kept, left-hand-only nodes, right-hand items
        in order); constants and locals are written where used.  A kept
        item (a node of a left-hand node's id; an edge of a left-hand
        edge's id, ends and bidirectional flag) keeps its record and its
        place in every list, and is updated in place: not relabelled
        where its label writes its left-hand pattern out again, nor
        remarked where its mark is any or equal.  Whether it writes."""
        emit(depth, counted)
        emit(depth, "if find: return ({})".format(
            "".join(f"{v}, " for local in layout for v in local.values())))
        start = len(out)
        terms = _Terms(lambda text: emit(depth, text), names, rule, node)
        twin = {pn: lhs.nodes[lhs.by_id[pn.pid]] for pn in rule.rhs.nodes if pn.pid in node}
        old_edge = {(pe.eid, pe.src, pe.tgt, pe.bidir): pe for pe in lhs.edges}
        twin.update((pe, old_edge[key]) for pe in rule.rhs.edges
                    if (key := (pe.eid, pe.src, pe.tgt, pe.bidir)) in old_edge)
        kept = set(twin.values())
        same = {item for item, old in twin.items()
                if _pattern_items(item.label) == [atom[:2] for atom in old.label.items]}
        label = {}
        for t in [item.label for item in rule.rhs.nodes + rule.rhs.edges if item not in same]:
            code, kind = terms.expr(t)
            label[t] = code if kind == "list" else f"({code},)" if t[0] in ("int", "str") \
                else terms.let(f"({code},)")

        def update(record, item):
            if item not in same:
                emit(depth, f"if {record}.label != {label[item.label]}: "
                            f"g.relabel({record}, {label[item.label]})")
            if item.mark not in (MARK_ANY, twin[item].mark):
                # the search has checked a left-hand mark that is not any
                test = f"if {record}.mark != {item.mark!r}: " * (twin[item].mark == MARK_ANY)
                emit(depth, f"{test}g.remark({record}, {item.mark!r})")

        for pe in lhs.edges:
            if pe not in kept:
                emit(depth, f"g.delete_edge({edge[pe.eid]})")
        for pid in rule.deleted:
            emit(depth, f"g.delete_node({node[pid]})")
        at = dict(node)
        for pn in rule.rhs.nodes:
            if pn not in twin:
                at[pn.pid] = f"n{len(at)}"
                emit(depth, f"{at[pn.pid]} = g.add_node({label[pn.label]}, {pn.mark!r}, {pn.root})")
                continue
            n, old = at[pn.pid], twin[pn]
            update(n, pn)
            if pn.root != old.root or not (pn.root or reflect):     # reflect: never a root
                # a rooted left-hand node, or any in reflect mode, fixes the image's flag
                test = f"if {'not ' * pn.root}{n}.flags & {FLAG_ROOT}: "
                emit(depth, f"{test * (not (reflect or old.root))}"
                            f"g.{'root' if pn.root else 'unroot'}({n})")
        for pe in rule.rhs.edges:
            if pe in twin:
                update(edge[pe.eid], pe)
                continue
            mark = f"{edge[pe.eid]}.mark" if pe.mark == MARK_ANY else repr(pe.mark)
            rest = f"{label[pe.label]}, {mark})"
            add = f"g.add_edge({at[pe.src]}, {at[pe.tgt]}, {rest}"
            if pe.bidir and pe.eid in orientations:     # flipped: added the other way round
                emit(depth, f"if {orientations[pe.eid]}: "
                            f"g.add_edge({at[pe.tgt]}, {at[pe.src]}, {rest}")
                add = "else: " + add
            emit(depth, add)
        emit(depth, "return True")
        return len(out) - 1 > start

    functions: list[list[str]] = []
    shared: list[str] = []          # the locals the functions after step bind

    def nest(i):
        """Write run i's function, and before its innermost point the
        functions that continue its nest; in step, whether the rewrite writes."""
        nonlocal out
        out = [f"def step_{runs[i][0]}():" if i else "def step(g, find=False):"]
        functions.append(out)
        start = len(scope)
        counted, depth = open_run(runs[i])
        if i:   # what its steps bind is step's, for later functions and the rewrite
            shared.extend(scope[start:])
            out.insert(1, f"    nonlocal {', '.join(scope[start:])}")
        if i + 1 < len(runs):
            nest(i + 1)
            out = functions[i]
            emit(depth, f"if step_{runs[i + 1][0]}():")
            inner, records = depth + 1, []
        else:
            # every step is bound: clear the flags (the condition reads
            # none), then test the condition and set them again if it fails
            records = [r for rs in held for r in rs]
            for r in records:
                emit(depth, f"{r}.flags &= ~{FLAG_MATCHED}")
            inner = depth
            if rule.condition is not None:
                test = _Terms(lambda text: emit(depth, text), names, rule, node)
                emit(depth, f"if {test.cond(rule.condition)}:")
                inner += 1
        writes = False
        if i:
            emit(inner, counted)
            emit(inner, "return True")
        else:
            writes = tail(inner, counted)
        if rule.condition is not None:
            for r in records:
                emit(depth, f"{r}.flags |= {FLAG_MATCHED}")
        close_run(runs[i], counted)
        return writes

    writes = nest(0)
    step, *later = functions
    if later:   # closures in step, after the line that makes what they bind step's locals
        step[1:1] = [f"    {' = '.join(shared)} = None", *(f"    {line}" for f in later for line in f)]
    setting = f"{'no' * (not optimize)}opt {backend} {('preserve', 'reflect')[reflect]}"
    namespace = exec_source("".join(f"{line}\n" for line in step),
                            f"gp2 match {rule.name} {setting}",
                            {"EvalError": EvalError, "has_edge": has_edge})
    return namespace["step"], tuple(tuple(local) for local in layout), writes


# name -> {source: file name} of every source exec_source has run
_FILES: dict[str, dict[str, str]] = {}


def exec_source(source: str, name: str, namespace: dict) -> dict:
    """Run generated ``source`` in ``namespace`` under the file name
    ``<name>``, with the source in ``linecache``, so tracebacks, profiles
    and ``inspect.getsource`` show its lines.  The same source reuses its
    file name, found in ``_FILES``; another one of that name gets ``<name 2>``,
    ``<name 3>``...  The entry is written on every call, so one that
    ``linecache.clearcache`` dropped comes back."""
    files = _FILES.setdefault(name, {})
    filename = files.get(source)
    if filename is None:
        filename = files[source] = f"<{name} {len(files) + 1}>" if files else f"<{name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace
