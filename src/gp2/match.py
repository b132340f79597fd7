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

``compiled_step`` compiles each plan to one Python function, once per
rule and setting (plan order, backend, root mode), and caches it in
``Rule.plans``.  Its search is the plan unrolled into a flat state
machine, one block per step with its checks written out: each variable
is a local, and a global node step walks the node chain or the slots
inline.  Each candidate is checked when it is bound: a label fixed
before the step first, in one tuple comparison, then injectivity (only
against items that may meet it), mark, an edge's other end, root (a
non-root only in reflect mode; none from the root list, which holds only
roots), degree and any other label.  A node the rule deletes must have
its exact degree (the dangling condition), so a dangling candidate is
rejected before the rule's condition is ever evaluated.  A node the rule
keeps must have at least as many out- and in-edges as its
non-bidirectional left-hand edges give it.  The condition runs once
every step is bound, as inline Python.  At the first hit the function
rewrites on the locals the search bound, every right-hand label first,
then the mutator calls, none for what stays as it was: a kept node or
edge is updated where it is.  ``Rule.plans`` notes whether any call is
left, for ``engine``'s frames.  In find mode it returns the locals, for
``find_match``.  Each return adds the candidates examined to
``Graph.candidates`` and the walks' steps to ``Graph.iter_steps``, where
a node-chain walk counts each step once for both; an EvalError raised by
the condition mid-search adds to neither.  Every EvalError the function
raises names its rule (``in rule 'r': ...``) in the message written into
its source, so no caller, ``engine``'s generated ``main`` included, adds
the name.

Injectivity is enforced with per-record matched flags, set while a
candidate is held and cleared again on backtracking, so each attempt
costs only the items it touched; every flag is clear on return.  A flag
is set only between items that may meet (``_may_meet``): a record is
flagged only if a later item may match the same host item, and tested
only if an earlier one may.
"""

from __future__ import annotations

import linecache
from collections import Counter
from heapq import heappop, heappush
from math import inf
from typing import Optional

from .graph import FLAG_MATCHED, FLAG_ROOT, MARK_ANY, SCAN_CHUNK, Graph, GraphError
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


# Plans longer than this put a guard on each run of this many steps, so
# resuming step k from the loop top tests about k / _CHUNK + _CHUNK
# conditions, not k.
_CHUNK = 32

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
    """The rule's step, with one ``if i == k:`` block per plan step and
    the rewrite after them, its layout, and whether the rewrite writes
    anything (see ``compiled_step``).  It is compiled by ``exec_source``
    under a file name that names the rule and the setting.

    ``i`` is the step to try next.  A step that binds falls through into
    the next block after setting up that step's candidates and fixed
    labels; a step out of candidates unbinds the step before it and
    re-enters that step's block from the loop top.  Which variables are
    bound at each step is fixed by the plan, so each is a local, bound by
    assignment and checked by ``==``.  Program text enters the source
    only as generated names (``n``/``e`` + item index, ``v`` + variable
    number, ``t`` + subterm number, ``d``/``f`` + step number for the
    step's fixed node/edge label) and as ``repr`` of ints, strings and
    tuples of them.
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
    walks = any(step.kind == "node" for step in steps)
    lines = ["def step(g, find=False):", "    candidates = walked = i = 0"]
    if walks and backend == "index_scan":
        lines.append("    live, slots = g.live_bytes, g.node_slots; hw = len(slots)")
    counters = "g.candidates += candidates" + (" + walked" * (backend == "chain")
                                               + "; g.iter_steps += walked") * walks
    first: dict[str, str] = {}      # record -> its label, where fixed before its step
    shift = 0                       # 1 inside a chunk's guard

    def emit(depth, text):
        lines.append("    " * (depth + shift) + text)

    def setup(k, depth):
        """Start step k's candidates, a node iterator or an edge list, and fixed labels."""
        if k == len(steps):
            return
        step = steps[k]
        fixed = [(node[step.node.pid], step.node.label, f"d{k}")] if step.binds else []
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
            emit(depth, f"it{k} = iter(g.root_list)")
        elif step.kind == "node":
            emit(depth, f"c{k} = {'g.node_head' if backend == 'chain' else 0}")
        else:
            reverse = step.phases[0][0]
            emit(depth, f"c{k} = {node[step.anchor.pid]}.{'in_head' if reverse else 'out_head'}")
            if len(step.phases) > 1:
                emit(depth, f"p{k} = 0")

    def back(k, depth):
        """Step k is out of candidates: unbind step k - 1 and resume it."""
        if k == 0:
            emit(depth, counters)
            emit(depth, "return False")
            return
        for record in held[k - 1]:
            emit(depth, f"{record}.flags &= ~{FLAG_MATCHED}")
        emit(depth, f"i = {k - 1}")
        emit(depth, "continue")

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
                local = names[item[1]] = f"v{len(names)}"
                emit(depth, f"{local} = {atom}")
                if item[2] in ("int", "string", "char"):
                    emit(depth, f"if not ({_TYPE_TEST[item[2]].format(local)}): continue")

    setup(0, 1)
    emit(1, "while True:")
    for k, step in enumerate(steps):
        if len(steps) > _CHUNK and k % _CHUNK == 0:
            shift = 0
            emit(2, f"if i < {k + _CHUNK}:")
            shift = 1
        emit(2, f"if i == {k}:")
        n = node[step.node.pid]
        if step.kind != "edge":
            held.append([n] if n in flagged else [])
            if step.kind == "root":
                emit(3, f"for {n} in it{k}:")
            elif backend == "chain":     # each walk counts what nodes_iter counts
                emit(3, f"while c{k} is not None:")
                emit(4, f"{n} = c{k}; c{k} = {n}.next; walked += 1")
            else:   # SCAN_CHUNK slots per find, as nodes_index_scan
                emit(3, f"while c{k} < hw:")
                emit(4, f"end = c{k} + {SCAN_CHUNK}; j = live.find(1, c{k}, end)")
                emit(4, f"if j < 0: walked += end - c{k}; c{k} = end; continue")
                emit(4, f"walked += j - c{k} + 1; {n} = slots[j]; c{k} = j + 1")
            if step.kind == "root" or backend != "chain":
                emit(4, "candidates += 1")
            check_node(step.node, 4)
            for r in held[k]:
                emit(4, f"{r}.flags |= {FLAG_MATCHED}")
            emit(4, "break")
            emit(3, "else:")
            if step.kind == "node" and backend == "index_scan":
                emit(4, f"walked += hw - c{k}")   # the last chunk ran past hw
            back(k, 4)
        else:
            pe, phases = step.edge, step.phases
            e = edge[pe.eid]
            held.append([r for r in (e, n)[:1 + step.binds] if r in flagged])
            depth = 3
            bound = len(names)
            for p, (reverse, _) in enumerate(phases):
                while len(names) > bound:   # each phase binds the same variables
                    names.popitem()
                if len(phases) > 1:
                    emit(3, f"if p{k} == {p}:")
                    depth = 4
                emit(depth, f"while c{k} is not None:")
                emit(depth + 1, f"{e} = c{k}")
                emit(depth + 1, f"c{k} = {e}.{'tgt_next' if reverse else 'src_next'}")
                emit(depth + 1, "candidates += 1")
                if e in first:
                    emit(depth + 1, f"if {e}.label != {first[e]}: continue")
                if e in tested:
                    emit(depth + 1, f"if {e}.flags & {FLAG_MATCHED}: continue")
                if pe.mark != MARK_ANY:
                    emit(depth + 1, f"if {e}.mark != {pe.mark!r}: continue")
                end = f"{e}.{'source' if reverse else 'target'}"
                if step.binds:
                    emit(depth + 1, f"{n} = {end}")
                    check_node(step.node, depth + 1)
                else:
                    emit(depth + 1, f"if {end} is not {n}: continue")
                if e not in first:
                    check_label(pe.label, f"{e}.label", depth + 1)
                for r in held[k]:
                    emit(depth + 1, f"{r}.flags |= {FLAG_MATCHED}")
                emit(depth + 1, "break")
                emit(depth, "else:")
                if p + 1 < len(phases):
                    emit(depth + 1, f"p{k} = {p + 1}")
                    emit(depth + 1, f"c{k} = {node[step.anchor.pid]}.in_head")
                else:
                    back(k, depth + 1)
        emit(3, f"i = {k + 1}")
        setup(k + 1, 3)

    shift = 0
    # every step is bound: clear the flags (the condition reads none),
    # then test the condition and set them again if it fails
    records = [r for rs in held for r in rs]
    for r in records:
        emit(2, f"{r}.flags &= ~{FLAG_MATCHED}")
    if rule.condition is None:
        emit(2, "break")
    else:
        test = _Terms(lambda text: emit(2, text), names, rule, node)
        emit(2, f"if {test.cond(rule.condition)}: break")
        for r in records:
            emit(2, f"{r}.flags |= {FLAG_MATCHED}")
        back(len(steps), 2)
    emit(1, counters)
    orientations = {step.edge.eid: f"p{k} == {[flip for _, flip in step.phases].index(True)}"
                    for k, step in enumerate(steps) if step.kind == "edge" and step.edge.bidir}
    layout = (node, edge, names, orientations)
    emit(1, "if find: return ({})".format(
        "".join(f"{v}, " for local in layout for v in local.values())))
    find_end = len(lines)

    # the rewrite: every right-hand label first, then the mutator calls
    # (matched edges not kept, left-hand-only nodes, right-hand items in
    # order); constants and locals are written where used.  A kept item (a
    # node of a left-hand node's id; an edge of a left-hand edge's id, ends
    # and bidirectional flag) keeps its record and its place in every list,
    # and is updated in place: not relabelled where its label writes its
    # left-hand pattern out again, nor remarked where its mark is any or equal
    terms = _Terms(lambda text: emit(1, text), names, rule, node)
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
            emit(1, f"if {record}.label != {label[item.label]}: "
                    f"g.relabel({record}, {label[item.label]})")
        if item.mark not in (MARK_ANY, twin[item].mark):
            emit(1, f"if {record}.mark != {item.mark!r}: g.remark({record}, {item.mark!r})")

    for pe in lhs.edges:
        if pe not in kept:
            emit(1, f"g.delete_edge({edge[pe.eid]})")
    for pid in rule.deleted:
        emit(1, f"g.delete_node({node[pid]})")
    at = dict(node)
    for pn in rule.rhs.nodes:
        if pn not in twin:
            at[pn.pid] = f"n{len(at)}"
            emit(1, f"{at[pn.pid]} = g.add_node({label[pn.label]}, {pn.mark!r}, {pn.root})")
            continue
        n, old = at[pn.pid], twin[pn]
        update(n, pn)
        if pn.root != old.root or not (pn.root or reflect):     # reflect: never a root
            # a rooted left-hand node, or any in reflect mode, fixes the image's flag
            test = f"if {'not ' * pn.root}{n}.flags & {FLAG_ROOT}: "
            emit(1, f"{test * (not (reflect or old.root))}g.set_root({n}, {pn.root})")
    for pe in rule.rhs.edges:
        if pe in twin:
            update(edge[pe.eid], pe)
            continue
        mark = f"{edge[pe.eid]}.mark" if pe.mark == MARK_ANY else repr(pe.mark)
        rest = f"{label[pe.label]}, {mark})"
        add = f"g.add_edge({at[pe.src]}, {at[pe.tgt]}, {rest}"
        if pe.bidir and pe.eid in orientations:     # flipped: added the other way round
            emit(1, f"if {orientations[pe.eid]}: g.add_edge({at[pe.tgt]}, {at[pe.src]}, {rest}")
            add = "else: " + add
        emit(1, add)
    writes = len(lines) > find_end
    emit(1, "return True")
    setting = f"{'no' * (not optimize)}opt {backend} {('preserve', 'reflect')[reflect]}"
    namespace = exec_source("\n".join(lines) + "\n", f"gp2 match {rule.name} {setting}",
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
