"""Rules: patterns, typed variables, conditions, and their evaluation.

Label expressions evaluate over 32-bit signed integers with C
semantics: arithmetic wraps silently, division truncates toward zero,
and dividing by zero raises EvalError, which aborts the whole run.

Expressions and conditions are plain tagged tuples, e.g.
``('add', ('var', 'n'), ('int', 1))`` or ``('not', ('edge', 1, 3, None))``.
Analyses that only look for certain tuples (variables, degree operators,
edge predicates) iterate ``subterms``, the one walker over both kinds;
evaluation and type inference recurse, as they compute a value per
tuple, so the validator bounds a term's ``nesting`` first.
"""

from __future__ import annotations

from collections import Counter

from .graph import EDGE_MARKS, MARK_ANY, NODE_MARKS

VAR_TYPES = ("int", "char", "string", "atom", "list")

# variable types whose repetition or comparison breaks the fast-rule
# guarantees (their domains are unbounded)
UNBOUNDED_TYPES = frozenset(("list", "string", "atom"))


class EvalError(Exception):
    """Runtime label/condition evaluation failure (e.g. division by zero)."""


class RuleError(Exception):
    pass


def subterms(term):
    """Every tagged tuple of an expression or condition, the term itself
    first, in left-to-right preorder."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(p for p in reversed(t) if isinstance(p, tuple))


def nesting(term) -> int:
    """How many tagged tuples deep an expression or condition nests."""
    depth, level = 0, [term]
    while level:
        depth += 1
        level = [p for t in level for p in t if isinstance(p, tuple)]
    return depth


def wrap32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def as_list(v) -> tuple:
    return v if isinstance(v, tuple) else (v,)


class PatternNode:
    __slots__ = ("pid", "label", "mark", "root")

    def __init__(self, pid: int, label, mark: str, root: bool):
        self.pid = pid
        self.label = label          # LHS: LabelPattern, RHS: expression
        self.mark = mark
        self.root = root


class PatternEdge:
    __slots__ = ("eid", "src", "tgt", "label", "mark", "bidir")

    def __init__(self, eid: int, src: int, tgt: int, label, mark: str, bidir: bool):
        self.eid = eid
        self.src = src
        self.tgt = tgt
        self.label = label
        self.mark = mark
        self.bidir = bidir


class PatternGraph:
    __slots__ = ("nodes", "edges", "by_id")

    def __init__(self, nodes: list[PatternNode], edges: list[PatternEdge]):
        self.nodes = nodes
        self.edges = edges
        self.by_id = {n.pid: i for i, n in enumerate(nodes)}


class LabelPattern:
    """A left-hand-side label: fixed atoms and typed variables around at
    most one list variable, unified positionally against a host label."""

    __slots__ = ("items", "list_var_pos", "kind", "detail")

    def __init__(self, items: list[tuple]):
        # items: ('lit', atom) or ('var', name, type)
        self.items = items
        pos = None
        for i, item in enumerate(items):
            if item[0] == "var" and item[2] == "list":
                if pos is not None:
                    raise RuleError("at most one list variable per label")
                pos = i
        self.list_var_pos = pos
        # label_match's fast paths: a lone list variable binds the whole
        # host label, a constant pattern is one tuple comparison
        if len(items) == 1 and pos == 0:
            self.kind = "list_var"
            self.detail = None
        elif all(it[0] == "lit" for it in items):
            self.kind = "const"
            self.detail = tuple(it[1] for it in items)
        else:
            self.kind = "general"
            self.detail = None

    def variables(self):
        return [(it[1], it[2]) for it in self.items if it[0] == "var"]


class Rule:
    __slots__ = ("name", "variables", "lhs", "rhs", "condition", "interface",
                 "deleted", "plans")

    def __init__(self, name: str, variables: dict[str, str],
                 lhs: PatternGraph, rhs: PatternGraph, condition=None):
        self.name = name
        self.variables = variables
        self.lhs = lhs
        self.rhs = rhs
        self.condition = condition
        self.interface = sorted(set(lhs.by_id) & set(rhs.by_id))
        self.deleted = [n.pid for n in lhs.nodes if n.pid not in rhs.by_id]
        self.plans: dict = {}       # optimize -> match.compile_plan's search plan


# -- label matching -----------------------------------------------------


def _bind_atom(item, value, assignment, trail) -> bool:
    kind = item[0]
    if kind == "lit":
        return item[1] == value
    name, vtype = item[1], item[2]
    if vtype == "int":
        if not isinstance(value, int):
            return False
    elif vtype == "string":
        if not isinstance(value, str):
            return False
    elif vtype == "char":
        if not (isinstance(value, str) and len(value) == 1):
            return False
    # atom and list types accept anything
    bound = assignment.get(name, _UNSET)
    if bound is _UNSET:
        assignment[name] = value
        trail.append(name)
        return True
    return bound == value


_UNSET = object()


def label_match(pattern: LabelPattern, host_label: tuple, assignment: dict,
                trail: list) -> bool:
    """Unify a pattern label with a host label, extending ``assignment``
    and appending each name this call binds to ``trail``.

    This is the one label binder of the matcher and its oracles.  On a
    mismatch it returns False with this call's bindings already undone.
    """
    kind = pattern.kind
    if kind == "const":
        return host_label == pattern.detail
    if kind == "list_var":
        return _bind_atom(pattern.items[0], host_label, assignment, trail)
    start = len(trail)
    if _unify(pattern, host_label, assignment, trail):
        return True
    for name in trail[start:]:
        del assignment[name]
    del trail[start:]
    return False


def _unify(pattern: LabelPattern, host_label: tuple, assignment, trail) -> bool:
    """The general case of label_match, leaving partial bindings on a
    mismatch: atoms positionally around at most one list variable."""
    items = pattern.items
    pos = pattern.list_var_pos
    if pos is None:
        if len(items) != len(host_label):
            return False
        for item, atom in zip(items, host_label):
            if not _bind_atom(item, atom, assignment, trail):
                return False
        return True
    prefix, suffix = items[:pos], items[pos + 1:]
    if len(host_label) < len(prefix) + len(suffix):
        return False
    for item, atom in zip(prefix, host_label):
        if not _bind_atom(item, atom, assignment, trail):
            return False
    for item, atom in zip(reversed(suffix), reversed(host_label)):
        if not _bind_atom(item, atom, assignment, trail):
            return False
    mid = host_label[len(prefix):len(host_label) - len(suffix)]
    return _bind_atom(items[pos], mid, assignment, trail)


# -- expression evaluation ----------------------------------------------


def eval_expr(expr, assignment: dict, node_images=None):
    tag = expr[0]
    if tag == "int" or tag == "str":
        return expr[1]
    if tag == "var":
        try:
            return assignment[expr[1]]
        except KeyError:
            raise EvalError(f"unbound variable {expr[1]!r}")
    if tag == "empty":
        return ()
    if tag == "cons":
        left = eval_expr(expr[1], assignment, node_images)
        right = eval_expr(expr[2], assignment, node_images)
        return as_list(left) + as_list(right)
    if tag == "cat":
        left = eval_expr(expr[1], assignment, node_images)
        right = eval_expr(expr[2], assignment, node_images)
        if not isinstance(left, str) or not isinstance(right, str):
            raise EvalError("'.' requires string operands")
        return left + right
    if tag == "neg":
        return wrap32(-_int_operand(expr[1], assignment, node_images))
    if tag in ("add", "sub", "mul", "div"):
        a = _int_operand(expr[1], assignment, node_images)
        b = _int_operand(expr[2], assignment, node_images)
        if tag == "add":
            return wrap32(a + b)
        if tag == "sub":
            return wrap32(a - b)
        if tag == "mul":
            return wrap32(a * b)
        if b == 0:
            raise EvalError("division by zero")
        q = abs(a) // abs(b)
        return wrap32(q if (a < 0) == (b < 0) else -q)
    if tag == "indeg":
        return node_images[expr[1]].indegree
    if tag == "outdeg":
        return node_images[expr[1]].outdegree
    raise EvalError(f"bad expression node {tag!r}")


def _int_operand(expr, assignment, node_images) -> int:
    v = eval_expr(expr, assignment, node_images)
    if not isinstance(v, int):
        raise EvalError("arithmetic on a non-integer value")
    return v


def eval_cond(cond, assignment: dict, node_images) -> bool:
    tag = cond[0]
    if tag == "and":
        return eval_cond(cond[1], assignment, node_images) and \
            eval_cond(cond[2], assignment, node_images)
    if tag == "or":
        return eval_cond(cond[1], assignment, node_images) or \
            eval_cond(cond[2], assignment, node_images)
    if tag == "not":
        return not eval_cond(cond[1], assignment, node_images)
    if tag == "rel":
        op = cond[1]
        left = eval_expr(cond[2], assignment, node_images)
        right = eval_expr(cond[3], assignment, node_images)
        if op == "=":
            return as_list(left) == as_list(right)
        if op == "!=":
            return as_list(left) != as_list(right)
        if not isinstance(left, int) or not isinstance(right, int):
            raise EvalError(f"ordering comparison on non-integers")
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        raise EvalError(f"bad relational operator {op!r}")
    if tag == "edge":
        src = node_images[cond[1]]
        tgt = node_images[cond[2]]
        want_label = cond[3]
        label = None
        if want_label is not None:
            label = as_list(eval_expr(want_label, assignment, node_images))
        e = src.out_head
        while e is not None:
            if e.target is tgt and (label is None or e.label == label):
                return True
            e = e.src_next
        return False
    if tag == "typecheck":
        vtype, name = cond[1], cond[2]
        try:
            v = assignment[name]
        except KeyError:
            raise EvalError(f"unbound variable {name!r}")
        if vtype == "int":
            return isinstance(v, int)
        if vtype == "string":
            return isinstance(v, str)
        if vtype == "char":
            return isinstance(v, str) and len(v) == 1
        if vtype == "atom":
            return not isinstance(v, tuple)
        raise EvalError(f"bad type check {vtype!r}")
    raise EvalError(f"bad condition node {tag!r}")


# -- right-hand-side instantiation ---------------------------------------


def instantiate_rhs(rule: Rule, assignment: dict, node_images=None,
                    edge_images=None, orientations=None):
    """Evaluate every RHS expression to a host label and resolve
    wildcard marks to the matched host marks.

    Returns (nodes, edges) in the order of ``rule.rhs``: a (label, mark)
    pair per node and a (label, mark, flip) triple per edge, where flip
    says a bidirectional edge's matched counterpart was embedded against
    the edge direction.
    """
    nodes = []
    for pn in rule.rhs.nodes:
        label = as_list(eval_expr(pn.label, assignment, node_images))
        mark = pn.mark
        if mark == MARK_ANY:
            mark = node_images[pn.pid].mark
        if mark not in NODE_MARKS:
            raise EvalError(f"{mark!r} is not a node mark")
        nodes.append((label, mark))
    edges = []
    for pe in rule.rhs.edges:
        label = as_list(eval_expr(pe.label, assignment, node_images))
        mark = pe.mark
        if mark == MARK_ANY:
            mark = edge_images[pe.eid].mark
        if mark not in EDGE_MARKS:
            raise EvalError(f"{mark!r} is not an edge mark")
        flip = bool(pe.bidir and orientations and orientations.get(pe.eid))
        edges.append((label, mark, flip))
    return nodes, edges


# -- fast-rule classifier -------------------------------------------------


def check_fast_rule(rule: Rule) -> tuple[bool, list[str]]:
    """Decide whether the rule can be matched in constant time on hosts
    with bounded degree and bounded root count.

    The three requirements: every left-hand node is undirectedly
    reachable from a root; no list/string/atom variable occurs twice in
    either side; and the condition uses no edge predicate and no
    (in)equality with such variables on both sides.
    """
    problems = []

    reached = {n.pid for n in rule.lhs.nodes if n.root}
    frontier = list(reached)
    adj: dict[int, list[int]] = {}
    for e in rule.lhs.edges:
        adj.setdefault(e.src, []).append(e.tgt)
        adj.setdefault(e.tgt, []).append(e.src)
    while frontier:
        pid = frontier.pop()
        for other in adj.get(pid, ()):
            if other not in reached:
                reached.add(other)
                frontier.append(other)
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
