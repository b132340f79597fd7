"""Rules: patterns, typed variables, conditions, and their evaluation.

Label expressions evaluate over 32-bit signed integers with C
semantics: arithmetic wraps silently, division truncates toward zero,
and dividing by zero raises EvalError, which aborts the whole run.
``eval_expr``, ``eval_cond`` and ``instantiate_rhs`` are the reference
interpreter of the terms that ``match`` compiles for runs.

Expressions and conditions are plain tagged tuples, e.g.
``('add', ('var', 'n'), ('int', 1))`` or ``('not', ('edge', 1, 3, None))``.
Analyses that only look for certain tuples (variables, degree operators,
edge predicates) iterate ``subterms``, the one walker over both kinds;
evaluation and type inference recurse, as they compute a value per
tuple, so the validator bounds a term's ``nesting`` first.
"""

from __future__ import annotations

from .graph import EDGE_MARKS, MARK_ANY, NODE_MARKS

VAR_TYPES = ("int", "char", "string", "atom", "list")


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

    __slots__ = ("items", "list_var_pos")

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
        self.plans: dict = {}       # (optimize, backend, reflect) -> (steps, step, layout, writes)


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
        label = cond[3]
        if label is not None:
            label = as_list(eval_expr(label, assignment, node_images))
        return has_edge(node_images[cond[1]], node_images[cond[2]], label)
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


def has_edge(src, tgt, label) -> bool:
    """Whether an edge runs from ``src`` to ``tgt``, with ``label`` unless
    that is None: the edge predicate, for ``eval_cond`` and compiled code."""
    e = src.out_head
    while e is not None:
        if e.target is tgt and (label is None or e.label == label):
            return True
        e = e.src_next
    return False


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
