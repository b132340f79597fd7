import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gp2 import bench, corpus
from gp2.engine import apply_rule
from gp2.graph import FLAG_MATCHED, INT32_MAX, INT32_MIN, MARK_ANY, Graph
from gp2.match import check_fast_rule, compiled_step, find_match
from gp2.rules import (
    EvalError,
    LabelPattern,
    PatternGraph,
    PatternNode,
    Rule,
    as_list,
    eval_cond,
    eval_expr,
    instantiate_rhs,
    wrap32,
)
from gp2.reference import label_match
from gp2.textio import MAX_NESTING, parse_host_graph, parse_program, parse_rule, print_graph
from helpers import kept_edges, predicate


def _rules(name):
    return parse_program(corpus.load_program(name)).rules


def test_eval_simple_arithmetic():
    assert eval_expr(("sub", ("var", "n"), ("int", 1)), {"n": 5}) == 4
    assert eval_expr(("cons", ("var", "m"), ("var", "n")), {"m": 2, "n": 7}) == (2, 7)
    with pytest.raises(EvalError):
        eval_expr(("div", ("int", 1), ("int", 0)), {})


def test_division_truncates_toward_zero():
    div = lambda a, b: eval_expr(("div", ("int", a), ("int", b)), {})
    assert div(7, 2) == 3
    assert div(-7, 2) == -3
    assert div(7, -2) == -3
    assert div(-7, -2) == 3


def test_eval_wraps_like_32_bit_and_matches_bigint_in_range():
    rng = random.Random(17)
    ops = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b}
    for _ in range(10 ** 4):
        tag = rng.choice(sorted(ops))
        a = rng.randrange(-2 ** 31, 2 ** 31)
        b = rng.randrange(-2 ** 31, 2 ** 31)
        got = eval_expr((tag, ("int", a), ("int", b)), {})
        exact = ops[tag](a, b)
        if -2 ** 31 <= exact < 2 ** 31:
            assert got == exact
        else:
            assert got == wrap32(exact)
            assert -2 ** 31 <= got < 2 ** 31


def test_string_concat_and_typechecks():
    assert eval_expr(("cat", ("var", "s"), ("str", "b")), {"s": "a"}) == "ab"
    assert eval_cond(("typecheck", "int", "x"), {"x": 3}, {})
    assert not eval_cond(("typecheck", "string", "x"), {"x": 3}, {})
    assert eval_cond(("typecheck", "char", "x"), {"x": "q"}, {})
    assert eval_cond(("typecheck", "atom", "x"), {"x": "q"}, {})
    assert not eval_cond(("typecheck", "atom", "x"), {"x": (1, 2)}, {})


def test_eval_cond_relations():
    assert not eval_cond(("rel", ">", ("var", "n"), ("int", 1)), {"n": 1}, {})
    assert eval_cond(("rel", "=", ("var", "x"), ("int", 5)), {"x": 5}, {})
    # an atom equals the one-atom list containing it
    assert eval_cond(("rel", "=", ("var", "x"), ("var", "y")),
                     {"x": 5, "y": (5,)}, {})


def _path3():
    g = Graph()
    c = g.add_node()
    b = g.add_node()
    a = g.add_node()
    g.add_edge(a, b)
    g.add_edge(b, c)
    return g, a, b, c


def test_edge_predicate_and_negated_conjunction():
    g, a, b, c = _path3()
    images = {1: a, 2: b, 3: c}
    assert eval_cond(("edge", 1, 2, None), {}, images)
    assert not eval_cond(("edge", 2, 1, None), {}, images)     # direction matters
    assert eval_cond(("not", ("edge", 1, 3, None)), {}, images)
    # the negated-conjunction case: only 1->2 present
    cond = ("not", ("and", ("edge", 1, 2, None), ("edge", 2, 1, None)))
    assert eval_cond(cond, {}, images)


def test_negated_conjunction_full_truth_table():
    cond = ("not", ("and", ("edge", 1, 2, None), ("edge", 2, 1, None)))
    for fwd in (False, True):
        for back in (False, True):
            g = Graph()
            b = g.add_node()
            a = g.add_node()
            if fwd:
                g.add_edge(a, b)
            if back:
                g.add_edge(b, a)
            got = eval_cond(cond, {}, {1: a, 2: b})
            assert got == (not (fwd and back))


def test_edge_predicate_with_label():
    g = Graph()
    b = g.add_node()
    a = g.add_node()
    g.add_edge(a, b, label=(3,))
    images = {1: a, 2: b}
    assert eval_cond(("edge", 1, 2, ("int", 3)), {}, images)
    assert not eval_cond(("edge", 1, 2, ("int", 4)), {}, images)


def test_indeg_outdeg_read_matched_node():
    g, a, b, c = _path3()
    assert eval_expr(("outdeg", 1), {}, {1: a}) == 1
    assert eval_expr(("indeg", 1), {}, {1: a}) == 0
    assert eval_expr(("indeg", 2), {}, {2: b}) == 1


def test_label_match_unification():
    lhs = parse_rule("r(x:list)\n[ (1, x) | ] => [ | ]").lhs
    asg = {}
    assert label_match(lhs.nodes[0].label, (1, 2), asg, [])
    assert asg == {"x": (1, 2)}

    lhs = parse_rule("r(n:int)\n[ (1, n) | ] => [ | ]").lhs
    assert not label_match(lhs.nodes[0].label, ("a",), {}, [])

    lhs = parse_rule("r(a:atom; x:list)\n[ (1, a:x) | ] => [ | ]").lhs
    asg = {}
    assert label_match(lhs.nodes[0].label, (7,), asg, [])
    assert asg == {"a": 7, "x": ()}


def test_label_match_respects_existing_bindings():
    lhs = parse_rule("r(n:int; x:list)\n[ (1, n:x:n) | ] => [ | ]").lhs
    pattern = lhs.nodes[0].label
    assert label_match(pattern, (3, 9, 3), {}, [])
    asg, trail = {}, []
    assert not label_match(pattern, (3, 9, 4), asg, trail)
    assert asg == {} and trail == []            # partial bindings undone
    asg, trail = {"n": 5}, []
    assert label_match(pattern, (5, 5), asg, trail)
    assert asg["x"] == () and trail == ["x"]


def test_instantiate_rhs_examples():
    rules = _rules("is_bin_dag")
    set_flag = rules["set_flag"]
    nodes, edges = instantiate_rhs(set_flag, {"x": ()})
    assert nodes == [((), "grey")] and set_flag.rhs.nodes[0].root
    assert edges == []

    incr = parse_rule("r(i:int)\n[ (1, i) | ] => [ (1, i+1) | ]")
    nodes, _ = instantiate_rhs(incr, {"i": 3})
    assert nodes == [((4,), "none")]

    # ':' binds looser than '+'
    pair = parse_rule("r(m,n:int)\n[ (1, m:n) | ] => [ (1, m:n+1) | ]")
    nodes, _ = instantiate_rhs(pair, {"m": 1, "n": 0})
    assert nodes == [((1, 1), "none")]


def test_instantiate_wildcard_mark_keeps_host_mark():
    rule = parse_rule("r(x:list)\n[ (1, x # any) | ] => [ (1, x # any) | ]")
    g = Graph()
    host = g.add_node(mark="blue")
    nodes, _ = instantiate_rhs(rule, {"x": ()}, node_images={1: host})
    assert nodes == [((), "blue")]


def test_check_fast_rule_on_reduction_rules():
    bin_dag = _rules("is_bin_dag")
    tree = _rules("is_tree")
    discrete = _rules("is_discrete")

    fast, problems = check_fast_rule(discrete["del"])
    assert not fast and "reachable" in problems[0]

    fast, problems = check_fast_rule(tree["init"])
    assert not fast and "reachable" in problems[0]

    for name in ("prune0", "prune1", "push"):
        fast, problems = check_fast_rule(tree[name])
        assert fast, (name, problems)
    for name in ("up", "del0", "del1", "del22_d", "set_flag", "flag"):
        fast, problems = check_fast_rule(bin_dag[name])
        assert fast, (name, problems)


def test_check_fast_rule_other_clauses():
    # repeated list variable in the left-hand side
    r = parse_rule("r(x:list)\n[ (1 (R), x) (2, x) | (0, 1, 2, empty) ] => [ | ]")
    fast, problems = check_fast_rule(r)
    assert not fast and any("occurs" in p for p in problems)

    # edge predicate in the condition
    r = parse_rule("r(x,y:list)\n[ (1 (R), x) (2, y) | (0, 1, 2, empty) ] =>"
                   " [ (1 (R), x) (2, y) | (0, 1, 2, empty) ] where not edge(2,1)")
    fast, problems = check_fast_rule(r)
    assert not fast and any("edge predicate" in p for p in problems)

    # equality between two unbounded variables
    r = parse_rule("r(x,y:list)\n[ (1 (R), x) (2, y) | (0, 1, 2, empty) ] =>"
                   " [ (1 (R), x) (2, y) | (0, 1, 2, empty) ] where x = y")
    fast, problems = check_fast_rule(r)
    assert not fast and any("(in)equality" in p for p in problems)

    # int comparisons are fine
    r = parse_rule("r(m,n:int)\n[ (1 (R), m:n) | ] => [ (1 (R), m:n) | ] where m = n")
    fast, problems = check_fast_rule(r)
    assert fast, problems


@st.composite
def _pattern_rules(draw):
    """Rules that keep a left-hand side of at most 8 nodes, any of them
    rooted, and at most 10 edges, any of them bidirectional."""
    n = draw(st.integers(1, 8))
    roots = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
                          max_size=10))
    nodes = " ".join(f"({i}{' (R)' * root}, empty)" for i, root in enumerate(roots))
    items = " ".join(f"({e}{' (B)' * bidir}, {s}, {t}, empty)"
                     for e, (s, t, bidir) in enumerate(edges))
    side = f"[ {nodes} | {items} ]"
    return parse_rule(f"r()\n{side} => {side}")


@settings(deadline=None, database=None, derandomize=True, max_examples=300)
@given(_pattern_rules())
def test_fast_rule_reachability_matches_bfs_oracle(rule):
    # plain undirected search over the pattern from its roots
    adj = {pn.pid: set() for pn in rule.lhs.nodes}
    for e in rule.lhs.edges:
        adj[e.src].add(e.tgt)
        adj[e.tgt].add(e.src)
    frontier = [pn.pid for pn in rule.lhs.nodes if pn.root]
    seen = set(frontier)
    while frontier:
        for other in adj[frontier.pop()] - seen:
            seen.add(other)
            frontier.append(other)
    unreachable = [pn.pid for pn in rule.lhs.nodes if pn.pid not in seen]
    fast, problems = check_fast_rule(rule)
    assert fast == (not unreachable)
    assert problems == [f"left-hand nodes not undirectedly reachable from a root: {unreachable}"
                        ] * bool(unreachable)


def test_rhs_variables_subset_of_lhs_for_whole_corpus():
    for name in corpus.PROGRAM_NAMES:
        for rule in parse_program(corpus.load_program(name)).rules.values():
            lhs_vars = set()
            for item in rule.lhs.nodes + rule.lhs.edges:
                lhs_vars.update(v for v, _ in item.label.variables())
            rhs_vars = set()

            def collect(expr):
                if expr[0] == "var":
                    rhs_vars.add(expr[1])
                for part in expr[1:]:
                    if isinstance(part, tuple):
                        collect(part)

            for item in rule.rhs.nodes + rule.rhs.edges:
                collect(item.label)
            assert rhs_vars <= lhs_vars, rule.name


# -- the compiled labels and conditions against the interpreter ---------------

# One variable of each type, bound by one left-hand node; "u" is declared
# but never bound.
VARIABLES = {"a": "int", "b": "int", "s": "string", "c": "char", "t": "atom",
             "x": "list", "u": "int"}
INT32 = st.one_of(st.integers(-3, 3), st.sampled_from([INT32_MIN, INT32_MAX]),
                  st.integers(INT32_MIN, INT32_MAX))
TEXT = st.text(alphabet="ab", max_size=2)
ATOM = st.one_of(INT32, TEXT)
VALUES = st.fixed_dictionaries({
    "a": INT32, "b": INT32, "s": TEXT, "c": st.sampled_from("ab"), "t": ATOM,
    "x": st.lists(ATOM, max_size=3).map(tuple)})
# labels of the host node's loops, which its degrees and edge(1, 1) read
LOOPS = st.lists(st.sampled_from([(), (1,), ("a",), (1, "a")]), max_size=2)

EXPR_LEAVES = st.one_of(
    st.builds(lambda n: ("int", n), INT32),
    st.builds(lambda s: ("str", s), TEXT),
    st.sampled_from([("var", name) for name in VARIABLES]),
    st.sampled_from([("empty",), ("indeg", 1), ("outdeg", 1)]))
UNARY = ["neg"]
BINARY = ["add", "sub", "mul", "div", "cons", "cat"]


def _expr_wraps(inner):
    return st.one_of(st.builds(lambda e: ("neg", e), inner),
                     st.builds(lambda tag, l, r: (tag, l, r), st.sampled_from(BINARY),
                               inner, inner))


EXPRS = st.recursive(EXPR_LEAVES, _expr_wraps, max_leaves=12)
RELOPS = ["=", "!=", ">", ">=", "<", "<="]
COND_LEAVES = st.one_of(
    st.builds(lambda op, l, r: ("rel", op, l, r), st.sampled_from(RELOPS), EXPRS, EXPRS),
    st.builds(lambda label: ("edge", 1, 1, label), st.none() | EXPRS),
    st.builds(lambda ty, name: ("typecheck", ty, name),
              st.sampled_from(["int", "string", "char", "atom"]),
              st.sampled_from(list(VARIABLES))))
CONDS = st.recursive(
    COND_LEAVES,
    lambda inner: st.one_of(st.builds(lambda c: ("not", c), inner),
                            st.builds(lambda tag, l, r: (tag, l, r),
                                      st.sampled_from(["and", "or"]), inner, inner)),
    max_leaves=8)


# Leaves of the deep terms, mostly ints so that the arithmetic often runs.
DEEP_LEAVES = [("int", 0), ("int", 1), ("int", -1), ("int", 3), ("int", INT32_MIN),
               ("int", INT32_MAX), ("var", "a"), ("var", "b"), ("indeg", 1),
               ("outdeg", 1), ("str", "a"), ("var", "s"), ("var", "t"), ("var", "x"),
               ("empty",)]


def _deep_expr(seed):
    """A leaf wrapped in 200 to 255 random operators: an expression nested
    up to MAX_NESTING deep, the term the left or right operand of each."""
    rng = random.Random(seed)
    term = rng.choice(DEEP_LEAVES)
    for _ in range(rng.randrange(MAX_NESTING - 56, MAX_NESTING)):
        tag, other = rng.choice(UNARY + BINARY), rng.choice(DEEP_LEAVES)
        term = (tag, term) if tag in UNARY else \
            rng.choice([(tag, term, other), (tag, other, term)])
    return term


def _deep_cond(seed):
    """As _deep_expr, for a condition of ``not``/``and``/``or`` over
    comparisons of leaves."""
    rng = random.Random(seed)

    def rel():
        return ("rel", rng.choice(RELOPS), rng.choice(DEEP_LEAVES), rng.choice(DEEP_LEAVES))
    term = rel()
    for _ in range(rng.randrange(MAX_NESTING - 56, MAX_NESTING - 1)):
        tag = rng.choice(["not", "and", "or"])
        term = ("not", term) if tag == "not" else rng.choice([(tag, term, rel()),
                                                              (tag, rel(), term)])
    return term


def _outcome(fn, rule=None):
    """What ``fn`` returns, or the message of the EvalError it raises,
    which names ``rule`` first when a compiled step of it raised it."""
    try:
        return "value", fn()
    except EvalError as exc:
        prefix = f"in rule {rule!r}: " if rule else ""
        assert str(exc).startswith(prefix), str(exc)
        return "error", str(exc)[len(prefix):]


def _host(values, loops):
    g = Graph()
    node = g.add_node((values["a"], values["b"], values["s"], values["c"], values["t"],
                       *values["x"]))
    for label in loops:
        g.add_edge(node, node, label)
    return g, node


def _rule(label=None, condition=None):
    """A rule whose left-hand node binds every variable but "u", and whose
    right-hand node has ``label``, or keeps its label under ``condition``."""
    items = [("var", name, VARIABLES[name]) for name in "absctx"]
    lhs = PatternGraph([PatternNode(1, LabelPattern(items), MARK_ANY, False)], [])
    rhs_label = label or ("cons", ("var", "a"), ("var", "x"))
    rhs = PatternGraph([PatternNode(1, rhs_label, MARK_ANY, False)], [])
    return Rule("r", VARIABLES, lhs, rhs, condition)


def _check_expr(expr, values, loops):
    g, node = _host(values, loops)
    images = {1: node}
    want = _outcome(lambda: as_list(eval_expr(expr, values, images)))
    rule = _rule(label=expr)
    got = _outcome(lambda: apply_rule(rule, g) and node.label, "r")
    assert got == want, expr
    if want[0] == "error":      # evaluated before any change
        assert node.label[:2] == (values["a"], values["b"])


def _check_cond(cond, values, loops):
    g, node = _host(values, loops)
    want = _outcome(lambda: eval_cond(cond, values, {1: node}))
    got = _outcome(lambda: find_match(_rule(condition=cond), g) is not None, "r")
    assert got == want, cond
    assert all(not n.flags & FLAG_MATCHED for n in g.nodes())


FUZZ = settings(deadline=None, database=None, derandomize=True, max_examples=200,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(EXPRS, VALUES, LOOPS)
def test_compiled_labels_evaluate_as_the_interpreter(expr, values, loops):
    _check_expr(expr, values, loops)


@FUZZ
@given(CONDS, VALUES, LOOPS)
def test_compiled_conditions_evaluate_as_the_interpreter(cond, values, loops):
    _check_cond(cond, values, loops)


PINNED_VALUES = {"a": -7, "b": 2, "s": "ab", "c": "a", "t": "b", "x": (1, "a")}
DEEP_VALUES = [PINNED_VALUES,
               {"a": INT32_MIN, "b": -1, "s": "", "c": "b", "t": 0, "x": ()},
               {"a": INT32_MAX, "b": 0, "s": "b", "c": "a", "t": -3, "x": ("a",)}]


# Seeds, not Hypothesis examples: shrinking a deep term takes minutes.
@pytest.mark.parametrize("seed", range(40))
def test_deep_compiled_terms_evaluate_as_the_interpreter(seed):
    values = DEEP_VALUES[seed % len(DEEP_VALUES)]
    _check_expr(_deep_expr(seed), values, [(1, "a")])
    _check_cond(_deep_cond(seed), values, [(), (1, "a")])


PINNED_EXPRS = [
    (("div", ("int", INT32_MIN), ("int", -1)), ("value", (INT32_MIN,))),
    (("add", ("int", INT32_MAX), ("int", 1)), ("value", (INT32_MIN,))),
    (("mul", ("int", INT32_MAX), ("int", 2)), ("value", (-2,))),
    (("neg", ("int", INT32_MIN)), ("value", (INT32_MIN,))),
    (("div", ("var", "a"), ("var", "b")), ("value", (-3,))),
    (("div", ("neg", ("var", "a")), ("neg", ("var", "b"))), ("value", (-3,))),
    (("div", ("var", "a"), ("neg", ("var", "b"))), ("value", (3,))),
    (("div", ("var", "b"), ("int", 0)), ("error", "division by zero")),
    (("cat", ("var", "t"), ("var", "c")), ("value", ("ba",))),
    (("cat", ("var", "s"), ("int", 1)), ("error", "'.' requires string operands")),
    (("cat", ("var", "x"), ("str", "a")), ("error", "'.' requires string operands")),
    (("add", ("var", "t"), ("div", ("int", 1), ("int", 0))),
     ("error", "arithmetic on a non-integer value")),
    (("add", ("div", ("int", 1), ("int", 0)), ("var", "t")), ("error", "division by zero")),
    (("cons", ("var", "x"), ("var", "u")), ("error", "unbound variable 'u'")),
]
ONE_BY_ZERO = ("rel", ">", ("div", ("int", 1), ("int", 0)), ("int", 0))
PINNED_CONDS = [
    (("rel", "<", ("var", "x"), ("int", 1)), ("error", "ordering comparison on non-integers")),
    (("rel", ">=", ("var", "a"), ("var", "t")),
     ("error", "ordering comparison on non-integers")),
    (("rel", "=", ("var", "x"), ("cons", ("int", 1), ("str", "a"))), ("value", True)),
    (("rel", "!=", ("var", "c"), ("cons", ("str", "a"), ("empty",))), ("value", False)),
    (("edge", 1, 1, None), ("value", True)),
    (("edge", 1, 1, ("var", "x")), ("value", True)),
    (("edge", 1, 1, ("empty",)), ("value", False)),
    (("or", ("rel", "=", ("var", "b"), ("int", 2)), ONE_BY_ZERO), ("value", True)),
    (("and", ("rel", "=", ("var", "b"), ("int", 2)), ONE_BY_ZERO),
     ("error", "division by zero")),
    (("typecheck", "int", "u"), ("error", "unbound variable 'u'")),
] + [(("typecheck", ty, name), ("value", ok)) for ty, name, ok in [
    ("int", "a", True), ("int", "t", False), ("int", "x", False),
    ("string", "s", True), ("string", "c", True), ("string", "a", False),
    ("char", "c", True), ("char", "s", False), ("char", "t", True),
    ("atom", "t", True), ("atom", "a", True), ("atom", "x", False)]]


@pytest.mark.parametrize("expr, expected", PINNED_EXPRS)
def test_compiled_labels_are_pinned(expr, expected):
    g, node = _host(PINNED_VALUES, [(1, "a")])
    rule = _rule(label=expr)
    got = _outcome(lambda: apply_rule(rule, g) and node.label, "r")
    assert got == expected
    _check_expr(expr, PINNED_VALUES, [(1, "a")])


@pytest.mark.parametrize("cond, expected", PINNED_CONDS)
def test_compiled_conditions_are_pinned(cond, expected):
    g, _ = _host(PINNED_VALUES, [(1, "a")])
    got = _outcome(lambda: find_match(_rule(condition=cond), g) is not None, "r")
    assert got == expected
    _check_cond(cond, PINNED_VALUES, [(1, "a")])


@st.composite
def _node_rules(draw):
    """Rules over up to three nodes and at most a loop, whose right-hand
    side repeats the left-hand one but for what is drawn: a node's root
    flag, label or mark changed, a node deleted or added, an edge added,
    deleted, kept as it was or kept with its label or mark changed."""
    labels, marks = ["x", "x:1", "1:x", "1", '"a"', "empty"], ["", " # red", " # any"]
    lhs = [(i, draw(st.booleans()), draw(st.sampled_from(labels[:3] if i == 0 else labels)),
            draw(st.sampled_from(marks))) for i in range(draw(st.integers(1, 3)))]
    rhs = []
    for i, root, label, mark in lhs:
        if i and not draw(st.integers(0, 3)):
            continue            # deleted
        change = draw(st.integers(0, 5))       # 1 to 3 change a field
        root ^= change == 1
        label = draw(st.sampled_from(labels + ["x + 1"])) if change == 2 else label
        mark = draw(st.sampled_from(marks)) if change == 3 else mark
        rhs.append((i, root, label, mark))
    rhs += [(len(lhs), False, "2", "")] * (not draw(st.integers(0, 3)))
    loop, any_loop = "(0, 0, 0, 1)", "(0, 0, 0, 1 # any)"
    edges = draw(st.sampled_from([("", "")] * 3 + [
        (loop, ""), ("", loop), (loop, loop), (any_loop, any_loop),
        (loop, "(0, 0, 0, 2)"), (loop, "(0, 0, 0, 1 # red)"), (any_loop, "(0, 0, 0, 1 # red)")]))
    side = [" ".join(f"({i}{' (R)' * root}, {label}{mark})" for i, root, label, mark in nodes)
            for nodes in (lhs, rhs)]
    return parse_rule(f"r(x:int)\n[ {side[0]} | {edges[0]} ] => [ {side[1]} | {edges[1]} ]")


def _check_writes(rule):
    for optimize in (True, False):
        for backend in ("chain", "index_scan"):
            for mode in ("preserve", "reflect"):
                compiled_step(rule, optimize, backend, mode == "reflect")
                writes = rule.plans[optimize, backend, mode == "reflect"][3]
                assert writes == (not predicate(rule, mode)), (rule.name, backend, mode)


def test_a_corpus_rule_writes_unless_it_is_a_predicate():
    rules = [rule for name in corpus.PROGRAM_NAMES for rule in _rules(name).values()]
    for rule in rules:
        _check_writes(rule)
    # flag in both modes, and has_loop, match, node and two_nodes in reflect mode
    assert sorted({r.name for r in rules if predicate(r, "preserve")}) == ["flag"]
    assert sorted({r.name for r in rules if predicate(r, "reflect")}) == [
        "flag", "has_loop", "match", "node", "two_nodes"]


@settings(deadline=None, database=None, derandomize=True, max_examples=300)
@given(st.one_of(_pattern_rules(), _node_rules()))
def test_a_drawn_rule_writes_unless_it_is_a_predicate(rule):
    _check_writes(rule)


# Every corpus rule with right-hand edges, and two that inherit an edge's
# mark, one of them through a bidirectional edge.
RHS_EDGE_RULES = [r for name in corpus.PROGRAM_NAMES for r in _rules(name).values()
                  if r.rhs.edges] + [parse_rule(text) for text in (
    "relay(x, y, n:list) [ (1, x) (2, y) | (0, 1, 2, n # any) ] => "
    "[ (1, x) (2, y) (3, 7) | (0, 1, 2, n:1 # any) (1, 2, 3, n) ]",
    "swap(x, y, n:list) [ (1, x) (2, y) | (0 (B), 1, 2, n # any) ] => "
    "[ (1, x # red) (2, y) | (0 (B), 1, 2, n:2 # any) ]")]


def _rhs_edge_hosts():
    """Every corpus fixture and a few small generated hosts, each also
    with each node in turn a grey root and every other edge dashed."""
    fixtures = sorted({f for e in corpus.ENTRIES.values() for f, _ in e.fixtures})
    bases = [corpus.load_fixture(f) for f in fixtures] + [
        print_graph(bench.generate(bench.parse_spec(spec)))
        for spec in ("tree:3", "grid:3x3", "list:4", "star:4", "sierpinski:1")]
    for text in bases:
        yield text
        for i in range(len(parse_host_graph(text).nodes())):
            g = parse_host_graph(text)
            nodes = g.nodes()
            for node in g.root_list[:]:
                g.unroot(node)
            g.root(nodes[i])
            g.remark(nodes[i], "grey")
            for k, e in enumerate(g.edges()):
                if k % 2:
                    e.mark = "dashed"
            yield print_graph(g)


@pytest.mark.parametrize("mode", ["preserve", "reflect"])
def test_reference_rhs_edges_are_the_edges_a_rewrite_adds(mode):
    hosts = list(_rhs_edge_hosts())
    applied, flipped, inherited = 0, 0, set()
    for rule in RHS_EDGE_RULES:
        for host in hosts:
            g = parse_host_graph(host)
            m = find_match(rule, g, mode)
            if m is None:
                continue
            _, edges = instantiate_rhs(rule, m.assignment, m.node_images, m.edge_images,
                                       m.orientations)
            before = g.edges()      # alive, so no added edge reuses an id
            kept = {id(m.edge_images[eid]) for eid in kept_edges(rule)}
            assert apply_rule(rule, g, mode)
            # what a rewrite adds: new records, and the kept ones it updates in place
            old = {id(e) for e in before} - kept
            added = [e for e in g.edges() if id(e) not in old]
            assert Counter((e.label, e.mark) for e in added) == \
                Counter((label, mark) for label, mark, _ in edges), rule.name
            between = Counter()
            for pe, (label, mark, flip) in zip(rule.rhs.edges, edges):
                if pe.mark == MARK_ANY:
                    inherited.add(mark)
                if pe.src in rule.lhs.by_id and pe.tgt in rule.lhs.by_id:
                    src, tgt = m.node_images[pe.src], m.node_images[pe.tgt]
                    if flip:
                        src, tgt = tgt, src
                        flipped += 1
                    between[label, mark, id(src), id(tgt)] += 1
            got = Counter((e.label, e.mark, id(e.source), id(e.target)) for e in added)
            assert not between - got, rule.name
            applied += 1
    assert applied > 100 and flipped > 0 and inherited == {"none", "dashed"}
