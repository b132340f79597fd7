import random

import pytest

from gp2 import corpus
from gp2.graph import Graph
from gp2.rules import (
    EvalError,
    check_fast_rule,
    eval_cond,
    eval_expr,
    instantiate_rhs,
    label_match,
    wrap32,
)
from gp2.textio import parse_program, parse_rule


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


def _random_pattern_rule(rng):
    n = rng.randrange(1, 9)
    roots = [rng.random() < 0.3 for _ in range(n)]
    nodes = " ".join(
        f"({i}{' (R)' if roots[i] else ''}, empty)" for i in range(n))
    edges = []
    for e in range(rng.randrange(0, n + 3)):
        edges.append(f"({e}, {rng.randrange(n)}, {rng.randrange(n)}, empty)")
    text = f"r()\n[ {nodes} | {' '.join(edges)} ] => [ {nodes} | {' '.join(edges)} ]"
    return parse_rule(text), roots


def test_fast_rule_reachability_matches_bfs_oracle():
    rng = random.Random(23)
    for _ in range(300):
        rule, roots = _random_pattern_rule(rng)
        # plain undirected breadth-first search over the pattern
        adj = {i: set() for i in range(len(rule.lhs.nodes))}
        for e in rule.lhs.edges:
            adj[e.src].add(e.tgt)
            adj[e.tgt].add(e.src)
        frontier = [i for i, r in enumerate(roots) if r]
        seen = set(frontier)
        while frontier:
            nxt = frontier.pop()
            for other in adj[nxt]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        all_reached = len(seen) == len(rule.lhs.nodes)
        fast, problems = check_fast_rule(rule)
        assert fast == all_reached


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
