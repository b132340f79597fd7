import random
import time

import pytest

from gp2 import corpus
from gp2.engine import ExecConfig, run_program
from gp2.graph import FLAG_MATCHED, Graph
from gp2.match import (
    audit_match,
    brute_force_match,
    compile_plan,
    find_match,
    find_match_steps,
    plan_is_well_formed,
)
from gp2.rules import EvalError
from gp2.textio import parse_host_graph, parse_program, parse_rule


def _rules(name):
    return parse_program(corpus.load_program(name)).rules


def test_plan_for_rooted_rule_starts_at_root_without_global_search():
    up = _rules("is_bin_dag")["up"]
    plan = compile_plan(up)
    assert plan[0][:2] == ("root", up.lhs.nodes[0].pid)
    assert all(step[0] != "node" for step in plan)
    assert plan_is_well_formed(up, plan)


def test_plan_for_unrooted_single_node_rule_is_global():
    del_rule = _rules("is_discrete")["del"]
    plan = compile_plan(del_rule)
    assert [step[:2] for step in plan] == [("node", del_rule.lhs.nodes[0].pid)]


def test_plan_for_three_node_chain():
    link = _rules("trans_closure")["link"]
    plan = compile_plan(link)
    assert sum(1 for s in plan if s[0] == "node") == 1
    assert sum(1 for s in plan if s[0] == "edge") == 2
    assert plan_is_well_formed(link, plan)


def test_plans_well_formed_for_whole_corpus():
    for name in corpus.PROGRAM_NAMES:
        for rule in parse_program(corpus.load_program(name)).rules.values():
            assert plan_is_well_formed(rule, compile_plan(rule, True)), rule.name
            rule_b = parse_program(corpus.load_program(name)).rules[rule.name]
            assert plan_is_well_formed(rule_b, compile_plan(rule_b, False)), rule.name


def test_naive_plan_has_textual_node_order():
    link = _rules("trans_closure")["link"]
    plan = compile_plan(link, optimize=False)
    assert [s[:2] for s in plan if s[0] == "node"] == \
        [("node", pn.pid) for pn in link.lhs.nodes]


def test_no_match_on_empty_graph():
    node_rule = _rules("is_discrete")["node"]
    assert find_match(node_rule, Graph()) is None


def test_root_preserving_vs_reflecting():
    rule = parse_rule("r(x:list)\n[ (1, x) | ] => [ (1, x) | ]")
    g = Graph()
    g.add_node(root=True)
    assert find_match(rule, g, mode="preserve") is not None
    assert find_match(rule, g, mode="reflect") is None


def test_rooted_pattern_never_matches_nonroot():
    rule = parse_rule("r(x:list)\n[ (1 (R), x) | ] => [ (1 (R), x) | ]")
    g = Graph()
    g.add_node()
    assert find_match(rule, g) is None
    assert find_match(rule, g, mode="reflect") is None


def test_dangling_condition_blocks_deletion():
    del1 = _rules("is_bin_dag")["del1"]
    g = Graph()
    x = g.add_node()
    y = g.add_node(root=True)
    g.add_edge(y, x)
    m = find_match(del1, g)
    assert m is not None
    audit_match(del1, g, m)

    extra = g.add_node()
    g.add_edge(y, extra)      # now deleting y would dangle this edge
    assert find_match(del1, g) is None
    assert brute_force_match(del1, g) == []


def test_loops_match_loop_patterns():
    has_loop = _rules("is_tree")["has_loop"]
    g = Graph()
    a = g.add_node()
    b = g.add_node()
    g.add_edge(a, b)
    assert find_match(has_loop, g) is None
    g.add_edge(b, b)
    m = find_match(has_loop, g)
    assert m is not None and m.node_images[1] is b
    audit_match(has_loop, g, m)


def test_parallel_edges_need_two_host_edges():
    del21 = _rules("is_bin_dag")["del21"]
    g = Graph()
    x = g.add_node()
    y = g.add_node(root=True)
    g.add_edge(y, x)
    assert find_match(del21, g) is None
    g.add_edge(y, x)
    m = find_match(del21, g)
    assert m is not None
    assert len({id(e) for e in m.edge_images.values()}) == 2
    audit_match(del21, g, m)


def test_bidirectional_edge_matches_either_orientation():
    fwd = _rules("is_con")["fwd"]
    for direction in ("out", "in"):
        g = Graph()
        y = g.add_node()
        x = g.add_node(mark="grey", root=True)
        if direction == "out":
            g.add_edge(x, y)
        else:
            g.add_edge(y, x)
        m = find_match(fwd, g)
        assert m is not None, direction
        assert m.orientations[0] == (direction == "in")
        audit_match(fwd, g, m)


def test_condition_filters_matches():
    link = _rules("trans_closure")["link"]
    g = Graph()
    c = g.add_node()
    b = g.add_node()
    a = g.add_node()
    g.add_edge(a, b)
    g.add_edge(b, c)
    m = find_match(link, g)
    assert m is not None
    g.add_edge(a, c)          # closing edge now exists: condition fails
    assert find_match(link, g) is None


def test_single_node_pattern_on_discrete_host_counts():
    node_rule = _rules("is_discrete")["node"]
    g = Graph()
    for _ in range(3):
        g.add_node()
    assert len(brute_force_match(node_rule, g)) == 3


def test_link_on_directed_path_has_one_match():
    link = _rules("trans_closure")["link"]
    g = Graph()
    c = g.add_node()
    b = g.add_node()
    a = g.add_node()
    g.add_edge(a, b)
    g.add_edge(b, c)
    assert len(brute_force_match(link, g)) == 1


LABELS = [(), (1,), (2,), (1, 2), ("a",)]
NODE_MARK_CHOICES = ["none", "none", "none", "grey", "blue", "red"]
EDGE_MARK_CHOICES = ["none", "none", "none", "dashed", "blue"]


def random_host(rng, max_nodes=8, marked=True, rooted=True) -> Graph:
    g = Graph()
    nodes = []
    for _ in range(rng.randrange(0, max_nodes + 1)):
        mark = rng.choice(NODE_MARK_CHOICES) if marked else "none"
        root = rooted and rng.random() < 0.25
        nodes.append(g.add_node(rng.choice(LABELS), mark, root))
    if nodes:
        for _ in range(rng.randrange(0, 2 * len(nodes))):
            mark = rng.choice(EDGE_MARK_CHOICES) if marked else "none"
            g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(LABELS), mark)
    return g


def all_corpus_rules():
    out = []
    for name in corpus.PROGRAM_NAMES:
        for rule in parse_program(corpus.load_program(name)).rules.values():
            out.append((name, rule))
    return out


@pytest.mark.parametrize("optimize", [True, False])
def test_find_match_agrees_with_brute_force_on_random_hosts(optimize):
    rng = random.Random(99)
    rules = all_corpus_rules()
    for _ in range(60):
        g = random_host(rng)
        for mode in ("preserve", "reflect"):
            expected = {}
            for name, rule in rules:
                expected[(name, rule.name)] = {
                    m.key() for m in brute_force_match(rule, g, mode)}
            for backend in ("chain", "index_scan"):
                for name, rule in rules:
                    m = find_match(rule, g, mode, backend, optimize)
                    keys = expected[(name, rule.name)]
                    where = (name, rule.name, mode, backend, optimize)
                    if m is None:
                        assert not keys, where
                    else:
                        assert m.key() in keys, where
                        audit_match(rule, g, m, mode)


# Kept nodes whose left-hand edges give them degree lower bounds: a
# non-bidirectional loop (one out, one in), a bidirectional edge (no
# bound), and two parallel edges; the last rule deletes a node as well.
DEGREE_RULES = [
    "loop(a,b,x,y:list)\n"
    "[ (1, x # any) (2, y # any) | (0, 1, 1, a # any) (1, 1, 2, b # any) ]\n"
    "=> [ (1, x # any) (2, y # any) | (0, 1, 1, a # any) (1, 1, 2, b # any) ]",
    "root_loop(a,x:list)\n"
    "[ (1 (R), x # any) | (0, 1, 1, a # any) ] => [ (1 (R), x # any) | (0, 1, 1, a # any) ]",
    "bidir(a,b,x,y:list)\n"
    "[ (1, x # any) (2, y # any) | (0 (B), 1, 2, a # any) (1, 2, 1, b # any) ]\n"
    "=> [ (1, x # any) (2, y # any) | (0 (B), 1, 2, a # any) (1, 2, 1, b # any) ]",
    "bidir_loop(a,b,x,y:list)\n"
    "[ (1, x # any) (2, y # any) | (0 (B), 1, 1, a # any) (1, 1, 2, b # any) ]\n"
    "=> [ (1, x # any) (2, y # any) | (0 (B), 1, 1, a # any) (1, 1, 2, b # any) ]",
    "parallel(a,b,x,y:list)\n"
    "[ (1, x # any) (2, y # any) | (0, 1, 2, a # any) (1, 1, 2, b # any) ]\n"
    "=> [ (1, x # any) (2, y # any) | (0, 1, 2, a # any) (1, 1, 2, b # any) ]",
    "parallel_del(a,b,x,y:list)\n"
    "[ (1, x # any) (2, y # any) | (0, 1, 2, a # any) (1, 1, 2, b # any) ]\n"
    "=> [ (1, x # any) | ]",
]


@pytest.mark.parametrize("optimize", [True, False])
def test_degree_bounds_agree_with_brute_force_on_random_hosts(optimize):
    rng = random.Random(5)
    rules = [parse_rule(text) for text in DEGREE_RULES]
    hits = {rule.name: 0 for rule in rules}
    misses = dict(hits)
    for _ in range(150):
        g = random_host(rng, max_nodes=5)
        for mode in ("preserve", "reflect"):
            for rule in rules:
                keys = {m.key() for m in brute_force_match(rule, g, mode)}
                if keys:
                    hits[rule.name] += 1
                else:
                    misses[rule.name] += 1
                for backend in ("chain", "index_scan"):
                    m = find_match(rule, g, mode, backend, optimize)
                    where = (rule.name, mode, backend)
                    if m is None:
                        assert not keys, where
                    else:
                        assert m.key() in keys, where
                        audit_match(rule, g, m, mode)
    assert all(hits.values()) and all(misses.values()), (hits, misses)


def test_reflect_matches_are_preserve_matches():
    rng = random.Random(7)
    rules = all_corpus_rules()
    for _ in range(40):
        g = random_host(rng)
        for name, rule in rules:
            reflect = {m.key() for m in brute_force_match(rule, g, "reflect")}
            preserve = {m.key() for m in brute_force_match(rule, g, "preserve")}
            assert reflect <= preserve


def test_matched_flags_always_cleared():
    rng = random.Random(31)
    rules = all_corpus_rules()
    for _ in range(20):
        g = random_host(rng)
        for name, rule in rules:
            find_match(rule, g)
        for n in g.nodes():
            assert not n.flags & FLAG_MATCHED
            for e in g.out_edges(n):
                assert not e.flags & FLAG_MATCHED


def test_rooted_match_step_count_independent_of_host_size():
    from gp2.bench import gen_full_binary_tree

    prune0 = _rules("is_tree")["prune0"]
    counts = []
    for depth in (7, 10, 14, 17):
        g = gen_full_binary_tree(depth)
        # root one leaf: the deepest level was laid out first
        leaf = g.node_slots[0]
        g.set_root(leaf, True)
        m, steps = find_match_steps(prune0, g)
        assert m is not None
        counts.append(steps)
    assert max(counts) < 2 * min(counts)
    assert max(counts) <= 16


def test_dangling_is_checked_before_the_condition():
    # the deleted node's image has an edge the rule does not delete, so
    # no match exists and the failing condition is never evaluated
    host = "[ (0, 1) (1, 1) | (0, 0, 1, empty) ]"
    two = "Main = r\nr(n:int)\n[ (1, n) (2, n) | ] => [ (1, n) | ]\n  where n / 0 = 0\n"
    one = "Main = r\nr(n:int)\n[ (1, n) | ] => [ | ]\n  where n / 0 = 0\n"
    for program in (two, one):
        for optimize in (True, False):
            out = run_program(program, host, ExecConfig(optimize_plans=optimize))
            assert out.status == "fail", (program, optimize, out.diagnostic)


def test_matched_flags_cleared_when_the_condition_raises():
    rule = parse_rule("r(n:int)\n[ (1, n) (2, n) | (0, 1, 2, empty) ] => "
                      "[ (1, n) (2, n) | ]\n  where n / 0 = 0")
    g = parse_host_graph("[ (0, 1) (1, 1) (2, 1) | (0, 0, 1, empty) (1, 1, 2, empty) ]")
    for optimize in (True, False):
        with pytest.raises(EvalError, match="division by zero"):
            find_match(rule, g, optimize=optimize)
        for n in g.nodes():
            assert not n.flags & FLAG_MATCHED
            for e in g.out_edges(n):
                assert not e.flags & FLAG_MATCHED


def test_left_hand_side_of_a_thousand_nodes_matches():
    n = 1000
    names = ",".join(f"x{i}" for i in range(n))
    side = "[ " + " ".join(f"({i}, x{i})" for i in range(n)) + " | " + \
        " ".join(f"({i}, {i}, {i + 1}, empty)" for i in range(n - 1)) + " ]"
    program = f"Main = r\nr({names}:list)\n{side} => {side}\n"
    host = "[ " + " ".join(f"({i}, {i})" for i in range(n)) + " | " + \
        " ".join(f"({i}, {i}, {i + 1}, empty)" for i in range(n - 1)) + " ]"
    out = run_program(program, host)
    assert out.status == "success", out.diagnostic
    assert out.graph.node_count == n and out.graph.edge_count == n - 1


def test_planning_a_path_of_four_thousand_nodes_is_fast():
    n = 4000
    names = ",".join(f"x{i}" for i in range(n))
    side = "[ " + " ".join(f"({i}, x{i})" for i in range(n)) + " | " + \
        " ".join(f"({i}, {i}, {i + 1}, empty)" for i in range(n - 1)) + " ]"
    rule = parse_rule(f"r({names}:list)\n{side} => {side}")
    start = time.perf_counter()
    plan = compile_plan(rule)
    assert time.perf_counter() - start < 0.5
    assert plan_is_well_formed(rule, plan)
    first, edge = rule.lhs.nodes[0], rule.lhs.edges[0]
    assert plan[0][:2] == ("node", first.pid)
    # the first edge is walked from its source, the node just bound
    assert plan[1][:2] == ("edge", edge.eid) and plan[1][5] == edge.src == first.pid
