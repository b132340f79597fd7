import inspect
import linecache
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gp2 import corpus
from gp2.engine import OK, ExecConfig, Executable, apply_rule, run_program
from gp2.graph import FLAG_MATCHED, Graph, GraphError, Node
from gp2.match import (Step, compile_plan, compiled_step, exec_source, find_match,
                       find_match_steps)
from gp2.reference import audit_match, brute_force_match, match_key, plan_is_well_formed
from gp2.rules import EvalError, instantiate_rhs
from gp2.textio import parse_host_graph, parse_program, parse_rule, print_graph
from helpers import kept_edges, predicate, written_back


def _rules(name):
    return parse_program(corpus.load_program(name)).rules


def test_plan_for_rooted_rule_starts_at_root_without_global_search():
    up = _rules("is_bin_dag")["up"]
    plan = compile_plan(up)
    assert plan[0].kind == "root" and plan[0].node is up.lhs.nodes[0]
    assert all(step.kind != "node" for step in plan)
    assert plan_is_well_formed(up, plan)


def test_plan_for_unrooted_single_node_rule_is_global():
    del_rule = _rules("is_discrete")["del"]
    plan = compile_plan(del_rule)
    assert [(step.kind, step.node) for step in plan] == [("node", del_rule.lhs.nodes[0])]


def test_plan_for_three_node_chain():
    link = _rules("trans_closure")["link"]
    plan = compile_plan(link)
    assert sum(1 for s in plan if s.kind == "node") == 1
    assert sum(1 for s in plan if s.kind == "edge") == 2
    assert plan_is_well_formed(link, plan)


def test_plans_well_formed_for_whole_corpus():
    for name in corpus.PROGRAM_NAMES:
        for rule in parse_program(corpus.load_program(name)).rules.values():
            assert plan_is_well_formed(rule, compile_plan(rule, True)), rule.name
            rule_b = parse_program(corpus.load_program(name)).rules[rule.name]
            assert plan_is_well_formed(rule_b, compile_plan(rule_b, False)), rule.name


def test_plan_binds_roots_only_at_root_steps():
    rule = parse_rule("r(x,y:list)\n[ (1 (R), x) (2 (R), y) (3, x) | (0, 1, 2, empty) ]"
                      " => [ (1 (R), x) (2 (R), y) (3, x) | (0, 1, 2, empty) ]")
    one, two, three = rule.lhs.nodes
    edge = rule.lhs.edges[0]
    assert [(s.kind, s.node) for s in compile_plan(rule)] == \
        [("root", one), ("root", two), ("edge", two), ("node", three)]
    assert plan_is_well_formed(rule, compile_plan(rule))
    walk = ((False, False),)
    # the root 2 bound through the edge from 1
    assert not plan_is_well_formed(rule, [Step("root", one), Step("edge", two, edge, one, walk),
                                          Step("node", three)])
    # the non-root 3 bound at a root step
    assert not plan_is_well_formed(rule, [Step("root", one), Step("root", two), Step("root", three),
                                          Step("edge", two, edge, one, walk, False)])


def test_naive_plan_has_textual_node_order():
    link = _rules("trans_closure")["link"]
    plan = compile_plan(link, optimize=False)
    assert [s.node for s in plan if s.kind == "node"] == link.lhs.nodes


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


def random_host(rng, max_nodes=8, marked=True, rooted=True, labels=LABELS) -> Graph:
    g = Graph()
    nodes = []
    for _ in range(rng.randrange(0, max_nodes + 1)):
        mark = rng.choice(NODE_MARK_CHOICES) if marked else "none"
        root = rooted and rng.random() < 0.25
        nodes.append(g.add_node(rng.choice(labels), mark, root))
    if nodes:
        for _ in range(rng.randrange(0, 2 * len(nodes))):
            mark = rng.choice(EDGE_MARK_CHOICES) if marked else "none"
            g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(labels), mark)
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
                    match_key(m) for m in brute_force_match(rule, g, mode)}
            for backend in ("chain", "index_scan"):
                for name, rule in rules:
                    m = find_match(rule, g, mode, backend, optimize)
                    keys = expected[(name, rule.name)]
                    where = (name, rule.name, mode, backend, optimize)
                    if m is None:
                        assert not keys, where
                    else:
                        assert match_key(m) in keys, where
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
                keys = {match_key(m) for m in brute_force_match(rule, g, mode)}
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
                        assert match_key(m) in keys, where
                        audit_match(rule, g, m, mode)
    assert all(hits.values()) and all(misses.values()), (hits, misses)


# Pairs of left-hand items that may meet (match one host item) and pairs
# the rule keeps apart, each rule with the records its search flags under
# textual order in preserve and in reflect mode: of two items that may
# meet, the earlier is flagged.
MEET_RULES = [
    ("twin(x:list)\n[ (1, x) (2, x) | ] => [ (1, x) (2, x) | ]", "n0", "n0"),
    # the second loop's bound end is its anchor
    ("loops(a,b,x:list)\n[ (1, x) | (0, 1, 1, a) (1, 1, 1, b) ]\n"
     "=> [ (1, x) | (0, 1, 1, a) (1, 1, 1, b) ]", "e0", "e0"),
    # node 3 is deleted with degree 1: it may meet node 1 (out_min 1),
    # not node 2 (out_min 1 and in_min 1)
    ("del_deg1(a,b,x,y,z:list)\n[ (1, x) (2, y) (3, z) | (0, 1, 2, a) (1, 2, 3, b) ]\n"
     "=> [ (1, x) (2, y) | (0, 1, 2, a) ]", "n0 e0", "n0 e0"),
    ("del_deg0(a,x,y,z:list)\n[ (1, x) (2, y) (3, z) | (0, 1, 2, a) ]\n"
     "=> [ (1, x) (2, y) | (0, 1, 2, a) ]", "n0", "n0"),
    # deleted nodes of degree 1, 1 and 0
    ("del_all(a,x,y,z:list)\n[ (1, x) (2, y) (3, z) | (0, 1, 2, a) ] => [ | ]", "n0", "n0"),
    ("rooted(x,y:list)\n[ (1 (R), x) (2, y) | ] => [ (1 (R), x) (2, y) | ]", "n0", ""),
    ("any_mark(x,y:list)\n[ (1, x # any) (2, y # red) | ] => [ (1, x # any) (2, y # red) | ]",
     "n0", "n0"),
    ("marks(x,y:list)\n[ (1, x # grey) (2, y) | ] => [ (1, x # grey) (2, y) | ]", "", ""),
    ("same_edges(x,y:list)\n[ (1, x) (2, y) | (0, 1, 2, 0) (1, 1, 2, 0) ]\n"
     "=> [ (1, x) (2, y) | (0, 1, 2, 0) (1, 1, 2, 0) ]", "n0 e0", "n0 e0"),
    ("other_edges(x,y:list)\n[ (1, x) (2, y) | (0, 1, 2, 0) (1, 1, 2, 1) ]\n"
     "=> [ (1, x) (2, y) | (0, 1, 2, 0) (1, 1, 2, 1) ]", "n0", "n0"),
    ("consts()\n[ (1, 0) (2, 1) (3, 0) | ] => [ (1, 0) (2, 1) (3, 0) | ]", "n0", "n0"),
    ("lengths(a,b,c:int)\n[ (1, a) (2, b:c) | ] => [ (1, a) (2, b:c) | ]", "", ""),
    ("lists(x,y:list)\n[ (1, x) (2, 1:y) | ] => [ (1, x) (2, 1:y) | ]", "n0", "n0"),
    ("short(y:list)\n[ (1, empty) (2, 0:y) | ] => [ (1, empty) (2, 0:y) | ]", "", ""),
]
MEET_LABELS = [(), (0,), (1,), (0, 1), (1, 0, 1)]
# hosts on which a missing flag would show: one node for two left-hand
# nodes, parallel edges labelled 0 and 0, 0 and 1, or one edge, and
# nodes labelled 0, 1 and 0, or 0 and 1
MEET_HOSTS = ["[ (0, 0) | ]", "[ (0, 0) (1, 1) | (0, 0, 1, 0) (1, 0, 1, 0) ]",
              "[ (0, 0) (1, 1) | (0, 0, 1, 0) (1, 0, 1, 1) ]", "[ (0, 0) (1, 1) | (0, 0, 1, 0) ]",
              "[ (0, 0) (1, 1) (2, 0) | ]", "[ (0, 0) (1, 1) | ]"]


def _flagged(step) -> str:
    """The records a step flags, as its clear at the innermost point lists
    them: the first run of clearing lines, one line per record."""
    found = re.search(r"(?:^ +\w+\.flags &= ~8\n)+", inspect.getsource(step), re.M)
    return " ".join(re.findall(r"(\w+)\.flags", found[0])) if found else ""


@pytest.mark.parametrize("optimize", [True, False])
def test_items_that_may_meet_agree_with_brute_force_on_random_hosts(optimize):
    rng = random.Random(23)
    rules = [parse_rule(text) for text, _, _ in MEET_RULES]
    for rule, (_, preserve, reflect) in zip(rules, MEET_RULES):
        for mode, flagged in (("preserve", preserve), ("reflect", reflect)):
            assert _flagged(compiled_step(rule, False, "chain", mode == "reflect")) == \
                flagged, (rule.name, mode)
    hits = {rule.name: 0 for rule in rules}
    misses = dict(hits)
    hosts = [parse_host_graph(text) for text in MEET_HOSTS] + \
        [random_host(rng, max_nodes=5, marked=j % 2 == 0, labels=MEET_LABELS)
         for j in range(200)]
    for g in hosts:
        for mode in ("preserve", "reflect"):
            for rule in rules:
                keys = {match_key(m) for m in brute_force_match(rule, g, mode)}
                hits[rule.name] += bool(keys)
                misses[rule.name] += not keys
                for backend in ("chain", "index_scan"):
                    m = find_match(rule, g, mode, backend, optimize)
                    where = (rule.name, mode, backend)
                    if m is None:
                        assert not keys, where
                    else:
                        assert match_key(m) in keys, where
                        audit_match(rule, g, m, mode)
                    if g is hosts[0] and rule.name == "twin":
                        assert m is None
    assert all(hits.values()) and all(misses.values()), (hits, misses)


STRANGE = "a'b\\c{x}"

# Labels the compiled search must take apart, each rule with the host
# labels it is tried on: list variables with a prefix and a suffix,
# repeated atom variables, typed atoms, and variables named after Python
# keywords, builtins and the search's own locals, next to a string atom
# full of quoting characters.
LABEL_RULES = [
    ("affix(a,b:int; s:string; l,m:list)\n"
     "[ (1, a:l:b # any) (2, m) | (0, 1, 2, s:m:a) ]\n"
     "=> [ (1, a:l:b # any) (2, m) | (0, 1, 2, s:m:a) ]",
     [(1, 2, 1), (1,), ("s", 1, 1), ("s", 2, 1)]),
    ("repeat(a:int; c:char; x:list)\n"
     "[ (1, a:a:c) (2, c:x) | (0 (B), 1, 2, a:x) ] => [ (1, a:a:c) (2, x) | ]",
     [(1, 1, "c"), ("c",), (1,), (1, 2, "c")]),
    ("strange(g,len,None:int; iff:list)\n"
     f'[ (1, g:"{STRANGE}":len) (2, None:iff) | (0 (B), 2, 1, len) ]\n'
     f'=> [ (1, g:"{STRANGE}":len) (2, None:iff) | (0 (B), 2, 1, len) ]\n'
     "where g < len or None = g",
     [(1, STRANGE, 2), (2, STRANGE, 1), (2,), (1,)]),
]


def _label_rules():
    rules = [parse_rule(text) for text, _ in LABEL_RULES]
    # ``if`` is a GP 2 keyword, so the parser cannot take it as a name
    for item in rules[2].lhs.nodes + rules[2].lhs.edges:
        item.label.items = [("var", "if", it[2]) if it[:2] == ("var", "iff") else it
                            for it in item.label.items]
    return rules


@pytest.mark.parametrize("optimize", [True, False])
def test_compiled_labels_agree_with_the_oracles_on_random_hosts(optimize):
    rng = random.Random(17)
    for rule, (_, labels) in zip(_label_rules(), LABEL_RULES):
        hits = misses = 0
        for _ in range(600):
            g = random_host(rng, max_nodes=6, labels=labels)
            for mode in ("preserve", "reflect"):
                keys = {match_key(m) for m in brute_force_match(rule, g, mode)}
                hits += bool(keys)
                misses += not keys
                for backend in ("chain", "index_scan"):
                    m = find_match(rule, g, mode, backend, optimize)
                    where = (rule.name, mode, backend)
                    if m is None:
                        assert not keys, where
                    else:
                        assert match_key(m) in keys, where
                        audit_match(rule, g, m, mode)
        assert hits and misses, (rule.name, hits, misses)


def test_compiled_step_shows_its_source():
    rule = _label_rules()[2]
    step = compiled_step(rule, optimize=False)
    assert step.__code__.co_filename == "<gp2 match strange noopt chain preserve>"
    source = inspect.getsource(step)
    assert source.startswith("def step(g, find=False):")
    assert repr(STRANGE) in source
    assert "if e0.label != f2: continue" in source and "Match" not in source
    assert rule.plans[False, "chain", False][2][2] == ("g", "len", "None", "if")


class CountingCache(dict):
    """A stand-in for ``linecache.cache`` that counts lookups and writes."""

    uses = 0

    def __getitem__(self, key):
        self.uses += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.uses += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.uses += 1
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self.uses += 1
        super().__setitem__(key, value)


def test_each_source_of_a_name_gets_its_own_file_in_one_cache_use(monkeypatch):
    cache = CountingCache(linecache.cache)
    monkeypatch.setattr(linecache, "cache", cache)
    name, uses = "exec_source test", []

    def build(i):
        before = cache.uses
        namespace = exec_source(f"def f():\n    return {i}\n", name, {})
        uses.append(cache.uses - before)
        return namespace["f"].__code__.co_filename

    files = [build(i) for i in range(300)]
    assert files[:3] == [f"<{name}>", f"<{name} 2>", f"<{name} 3>"]
    assert len(set(files)) == 300
    assert build(0) == files[0]             # the same source reuses its file
    assert uses == [1] * 301                # one write, however many entries exist
    assert linecache.getlines(files[299]) == ["def f():\n", "    return 299\n"]


def test_an_unguarded_and_guards_its_right_operand_with_its_left_local():
    rule = parse_rule("pair(x, y:int)\n[ (1, x) (2, y) | ] => [ (1, x) (2, y) | ]\n"
                      "where x > 370 and y = x - 5")
    lines = [line.strip() for line in inspect.getsource(compiled_step(rule)).splitlines()]
    assert "t0 = v0 > 370" in lines and "if t0: t2 = v1 == t1" in lines
    assert not [line for line in lines if re.fullmatch(r"t\d+ = t\d+", line)]   # no copy


def test_a_bidirectional_edge_is_added_back_the_way_it_was_matched():
    fwd = _rules("is_con")["fwd"]
    source = inspect.getsource(compiled_step(fwd))
    lines = [line.strip() for line in source.splitlines()]
    assert "if find: return (n0, n1, e0, v0, v1, v2, p1 == 1, )" in lines
    # both phases in one loop body, which takes each phase's list
    assert "for p1 in (0, 1):" in lines and "c1 = n0.in_head if p1 else n0.out_head" in lines
    assert "n1 = e0.source if p1 else e0.target" in lines
    # the edge is kept: its record, its host direction and its places
    # stay; the search has checked its mark, none
    assert "g.remark(e0, 'dashed')" in lines
    assert "g.add_edge(" not in source and "g.delete_edge(" not in source
    assert "*(" not in source and "(False, True)" not in source
    for host in ("[ (0 (R), 1 # grey) (1, 2) | (0, 0, 1, 3) ]",
                 "[ (0 (R), 1 # grey) (1, 2) | (0, 1, 0, 3) ]"):
        flipped = host.endswith("(0, 1, 0, 3) ]")
        g = parse_host_graph(host)
        assert find_match(fwd, g).orientations[0] is flipped
        [edge] = g.edges()
        ends = edge.source, edge.target
        assert apply_rule(fwd, g)
        assert g.edges() == [edge] and (edge.source, edge.target) == ends
        assert (edge.label, edge.mark) == ((3,), "dashed")
        assert print_graph(g) == host.replace("3) ]", "3 # dashed) ]").replace(
            "(0 (R), 1 # grey) (1, 2)", "(0, 1 # grey) (1 (R), 2 # grey)")


@pytest.mark.parametrize("mode", ["preserve", "reflect"])
def test_a_root_flag_the_match_fixes_is_set_without_a_test(mode):
    ret = inspect.getsource(compiled_step(_rules("gen_tree")["ret"], True, "chain",
                                          mode == "reflect"))
    # a rooted left-hand node's image is a root, and in reflect mode an
    # unrooted one's is not; only in preserve mode may it be either
    lines = [line.strip() for line in ret.splitlines()]
    assert "g.unroot(n1)" in lines
    assert {"preserve": "if not n0.flags & 1: g.root(n0)", "reflect": "g.root(n0)"}[mode] in lines
    # each flagged record is cleared by a line of its own
    for name, rule in all_corpus_rules():
        assert "for item in" not in inspect.getsource(
            compiled_step(rule, True, "chain", mode == "reflect")), (name, rule.name)


def test_reflect_matches_are_preserve_matches():
    rng = random.Random(7)
    rules = all_corpus_rules()
    for _ in range(40):
        g = random_host(rng)
        for name, rule in rules:
            reflect = {match_key(m) for m in brute_force_match(rule, g, "reflect")}
            preserve = {match_key(m) for m in brute_force_match(rule, g, "preserve")}
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
        g.root(leaf)
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
    # a nest that continues in other functions raises in the last one
    long = parse_rule(_long_path("a / 0 = 0"))
    for rule, g in (rule, g), (long, _long_path_host(random.Random(3), long, drop=0)):
        for optimize in (True, False):
            for backend in ("chain", "index_scan"):
                before = g.candidates, g.iter_steps
                with pytest.raises(EvalError, match="division by zero"):
                    find_match(rule, g, backend=backend, optimize=optimize)
                assert (g.candidates, g.iter_steps) == before    # no count added
                for n in g.nodes():
                    assert not n.flags & FLAG_MATCHED
                    for e in g.out_edges(n):
                        assert not e.flags & FLAG_MATCHED


def _path_program(n):
    """``Main = r``, where r's both sides are one path of n nodes, each
    labelled by a list variable of its own."""
    names = ",".join(f"x{i}" for i in range(n))
    side = "[ " + " ".join(f"({i}, x{i})" for i in range(n)) + " | " + \
        " ".join(f"({i}, {i}, {i + 1}, empty)" for i in range(n - 1)) + " ]"
    return f"Main = r\nr({names}:list)\n{side} => {side}\n"


def test_left_hand_side_of_a_thousand_nodes_matches():
    n = 1000
    host = "[ " + " ".join(f"({i}, {i})" for i in range(n)) + " | " + \
        " ".join(f"({i}, {i}, {i + 1}, empty)" for i in range(n - 1)) + " ]"
    parsed = parse_program(_path_program(n))
    start = time.perf_counter()
    executable = Executable(parsed, ExecConfig())     # compiles the search
    assert time.perf_counter() - start < 3.0
    g = parse_host_graph(host)
    assert executable.run(g) == OK
    assert g.node_count == n and g.edge_count == n - 1


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
def test_a_long_left_hand_side_writes_source_linear_in_its_length(optimize):
    # the functions that continue the nest read the records bound before
    # them as free variables, so no line lists every local bound so far
    sizes = []
    for n in (250, 500):
        step = compiled_step(parse_program(_path_program(n)).rules["r"], optimize)
        sizes.append(sum(map(len, linecache.getlines(step.__code__.co_filename))))
    assert sizes[1] <= 2.1 * sizes[0], sizes


def test_a_thousand_left_hand_nodes_that_cannot_meet_build_fast_and_flag_nothing():
    # no two labels agree, so every pair of nodes and of edges is compared
    n = 1000
    side = "[ " + " ".join(f"({i}, {i})" for i in range(n)) + " | " + \
        " ".join(f"({i}, {i}, {i + 1}, {i})" for i in range(n - 1)) + " ]"
    parsed = parse_program(f"Main = r\nr()\n{side} => {side}\n")
    start = time.perf_counter()
    executable = Executable(parsed, ExecConfig())     # compiles the search
    assert time.perf_counter() - start < 3.0
    step = compiled_step(parsed.rules["r"])
    assert not MATCHED_FLAG.search("".join(linecache.getlines(step.__code__.co_filename)))
    g = parse_host_graph(side)
    assert executable.run(g) == OK
    assert print_graph(g) == print_graph(parse_host_graph(side))


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
    assert plan[0].kind == "node" and plan[0].node is first
    # the first edge is walked from its source, the node just bound
    assert plan[1].kind == "edge" and plan[1].edge is edge and plan[1].anchor is first
    assert edge.src == first.pid


# -- the inline walks against the Graph generators ------------------------

SETTINGS = [(backend, mode) for backend in ("chain", "index_scan")
            for mode in ("preserve", "reflect")]


def _walk_hosts():
    """Hosts of 389 slots labelled (slot index,), every third node a root,
    with a hole at the start, two adjacent holes, a run of 129 holes and
    three holes at the end: as deleted, with the last four holes reused
    (LIFO, so chain and slot order differ), and under minimal_gc, which
    reuses none."""
    count = 389
    holes = [0, 127, 128, *range(130, 259), count - 3, count - 2, count - 1]
    hosts = []
    for minimal_gc, added in ((False, 0), (False, 4), (True, 4)):
        g = Graph()
        g.minimal_gc = minimal_gc
        nodes = [g.add_node((i,), root=i % 3 == 0) for i in range(count)]
        for i in holes:
            g.delete_node(nodes[i])
        for i in range(added):
            g.add_node((count + i,), root=i == 1)
        hosts.append(g)
    return hosts


@pytest.mark.parametrize("backend,mode", SETTINGS)
def test_inline_walks_visit_and_count_as_the_graph_generators(backend, mode):
    # each match is marked red, so the next search finds the next node
    rule = parse_rule("n(x:list)\n[ (1, x) | ] => [ (1, x) | ]")
    for g in _walk_hosts():
        want, start = [], g.iter_steps
        for node in g.nodes_iter(backend):
            if mode == "preserve" or not node.is_root:
                want.append((node, g.iter_steps - start))
        total = g.iter_steps - start
        got = []
        while True:
            before = g.iter_steps
            m = find_match(rule, g, mode, backend)
            if m is None:
                break
            got.append((m.node_images[1], g.iter_steps - before))
            g.remark(m.node_images[1], "red")
        assert got == want
        assert g.iter_steps - before == total


class _CountedFinds(bytearray):
    """Live bytes that count their ``find`` calls."""

    def find(self, *args):
        self.finds += 1
        return super().find(*args)


def _sparse_host():
    """2,000 slots labelled (slot index,), nine of them live (two roots)
    between hole runs of 137 to 598 slots, with nine holes at the end;
    its live bytes count their finds."""
    live = (0, 1, 2, 140, 141, 700, 1300, 1301, 1990)
    g = Graph()
    nodes = [g.add_node((i,), root=i in (1, 1300)) for i in range(2000)]
    for node in nodes:
        if node.slot_index not in live:
            g.delete_node(node)
    g.live_bytes = _CountedFinds(g.live_bytes)
    g.live_bytes.finds = 0
    return g, [nodes[i] for i in live]


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("mode", ["preserve", "reflect"])
def test_an_index_scan_makes_one_find_per_node_visited_and_per_walk_that_ends(mode, optimize):
    # one walk per search, each ended by a match but the last
    g, nodes = _sparse_host()
    rule = parse_rule("n(x:list)\n[ (1, x) | ] => [ (1, x) | ]")
    before, searches = g.candidates, 0
    while (m := find_match(rule, g, mode, "index_scan", optimize)) is not None:
        g.remark(m.node_images[1], "red")
        searches += 1
    assert searches == len(nodes) - 2 * (mode == "reflect")
    assert g.live_bytes.finds <= g.candidates - before + 1
    # a walk from each node an outer walk visits, every walk to the end
    g, nodes = _sparse_host()
    pair = parse_rule("pair(x, y:int)\n[ (1, x) (2, y) | ] => [ (1, x) (2, y) | ]\n"
                      "  where x > 5000")
    before, steps = g.candidates, g.iter_steps
    assert find_match(pair, g, mode, "index_scan", optimize) is None
    outer = sum(1 for n in nodes if not (mode == "reflect" and n.is_root))
    assert g.live_bytes.finds <= g.candidates - before + 1 + outer
    assert g.iter_steps - steps == 2000 * (1 + outer)
    # the generator
    g, nodes = _sparse_host()
    assert list(g.nodes_index_scan()) == nodes
    assert g.live_bytes.finds <= len(nodes) + 1
    assert g.iter_steps == 2000


def _first_pair(g, backend, reflect, holds):
    """The two-node search written over ``Graph.nodes_iter``."""
    for a in g.nodes_iter(backend):
        if reflect and a.is_root:
            continue
        for b in g.nodes_iter(backend):
            if b is not a and not (reflect and b.is_root) and holds(a.label[0], b.label[0]):
                return a, b
    return None


@pytest.mark.parametrize("backend,mode", SETTINGS)
def test_a_second_walk_restarts_and_the_first_resumes_after_a_backtrack(backend, mode):
    conditions = [("x > 370 and y = x - 5", lambda x, y: x > 370 and y == x - 5),
                  ("x > 1000", lambda x, y: False)]
    for text, holds in conditions:
        rule = parse_rule(f"pair(x, y:int)\n[ (1, x) (2, y) | ] => [ (1, x) (2, y) | ]\n"
                          f"  where {text}")
        for g in _walk_hosts():
            start = g.iter_steps
            want = _first_pair(g, backend, mode == "reflect", holds)
            want_steps, before = g.iter_steps - start, g.iter_steps
            m = find_match(rule, g, mode, backend)
            assert (m and (m.node_images[1], m.node_images[2])) == want, text
            assert g.iter_steps - before == want_steps, text


def test_an_unknown_backend_fails_when_the_step_is_built():
    for rule in _rules("is_bin_dag")["up"], _rules("is_discrete")["del"]:
        with pytest.raises(GraphError, match="unknown iteration backend: slots"):
            compiled_step(rule, True, "slots", False)
        assert not rule.plans


def test_generated_steps_test_no_setting_and_name_it_in_their_file():
    for name, rule in all_corpus_rules():
        files = set()
        for backend, mode in SETTINGS:
            step = compiled_step(rule, True, backend, mode == "reflect")
            # another program may have a rule of this name: its file is "... 2>"
            files.add(step.__code__.co_filename)
            assert step.__code__.co_filename.startswith(
                f"<gp2 match {rule.name} opt {backend} {mode}"), name
            source = inspect.getsource(step)
            for word in ("nodes_iter(", "reflect", "backend"):
                assert word not in source, (name, rule.name, backend, mode, word)
        assert len(files) == len(SETTINGS), name


MATCHED_FLAG = re.compile(rf"[|&] {FLAG_MATCHED}\b|~{FLAG_MATCHED}\b")


def _step_block(source, steps, k):
    """The generated lines of plan step ``k`` of ``steps``: from its first
    loop head to the next step's, or for the last step to its match.
    Each step has one loop, a bidirectional edge two, each inside the one
    before, and no step dispatches on a step number."""
    lines = source.splitlines()
    assert not re.search(r"\bi (==|=) ", source)
    heads = [j for j, line in enumerate(lines) if re.match(r" *(for|while) ", line)]
    indents = [len(lines[j]) - len(lines[j].lstrip()) for j in heads]
    assert indents == sorted(set(indents))
    firsts = [0]
    for step in steps:
        firsts.append(firsts[-1] + max(len(step.phases), 1))
    assert len(heads) == firsts[-1]
    start = heads[firsts[k]]
    end = heads[firsts[k + 1]] if k + 1 < len(steps) else next(
        j for j, line in enumerate(lines) if line.strip().startswith("if find: return"))
    return "\n".join(lines[start:end])


@pytest.mark.parametrize("backend,mode", SETTINGS)
def test_only_items_that_may_meet_touch_matched_flags(backend, mode):
    reflect = mode == "reflect"
    # a grey and an unmarked node; one node
    for rule in _rules("gen_tree")["gen"], _rules("is_discrete")["del"]:
        assert not MATCHED_FLAG.search(inspect.getsource(
            compiled_step(rule, True, backend, reflect))), rule.name
    # three edges labelled 0, 1 and 2
    expand = compiled_step(_rules("gen_sierpinski")["expand"], True, backend, reflect)
    assert not re.search(r"\be\d+\.flags", inspect.getsource(expand))
    assert _flagged(expand) and "e" not in _flagged(expand)
    pair = compiled_step(parse_rule("r(x,y:list)\n[ (1, x) (2, y) | ] => [ (1, x) (2, y) | ]"),
                         True, backend, reflect)
    source = inspect.getsource(pair)
    assert "n0.flags |= 8" in source and "if n1.flags & 8: continue" in source
    assert _flagged(pair) == "n0"
    # the root list holds only roots
    for name, rule in all_corpus_rules():
        source = inspect.getsource(compiled_step(rule, True, backend, reflect))
        steps = rule.plans[True, backend, reflect][0]
        for k, step in enumerate(steps):
            if step.kind == "root":
                assert not re.search(r"flags & 1\b", _step_block(source, steps, k)), \
                    (name, rule.name)


def _fixed_before(steps, k, item) -> bool:
    """Whether the label of ``item``, the node or the edge plan step ``k``
    binds, is fixed before the step: every variable in it is in a label
    an earlier step bound."""
    bound = {name for s in steps[:k] for it in (s.edge, s.node if s.binds else None)
             if it is not None for name, _ in it.label.variables()}
    return all(name in bound for name, _ in item.label.variables())


def _first_check(block, local, k, where):
    """Assert that every candidate ``local`` gets in the step block is
    checked first against its fixed label, in one comparison."""
    binds = [j for j, line in enumerate(block) if re.search(rf"\b{local} (=|in) ", line)]
    assert binds, where
    for j in binds:
        rest = [line.strip() for line in block[j + 1:]]
        at = next(i for i, line in enumerate(rest) if line.startswith("if "))
        fixed = rf"\(.*\)|{'d' if local[0] == 'n' else 'f'}{k}"
        assert re.fullmatch(rf"if {local}\.label != ({fixed}): continue", rest[at]), where
        assert rest[at].count("!=") == 1, where
        if local[0] == "e":     # straight after the count
            assert rest[at - 1] == "candidates += 1", where


def _kept_edge_updates(rule):
    """Per kept edge's local, the updates its rewrite must emit: a
    relabel unless its label is written back, a remark unless its mark
    is any or unchanged."""
    left, kept = {pe.eid: (j, pe) for j, pe in enumerate(rule.lhs.edges)}, kept_edges(rule)
    updates = {}
    for pe in rule.rhs.edges:
        if pe.eid in kept:
            j, old = left[pe.eid]
            updates[f"e{j}"] = ["relabel"] * (not written_back(pe, old)) + \
                ["remark"] * (pe.mark not in ("any", old.mark))
    return updates


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("backend,mode", SETTINGS)
def test_fixed_labels_first_kept_edges_in_place_and_a_chain_walk_step_counted_once(
        optimize, backend, mode):
    reflect, fixed, kept, remarks = mode == "reflect", Counter(), Counter(), Counter()
    for name, rule in all_corpus_rules() + [(None, parse_rule(text))
                                            for text in FIXED_RULES + REMARK_RULES]:
        source = inspect.getsource(compiled_step(rule, optimize, backend, reflect))
        assert "readd" not in source
        steps = rule.plans[optimize, backend, reflect][0]
        for k, step in enumerate(steps):
            block, where = _step_block(source, steps, k).splitlines(), (name, rule.name, k)
            if step.kind == "node" and backend == "chain":
                assert "candidates += 1" not in "\n".join(block), where
            if step.binds and _fixed_before(steps, k, step.node):
                fixed["node"] += 1
                _first_check(block, f"n{rule.lhs.by_id[step.node.pid]}", k, where)
            if step.kind == "edge" and _fixed_before(steps, k, step.edge):
                fixed["edge"] += 1
                e = f"e{rule.lhs.edges.index(step.edge)}"
                _first_check(block, e, k, where)
        # a kept edge is updated in place, and not at all when written back
        rewrite = [line.strip() for line in source.split("if find: return", 1)[1].split(
            "return True", 1)[0].splitlines()[1:]]
        for e, updates in _kept_edge_updates(rule).items():
            kept[bool(updates)] += 1
            got = [re.match(r"(?:if \S+ != .*: )?g\.(\w+)\(", line) for line in rewrite
                   if re.search(rf"\b{e}\b", line)]
            assert [m and m[1] for m in got] == updates, (name, rule.name, e)
        # a remark is tested first only where the left-hand mark is any:
        # the search has checked any other
        for line in (line for line in rewrite if "remark" in line):
            m = re.fullmatch(r"(if (\w+)\.mark != '\w+': )?g\.remark\((\w+), '\w+'\)", line)
            items = rule.lhs.nodes if m[3][0] == "n" else rule.lhs.edges
            remarks[bool(m[1])] += 1
            assert bool(m[1]) == (items[int(m[3][1:])].mark == "any"), (name, rule.name, line)
    # gen_sierpinski's expand (n, bound at the root) and the constant
    # labels of gen_tree, gen_star and gen_discrete, and FIXED_RULES;
    # every constant edge label, and FIXED_RULES' a; kept edges written
    # back (gen_tree's ret) and updated (is_con's fwd and bck)
    assert fixed["node"] >= 10 and fixed["edge"] >= 10, fixed
    assert kept[False] and kept[True], kept
    # is_con's fwd and bck, is_bin_dag's up and is_tree's push; REMARK_RULES
    assert remarks[False] >= 4 and remarks[True] == 2, remarks


# Node labels that earlier steps fix: a bound list variable alone and
# with literals on either side, and an int and an atom variable.
FIXED_RULES = [
    "r(x:list)\n[ (1, x) (2, x) | ] => [ (1, x) (2, x) | ]",
    "r(x:list)\n[ (1, x) (2, 1:x) (3, x:2) | (0, 1, 2, empty) ] => [ | ]",
    "r(a:int; b:atom)\n[ (1, a:b) (2, b) (3, a) | (0, 1, 2, empty) (1, 2, 3, a) ] => [ | ]",
]


# Kept items remarked: a node and an edge whose left-hand mark is any,
# and a node whose mark the search checks.
REMARK_RULES = ["r(x,y:list)\n[ (1, x # any) (2, y) | (0, 1, 2, empty # any) ]\n"
                "=> [ (1, x # red) (2, y # grey) | (0, 1, 2, empty # dashed) ]"]


@pytest.mark.parametrize("optimize", [True, False])
def test_fixed_node_labels_agree_with_brute_force_on_random_hosts(optimize):
    rng = random.Random(5)
    labels = LABELS + [(2, 1), (1, 1), (1, 2, 2), (1, 1, 2)]
    rules = [parse_rule(text) for text in FIXED_RULES]
    found = 0
    for _ in range(80):
        g = random_host(rng, labels=labels)
        for rule, mode in ((rule, mode) for rule in rules for mode in ("preserve", "reflect")):
            keys = {match_key(m) for m in brute_force_match(rule, g, mode)}
            for backend in ("chain", "index_scan"):
                m = find_match(rule, g, mode, backend, optimize)
                assert (m is None) == (not keys), (rule.name, mode, backend)
                if m is not None:
                    found += 1
                    assert match_key(m) in keys
                    audit_match(rule, g, m, mode)
    assert found > 50


# -- drawn rules against the brute-force matcher ------------------------------

DRAWN_HOST_LABELS = [(), (0,), (1,), (0, 1), (1, 1), (1, 0, 1)]


def _drawn_label(rng):
    """Up to two literals and int variables, and half the time one list
    variable among them: a left-hand label, or one written back."""
    atoms = [rng.choice(["0", "1", "i", "j"]) for _ in range(rng.randrange(3))]
    if rng.random() < 0.5:
        atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(["x", "y"]))
    return ":".join(atoms) or "empty"


def _drawn_rule(rng):
    """The GP 2 text of a rule of 1-4 nodes and 0-4 edges, any of them
    rooted, bidirectional or marked ``any``, whose variables recur across
    labels, so that a label may be fixed by an earlier step or bind.  Its
    right-hand side deletes some nodes and edges, keeps the others with
    their labels written back or replaced and their marks kept or
    changed, and may add an edge."""
    n = rng.randrange(1, 5)
    nodes = [(i, rng.random() < 0.3, _drawn_label(rng),
              rng.choice(["", "", " # red", " # grey", " # any"])) for i in range(n)]
    edges = [(e, rng.randrange(n), rng.randrange(n), rng.random() < 0.3, _drawn_label(rng),
              rng.choice(["", "", " # red", " # dashed", " # any"]))
             for e in range(rng.randrange(5))]
    kept = {i for i in range(1, n) if rng.random() < 0.8} | {0}
    right_nodes = [(i, root ^ (rng.random() < 0.2), label if rng.random() < 0.7 else "1",
                    mark if rng.random() < 0.7 else rng.choice(["", " # red", " # any"]))
                   for i, root, label, mark in nodes if i in kept]
    right_edges = [(e, s, t, bidir, label if rng.random() < 0.7 else "0",
                    mark if rng.random() < 0.7 else rng.choice(["", " # red", " # any"]))
                   for e, s, t, bidir, label, mark in edges
                   if s in kept and t in kept and rng.random() < 0.8]
    if rng.random() < 0.3:
        right_edges.append((9, rng.choice(sorted(kept)), rng.choice(sorted(kept)), False, "1", ""))

    def side(nodes, edges):
        return "[ " + " ".join(f"({i}{' (R)' * root}, {label}{mark})"
                               for i, root, label, mark in nodes) + " | " + \
            " ".join(f"({e}{' (B)' * bidir}, {s}, {t}, {label}{mark})"
                     for e, s, t, bidir, label, mark in edges) + " ]"
    return f"r(i,j:int; x,y:list)\n{side(nodes, edges)} => {side(right_nodes, right_edges)}"


def _host_with_an_image(rng, rule):
    """A random host of up to 3 nodes, an image of the rule's left-hand
    side under random variable values beside it, and up to 3 random
    edges that may join the two."""
    g = random_host(rng, max_nodes=3, labels=DRAWN_HOST_LABELS)
    values = {"i": rng.randrange(2), "j": rng.randrange(2),
              "x": rng.choice([(), (1,), (0, 1)]), "y": rng.choice([(), (0,)])}

    def label(pattern):
        return tuple(atom for item in pattern.items for atom in
                     ((item[1],) if item[0] == "lit" else values[item[1]]
                      if item[2] == "list" else (values[item[1]],)))
    image = {}
    for pn in rule.lhs.nodes:
        mark = rng.choice(NODE_MARK_CHOICES) if pn.mark == "any" else pn.mark
        image[pn.pid] = g.add_node(label(pn.label), mark, pn.root or rng.random() < 0.2)
    for pe in rule.lhs.edges:
        ends = [image[pe.src], image[pe.tgt]]
        if pe.bidir and rng.random() < 0.5:
            ends.reverse()
        mark = rng.choice(EDGE_MARK_CHOICES) if pe.mark == "any" else pe.mark
        g.add_edge(*ends, label(pe.label), mark)
    nodes = g.nodes()
    for _ in range(rng.randrange(4)):
        g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(DRAWN_HOST_LABELS))
    return g


def test_drawn_rules_find_a_match_of_the_brute_force_set_in_every_setting():
    rng = random.Random(2002)
    seen = Counter()
    for _ in range(300):
        text = _drawn_rule(rng)
        rule = parse_rule(text)
        g = _host_with_an_image(rng, rule)
        for mode in ("preserve", "reflect"):
            keys = {match_key(m) for m in brute_force_match(rule, g, mode)}
            seen["hit" if keys else "miss"] += 1
            for optimize in (True, False):
                for backend in ("chain", "index_scan"):
                    m = find_match(rule, g, mode, backend, optimize)
                    where = (text, mode, backend, optimize)
                    assert (m is None) == (not keys), where
                    if m is not None:
                        assert match_key(m) in keys, where
                        audit_match(rule, g, m, mode)
                    writes = rule.plans[optimize, backend, mode == "reflect"][3]
                    assert writes == (not predicate(rule, mode)), where
        source = "".join(linecache.getlines(compiled_step(rule).__code__.co_filename))
        seen["fixed edge label"] += bool(re.search(r"^ *f\d+ = \(", source, re.M))
        seen["late edge label"] += bool(re.search(r"(label|v\d+) = e\d+\.label", source))
        seen["kept edge"] += bool(kept_edges(rule))
        seen["bidirectional"] += any(pe.bidir for pe in rule.lhs.edges)
    assert min(seen.values()) >= 50, seen


# -- an interface label written out again ---------------------------------


def _reference_rewrite(rule, g, mode, backend="chain", optimize=True):
    """An interface-only rule applied through ``find_match`` and the
    interpreter, relabelling every node whose label differs."""
    m = find_match(rule, g, mode, backend, optimize)
    if m is None:
        return False
    nodes, _ = instantiate_rhs(rule, m.assignment, m.node_images)
    for pn, (label, mark) in zip(rule.rhs.nodes, nodes):
        n = m.node_images[pn.pid]
        if n.label != label:
            g.relabel(n, label)
        if n.mark != mark:
            g.remark(n, mark)
        if n.is_root != pn.root:
            (g.root if pn.root else g.unroot)(n)
    return True


def _label_text(label):
    return ":".join(f'"{a}"' if isinstance(a, str) else str(a) for a in label) or "empty"


@st.composite
def _rewritten_patterns(draw):
    """A left-hand label of literals, an int and an atom variable and at
    most one list variable; a right-hand label that is the same list or,
    half the time, another one over its variables; and a host of 2-5
    nodes labelled alike."""
    atoms = draw(st.lists(st.sampled_from(["0", "1", '"a"', "i", "t"]), max_size=3))
    if draw(st.booleans()):
        atoms.insert(draw(st.integers(0, len(atoms))), "l")
    rhs = atoms
    if draw(st.booleans()):
        used = sorted(set(atoms) & {"i", "t", "l"})
        rhs = draw(st.lists(st.sampled_from(["0", '"a"', *used]), max_size=4))
    labels = st.lists(st.sampled_from([0, 1, "a"]), max_size=4).map(tuple)
    host = draw(st.lists(st.tuples(labels, st.booleans()), min_size=2, max_size=5))
    return [":".join(side) or "empty" for side in (atoms, rhs)], host


@settings(deadline=None, database=None, derandomize=True, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_rewritten_patterns(), st.sampled_from(["preserve", "reflect"]))
def test_a_label_written_out_again_is_not_relabelled(case, mode):
    (lhs, rhs), host = case
    rule = parse_rule(f"r(i:int; t:atom; l,k:list)\n[ (1, {lhs}) (2, k) | ]\n"
                      f"=> [ (1, {rhs} # red) (2, k:0) | ]")
    step = compiled_step(rule, True, "chain", mode == "reflect")
    source = inspect.getsource(step)
    assert ("g.relabel(n0" in source) == (lhs != rhs)
    assert "g.relabel(n1" in source
    text = "[ " + " ".join(f"({j}{' (R)' * root}, {_label_text(label)})"
                           for j, (label, root) in enumerate(host)) + " | ]"
    runs = []
    for apply in (step, lambda g: _reference_rewrite(rule, g, mode)):
        g = parse_host_graph(text)
        g.journal = []
        applied = apply(g)
        entries = [tuple(x.slot_index if isinstance(x, Node) else x for x in entry)
                   for entry in g.journal]
        runs.append((applied, entries, print_graph(g)))
    assert runs[0] == runs[1]


# -- a nest past CPython's 20 loops -----------------------------------------------


def _long_path(condition):
    """An 18-node path whose end nodes share int variable ``a``, the
    others labelled by their ids, and whose edge from node 9 to node 10
    is bidirectional and labelled by list variable ``b``: 19 loops when
    optimised and 36 without, so its nest continues in two or three
    functions.  The rewrite relabels node 1 and remarks node 9.  The
    condition reads variables bound in the first function and node 18,
    bound in the last."""
    nodes = " ".join(f"({i}, {'a' if i in (1, 18) else i})" for i in range(1, 19))
    edges = " ".join(f"({i}{' (B)' * (i == 8)}, {i + 1}, {i + 2}, {'b' if i == 8 else 'empty'})"
                     for i in range(17))
    right = nodes.replace("(1, a)", "(1, a + 1)").replace("(9, 9)", "(9, 9 # red)")
    return f"long(a:int; b:list)\n[ {nodes} | {edges} ] => [ {right} | {edges} ]\n" \
           f"  where {condition}"


def _long_path_host(rng, rule, drop=0.3):
    """An image of the long path under random values, one of its edges
    missing with probability ``drop``, the bidirectional one either way
    round, with up to 3 more nodes labelled as path nodes and up to 5
    more edges.  Half the time an edge from node 17's image to node 1's
    comes after the path's in node 17's out-list, so that a search that
    has bound node 18 and failed the condition meets node 1's image
    next, which its flag must keep out."""
    a, b = rng.randrange(3), rng.choice([(), (1,), (0, 1)])
    g = Graph()
    image = {pn.pid: g.add_node((a,) if pn.label.items[0][0] == "var" else
                                (pn.label.items[0][1],), "none", rng.random() < 0.02)
             for pn in rule.lhs.nodes}
    if rng.random() < 0.5:
        g.add_edge(image[rule.lhs.nodes[16].pid], image[rule.lhs.nodes[0].pid])
    missing = rng.choice(rule.lhs.edges) if rng.random() < drop else None
    for pe in rule.lhs.edges:
        ends = [image[pe.src], image[pe.tgt]]
        if pe.bidir and rng.random() < 0.5:
            ends.reverse()
        if pe is not missing:
            g.add_edge(*ends, b if pe.bidir else ())
    nodes = g.nodes() + [g.add_node((rng.randrange(19),)) for _ in range(rng.randrange(4))]
    for _ in range(rng.randrange(6)):
        g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice([(), (1,)]))
    return g


def test_a_nest_past_twenty_loops_continues_in_more_functions_in_every_setting(monkeypatch):
    text = _long_path("a < 2 and b != 1 or outdeg(18) > 0")
    settings = [(optimize, backend, reflect) for optimize in (True, False)
                for backend in ("chain", "index_scan") for reflect in (False, True)]
    rules = {}
    for loops in (16, 5, 19):   # the rule compiled with the nest split every so many loops
        monkeypatch.setattr("gp2.match._LOOPS", loops)
        rules[loops] = parse_rule(text)
        for setting in settings:
            source = "".join(linecache.getlines(
                compiled_step(rules[loops], *setting).__code__.co_filename))
            functions = re.findall(r"^ *def (\w+)\(", source, re.M)
            assert len(functions) == -(-(19 if setting[0] else 36) // loops), (loops, setting)
    monkeypatch.undo()
    rule, rng, seen = rules[16], random.Random(1218), Counter()
    for _ in range(40):
        g = _long_path_host(rng, rule)
        for mode in ("preserve", "reflect"):
            keys = {match_key(m) for m in brute_force_match(rule, g, mode)}
            seen["hit" if keys else "miss"] += 1
            for optimize in (True, False):
                for backend in ("chain", "index_scan"):
                    where = (mode, backend, optimize)
                    # every split finds the same match and counts the same
                    found = []
                    for split in rules.values():
                        before = g.candidates, g.iter_steps
                        m = find_match(split, g, mode, backend, optimize)
                        found.append((m and match_key(m), g.candidates - before[0],
                                      g.iter_steps - before[1]))
                    assert len(set(found)) == 1, (where, found)
                    assert (m is None) == (not keys), where
                    if m is not None:
                        assert match_key(m) in keys, where
                        audit_match(rule, g, m, mode)
                    for n in g.nodes():
                        assert not n.flags & FLAG_MATCHED
                        assert not any(e.flags & FLAG_MATCHED for e in g.out_edges(n))
                    applied, reference = (parse_host_graph(print_graph(g)) for _ in "ab")
                    assert apply_rule(rule, applied, mode, backend, optimize) == bool(keys)
                    _reference_rewrite(rule, reference, mode, backend, optimize)
                    assert print_graph(applied) == print_graph(reference), where
    assert seen["hit"] >= 10 and seen["miss"] >= 10, seen
