import random

import pytest

from gp2 import bench, corpus
from gp2.engine import (
    BROKE,
    FAILED,
    OK,
    ChangeStack,
    ConfigError,
    ExecConfig,
    Executable,
    If,
    Loop,
    RuleSet,
    Seq,
    Skip,
    Try,
    apply_rule,
    exec_command,
    fails_cleanly,
    inline_procedures,
    prepare_commands,
    run_program,
)
from gp2.graph import FLAG_ROOT, Graph, check_consistency, graphs_isomorphic
from gp2.match import find_match
from gp2.rules import EvalError
from gp2.textio import SourceError, parse_host_graph, parse_program, print_graph
from helpers import executable


def _program(name):
    return corpus.load_program(name)


def _parsed(name):
    return parse_program(_program(name))


# -- inlining ---------------------------------------------------------------


def test_inline_expands_procedures_transitively():
    parsed = _parsed("is_bin_dag")
    ast = inline_procedures(parsed)
    # Reduce! within the main loop must now contain the Delete rule set
    names = []

    def collect(cmd):
        if isinstance(cmd, RuleSet):
            names.extend(cmd.names)
        for attr in ("commands",):
            for sub in getattr(cmd, attr, []):
                collect(sub)
        for attr in ("guard", "then_cmd", "else_cmd", "body"):
            sub = getattr(cmd, attr, None)
            if sub is not None:
                collect(sub)

    collect(ast)
    assert "del22_d" in names and "set_flag" in names and "init" in names


def test_two_level_nesting_expands():
    parsed = parse_program(
        "A = B; B\nB = r\nMain = A\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]")
    ast = inline_procedures(parsed)
    assert isinstance(ast, Seq)
    assert all(isinstance(c, RuleSet) and c.names == ["r"] for c in ast.commands)


def test_inline_rejects_self_recursion():
    with pytest.raises(SourceError):
        parse_program("P = P\nMain = P")


# -- apply_rule ----------------------------------------------------------------


def test_apply_root_promotion_keeps_handle():
    rules = _parsed("is_tree").rules
    g = parse_host_graph("[ (0, 7) | ]")
    node = g.nodes()[0]
    m = find_match(rules["init"], g)
    apply_rule(rules["init"], m, g)
    assert g.nodes()[0] is node
    assert node.flags & FLAG_ROOT
    assert node.label == (7,)
    check_consistency(g)


def test_apply_delete_to_empty_graph():
    rules = _parsed("is_bin_dag").rules
    g = parse_host_graph("[ (0 (R), empty) | ]")
    m = find_match(rules["del0"], g)
    apply_rule(rules["del0"], m, g)
    assert g.node_count == 0 and g.edge_count == 0


def test_apply_link_adds_one_edge_keeps_rest():
    rules = _parsed("trans_closure").rules
    g = parse_host_graph(
        "[ (0, 1) (1, 2) (2, 3) | (0, 0, 1, 10) (1, 1, 2, 20) ]")
    before = {id(n) for n in g.nodes()}
    m = find_match(rules["link"], g)
    apply_rule(rules["link"], m, g)
    assert {id(n) for n in g.nodes()} == before
    assert g.edge_count == 3
    labels = sorted(tuple(e.label) for e in g.edges())
    assert labels == [(), (10,), (20,)]
    check_consistency(g)


def test_division_by_zero_aborts_with_program_error():
    text = ("Main = r\n"
            "r(n:int)\n[ (1, n) | ] => [ (1, 1/n) | ]")
    out = run_program(text, "[ (0, 0) | ]")
    assert out.status == "program_error"
    assert "division by zero" in out.diagnostic
    assert "'r'" in out.diagnostic
    assert out.exit_code == 2


# -- the change journal ----------------------------------------------------------


def _snapshot(g):
    return (g.node_count, g.edge_count,
            sorted((tuple(n.label), n.mark, n.is_root, n.indegree, n.outdegree)
                   for n in g.nodes()))


def test_undo_single_add():
    g = Graph()
    stack = ChangeStack()
    stack.open_frame(g)
    g.add_node((5,))
    stack.undo_frame(g)
    assert _snapshot(g) == (0, 0, [])
    assert g.journal is None


def test_undo_restores_labels_and_counters_exactly():
    g = Graph()
    stack = ChangeStack()
    b = g.add_node((1,))
    a = g.add_node((2,), mark="grey", root=True)
    e = g.add_edge(a, b, (9,))
    before = _snapshot(g)
    stack.open_frame(g)
    g.relabel_node(a, (42,))
    g.remark_node(a, "red")
    g.set_root(a, False)
    g.delete_edge(e)
    g.delete_node(b)
    new = g.add_node((7,))
    g.add_edge(a, new)
    stack.undo_frame(g)
    assert _snapshot(g) == before
    # retained handles keep their identity and fields
    assert g.nodes()[0] is b or g.nodes()[0] is a
    assert a.label == (2,) and a.mark == "grey" and a.is_root
    assert b.label == (1,)
    check_consistency(g)


def test_deferred_slot_release_on_commit_and_undo():
    g = Graph()
    stack = ChangeStack()
    n = g.add_node()
    stack.open_frame(g)
    g.delete_node(n)
    fresh = g.add_node()
    assert fresh is not n            # slot still referenced by the journal
    stack.commit_frame(g)
    reused = g.add_node()
    assert reused is n               # journal gone: LIFO reuse kicks in

    stack.open_frame(g)
    g.delete_node(reused)
    stack.undo_frame(g)
    assert reused.in_graph


def test_nested_frames_fold_into_parent():
    g = Graph()
    stack = ChangeStack()
    base = g.add_node((1,))
    before = _snapshot(g)
    stack.open_frame(g)
    g.add_node((2,))
    stack.open_frame(g)
    g.delete_node(base)
    stack.commit_frame(g)            # inner commits into outer
    assert g.node_count == 1
    stack.undo_frame(g)              # outer undo reverts both
    assert _snapshot(g) == before
    assert g.nodes() == [base]


def _lists(g):
    """Every live node's out- and in-edge list, and the root list, in order."""
    return ([(list(g.out_edges(n)), list(g.in_edges(n))) for n in g.nodes()],
            list(g.root_list))


def test_random_journaled_mutations_undo_exactly():
    rng = random.Random(4242)
    for _ in range(100):
        g = Graph()
        live = []
        for _ in range(rng.randrange(1, 8)):
            live.append(g.add_node(rng.choice([(), (1,), (2,)]),
                                   rng.choice(["none", "grey"]),
                                   rng.random() < 0.3))
        edges = []
        for _ in range(rng.randrange(0, 10)):
            edges.append(g.add_edge(rng.choice(live), rng.choice(live)))
        before = _snapshot(g)
        order = g.nodes()
        lists = _lists(g)
        retained = list(live)
        retained_fields = [(n.label, n.mark, n.is_root) for n in retained]

        copy = parse_host_graph(print_graph(g))
        stack = ChangeStack()
        stack.open_frame(g)
        for _ in range(rng.randrange(1, 100)):
            op = rng.random()
            if op < 0.25:
                live.append(g.add_node((rng.randrange(5),)))
            elif op < 0.45 and live:
                edges.append(g.add_edge(rng.choice(live), rng.choice(live)))
            elif op < 0.6 and edges:
                g.delete_edge(edges.pop(rng.randrange(len(edges))))
            elif op < 0.7 and live:
                n = rng.choice(live)
                if not n.indegree and not n.outdegree:
                    live.remove(n)
                    g.delete_node(n)
            elif op < 0.8 and live:
                g.relabel_node(rng.choice(live), (rng.randrange(9),))
            elif op < 0.9 and live:
                g.remark_node(rng.choice(live), rng.choice(["none", "grey", "red"]))
            elif live:
                g.set_root(rng.choice(live), rng.random() < 0.5)
        stack.undo_frame(g)
        assert _snapshot(g) == before
        assert g.nodes() == order
        assert _lists(g) == lists
        assert graphs_isomorphic(g, copy)
        for node, fields in zip(retained, retained_fields):
            assert node.in_graph
            assert (node.label, node.mark, node.is_root) == fields
        check_consistency(g)


FIXTURES = sorted({f for entry in corpus.ENTRIES.values() for f, _ in entry.fixtures})


def _first_matches(backend):
    """(program, rule, fixture, host graph, match) for every corpus rule
    with a match on a corpus fixture."""
    for name in corpus.PROGRAM_NAMES:
        for rule in _parsed(name).rules.values():
            for fixture in FIXTURES:
                g = parse_host_graph(corpus.load_fixture(fixture))
                m = find_match(rule, g, backend=backend)
                if m is not None:
                    yield name, rule, fixture, g, m


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
def test_every_corpus_rule_application_undoes_exactly(backend):
    applied = 0
    for name, rule, fixture, g, m in _first_matches(backend):
        before = _snapshot(g)
        copy = parse_host_graph(print_graph(g))
        nodes, edges = g.nodes(), g.edges()
        node_fields = [(n.label, n.mark, n.flags) for n in nodes]
        edge_fields = [(e.label, e.mark, e.source, e.target) for e in edges]
        stack = ChangeStack()
        stack.open_frame(g)
        apply_rule(rule, m, g)
        stack.undo_frame(g)
        where = (name, rule.name, fixture)
        assert _snapshot(g) == before, where
        check_consistency(g)
        assert graphs_isomorphic(g, copy), where
        assert [(n.label, n.mark, n.flags) for n in nodes] == node_fields, where
        assert [(e.label, e.mark, e.source, e.target) for e in edges] == \
            edge_fields, where
        applied += 1
    assert applied > 100


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
def test_every_corpus_rule_application_commits_and_frees_once(backend):
    for name, rule, fixture, g, m in _first_matches(backend):
        deleted_nodes = [m.node_images[pid] for pid in rule.deleted]
        deleted_edges = list(m.edge_images.values())
        stack = ChangeStack()
        stack.open_frame(g)
        apply_rule(rule, m, g)
        stack.commit_frame(g)
        check_consistency(g)
        where = (name, rule.name, fixture)
        for node in deleted_nodes:
            assert sum(r is node for r in g.free_nodes) == 1, where
            assert node.flags == 0, where
        for edge in deleted_edges:
            assert edge.flags == 0, where


# -- control constructs ------------------------------------------------------------


def _exec_text(program, host, **cfg):
    return run_program(_maybe_load(program), host, ExecConfig(**cfg))


def _maybe_load(program):
    return _program(program) if program in corpus.ENTRIES else program


def test_reduction_to_empty_on_discrete_hosts():
    out = _exec_text("is_discrete", "[ (0, empty) (1, empty) (2, empty) | ]")
    assert out.status == "success" and out.output == "[ | ]"


def test_reduction_fails_when_an_edge_survives():
    out = _exec_text("is_discrete", "[ (0, empty) (1, empty) | (0, 0, 1, empty) ]")
    assert out.status == "fail" and out.exit_code == 2


def test_skip_leaves_graph_alone():
    host = '[ (0 (R), 1:2 # red) | (0, 0, 0, "x") ]'
    out = _exec_text("Main = skip", host)
    assert out.status == "success"
    assert out.output == print_graph(parse_host_graph(host))


def test_fail_command():
    assert _exec_text("Main = fail", "[ | ]").status == "fail"


def test_if_guard_changes_are_rolled_back():
    text = ("Main = if grow then skip else skip\n"
            "grow(x:list)\n[ (1, x) | ] => [ (1, x) (2, 99) | ]")
    out = _exec_text(text, "[ (0, 5) | ]")
    assert out.status == "success"
    assert out.output == "[ (0, 5) | ]"


def test_try_keeps_guard_changes_on_success():
    text = ("Main = try grow then skip else skip\n"
            "grow(x:list)\n[ (1, x) | ] => [ (1, x) (2, 99) | ]")
    out = _exec_text(text, "[ (0, 5) | ]")
    assert out.status == "success"
    g = parse_host_graph(out.output)
    assert g.node_count == 2


def test_try_rolls_back_on_failure_and_runs_else():
    text = ("Main = try seq2 else mark\n"
            "seq2(x:list)\n[ (1, x) | ] => [ (1, x # grey) | ]\n"
            "mark(x:list)\n[ (1, x) | ] => [ (1, x # red) | ]")
    # guard matches, so else must not run
    out = _exec_text(text, "[ (0, 5) | ]")
    assert parse_host_graph(out.output).nodes()[0].mark == "grey"

    text2 = ("Main = try impossible else mark\n"
             "impossible(x:list)\n[ (1, x # blue) | ] => [ (1, x) | ]\n"
             "mark(x:list)\n[ (1, x) | ] => [ (1, x # red) | ]")
    out = _exec_text(text2, "[ (0, 5) | ]")
    assert parse_host_graph(out.output).nodes()[0].mark == "red"


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
def test_failed_try_restores_the_node_order(backend):
    # each deleted node is relinked between its old chain neighbours
    text = "Main = try (d; fail)\nd(x:list)\n[ (1, x) | ] => [ | ]"
    host = "[ (0, 1) (1, 2) (2, 3) | ]"
    out = _exec_text(text, host, backend=backend)
    assert out.status == "success"
    assert out.output == host
    check_consistency(out.graph)


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
def test_failed_try_restores_the_edge_order(backend):
    # the deleted edge is relinked after its old neighbours in both lists
    text = "Main = try (d; fail)\nd() [ (1, 0) (2, 0) | (0, 1, 2, 2) ] => [ (1, 0) (2, 0) | ]"
    host = "[ (0, 0) (1, 0) | (0, 0, 1, 1) (1, 0, 1, 2) (2, 0, 1, 3) ]"
    out = _exec_text(text, host, backend=backend)
    assert out.status == "success"
    assert out.output == host
    check_consistency(out.graph)


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
@pytest.mark.parametrize("main", ["Main = try (u; fail); m", "Main = m"])
def test_failed_try_restores_the_root_order(backend, main):
    # the unrooted node goes back to its old place in the root list, so
    # the next rooted match picks the root it would have picked anyway
    rules = ("u(x:list) [ (1 (R), x) | ] => [ (1, x) | ]\n"
             "m(x:list) [ (1 (R), x) | ] => [ (1 (R), x # red) | ]")
    out = _exec_text(f"{main}\n{rules}", "[ (0 (R), 1) (1 (R), 2) | ]", backend=backend)
    assert out.output == "[ (0 (R), 1) (1 (R), 2 # red) | ]"
    check_consistency(out.graph)


def test_loop_keeps_last_successful_iteration():
    # countdown decrements to 0 and then fails; the 0 state must survive
    text = ("Main = dec!\n"
            "dec(n:int)\n[ (1, n) | ] => [ (1, n-1) | ] where n > 0")
    out = _exec_text(text, "[ (0, 4) | ]")
    assert out.status == "success"
    assert out.output == "[ (0, 0) | ]"


def test_loop_iteration_rolled_back_on_partial_failure():
    # each iteration marks one node then requires a second unmarked one;
    # with an odd pool the final iteration's mark must be undone
    text = ("Main = (mark; mark)!\n"
            "mark(x:list)\n[ (1, x) | ] => [ (1, x # grey) | ]")
    out = _exec_text(text, "[ (0, 1) (1, 2) (2, 3) | ]")
    assert out.status == "success"
    g = parse_host_graph(out.output)
    assert sorted(n.mark for n in g.nodes()) == ["grey", "grey", "none"]


def test_break_exits_loop_keeping_changes():
    text = ("Main = (mark; break)!\n"
            "mark(x:list)\n[ (1, x) | ] => [ (1, x # grey) | ]")
    out = _exec_text(text, "[ (0, 1) (1, 2) | ]")
    assert out.status == "success"
    g = parse_host_graph(out.output)
    assert sorted(n.mark for n in g.nodes()) == ["grey", "none"]


def test_break_confined_to_nearest_loop():
    text = ("Main = (inner; mark2)!\n"
            "inner = (break)!\n"
            "mark2(x:list)\n[ (1, x) | ] => [ (1, x # red) | ]")
    out = _exec_text(text, "[ (0, 1) | ]")
    # inner loop absorbs the break; outer loop keeps going until mark2 fails
    assert out.status == "success"
    assert parse_host_graph(out.output).nodes()[0].mark == "red"


def test_guarded_loop_iterations_roll_back_inside_if():
    # the guard mutates heavily through a nested loop, then fails
    text = ("Main = if (paint!; fail) then skip else skip\n"
            "paint(x:list)\n[ (1, x) | ] => [ (1, x # blue) | ]")
    host = "[ (0, 1) (1, 2) (2, 3) | ]"
    out = _exec_text(text, host)
    assert out.status == "success"
    assert out.output == print_graph(parse_host_graph(host))


def test_fails_cleanly_analysis():
    parsed = _parsed("is_bin_dag")
    ast = inline_procedures(parsed)
    prepare_commands(ast, parsed.rules, True)
    main_loop = ast.commands[0]
    assert isinstance(main_loop, Loop)
    assert main_loop.needs_frame is False      # body fails only at init

    parsed2 = _parsed("gen_tree")
    ast2 = inline_procedures(parsed2)
    prepare_commands(ast2, parsed2.rules, True)
    outer = ast2.commands[1]
    assert isinstance(outer, Loop)
    assert outer.needs_frame is True           # ret can fail after gen! mutated


def test_exec_command_direct():
    g = Graph()
    g.add_node()
    cfg = ExecConfig()
    assert exec_command(Skip(), g, cfg) == OK
    assert exec_command(Seq([Skip(), Skip()]), g, cfg) == OK


def test_an_evaluation_error_closes_the_journal():
    parsed = parse_program(
        "Main = (mark; div)!\n"
        "mark(n:int)\n[ (1, n) | ] => [ (1, n # red) | ]\n"
        "div(n:int)\n[ (1, n # red) | ] => [ (1, 10/n) | ]")
    g = parse_host_graph("[ (0, 0) | ]")
    with pytest.raises(EvalError, match="division by zero"):
        Executable(parsed, ExecConfig()).run(g)
    assert g.journal is None
    n = g.add_node()
    g.delete_node(n)
    assert g.free_nodes == [n]       # freed, not held by a dead frame


def test_config_validation():
    with pytest.raises(ConfigError):
        ExecConfig(minimal_gc=True)
    with pytest.raises(ConfigError):
        ExecConfig(backend="weird")
    ExecConfig(minimal_gc=True, fast_shutdown=True)


@pytest.mark.parametrize("minimal_gc", [False, True])
def test_executable_run_takes_the_gc_policy_from_its_config(minimal_gc):
    cfg = ExecConfig(fast_shutdown=True, minimal_gc=minimal_gc)
    g = bench.gen_discrete(5)
    assert executable("is_discrete", cfg).run(g) == OK and g.node_count == 0
    assert len(g.free_nodes) == (0 if minimal_gc else 5)


def _outputs_for_all_configs(name, host_text):
    outs = []
    for backend in ("chain", "index_scan"):
        for fast, mingc in ((False, False), (True, False), (True, True)):
            cfg = ExecConfig(backend=backend, fast_shutdown=fast, minimal_gc=mingc)
            outs.append(executable(name, cfg).run_text(host_text))
    return outs


def test_outcome_identical_across_backends_and_gc_modes():
    for entry in corpus.ENTRIES.values():
        for fixture, expected in entry.fixtures:
            host_text = corpus.load_fixture(fixture)
            outs = _outputs_for_all_configs(entry.name, host_text)
            assert all(o.status == expected for o in outs), (entry.name, fixture)
            if expected == "success":
                reference = parse_host_graph(outs[0].output)
                for other in outs[1:]:
                    assert graphs_isomorphic(reference,
                                             parse_host_graph(other.output)), \
                        (entry.name, fixture)


def test_corpus_outputs_identical_across_root_modes_on_unrooted_hosts():
    for entry in corpus.ENTRIES.values():
        if entry.kind != "recogniser":
            continue
        for fixture, expected in entry.fixtures:
            host_text = corpus.load_fixture(fixture)
            a = executable(entry.name, ExecConfig(root_mode="preserve")).run_text(host_text)
            b = executable(entry.name, ExecConfig(root_mode="reflect")).run_text(host_text)
            assert a.status == b.status == expected
            if expected == "success":
                assert graphs_isomorphic(parse_host_graph(a.output),
                                         parse_host_graph(b.output))


def test_validation_outcomes():
    out = run_program("Main = ", "[ | ]")
    assert out.status == "validation_error" and out.exit_code == 1
    out = run_program("Main = skip", "[ (0, empty) (0, empty) | ]")
    assert out.status == "program_error" and out.exit_code == 2
