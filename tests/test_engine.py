import inspect
import linecache
import random
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gp2 import bench, corpus, engine
from gp2.cli import main
from gp2.engine import (
    OK,
    ChangeStack,
    ConfigError,
    ExecConfig,
    Executable,
    apply_rule,
    run_program,
)
from gp2.graph import FLAG_IN_GRAPH, FLAG_MATCHED, FLAG_ROOT, Graph
from gp2.match import compiled_step, find_match
from gp2.oracles import check_consistency, graphs_isomorphic
from gp2.rules import EvalError, instantiate_rhs
from gp2.textio import (
    SourceError,
    inline_procedures,
    parse_host_graph,
    parse_program,
    parse_rule,
    print_graph,
)
from helpers import executable, interpret, kept_edges


def _program(name):
    return corpus.load_program(name)


def _parsed(name):
    return parse_program(_program(name))


# -- inlining ---------------------------------------------------------------


def test_inline_expands_procedures_transitively():
    # Main = (init; Reduce!; if flag then break)!; if flag then fail     (line 5)
    # Reduce = up!; try Delete else set_flag                              (line 7)
    # Delete = {del0, del1, del1_d, del21, del21_d, del22, del22_d}       (line 9)
    delete = ("rules", ("del0", "del1", "del1_d", "del21", "del21_d", "del22",
                        "del22_d"), (9, 11))
    reduce = ("seq", ("loop", ("rules", ("up",), (7, 10))),
              ("try", delete, ("skip",), ("rules", ("set_flag",), (7, 31))))
    assert inline_procedures(_parsed("is_bin_dag")) == (
        "seq",
        ("loop", ("seq", ("rules", ("init",), (5, 9)), ("loop", reduce),
                  ("if", ("rules", ("flag",), (5, 27)), ("break", (5, 37)), ("skip",)))),
        ("if", ("rules", ("flag",), (5, 49)), ("fail",), ("skip",)))


def test_two_level_nesting_expands():
    parsed = parse_program(
        "A = B; B\nB = r\nMain = A\nr(x:list)\n[ (1, x) | ] => [ (1, x) | ]")
    r = ("rules", ("r",), (2, 5))
    assert inline_procedures(parsed) == ("seq", r, r)


def test_inline_rejects_self_recursion():
    with pytest.raises(SourceError):
        parse_program("P = P\nMain = P")


# -- apply_rule ----------------------------------------------------------------


def test_apply_root_promotion_keeps_handle():
    rules = _parsed("is_tree").rules
    g = parse_host_graph("[ (0, 7) | ]")
    node = g.nodes()[0]
    assert apply_rule(rules["init"], g)
    assert g.nodes()[0] is node
    assert node.flags & FLAG_ROOT
    assert node.label == (7,)
    check_consistency(g)


def test_apply_delete_to_empty_graph():
    rules = _parsed("is_bin_dag").rules
    g = parse_host_graph("[ (0 (R), empty) | ]")
    assert apply_rule(rules["del0"], g)
    assert g.node_count == 0 and g.edge_count == 0
    assert not apply_rule(rules["del0"], g)


def test_apply_link_adds_one_edge_keeps_rest():
    rules = _parsed("trans_closure").rules
    g = parse_host_graph(
        "[ (0, 1) (1, 2) (2, 3) | (0, 0, 1, 10) (1, 1, 2, 20) ]")
    before = {id(n) for n in g.nodes()}
    assert apply_rule(rules["link"], g)
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


# The last right-hand label divides by zero: evaluating it only after the
# edge is deleted and the nodes are added would leave the graph changed.
LATE_DIVISION = ("Main = r\n"
                 "r(n:int)\n[ (1, n) (2, n) | (0, 1, 2, n) ] =>\n"
                 "[ (1, n) (2, n+1) (3, n) | (0, 2, 1, n) (1, 2, 3, n) (2, 3, 1, n / 0) ]")
LATE_DIVISION_HOST = "[ (0, 5) (1, 5) | (0, 0, 1, 5) ]"


def test_labels_are_evaluated_before_any_change_outside_a_frame():
    g = parse_host_graph(LATE_DIVISION_HOST)
    with pytest.raises(EvalError, match="^in rule 'r': division by zero$"):
        Executable(parse_program(LATE_DIVISION), ExecConfig()).run(g)
    assert g.journal is None
    assert print_graph(g) == print_graph(parse_host_graph(LATE_DIVISION_HOST))
    check_consistency(g)


def test_late_division_by_zero_cli_diagnostic(tmp_path, capsys):
    (tmp_path / "p.gp2").write_text(LATE_DIVISION)
    (tmp_path / "h.host").write_text(LATE_DIVISION_HOST)
    assert main([str(tmp_path / "p.gp2"), str(tmp_path / "h.host")]) == 2
    assert capsys.readouterr().err == "in rule 'r': division by zero\n"


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
    g.relabel(a, (42,))
    g.remark(a, "red")
    g.unroot(a)
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
            elif op < 0.75 and live:
                g.relabel(rng.choice(live), (rng.randrange(9),))
            elif op < 0.8 and live:
                g.remark(rng.choice(live), rng.choice(["none", "grey", "red"]))
            elif op < 0.87 and live:
                n, flag = rng.choice(live), rng.random() < 0.5
                if flag != n.is_root:
                    (g.root if flag else g.unroot)(n)
            elif op < 0.94 and edges:
                g.relabel(rng.choice(edges), (rng.randrange(3),))
            elif edges:
                g.remark(rng.choice(edges), rng.choice(["none", "red"]))
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


def _flags(g):
    return [(r, r.flags) for r in [*g.node_slots, *g.edges()]]


def _first_matches(backend, optimize):
    """(program, rule, fixture, host graph, match) for every corpus rule
    with a match on a corpus fixture.  Finding a match, or none, must
    leave the graph as it was and every matched flag clear."""
    for name in corpus.PROGRAM_NAMES:
        for rule in _parsed(name).rules.values():
            for fixture in FIXTURES:
                g = parse_host_graph(corpus.load_fixture(fixture))
                printed, flags = print_graph(g), _flags(g)
                m = find_match(rule, g, backend=backend, optimize=optimize)
                where = (name, rule.name, fixture)
                after = _flags(g)
                assert print_graph(g) == printed and after == flags, where
                assert not any(f & FLAG_MATCHED for _, f in after), where
                if m is not None:
                    yield name, rule, fixture, g, m


BACKENDS_AND_PLANS = pytest.mark.parametrize(
    "backend, optimize", [(b, o) for b in ("chain", "index_scan") for o in (True, False)])


@BACKENDS_AND_PLANS
def test_every_corpus_rule_application_undoes_exactly(backend, optimize):
    applied = 0
    for name, rule, fixture, g, m in _first_matches(backend, optimize):
        before = _snapshot(g)
        copy = parse_host_graph(print_graph(g))
        nodes, edges = g.nodes(), g.edges()
        node_fields = [(n.label, n.mark, n.flags) for n in nodes]
        edge_fields = [(e.label, e.mark, e.source, e.target) for e in edges]
        stack = ChangeStack()
        stack.open_frame(g)
        assert apply_rule(rule, g, backend=backend, optimize=optimize)
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


@BACKENDS_AND_PLANS
def test_every_corpus_rule_application_commits_and_frees_once(backend, optimize):
    kept_seen = set()
    for name, rule, fixture, g, m in _first_matches(backend, optimize):
        deleted_nodes = [m.node_images[pid] for pid in rule.deleted]
        kept = kept_edges(rule)
        deleted_edges = [e for eid, e in m.edge_images.items() if eid not in kept]
        _, rhs_edges = instantiate_rhs(rule, m.assignment, m.node_images, m.edge_images,
                                       m.orientations)
        rhs_fields = dict(zip((pe.eid for pe in rule.rhs.edges), rhs_edges))
        kept_fields = [(e, *rhs_fields[eid][:2], e.source, e.target)
                       for eid, e in m.edge_images.items() if eid in kept]
        nodes, edges = g.nodes(), g.edges()
        stack = ChangeStack()
        stack.open_frame(g)
        assert apply_rule(rule, g, backend=backend, optimize=optimize)
        stack.commit_frame(g)
        check_consistency(g)
        where = (name, rule.name, fixture)
        # the application deleted exactly the images find_match returned
        assert [n for n in nodes if n.in_graph] == \
            [n for n in nodes if all(n is not d for d in deleted_nodes)], where
        assert [e for e in edges if e.flags] == \
            [e for e in edges if all(e is not d for d in deleted_edges)], where
        for node in deleted_nodes:
            assert sum(r is node for r in g.free_nodes) == 1, where
            assert node.flags == 0, where
        for edge in deleted_edges:
            assert edge.flags == 0, where
        # a kept edge is the same live record, between the same nodes,
        # with its right-hand label and mark
        for edge, label, mark, src, tgt in kept_fields:
            assert edge.flags == FLAG_IN_GRAPH, where
            assert (edge.label, edge.mark, edge.source, edge.target) == \
                (label, mark, src, tgt), where
        if kept_fields:
            kept_seen.add(rule.name)
    # the other corpus rules that keep an edge need a root the fixtures lack
    assert kept_seen == {"par", "link"}


# -- rollback against a copying twin of the journal ---------------------------------


class SnapshotStack:
    """A ChangeStack twin that shares no code with the journal: opening
    a frame copies every record's fields and the graph's lists (chains,
    edge lists and ``root_list`` are all in them), and undoing it writes
    the copy back.  The graph journals nothing under it."""

    GRAPH = ("node_slots", "free_nodes", "node_head", "node_tail", "root_list",
             "node_count", "edge_count", "live_bytes")

    def __init__(self):
        self.frames = []

    def open_frame(self, g):
        edges = []
        for node in g.node_slots:
            if node.flags & FLAG_IN_GRAPH:
                e = node.out_head
                while e is not None:
                    edges.append(e)
                    e = e.src_next
        fields = [(r, [getattr(r, f) for f in type(r).__slots__])
                  for r in [*g.node_slots, *edges]]
        graph = {f: getattr(g, f) for f in self.GRAPH}
        for f in ("node_slots", "free_nodes", "root_list", "live_bytes"):
            graph[f] = graph[f][:]
        self.frames.append((graph, fields))

    def undo_frame(self, g):
        graph, fields = self.frames.pop()
        for f, value in graph.items():
            setattr(g, f, value)
        for record, values in fields:
            for f, value in zip(type(record).__slots__, values):
                setattr(record, f, value)

    def commit_frame(self, g):
        self.frames.pop()


def _both_stacks(monkeypatch, name, cfg, host_text):
    """The outcome of a corpus program under the journal and under the twin."""
    out = executable(name, cfg).run_text(host_text)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "ChangeStack", SnapshotStack)
        twin = executable(name, cfg).run_text(host_text)
    return out, twin


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
def test_the_journal_restores_what_a_copying_twin_restores(monkeypatch, backend):
    cfg = ExecConfig(backend=backend)
    expected = {(e.name, f): status for e in corpus.ENTRIES.values()
                for f, status in e.fixtures}
    for name in corpus.PROGRAM_NAMES:
        for fixture in FIXTURES:
            out, twin = _both_stacks(monkeypatch, name, cfg, corpus.load_fixture(fixture))
            where = (name, fixture)
            assert (twin.status, twin.output) == (out.status, out.output), where
            assert out.status == expected.get(where, out.status), where


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
@pytest.mark.parametrize("main", ["try (Whole; fail)", "if Whole then skip"])
def test_a_rolled_back_corpus_program_prints_its_input(monkeypatch, backend, main):
    cfg = ExecConfig(backend=backend)
    for name in corpus.PROGRAM_NAMES:
        program = re.sub(r"^Main\b", "Whole", _program(name), flags=re.M)
        rolled_back = Executable(parse_program(f"{program}\nMain = {main}"), cfg)
        for fixture in FIXTURES:
            host_text = corpus.load_fixture(fixture)
            want = print_graph(parse_host_graph(host_text))
            for stack in (ChangeStack, SnapshotStack):
                monkeypatch.setattr(engine, "ChangeStack", stack)
                out = rolled_back.run_text(host_text)
                assert out.output == want, (name, fixture, stack.__name__)


# Kept edges, relabelled, remarked and with an inherited mark; the
# bidirectional one is matched along its host direction on the first host
# and against it on the second.
KEEP = ("keep(x, y:list)\n"
        "[ (1, x) (2, y) | (0, 1, 2, x # any) (1 (B), 1, 2, y) (2, 2, 2, x # dashed) ]\n"
        "=> [ (1, x) (2, y) | (0, 1, 2, x:1 # any) (1 (B), 1, 2, y # red) (2, 2, 2, x) ]")
# Edges labelled 9 head the out-lists, so a kept edge that the rewrite or
# its undo moves in a list shows in the printed graph.
KEEP_HOSTS = ["[ (0, 0) (1, 2) (2, 3) | (0, 0, 1, 9) (1, 1, 1, 9) (2, 0, 1, 0 # red) "
              "(3, 0, 1, 2) (4, 1, 1, 0 # dashed) (5, 2, 0, 1) ]",
              "[ (0, 0) (1, 2) (2, 3) | (0, 0, 1, 9) (1, 1, 1, 9) (2, 0, 1, 0) "
              "(3, 1, 0, 2) (4, 1, 1, 0 # dashed) (5, 0, 2, 1) ]"]


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
@pytest.mark.parametrize("main", ["try (keep; fail)", "if keep then skip"])
def test_a_rolled_back_rule_keeping_edges_prints_its_input(monkeypatch, backend, main):
    rule = parse_rule(KEEP)
    assert kept_edges(rule) == {0, 1, 2}
    cfg = ExecConfig(backend=backend)
    flipped = []
    for host_text in KEEP_HOSTS:
        want = print_graph(parse_host_graph(host_text))
        m = find_match(rule, parse_host_graph(host_text), backend=backend)
        flipped.append(m.orientations[1])
        applied = Executable(parse_program(f"Main = keep\n{KEEP}"), cfg).run_text(host_text)
        assert applied.status == "success" and applied.output != want
        for stack in (ChangeStack, SnapshotStack):
            monkeypatch.setattr(engine, "ChangeStack", stack)
            out = Executable(parse_program(f"Main = {main}\n{KEEP}"), cfg).run_text(host_text)
            assert out.output == want, (host_text, stack.__name__)
    assert flipped == [False, True]


# A bidirectional right-hand edge whose ends are written the other way
# round from its left-hand twin's is a new edge, added against the host
# edge it replaces, whichever way that edge was matched.
FLIP = ("flip()\n[ (1, 1) (2, 2) | (0 (B), 1, 2, empty) ]\n"
        "=> [ (1, 1) (2, 2) | (0 (B), 2, 1, 5) ]")
FLIP_HOSTS = {"[ (0, 1) (1, 2) | (0, 0, 1, empty) ]": "[ (0, 1) (1, 2) | (0, 1, 0, 5) ]",
              "[ (0, 1) (1, 2) | (0, 1, 0, empty) ]": "[ (0, 1) (1, 2) | (0, 0, 1, 5) ]"}


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
@pytest.mark.parametrize("mode", ["preserve", "reflect"])
@pytest.mark.parametrize("optimize", [True, False])
def test_a_bidirectional_edge_written_reversed_is_added_against_the_host_edge(
        monkeypatch, backend, mode, optimize):
    rule = parse_rule(FLIP)
    source = inspect.getsource(compiled_step(rule, optimize, backend, mode == "reflect"))
    assert re.search(r"if p\d+ == \d: g\.add_edge\(", source)     # the flipped add
    cfg = ExecConfig(backend=backend, root_mode=mode, optimize_plans=optimize)
    flipped = []
    for host, out in FLIP_HOSTS.items():
        flipped.append(find_match(rule, parse_host_graph(host), mode, backend,
                                  optimize).orientations[0])
        assert Executable(parse_program(f"Main = flip\n{FLIP}"), cfg).run_text(host).output == out
        rolled_back = Executable(parse_program(f"Main = try (flip; fail)\n{FLIP}"), cfg)
        for stack in (ChangeStack, SnapshotStack):
            monkeypatch.setattr(engine, "ChangeStack", stack)
            assert rolled_back.run_text(host).output == host, (host, stack.__name__)
    assert flipped == [False, True]


def test_always_undone_guards_leave_no_node_held():
    # each if guard deletes a node under its own outermost frame
    parsed = parse_program("Main = (if del then skip; tick)!\n"
                           "del(x:list) [ (1, x) | ] => [ | ]\n"
                           "tick(x:list) [ (1, x # grey) | ] => [ (1, x) | ]")
    g = bench.gen_discrete(50)
    for node in g.nodes():
        g.remark(node, "grey")
    assert Executable(parsed, ExecConfig()).run(g) == OK
    assert g.held == [] and g.free_nodes == [] and g.node_count == 50
    check_consistency(g)


def test_grow_tree_journals_and_adds_exactly(monkeypatch):
    counts = dict.fromkeys(("entries", "add_edge", "delete_edge"), 0)
    for method in ("commit_frame", "undo_frame"):
        def closed(self, g, original=getattr(ChangeStack, method)):
            counts["entries"] += len(self.frames[-1])
            original(self, g)
        monkeypatch.setattr(ChangeStack, method, closed)
    for method in ("add_edge", "delete_edge"):
        def called(self, *args, method=method, original=getattr(Graph, method)):
            counts[method] += 1
            return original(self, *args)
        monkeypatch.setattr(Graph, method, called)
    g = parse_host_graph("[ (0 (R), 8) | ]")
    assert executable("gen_tree", ExecConfig()).run(g) == OK
    # step! runs after the frame has committed, unjournaled
    assert counts == {"entries": 2039, "add_edge": 637, "delete_edge": 127}
    assert g.node_count == 511 and g.held == []


# Each iteration reddens the grey node, turns a 0 grey, and deletes the
# red nodes; the last one fails at b, once no 0 is left, and undoes a!.
COMMIT_AFTER_B = ("Main = (a!; b; c!)!\n"
                  "a(x:list) [ (1, x # grey) | ] => [ (1, x # red) | ]\n"
                  "b() [ (1, 0) | ] => [ (1, 1 # grey) | ]\n"
                  "c(x:list) [ (1, x # red) | ] => [ | ]")


def test_the_parts_after_the_last_that_may_fail_run_after_the_frame_commits(monkeypatch):
    host, out = "[ (0, 0) (1, 0) (2, 5 # grey) (3, 7) | ]", "[ (0, 1 # grey) (1, 7) | ]"
    assert "            commit_frame(g)\n            while s2(g): pass  # c\n" in \
        inspect.getsource(Executable(parse_program(COMMIT_AFTER_B), ExecConfig())._run)
    deleted = []

    def delete_node(g, node, original=Graph.delete_node):
        original(g, node)
        # no frame is open: c's node is freed at once, not held
        assert g.journal is None and g.free_nodes[-1] is node and g.held == []
        deleted.append(node)
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "delete_node", delete_node)
        generated, reference = _generated_and_reference(COMMIT_AFTER_B, host, ExecConfig())
    # three frames, the last undone; a's remark and b's relabel and
    # remark twice, then a's remark, undone
    assert generated == reference == ("success", None, out, [3, 2, 1, 7])
    assert len(deleted) == 4        # two in each run
    monkeypatch.setattr(engine, "ChangeStack", SnapshotStack)
    assert Executable(parse_program(COMMIT_AFTER_B), ExecConfig()).run_text(host).output == out


# A try guard that is a sequence commits after b, its last part that may
# fail; c! and the break after it run once the frame has committed, and
# the break ends the loop, so d never runs.  e turns a 7 into the 0 that
# b needs.
TRY_TAIL = ("Main = (try (a!; b; c!; break) then d else e)!; f\n"
            "a(x:list) [ (1, x # grey) | ] => [ (1, x # red) | ]\n"
            "b() [ (1, 0) | ] => [ (1, 1 # grey) | ]\n"
            "c(x:list) [ (1, x # red) | ] => [ | ]\n"
            "d(x:list) [ (1, x) | ] => [ | ]\n"
            "e() [ (1, 7) | ] => [ (1, 0) | ]\n"
            "f(x:list) [ (1, x # grey) | ] => [ (1, x:2) | ]")


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
@pytest.mark.parametrize("host, out", [
    ("[ (0, 0) (1, 5 # grey) (2, 7) | ]", "[ (0, 1:2) (1, 7) | ]"),     # b succeeds
    ("[ (0, 3) (1, 5 # grey) (2, 7) | ]", "[ (0, 3) (1, 1:2) | ]"),     # b fails, then succeeds
    ("[ (0, 3) (1, 5 # grey) | ]", "[ (0, 3) (1, 5:2) | ]"),            # b and e fail
], ids=["b-succeeds", "b-fails-then-succeeds", "b-fails"])
def test_the_parts_of_a_try_guard_after_its_last_that_may_fail_run_after_its_commit(
        monkeypatch, backend, host, out):
    cfg = ExecConfig(backend=backend)
    run = Executable(parse_program(TRY_TAIL), cfg)
    assert "commit_frame(g)\n                while s2(g): pass  # c\n" in \
        inspect.getsource(run._run)
    generated, reference = _generated_and_reference(TRY_TAIL, host, cfg)
    assert generated == reference and generated[:3] == ("success", None, out)
    monkeypatch.setattr(engine, "ChangeStack", SnapshotStack)
    assert run.run_text(host).output == out


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
def test_a_try_guard_whose_tail_ends_in_break_writes_nothing_after_it(backend):
    # The guard's once-through loop ends at the tail's ``break``: no close
    # and no ``st = OK`` line follows it.  The test above runs it.
    run = Executable(parse_program(TRY_TAIL), ExecConfig(backend=backend))
    lines = [line.strip() for line in linecache.getlines(run._run.__code__.co_filename)]
    end = lines.index(f"st = {engine.BROKE}; break")
    assert lines[end - 1] == "while s2(g): pass  # c"
    assert lines[end + 1] == f"if st == {engine.BROKE}: commit_frame(g); break"
    assert f"st = {OK}; break" not in lines


def test_a_shared_command_that_ends_in_break_returns_nothing_after_it():
    # ``P`` is written once, as a function whose last line returns BROKE.
    run = Executable(parse_program("P = a; break\nMain = P!; P!\n"
                                   "a() [ (1, 0) | ] => [ (1, 1) | ]"), ExecConfig())
    lines = [line.strip() for line in linecache.getlines(run._run.__code__.co_filename)]
    start = lines.index("def f0(g, stack):")
    assert lines[start + 2:start + 5] == [f"if not s0(g): return {engine.FAILED}  # a",
                                          f"return {engine.BROKE}", "def main(g, stack):"]
    assert run.run_text("[ (0, 0) (1, 0) | ]").output == "[ (0, 1) (1, 1) | ]"


def _shrinks(rule):
    """Whether every application of ``rule`` removes at least one item."""
    return len(rule.rhs.nodes) + len(rule.rhs.edges) < len(rule.lhs.nodes) + len(rule.lhs.edges)


@st.composite
def _small_hosts(draw):
    """Up to five nodes and eight edges, loops and parallel edges among
    them, with the labels, marks and roots the corpus rules read."""
    n = draw(st.integers(1, 5))
    nodes = [f"({i}{draw(st.sampled_from(['', ' (R)']))}, "
             f"{draw(st.sampled_from(['empty', '0', '2', '3 # grey']))})" for i in range(n)]
    edges = [f"({i}, {draw(st.integers(0, n - 1))}, {draw(st.integers(0, n - 1))}, "
             f"{draw(st.sampled_from(['empty', '0', '1', '2 # dashed']))})"
             for i in range(draw(st.integers(0, 8)))]
    return f"[ {' '.join(nodes)} | {' '.join(edges)} ]"


@st.composite
def _corpus_rule_programs(draw):
    """A corpus program with a drawn Main over its rules in ``try``,
    ``if`` and ``!`` shapes, and a host: one of its fixtures or a small
    drawn one.  Every way a loop body can succeed removes an item from
    the graph, so every such program ends.  Half the time a drawn
    procedure ``Shared``, which has no ``break`` and removes an item
    whenever it succeeds, is called twice in a row inside a loop and
    outside, and anywhere a command may be a call, so one build of it
    runs from several sites."""
    name = draw(st.sampled_from(corpus.PROGRAM_NAMES))
    rules = _parsed(name).rules
    every = sorted(rules)
    shrinking = [r for r in every if _shrinks(rules[r])]
    calls = []      # the procedures a command may call

    def command(depth, body, breaks=True):
        """Any command, or with ``body`` one that removes an item
        whenever it succeeds, and has a ``break`` only with ``breaks``."""
        leaves = ["rules"] * 3 + calls + (["break"] * breaks if body else ["skip", "fail"])
        shapes = ["seq", "try", "if"] + (["loop"] if shrinking and not body else [])
        kind = draw(st.sampled_from(leaves + shapes * 2 if depth else leaves))
        if kind == "rules":
            pool = shrinking if body else every
            chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
            return "{" + ", ".join(chosen) + "}"
        if kind in ("break", "skip", "fail", "Shared"):
            return kind
        if kind == "loop":
            return f"({command(depth - 1, True)})!"
        if kind == "seq":
            return f"({command(depth - 1, body, breaks)}; {command(depth - 1, body, breaks)})"
        guard = command(depth - 1, body and kind == "try", breaks)
        return (f"({kind} {guard} then {command(depth - 1, body, breaks)} "
                f"else {command(depth - 1, body, breaks)})")

    program = re.sub(r"^Main\b", "Whole", _program(name), flags=re.M)
    if shrinking and draw(st.booleans()):
        program += f"\nShared = {command(2, True, False)}"
        calls += ["Shared"] * 2
    # each top-level command runs on what the ones before it left, and
    # half of them are rolled back
    shapes = st.sampled_from(["{}", "try {}", "try ({}; fail)", "if {} then skip"])
    parts = [draw(shapes).format(command(3, False)) for _ in range(draw(st.integers(1, 4)))]
    if calls:
        parts = draw(st.permutations(
            parts + [draw(shapes).format("(Shared; Shared)"), "(Shared; Shared)!"]))
    fixtures = [corpus.load_fixture(f) for f, _ in corpus.ENTRIES[name].fixtures]
    return f"{program}\nMain = {'; '.join(parts)}", draw(
        st.one_of(st.sampled_from(fixtures), _small_hosts()))


@settings(deadline=None, database=None, derandomize=True, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(_corpus_rule_programs(), st.sampled_from(["chain", "index_scan"]))
def test_drawn_programs_print_the_same_under_a_copying_twin(program_and_host, backend):
    program, host_text = program_and_host
    run = Executable(parse_program(program), ExecConfig(backend=backend))
    outcomes = []
    for stack in (ChangeStack, SnapshotStack):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "ChangeStack", stack)
            out = run.run_text(host_text)
        outcomes.append((out.status, out.diagnostic, out.graph and print_graph(out.graph)))
    assert outcomes[0] == outcomes[1]


class CountingStack(ChangeStack):
    """The journal, counting the frames it opens, commits and undoes, and
    the entries of each as it closes, which tell where it closed."""

    def __init__(self):
        super().__init__()
        self.counts = [0, 0, 0, 0]

    def open_frame(self, g):
        self.counts[0] += 1
        super().open_frame(g)

    def commit_frame(self, g):
        self.counts[1] += 1
        self.counts[3] += len(self.frames[-1])
        super().commit_frame(g)

    def undo_frame(self, g):
        self.counts[2] += 1
        self.counts[3] += len(self.frames[-1])
        super().undo_frame(g)


def _generated_and_reference(program, host_text, cfg):
    """The status, diagnostic, printed graph, and frame and entry counts
    of a run of the generated ``main``, and of one of the reference
    interpreter."""
    parsed = parse_program(program)
    stacks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "ChangeStack", lambda: stacks.append(CountingStack()) or stacks[-1])
        out = Executable(parsed, cfg).run_text(host_text)
    generated = (out.status, out.diagnostic, out.graph and print_graph(out.graph), stacks[0].counts)
    g, stack = parse_host_graph(host_text), CountingStack()
    g.minimal_gc = cfg.minimal_gc
    try:
        status = interpret(parsed.inlined, parsed.rules, cfg)[0](g, stack)
        reference = ("success", None) if status == OK else ("fail", "program evaluated to fail")
        reference += (print_graph(g),)
    except EvalError as exc:
        reference = ("program_error", str(exc), None)
    finally:
        g.journal = None
    return generated, (*reference, stack.counts)


@settings(deadline=None, database=None, derandomize=True, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_corpus_rule_programs(), st.sampled_from(["chain", "index_scan"]),
       st.sampled_from(["preserve", "reflect"]))
def test_generated_main_runs_as_the_reference_interpreter(program_and_host, backend, mode):
    program, host_text = program_and_host
    generated, reference = _generated_and_reference(
        program, host_text, ExecConfig(backend=backend, root_mode=mode))
    assert generated == reference


@pytest.mark.parametrize("main", [
    "(mark; break)!; mark", "((mark; break)!; mark)!", "(if (mark; break) then skip)!",
    "(try (mark; break) then fail)!; mark", "(mark; {none, mark}; break)!",
    "try (mark!; fail) else (mark; mark)", "if (try fail else mark) then mark else fail",
    # two shared procedures, each a function called from two sites
    "A; B; A; B\nA = mark; mark\nB = try (mark; none) else mark",
    "(A; B; A)!\nA = if none then fail else mark\nB = try (mark; none) else break",
])
def test_generated_main_frames_and_breaks_as_the_reference(main):
    program = f"Main = {main}\n{MARK}\nnone(x:list) [ (1, x # red) | ] => [ | ]"
    for backend in ("chain", "index_scan"):
        generated, reference = _generated_and_reference(
            program, "[ (0, 1) (1, 2) (2, 3) | ]", ExecConfig(backend=backend))
        assert generated == reference, backend


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


R = ("rules", ("r",), None)
SKIP, FAIL = ("skip",), ("fail",)
RULES = {"r": parse_rule("r(x:list) [ (1, x) | ] => [ (1, x # grey) | ]")}


def effects(cmd, rules=RULES):
    """Whether ``cmd`` may fail, may change the graph, and leaves the
    graph as it was when it fails, as ``_build`` computes them."""
    return engine._build(cmd, rules, ExecConfig(), set())[1:]


def test_fails_cleanly_analysis():
    # a loop gets a frame per iteration only if its body does not fail cleanly
    parsed = _parsed("is_bin_dag")
    main_loop = inline_procedures(parsed)[1]
    assert main_loop[0] == "loop"
    assert effects(main_loop[1], parsed.rules)[2] is True     # body fails only at init

    parsed = _parsed("gen_tree")
    outer = inline_procedures(parsed)[2]
    assert outer[0] == "loop"
    assert effects(outer[1], parsed.rules)[2] is False        # ret can fail after gen! mutated


# Journal frames (opened, committed, undone) in one run: a loop body or
# try guard gets one only when it may fail after changing the graph, and
# an if guard only when it may change the graph.  A rule set changes it
# only if a rule's compiled rewrite writes anything: is_bin_dag's flag
# writes nothing in both modes, and the closing guards of is_con,
# is_discrete and is_series_par nothing in reflect mode, where a non-root
# node never matches a root.  In preserve mode those guards may clear a
# root flag, and is_tree's re-adds an edge in both, so each opens a frame
# and undoes it.  The rest on is_bin_dag are Reduce!'s framed iterations.
FRAME_PINS = [
    ("is_con", "tree:12", "preserve", (1, 0, 1)),
    ("is_con", "grid:60x60", "preserve", (1, 0, 1)),
    ("is_bin_dag", "tree:12", "preserve", (6143, 4095, 2048)),
    ("is_tree", "tree:12", "preserve", (1, 0, 1)),
    ("is_discrete", "discrete:1000", "preserve", (1, 0, 1)),
    ("gen_tree", "[ (0 (R), 12) | ]", "preserve", (6143, 6142, 1)),
    ("gen_sierpinski", "[ (0 (R), 6) | ]", "preserve", (0, 0, 0)),
    ("is_con", "tree:12", "reflect", (0, 0, 0)),
    ("is_bin_dag", "tree:12", "reflect", (6143, 4095, 2048)),
    ("is_tree", "tree:12", "reflect", (0, 0, 0)),
    ("is_discrete", "discrete:1000", "reflect", (0, 0, 0)),
    ("is_series_par", "list:250", "reflect", (0, 0, 0)),
    ("gen_tree", "[ (0 (R), 12) | ]", "reflect", (6143, 6142, 1)),
]


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
@pytest.mark.parametrize("name, host, mode, frames", FRAME_PINS)
def test_frames_opened_committed_and_undone(monkeypatch, backend, name, host, mode, frames):
    counts = dict.fromkeys(("open_frame", "commit_frame", "undo_frame"), 0)
    for method in counts:
        def counted(self, g, method=method, original=getattr(ChangeStack, method)):
            counts[method] += 1
            original(self, g)
        monkeypatch.setattr(ChangeStack, method, counted)
    g = parse_host_graph(host) if host[0] == "[" else bench.generate(bench.parse_spec(host))
    executable(name, ExecConfig(backend=backend, root_mode=mode)).run(g)
    assert tuple(counts.values()) == frames


@pytest.mark.parametrize("cmd, expected", [
    (R, (True, True, True)),
    (SKIP, (False, False, True)),
    (FAIL, (True, False, True)),
    (("break", None), (False, False, True)),
    (("loop", R), (False, True, True)),
    (("loop", SKIP), (False, False, True)),
    (("seq", FAIL, R), (True, True, True)),         # fails before mutating
    (("seq", R, FAIL), (True, True, False)),        # fails after mutating
    (("seq", SKIP, ("seq", R, FAIL)), (True, True, False)),
    (("if", R, SKIP, SKIP), (False, False, True)),  # guard effects roll back
    (("if", SKIP, ("seq", R, FAIL), SKIP), (True, True, False)),
    (("try", R, SKIP, SKIP), (False, True, True)),
    (("try", R, FAIL, SKIP), (True, True, False)),  # then fails after the guard kept
    (("try", SKIP, R, SKIP), (True, True, True)),
    (("try", SKIP, SKIP, ("seq", R, FAIL)), (True, True, False)),
])
def test_effects_of_each_construct(cmd, expected):
    assert effects(cmd) == expected


def test_executable_run_direct():
    g = Graph()
    g.add_node()
    for text in ("Main = skip", "Main = skip; skip"):
        assert Executable(parse_program(text), ExecConfig()).run(g) == OK


MARK = "mark(x:list) [ (1, x) | ] => [ (1, x # grey) | ]"


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
@pytest.mark.parametrize("main, expected", [
    # a guard's break is undone by if and kept by try, and ends the loop
    ("Main = (if (mark; break) then skip)!", "[ (0, 1) (1, 2) | ]"),
    ("Main = (try (mark; break))!", "[ (0, 1) (1, 2 # grey) | ]"),
    ("Main = (try (mark; break) then fail)!; mark", "[ (0, 1 # grey) (1, 2 # grey) | ]"),
])
def test_break_in_a_guard(backend, main, expected):
    out = _exec_text(f"{main}\n{MARK}", "[ (0, 1) (1, 2) | ]", backend=backend)
    assert out.status == "success"
    assert out.output == expected


DN_R = ("dn(x:list) [ (1, x) | ] => [ (2, 9) | ]\n"
        "r(x:int) [ (1, x) | ] => [ (1, x # red) | ]")


@pytest.mark.parametrize("backend, expected", [
    ("chain", "[ (0, 9) (1, 1) (2, 2 # red) | ]"),
    ("index_scan", "[ (0, 9 # red) (1, 1) (2, 2) | ]"),
])
def test_a_clean_try_guard_runs_as_it_would_unguarded(backend, expected):
    # dn fails only before changing the graph, so try opens no frame for
    # it: the node it deletes is freed at once, and the index scan finds
    # the node created in its slot first
    for main in ("Main = try dn; r", "Main = dn; r"):
        out = _exec_text(f"{main}\n{DN_R}", "[ (0, 1) (1, 2) (2, 3) | ]", backend=backend)
        assert out.output == expected


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


# -- the generated main -------------------------------------------------------------


DEEP_RULES = ("r(x:list) [ (1, x) | ] => [ (1, x # grey) | ]\n"
              "del(x:list) [ (1, x) | ] => [ | ]")
DEEP_HOST = "[ (0, 1) (1, 2) (2, 3) | ]"


def _nested(times, wrap, inner):
    for _ in range(times):
        inner = wrap(inner)
    return inner


@pytest.mark.parametrize("backend", ["chain", "index_scan"])
@pytest.mark.parametrize("main, expected", [
    (_nested(400, "if {} then skip else skip".format, "r"), DEEP_HOST),
    (_nested(400, "try {} then skip".format, "r"), "[ (0, 1) (1, 2) (2, 3 # grey) | ]"),
    (_nested(300, "({}; break)!".format, "del"), "[ (0, 1) (1, 2) | ]"),
    ("; ".join(["skip"] * 3000), DEEP_HOST),
])
def test_deep_programs_build_and_run(backend, main, expected):
    # deeper than CPython nests blocks or indents in one function
    start = time.perf_counter()
    run = Executable(parse_program(f"Main = {main}\n{DEEP_RULES}"), ExecConfig(backend=backend))
    assert time.perf_counter() - start <= 1.0
    out = run.run_text(DEEP_HOST)
    assert (out.status, out.output) == ("success", expected)


@pytest.mark.parametrize("main, status, printed", [
    ("P16", "fail", "[ (0, 1 # grey) (1, 2 # grey) (2, 3 # grey) | ]"),
    ("(P16; break)!", "success", DEEP_HOST),      # the failed body is undone
])
def test_a_shared_procedure_is_built_and_written_once(main, status, printed):
    # P16 makes 65,536 rule-set calls; textio shares each Pi between the
    # two calls in P(i + 1), and the build and the source follow suit
    procedures = "".join(f"P{i} = P{i - 1}; P{i - 1}\n" for i in range(1, 17))
    start = time.perf_counter()
    run = Executable(parse_program(f"Main = {main}\nP0 = r\n{procedures}{DEEP_RULES}"),
                     ExecConfig())
    assert time.perf_counter() - start <= 1.0
    assert len(linecache.getlines(run._run.__code__.co_filename)) <= 10 * 16
    out = run.run_text(DEEP_HOST)
    assert (out.status, print_graph(out.graph)) == (status, printed)


SET_AR = ("a(x:list) [ (1, x # red) | ] => [ | ]\n"
          "r(n:int) [ (1, n) | ] => [ (1, n / 0) | ]\n"
          "grow(n:int) [ (1, n) | ] => [ (1, n) (2, n) | ]")


@pytest.mark.parametrize("main", ["{a, r}", "(grow; {a, r})!"])
def test_a_rule_set_error_names_the_rule_that_raised_it(main):
    run = Executable(parse_program(f"Main = {main}\n{SET_AR}"), ExecConfig())
    assert ("open_frame(g)\n" in inspect.getsource(run._run)) == (main != "{a, r}")
    g = parse_host_graph("[ (0, 1) | ]")
    with pytest.raises(EvalError, match="^in rule 'r': division by zero$"):
        run.run(g)
    assert g.journal is None


def test_generated_main_of_gen_tree_and_is_discrete():
    # one while for (gen!; ret; step!)!, its body framed up to ret, its
    # last part that may fail, and one frame on is_discrete, for its if
    # guard and not for del!
    bind = ("        open_frame, commit_frame, undo_frame = "
            "stack.open_frame, stack.commit_frame, stack.undo_frame\n")
    assert inspect.getsource(executable("gen_tree")._run) == (
        "    def main(g, stack):\n" + bind +
        "        if not s0(g): return 1  # init\n"
        "        while True:\n"
        "            open_frame(g)\n"
        "            while s1(g): pass  # gen\n"
        "            if not s2(g): undo_frame(g); break  # ret\n"
        "            commit_frame(g)\n"
        "            while s3(g): pass  # step\n"
        "        if not s4(g): return 1  # finish\n"
        "        return 0\n")
    assert inspect.getsource(executable("is_discrete")._run) == (
        "    def main(g, stack):\n" + bind +
        "        while s0(g): pass  # del\n"
        "        open_frame(g)\n"
        "        if s1(g):  # node\n"
        "            undo_frame(g)\n"
        "            return 1\n"
        "        else:\n"
        "            undo_frame(g)\n"
        "            pass\n"
        "        return 0\n")


def test_the_same_main_reuses_its_source_entry():
    text = corpus.load_program("is_bin_dag")
    first = Executable(parse_program(text), ExecConfig())._run.__code__.co_filename
    entries = len(linecache.cache)
    again = Executable(parse_program(text), ExecConfig())._run.__code__.co_filename
    assert again == first and len(linecache.cache) == entries
    assert first.startswith("<gp2 main")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExecConfig(backend="weird")
    with pytest.raises(ConfigError):
        ExecConfig(root_mode="weird")
    ExecConfig(minimal_gc=True)


@pytest.mark.parametrize("minimal_gc", [False, True])
def test_executable_run_takes_the_gc_policy_from_its_config(minimal_gc):
    cfg = ExecConfig(minimal_gc=minimal_gc)
    g = bench.gen_discrete(5)
    assert executable("is_discrete", cfg).run(g) == OK and g.node_count == 0
    assert len(g.free_nodes) == (0 if minimal_gc else 5)


def _outputs_for_all_configs(name, host_text):
    outs = []
    for backend in ("chain", "index_scan"):
        for minimal_gc in (False, True):
            cfg = ExecConfig(backend=backend, minimal_gc=minimal_gc)
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
