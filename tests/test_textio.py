import functools
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gp2 import bench, corpus, textio
from gp2.engine import ExecConfig, Executable
from gp2.textio import inline_procedures
from gp2.graph import EDGE_MARKS, NODE_MARKS, Graph
from helpers import build_host, executable
from gp2.oracles import check_consistency, graphs_isomorphic
from gp2.textio import (
    SourceError,
    parse_host_graph,
    parse_program,
    parse_rule,
    print_graph,
    validate,
)


def test_single_node_empty_label():
    g = parse_host_graph("[ (0, empty) | ]")
    assert g.node_count == 1
    assert g.edge_count == 0
    assert g.nodes()[0].label == ()


def test_two_nodes_one_edge():
    g = parse_host_graph("[ (0, 1) (1, 2) | (0, 0, 1, empty) ]")
    assert g.node_count == 2
    assert g.edge_count == 1
    (edge,) = g.edges()
    assert edge.source.label == (1,)
    assert edge.target.label == (2,)


def test_marks_roots_strings_negatives():
    g = parse_host_graph('[ (0 (R), 5 # grey) (1, "hi":-3) | (0, 0, 1, 7 # dashed) ]')
    nodes = {tuple(n.label): n for n in g.nodes()}
    root = nodes[(5,)]
    assert root.is_root and root.mark == "grey"
    assert nodes[("hi", -3)].mark == "none"
    (edge,) = g.edges()
    assert edge.mark == "dashed" and edge.label == (7,)


def test_huge_node_id_costs_one_entry():
    g = parse_host_graph(f"[ ({2 ** 40}, empty) | ]")
    assert g.node_count == 1
    assert len(g.node_slots) == 1


def test_host_parse_errors():
    with pytest.raises(SourceError):
        parse_host_graph("[ (0, empty) (0, empty) | ]")        # duplicate id
    with pytest.raises(SourceError):
        parse_host_graph("[ (0, empty) | (0, 0, 1, empty) ]")  # unknown endpoint
    with pytest.raises(SourceError):
        parse_host_graph("[ (x, empty) | ]")                   # non-integer id
    with pytest.raises(SourceError):
        parse_host_graph("[ (0, 5: ) | ]")                     # malformed label
    with pytest.raises(SourceError):
        parse_host_graph("[ (0, 99999999999) | ]")             # not 32-bit
    with pytest.raises(SourceError):
        parse_host_graph("[ (-1, empty) | ]")                  # negative id
    with pytest.raises(SourceError):
        parse_host_graph("[ (0, empty # dashed) | ]")          # edge mark on node


def test_print_empty_graph():
    assert print_graph(parse_host_graph("[ | ]")) == "[ | ]"


def test_print_root_grey_node():
    assert print_graph(parse_host_graph("[ (7 (R), 5 # grey) | ]")) == \
        "[ (0 (R), 5 # grey) | ]"


def _reference_format_label(label, mark):
    if not label:
        text = "empty"
    else:
        text = ":".join(f'"{a}"' if isinstance(a, str) else str(a) for a in label)
    if mark != "none":
        text += f" # {mark}"
    return text


def _reference_print_graph(g):
    """The plain formatter: ``g.edges()``, ``is_root`` and a label
    formatted for every item."""
    parts = ["["]
    number = {}
    for i, node in enumerate(g.nodes()):
        number[id(node)] = i
        root = " (R)" if node.is_root else ""
        parts.append(f"({i}{root}, {_reference_format_label(node.label, node.mark)})")
    parts.append("|")
    for eid, edge in enumerate(g.edges()):
        parts.append(
            f"({eid}, {number[id(edge.source)]}, {number[id(edge.target)]}, "
            f"{_reference_format_label(edge.label, edge.mark)})")
    parts.append("]")
    return " ".join(parts)


def test_print_graph_agrees_with_the_reference_formatter():
    rng = random.Random(13)
    labels = [(), (0,), (-4, "zz"), ("a",), ("", 7), (1, 2, 3), ("a b",)]
    for _ in range(200):
        g = Graph()
        nodes = [g.add_node(rng.choice(labels), rng.choice(sorted(NODE_MARKS)),
                            rng.random() < 0.3) for _ in range(rng.randrange(12))]
        edges = [g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(labels),
                            rng.choice(sorted(EDGE_MARKS))) for _ in range(20 if nodes else 0)]
        for edge in rng.sample(edges, len(edges) // 4):     # holes in the edge lists
            g.delete_edge(edge)
        for node in nodes:
            if node.indegree + node.outdegree == 0 and rng.random() < 0.3:
                g.delete_node(node)
        assert print_graph(g) == _reference_print_graph(g)


# Deletes every red node without edges, leaving a hole or a free slot,
# then gives every green node a new blue neighbour, which takes the
# newest free slot (LIFO) unless the run is minimal-GC.
HOLES = """Main = cut!; grow!
cut(x:list) [ (1, x # red) | ] => [ | ]
grow(x:list) [ (1, x # green) | ] => [ (1, x) (2, x # blue) | (0, 1, 2, x) (1, 2, 1, 0) ]
"""


@functools.cache
def _holes(backend, minimal_gc):
    return Executable(parse_program(HOLES), ExecConfig(backend=backend, minimal_gc=minimal_gc))


@st.composite
def marked_hosts(draw):
    n = draw(st.integers(1, 12))
    marks = draw(st.lists(st.sampled_from(["", " # red", " # green"]), min_size=n, max_size=n))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    return "[ " + " ".join(f"({i}, {i}{mark})" for i, mark in enumerate(marks)) + " | " + \
        " ".join(f"({e}, {s}, {t}, empty)" for e, (s, t) in enumerate(ends)) + " ]"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(host="[ (0, 0 # red) (1, 1 # red) (2, 2 # green) (3, 3 # green) | (0, 3, 2, empty) ]")
@given(host=marked_hosts())
def test_streamed_pieces_join_to_the_printed_graph_after_holes_and_reuse(monkeypatch, host):
    # Edge targets are numbered by slot index; a reused slot prints first.
    monkeypatch.setattr(textio, "PRINT_CHUNK", 3)
    for backend in ("chain", "index_scan"):
        for minimal_gc in (False, True):
            g = parse_host_graph(host)
            _holes(backend, minimal_gc).run(g)
            pieces = []
            assert print_graph(g, pieces.append) is None
            assert "".join(pieces) == print_graph(g) == _reference_print_graph(g)
            items = g.node_count + g.edge_count + 3     # with the brackets and the bar
            assert len(pieces) == -(-items // 3), pieces


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_the_printed_tree_peaks_below_half_its_length():
    g = executable("gen_tree").run_text("[ (0 (R), 12) | ]").graph
    length = len(print_graph(g))
    assert g.node_count == 8191
    streamed = _peak(lambda: print_graph(g, lambda piece: None))
    joined = _peak(lambda: print_graph(g))
    # holding every item, or one string of them all, would not fit the bound
    assert streamed < length / 2 < joined, (streamed, length, joined)


def _random_host_text(rng):
    n = rng.randrange(1, 21)
    parts = ["["]
    for i in range(n):
        label = rng.choice(["empty", "1", '"a"', "2:3", '-4:"zz"'])
        mark = rng.choice(["", " # red", " # grey"])
        root = " (R)" if rng.random() < 0.2 else ""
        parts.append(f"({i}{root}, {label}{mark})")
    parts.append("|")
    for e in range(rng.randrange(0, 2 * n)):
        mark = rng.choice(["", " # dashed", " # blue"])
        parts.append(f"({e}, {rng.randrange(n)}, {rng.randrange(n)}, 9{mark})")
    parts.append("]")
    return " ".join(parts)


def test_round_trip_is_isomorphic_and_a_fixpoint():
    rng = random.Random(5)
    for _ in range(30):
        text = _random_host_text(rng)
        g = parse_host_graph(text)
        printed = print_graph(g)
        g2 = parse_host_graph(printed)
        assert graphs_isomorphic(g, g2)
        assert print_graph(parse_host_graph(print_graph(g2))) == printed


def test_round_trip_fixpoint_on_fixtures():
    for entry in corpus.ENTRIES.values():
        for fixture, _ in entry.fixtures:
            text = corpus.load_fixture(fixture)
            once = print_graph(parse_host_graph(text))
            twice = print_graph(parse_host_graph(once))
            assert once == twice


def test_all_corpus_programs_parse():
    for name in corpus.PROGRAM_NAMES:
        parse_program(corpus.load_program(name))


def test_reduction_program_ast_shape():
    parsed = parse_program(corpus.load_program("is_discrete"))
    # Main = del!; if node then fail
    assert inline_procedures(parsed) == (
        "seq",
        ("loop", ("rules", ("del",), (3, 8))),
        ("if", ("rules", ("node",), (3, 17)), ("fail",), ("skip",)))


def test_skip_program_ast():
    parsed = parse_program("Main = skip")
    assert parsed.main == ("skip",)


def test_negated_edge_condition_ast():
    rule = parse_program(corpus.load_program("trans_closure")).rules["link"]
    assert rule.condition == ("not", ("edge", 1, 3, None))


def test_condition_parsing_varieties():
    text = """
    Main = r
    r(i,n:int; x:list)
    [ (1, i) (2, n) | ] => [ (1, i) (2, n) | ]
      where i < n and outdeg(2) = 0 or not (edge(1,2) and edge(2,1))
    """
    rule = parse_program(text).rules["r"]
    assert rule.condition == (
        "or",
        ("and",
         ("rel", "<", ("var", "i"), ("var", "n")),
         ("rel", "=", ("outdeg", 2), ("int", 0))),
        ("not", ("and", ("edge", 1, 2, None), ("edge", 2, 1, None))),
    )


def test_validate_modes():
    validate("program", corpus.load_program("is_tree"))
    validate("graph", "[ (0, empty) | ]")
    validate("rule", "r(x:list)\n[ (1, x) | ] => [ (1, x) | ]")

    with pytest.raises(SourceError) as err:
        validate("program", "Main = ")
    assert err.value.kind == "syntax"
    assert err.value.line == 1

    with pytest.raises(SourceError) as err:
        validate("rule", "r(x:list)\n[ | ] => [ (1, x:y) | ]")
    assert err.value.kind == "semantic"


def test_semantic_errors():
    with pytest.raises(SourceError):     # unknown rule in a call
        parse_program("Main = nothere")
    with pytest.raises(SourceError):     # recursion
        parse_program("P = P\nMain = P")
    with pytest.raises(SourceError):     # mutual recursion
        parse_program("P = Q\nQ = P\nMain = P")
    with pytest.raises(SourceError):     # repeated Main
        parse_program("Main = skip\nMain = skip")
    with pytest.raises(SourceError):     # no Main
        parse_program("P = skip")
    with pytest.raises(SourceError):     # break outside loops
        parse_program("Main = break")
    with pytest.raises(SourceError):     # unbound RHS variable
        parse_program("Main = r\nr(x,y:list)\n[ (1, x) | ] => [ (1, y) | ]")
    with pytest.raises(SourceError):     # arithmetic on a list variable
        parse_program("Main = r\nr(x:list)\n[ (1, x) | ] => [ (1, x+1) | ]")
    with pytest.raises(SourceError):     # arithmetic in a left-hand label
        parse_program("Main = r\nr(n:int)\n[ (1, n+1) | ] => [ (1, n) | ]")
    with pytest.raises(SourceError):     # two list variables in one label
        parse_program("Main = r\nr(x,y:list)\n[ (1, x:y) | ] => [ (1, x) | ]")
    with pytest.raises(SourceError):     # condition var not bound by matching
        parse_program("Main = r\nr(x:list; n:int)\n"
                      "[ (1, x) | ] => [ (1, x) | ] where n > 0")
    with pytest.raises(SourceError):     # edge() on a node not in the LHS
        parse_program("Main = r\nr(x:list)\n"
                      "[ (1, x) | ] => [ (1, x) | ] where edge(1,3)")


def test_break_inside_loop_via_procedure_is_fine():
    parse_program("P = break\nMain = P!")


def test_rule_file_validation():
    rule = parse_rule("up(a,x,y:list)\n"
                      "[ (1 (R), x) (2, y) | (0, 2, 1, a) ] =>"
                      " [ (1, x) (2 (R), y) | (0, 2, 1, a # dashed) ]")
    assert rule.name == "up"
    assert rule.interface == [1, 2]
    with pytest.raises(SourceError):
        parse_rule("r(x:list)\n[ (1, x) | ] => [ (1, x) | ] trailing")


def test_error_positions_point_into_input():
    try:
        parse_host_graph("[ (0, empty)\n  (0, empty) | ]")
    except SourceError as err:
        assert (err.line, err.column) == (2, 4)
    else:
        raise AssertionError("expected a SourceError")


# Each error sits at a later item of a multi-line host; the items before
# it are read by patterns, and the token reader reports the error.
HOST_ERRORS_AFTER_FAST_ITEMS = [
    ('[ (0, 1)\n  (1, 2 # red)\n  (2 (R), "a")\n  (1, 3)\n|\n]',
     "semantic error at 4:4: duplicate node id: 1"),
    ("[ (0, 1)\n  (1, 2)\n|\n  (0, 0, 1, empty)\n  (1, 1, 0, 5 # dashed)\n"
     "  (2, 1, 7, empty)\n]",
     "semantic error at 6:10: edge refers to unknown node 7"),
    ('[ (0, 1)\n  (1, -2:"x")\n  (2, 3:2147483648)\n| ]',
     "semantic error at 3:9: integer does not fit 32 bits"),
    ("[ (0, 1)\n  (1, 2)\n|\n  (0, 0, 1, empty)\n  (1, 1, 0, -2147483649) ]",
     "semantic error at 5:13: integer does not fit 32 bits"),
    ("[ (0, 1)\n  (1, 2 # grey)\n  (2, 3 # dashed)\n| ]",
     "semantic error at 3:11: 'dashed' is not a valid mark here"),
    ("[ (0, 1)\n  (1, 2)\n|\n  (0, 0, 1, 1 # dashed)\n  (1, 1, 0, 1 # grey)\n]",
     "semantic error at 5:17: 'grey' is not a valid mark here"),
    ("[ (0, 1)\n  (1, 2)\n  (2,\f3)\n| ]",
     "lex error at 3:6: unexpected character '\\x0c'"),
    ("[ (0, 1)\n  (1, 2) // the second node\n  (2, 3)\n  (3 4)\n| ]",
     "syntax error at 4:6: expected ',', found 4"),
    ("[ (0, 1)\n  (1, 2)\n|\n  (0, 0, 1, empty)\n  (1, 1, 0, empty)\n",
     "syntax error at 6:1: expected ']', found end of input"),
]


@pytest.mark.parametrize("host, message", HOST_ERRORS_AFTER_FAST_ITEMS)
def test_host_errors_after_fast_items(host, message):
    assert textio._read_host_fast(host) is None     # declined, so the token reader reads it
    with pytest.raises(SourceError) as err:
        parse_host_graph(host)
    assert str(err.value) == message


# Every node and edge mark, roots, strings and negative ints.
RICH_HOST = ('[ (0 (R), "a b":-7 # red) (1, -2147483648:2147483647 # green) '
             '(2 (R), "" # blue) (3, empty # grey) (4, 5:"x") | '
             '(0, 0, 1, "e":-1 # dashed) (1, 1, 2, empty # red) (2, 2, 3, 0 # green) '
             '(3, 3, 0, 1:"y" # blue) (4, 4, 4, empty) ]')
SMALL_SPECS = ["discrete:5", "tree:3", "grid:3x2", "list:4", "star:5", "sierpinski:2"]


def test_small_specs_cover_every_generator():
    assert {bench.parse_spec(spec).kind for spec in SMALL_SPECS} == set(bench._GENERATORS)
    g = parse_host_graph(RICH_HOST)
    assert {n.mark for n in g.nodes()} == NODE_MARKS
    assert {e.mark for e in g.edges()} == EDGE_MARKS


@pytest.mark.parametrize("host", [*SMALL_SPECS, RICH_HOST])
def test_printed_hosts_are_read_without_the_token_reader(host, monkeypatch):
    g = parse_host_graph(host) if host == RICH_HOST else bench.generate(bench.parse_spec(host))
    text = print_graph(g)

    def refuse(*args):
        raise AssertionError("the token reader was used")

    monkeypatch.setattr(textio, "_Stream", refuse)
    assert print_graph(parse_host_graph(text)) == text


@pytest.mark.parametrize("host", ["[ (², empty) | ]", "[ (١, empty) | ]",
                                  "[ (0, empty) | (0, 0, ٠, empty) ]"])
def test_non_ascii_digits_are_lex_errors(host):
    with pytest.raises(SourceError) as err:
        parse_host_graph(host)
    assert err.value.kind == "lex"


def test_non_ascii_letters_are_lex_errors():
    with pytest.raises(SourceError) as err:
        parse_program("Main = ré\nré(x:list) [ (1, x) | ] => [ (1, x) | ]")
    assert err.value.kind == "lex"


def test_node_id_range_is_checked():
    assert parse_host_graph(f"[ ({2 ** 63 - 1}, empty) | ]").node_count == 1
    with pytest.raises(SourceError) as err:
        parse_host_graph(f"[ ({2 ** 63}, empty) | ]")
    assert err.value.kind == "semantic"


def test_host_ids_round_trip():
    rng = random.Random(3)
    ids = rng.sample(range(2 ** 60), 2000)
    pairs = [(rng.randrange(len(ids)), rng.randrange(len(ids))) for _ in range(3000)]
    nodes = " ".join(f"({k}, {i})" for i, k in enumerate(ids))
    edges = " ".join(f"({j}, {ids[a]}, {ids[b]}, empty)" for j, (a, b) in enumerate(pairs))
    g = parse_host_graph(f"[ {nodes} | {edges} ]")
    assert sorted(n.label for n in g.nodes()) == [(i,) for i in range(len(ids))]
    assert sorted((e.source.label[0], e.target.label[0]) for e in g.edges()) == \
        sorted(pairs)


@pytest.mark.parametrize("spec", ["discrete:5000", "tree:12", "grid:60x60"])
def test_host_parsing_holds_no_token_list(spec):
    # Reading keeps per item only what the graph is built from, so the
    # peak stays within twice what the finished graph holds.
    expected = bench.generate(bench.parse_spec(spec))
    text = print_graph(expected)
    tracemalloc.start()
    try:
        g = parse_host_graph(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.node_count, g.edge_count) == (expected.node_count, expected.edge_count)
    assert peak <= 2 * held, (peak, held)


def test_reading_a_shuffled_host_peaks_near_what_the_graph_keeps():
    # Ids declared out of order.  A dict from id to node reads 1.39x if it
    # lives while the graph adopts the records, and 1.13x if it does not.
    items = [f"({i}, empty)" for i in range(20000)]
    random.Random(8).shuffle(items)
    text = "[ " + " ".join(items) + " | ]"
    tracemalloc.start()
    try:
        g = parse_host_graph(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.node_count == 20000
    assert peak <= 1.15 * held, (peak, held)


_LAYOUT_LABELS = [((), "empty"), ((1,), "1"), (("a",), '"a"'), ((2, 3), "2:3"),
                  ((-4, "z z"), '-4:"z z"'), (("",), '""'), ((7, "(|)"), '7:"(|)"')]


def _layout_host(rng):
    """A host's items and its text: roots, every mark, string labels,
    loops and parallel edges, and node ids dense from 0 or 1, or sparse."""
    n = rng.randrange(1, 25)
    ids = rng.choice([range(n), range(1, n + 1), rng.sample(range(2 ** 40), n)])
    ids = rng.sample(list(ids), n)
    nodes, edges, items = [], [], []
    for node_id in ids:
        (label, text), mark = rng.choice(_LAYOUT_LABELS), rng.choice(sorted(NODE_MARKS))
        root = rng.random() < 0.3
        nodes.append((label, mark, root))
        items.append(f"({node_id}{' (R)' if root else ''}, {text} # {mark})")
    items.append("|")
    for eid in range(rng.randrange(3 * n)):
        if edges and rng.random() < 0.2:
            source, target = edges[-1][:2]                  # parallel
        else:
            source = rng.randrange(n)
            target = source if rng.random() < 0.2 else rng.randrange(n)
        (label, text), mark = rng.choice(_LAYOUT_LABELS), rng.choice(sorted(EDGE_MARKS))
        edges.append((source, target, label, mark))
        items.append(f"({eid}, {ids[source]}, {ids[target]}, {text} # {mark})")
    return nodes, edges, items


def _layout(g):
    """Every order the records of ``g`` are kept in, by slot index."""
    def edge(e):
        return e.source.slot_index, e.target.slot_index, e.label, e.mark, e.flags

    chain, node = [], g.node_head
    while node is not None:
        chain.append(node.slot_index)
        node = node.next
    return ([(n.label, n.mark, n.flags) for n in g.node_slots], chain,
            [n.slot_index for n in g.root_list],
            [([edge(e) for e in g.out_edges(n)], [edge(e) for e in g.in_edges(n)])
             for n in g.node_slots],
            g.node_count, g.edge_count, g.live_bytes)


@pytest.mark.parametrize("seed", range(8))
def test_a_read_host_has_the_layout_of_the_add_calls_in_reverse(seed):
    rng = random.Random(seed)
    for _ in range(12):
        nodes, edges, items = _layout_host(rng)
        expected = _layout(build_host(nodes, edges))
        bar = len(nodes)
        # Each text, and whether the fast reader reads it; a comment makes
        # it decline, and the token reader reads the text from the top.
        readings = {"fast": ("[ " + " ".join(items) + " ]", True),
                    "nodes": ("[ " + " ".join(items[:bar - 1]) + " // a comment\n "
                              + " ".join(items[bar - 1:]) + " ]", False)}
        if edges:
            readings["edges"] = ("[ " + " ".join(items[:-1]) + " // a comment\n "
                                 + items[-1] + " ]", False)
        for text, fast in readings.values():
            assert (textio._read_host_fast(text) is not None) == fast
            for g in parse_host_graph(text), textio._read_host_tokens(textio._Stream(text)):
                check_consistency(g)
                assert _layout(g) == expected
