import pytest

from gp2 import bench, corpus
from gp2.engine import OK, ExecConfig, Executable
from gp2.oracles import graphs_isomorphic
from gp2.textio import parse_host_graph, parse_program, print_graph
from helpers import executable


def counts(g):
    return g.node_count, g.edge_count


def test_generator_closed_forms():
    assert counts(bench.gen_discrete(1)) == (1, 0)
    assert counts(bench.gen_discrete(500)) == (500, 0)
    assert counts(bench.gen_full_binary_tree(13)) == (8191, 8190)
    for d in (1, 2, 5):
        assert counts(bench.gen_full_binary_tree(d)) == (2 ** d - 1, 2 ** d - 2)
    assert counts(bench.gen_grid(3, 3)) == (9, 12)
    for w, h in ((1, 1), (2, 5), (7, 3)):
        assert counts(bench.gen_grid(w, h)) == (w * h, 2 * w * h - w - h)
    for n in (1, 2, 9):
        assert counts(bench.gen_linked_list(n)) == (n, n - 1)
        assert counts(bench.gen_star(n)) == (n, n - 1)


def test_star_alternates_directions():
    g = bench.gen_star(9)
    centre = max(g.nodes(), key=lambda n: n.indegree + n.outdegree)
    assert centre.outdegree == 4 and centre.indegree == 4


def test_sierpinski_counts_follow_recurrence():
    nodes, edges = 3, 3
    for level in range(1, 5):
        assert counts(bench.gen_sierpinski(level)) == (nodes, edges)
        nodes += 3 ** level
        edges += 2 * 3 ** level


def _engine_output(name, seed):
    out = executable(name).run_text(f"[ (0 (R), {seed}) | ]")
    assert out.status == "success", (name, seed, out.diagnostic)
    return parse_host_graph(out.output)


def test_sierpinski_generator_matches_engine_exactly():
    for level in (1, 2, 3, 4):
        direct = bench.gen_sierpinski(level)
        via_engine = _engine_output("gen_sierpinski", level - 1)
        assert graphs_isomorphic(direct, via_engine), level


def test_generators_match_engine_up_to_labels():
    for n in (1, 2, 3, 7):
        assert graphs_isomorphic(bench.gen_discrete(n),
                                 _engine_output("gen_discrete", n),
                                 ignore_labels=True), n
    for depth in (1, 2, 3, 4):
        assert graphs_isomorphic(bench.gen_full_binary_tree(depth),
                                 _engine_output("gen_tree", depth - 1),
                                 ignore_labels=True), depth
    for n in (1, 2, 3, 8, 9):
        assert graphs_isomorphic(bench.gen_star(n),
                                 _engine_output("gen_star", n),
                                 ignore_labels=True), n


def test_parse_spec():
    assert bench.parse_spec("grid:3x4") == bench.GeneratorSpec("grid", (3, 4))
    assert bench.parse_spec("discrete:100") == bench.GeneratorSpec("discrete", (100,))


@pytest.mark.parametrize("text, message", [
    ("discrete", "generator spec needs parameters: 'discrete'"),
    ("discrete:x", "bad generator parameters in 'discrete:x'"),
    ("blob:3", "unknown graph kind 'blob'"),
    ("grid:3", "grid takes 2 parameter(s)"),
    ("discrete:0", "generator parameters must be positive: 'discrete:0'"),
], ids=["spec-without-parameters", "spec-with-bad-parameters", "unknown-kind",
        "grid-with-one-parameter", "zero-parameter"])
def test_parse_spec_error(text, message):
    with pytest.raises(bench.BenchError) as error:
        bench.parse_spec(text)
    assert str(error.value) == message


@pytest.mark.parametrize("spec", ["tree:40", "sierpinski:100000000"])
def test_a_spec_too_large_is_refused_before_it_is_built(spec):
    with pytest.raises(bench.BenchError) as error:
        bench.generate(bench.parse_spec(spec))
    assert str(error.value) == "refusing to generate more than 50000000 nodes"


def test_doubling_ratios_and_classification():
    linear = [(100, 10.0), (200, 20.0), (400, 41.0)]
    ratios = bench.doubling_ratios(linear)
    assert [n for n, _ in ratios] == [100, 200]
    assert bench.classify([r for _, r in ratios]) == "~linear"

    quadratic = [(100, 10.0), (200, 40.0), (400, 160.0)]
    ratios = bench.doubling_ratios(quadratic)
    assert bench.classify([r for _, r in ratios]) == "~quadratic"

    assert bench.classify([2.0, 4.0]) == "other"

    with pytest.raises(bench.BenchError):
        bench.doubling_ratios([(100, 1.0)])
    with pytest.raises(bench.BenchError):
        bench.doubling_ratios([(100, 1.0), (150, 2.0)])


def test_reference_slowdown_sits_in_quadratic_band():
    # a 10k -> 20k step that took 128.14ms -> 460.44ms
    ratios = bench.doubling_ratios([(10000, 128.14), (20000, 460.44)])
    (n, r), = ratios
    assert n == 10000
    assert abs(r - 3.593) < 0.01
    assert bench.classify([r]) == "~quadratic"


def _iter_steps(program, graphs, backend):
    """(node count, graph.iter_steps) of one run per host graph."""
    executable = Executable(parse_program(corpus.load_program(program)),
                            ExecConfig(backend=backend))
    points = []
    for g in graphs:
        nodes = g.node_count
        assert executable.run(g) == OK
        points.append((nodes, g.iter_steps))
    return points


@pytest.mark.parametrize("program, graphs", [
    ("is_discrete", lambda: [bench.gen_discrete(n) for n in (1000, 2000, 4000)]),
    ("is_bin_dag", lambda: [bench.gen_full_binary_tree(d) for d in (9, 10, 11)]),
])
def test_iteration_step_counts_grow_linearly_on_chains_quadratically_on_scans(
        program, graphs):
    for backend, expected in (("chain", "~linear"), ("index_scan", "~quadratic")):
        points = _iter_steps(program, graphs(), backend)
        ratios = [r for _, r in bench.doubling_ratios(points)]
        assert bench.classify(ratios) == expected, (backend, points)


def _seeds(*seeds):
    return lambda: [parse_host_graph(f"[ (0 (R), {seed}) | ]") for seed in seeds]


def _candidates(program, graphs, backend="chain"):
    """(size, graph.candidates, graph.iter_steps) of one run per host
    graph, each counter read before and after the run.  The size is the
    node count of the host or of the result, whichever is larger, so
    that generators and recognisers both scale with it."""
    executable = Executable(parse_program(corpus.load_program(program)),
                            ExecConfig(backend=backend))
    points = []
    for g in graphs:
        nodes, candidates, steps = g.node_count, g.candidates, g.iter_steps
        assert executable.run(g) == OK
        points.append((max(nodes, g.node_count), g.candidates - candidates,
                       g.iter_steps - steps))
    return points


def _discretes():
    return [bench.gen_discrete(n) for n in (1000, 2000, 4000)]


def _trees():
    return [bench.gen_full_binary_tree(d) for d in (9, 10, 11)]


def _grids():
    return [bench.gen_grid(w, w) for w in (16, 23, 32)]


def _lists():
    return [bench.gen_linked_list(n) for n in (250, 500, 1000)]


# (program, hosts, backend, candidates, iter_steps, growth of the candidates)
COUNTER_ROWS = [
    ("gen_tree", _seeds(8, 9, 10), "chain", (5868, 11756, 23532), (0, 0, 0), "~linear"),
    ("gen_star", _seeds(1000, 2000, 4000), "chain", (1502, 3002, 6002), (0, 0, 0), "~linear"),
    ("gen_discrete", _seeds(1000, 2000, 4000), "chain", (4003, 8003, 16003), (0, 0, 0),
     "~linear"),
    # one candidate per deleted node; the index scan walks the holes
    # left of the first live slot on every call
    ("is_discrete", _discretes, "chain", (1000, 2000, 4000), (1000, 2000, 4000), "~linear"),
    ("is_discrete", _discretes, "index_scan", (1000, 2000, 4000), (502500, 2005000, 8010000),
     "~linear"),
    ("is_tree", _trees, "chain", (4041, 8131, 16317), (6, 6, 6), "~linear"),
    ("is_tree", _trees, "index_scan", (4041, 8131, 16317), (2556, 5116, 10236), "~linear"),
    ("is_con", _trees, "chain", (4857, 9722, 19451), (512, 1024, 2048), "~linear"),
    ("is_con", _trees, "index_scan", (4857, 9722, 19451), (512, 1024, 2048), "~linear"),
    ("is_con", _grids, "chain", (3094, 6472, 12590), (257, 530, 1025), "~linear"),
    ("is_con", _grids, "index_scan", (3094, 6472, 12590), (257, 530, 1025), "~linear"),
    ("is_bin_dag", _trees, "chain", (6123, 12267, 24555), (256, 512, 1024), "~linear"),
    ("is_bin_dag", _trees, "index_scan", (6123, 12267, 24555), (33407, 132351, 526847),
     "~linear"),
    # par never matches and scans every node per call, as the program demands
    ("is_series_par", _lists, "chain", (32123, 126748, 503498), (31625, 125750, 501500),
     "~quadratic"),
    ("is_series_par", _lists, "index_scan", (32123, 126748, 503498),
     (62999, 250999, 1001999), "~quadratic"),
]

# the index-scan candidates of each (program, hosts)
INDEX_SCAN_CANDIDATES = {
    (program, hosts): candidates
    for program, hosts, backend, candidates, _, _ in COUNTER_ROWS if backend == "index_scan"}


@pytest.mark.parametrize(
    "program, hosts, backend, candidates, iter_steps, growth", COUNTER_ROWS,
    ids=["gen_tree", "gen_star", "gen_discrete", "is_discrete-discretes-chain",
         "is_discrete-discretes-index_scan", "is_tree-trees-chain",
         "is_tree-trees-index_scan", "is_con-trees-chain", "is_con-trees-index_scan",
         "is_con-grids-chain", "is_con-grids-index_scan", "is_bin_dag-trees-chain",
         "is_bin_dag-trees-index_scan", "is_series_par-lists-chain",
         "is_series_par-lists-index_scan"])
def test_examined_candidates_grow_linearly(
        program, hosts, backend, candidates, iter_steps, growth):
    points = _candidates(program, hosts(), backend)
    assert tuple(c for _, c, _ in points) == candidates
    assert tuple(s for _, _, s in points) == iter_steps
    # both backends visit the live nodes oldest first, so on these runs
    # they examine the same candidates
    assert candidates == INDEX_SCAN_CANDIDATES.get((program, hosts), candidates)
    ratios = bench.doubling_ratios([(n, c) for n, c, _ in points])
    assert bench.classify([r for _, r in ratios]) == growth


def _output(program, host_text, backend):
    out = executable(program, ExecConfig(backend=backend)).run_text(host_text)
    assert out.status == "success", (program, backend, out.diagnostic)
    return out.output


def test_backends_print_the_same_bytes_at_bench_sizes():
    seed = "[ (0 (R), 6) | ]"
    sierpinski = _output("gen_sierpinski", seed, "chain")
    assert sierpinski == _output("gen_sierpinski", seed, "index_scan")
    assert graphs_isomorphic(parse_host_graph(sierpinski), bench.gen_sierpinski(7))
    grid = print_graph(bench.gen_grid(32, 32))
    assert _output("is_con", grid, "chain") == _output("is_con", grid, "index_scan")
