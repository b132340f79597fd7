"""Host-graph generators and complexity-ratio analysis.

A generator spec ``KIND:N`` (discrete, tree, list, star, sierpinski) or
``grid:WxH`` names one generated host.  ``doubling_ratios`` and
``classify`` sort the growth of a measure over sizes that double into
linear, quadratic or other, by the two bands below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

LINEAR_BAND = (1.4, 2.6)
QUADRATIC_BAND = (3.2, 5.0)


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: tuple[int, ...]


def parse_spec(text: str) -> GeneratorSpec:
    kind, _, rest = text.strip().partition(":")
    if not rest:
        raise BenchError(f"generator spec needs parameters: {text!r}")
    try:
        params = tuple(int(p) for p in rest.split("x"))
    except ValueError:
        raise BenchError(f"bad generator parameters in {text!r}")
    if kind not in _GENERATORS:
        raise BenchError(f"unknown graph kind {kind!r}")
    if any(p <= 0 for p in params):
        raise BenchError(f"generator parameters must be positive: {text!r}")
    expected = 2 if kind == "grid" else 1
    if len(params) != expected:
        raise BenchError(f"{kind} takes {expected} parameter(s)")
    return GeneratorSpec(kind, params)


MAX_GENERATED_NODES = 50_000_000


def _check_size(base: int, exponent: int = 1) -> None:
    """Refuse more than MAX_GENERATED_NODES nodes, counted as ``base **
    exponent``; an exponent too large for any base above 1 is refused
    before the power is computed."""
    if exponent > MAX_GENERATED_NODES.bit_length() or base ** exponent > MAX_GENERATED_NODES:
        raise BenchError(f"refusing to generate more than {MAX_GENERATED_NODES} nodes")


def gen_discrete(n: int) -> Graph:
    _check_size(n)
    g = Graph()
    for _ in range(n):
        g.add_node()
    return g


def gen_full_binary_tree(depth: int) -> Graph:
    """Full binary tree with ``depth`` levels: 2**depth - 1 nodes with
    edges parent -> child.  Deepest level is laid out first so the slot
    order starts at the leaves while the chain starts at the top."""
    _check_size(2, depth)
    g = Graph()
    levels = []
    for d in range(depth - 1, -1, -1):
        levels.append([g.add_node() for _ in range(2 ** d)])
    for upper, lower in zip(levels[1:], levels[:-1]):
        for i, parent in enumerate(upper):
            g.add_edge(parent, lower[2 * i])
            g.add_edge(parent, lower[2 * i + 1])
    return g


def gen_grid(w: int, h: int) -> Graph:
    """w*h nodes with an edge to the right and downward neighbour."""
    _check_size(w * h)
    g = Graph()
    rows = [[g.add_node() for _ in range(w)] for _ in range(h)]
    for y in range(h):
        for x in range(w):
            if x + 1 < w:
                g.add_edge(rows[y][x], rows[y][x + 1])
            if y + 1 < h:
                g.add_edge(rows[y][x], rows[y + 1][x])
    return g


def gen_linked_list(n: int) -> Graph:
    _check_size(n)
    g = Graph()
    nodes = [g.add_node() for _ in range(n)]
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b)
    return g


def gen_star(n: int) -> Graph:
    """One centre plus n-1 spokes of alternating direction."""
    _check_size(n)
    g = Graph()
    centre = g.add_node()
    for i in range(n - 1):
        leaf = g.add_node()
        if i % 2 == 0:
            g.add_edge(centre, leaf)
        else:
            g.add_edge(leaf, centre)
    return g


def gen_sierpinski(level: int) -> Graph:
    """Sierpinski triangle of the given order, matching the engine's
    generator output including labels: level 1 is a single triangle and
    each following level splits every smallest triangle into three.

    A triangle is (apex, corner0, corner1) with edges apex-0->corner0,
    apex-1->corner1, corner0-2->corner1.
    """
    _check_size(3, level)
    g = Graph()
    apex = g.add_node(label=(1,))
    c0 = g.add_node(label=(0,))
    c1 = g.add_node(label=(0,))
    g.add_edge(apex, c0, label=(0,))
    g.add_edge(apex, c1, label=(1,))
    g.add_edge(c0, c1, label=(2,))
    triangles = [(apex, c0, c1)]
    for generation in range(1, level):
        next_triangles = []
        for apex, p, q in triangles:
            g.relabel_node(apex, (generation + 1,))
            mid_p = g.add_node(label=(generation + 1,))
            mid_q = g.add_node(label=(generation + 1,))
            corner = g.add_node(label=(0,))
            for edge in list(g.out_edges(apex)):
                if edge.target in (p, q):
                    g.delete_edge(edge)
            for edge in list(g.out_edges(p)):
                if edge.target is q:
                    g.delete_edge(edge)
            g.add_edge(apex, mid_p, label=(0,))
            g.add_edge(apex, mid_q, label=(1,))
            g.add_edge(mid_p, mid_q, label=(2,))
            g.add_edge(mid_q, corner, label=(0,))
            g.add_edge(mid_q, q, label=(1,))
            g.add_edge(corner, q, label=(2,))
            g.add_edge(mid_p, p, label=(0,))
            g.add_edge(mid_p, corner, label=(1,))
            g.add_edge(p, corner, label=(2,))
            next_triangles.append((apex, mid_p, mid_q))
            next_triangles.append((mid_q, corner, q))
            next_triangles.append((mid_p, p, corner))
        triangles = next_triangles
    return g


_GENERATORS = {
    "discrete": gen_discrete,
    "tree": gen_full_binary_tree,
    "grid": gen_grid,
    "list": gen_linked_list,
    "star": gen_star,
    "sierpinski": gen_sierpinski,
}


def generate(spec: GeneratorSpec) -> Graph:
    return _GENERATORS[spec.kind](*spec.params)


# -- ratio analysis ----------------------------------------------------------


def doubling_ratios(sizes_and_times: list[tuple[int, float]],
                    tolerance: float = 0.2) -> list[tuple[int, float]]:
    """Ratios t(2N)/t(N) over consecutive samples whose sizes roughly
    double; each ratio is keyed by the smaller size N."""
    if len(sizes_and_times) < 2:
        raise BenchError("need at least two sizes in a doubling progression")
    out = []
    ordered = sorted(sizes_and_times)
    for (n1, t1), (n2, t2) in zip(ordered, ordered[1:]):
        if not (2 * n1 * (1 - tolerance) <= n2 <= 2 * n1 * (1 + tolerance)):
            raise BenchError(f"sizes {n1} and {n2} are not a doubling step")
        out.append((n1, t2 / t1 if t1 > 0 else float("inf")))
    return out


def classify(ratios: list[float]) -> str:
    if all(LINEAR_BAND[0] <= r <= LINEAR_BAND[1] for r in ratios):
        return "~linear"
    if all(QUADRATIC_BAND[0] <= r <= QUADRATIC_BAND[1] for r in ratios):
        return "~quadratic"
    return "other"
