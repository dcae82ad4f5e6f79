import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from conftest import assert_same_problem

from qsdp.graphs import (
    GraphSpec,
    chromatic_number,
    chsh_exclusivity_events,
    cycle_graph,
    exclusivity_graph,
    independence_number,
    lovasz_theta,
    parse_graph,
    weighted_theta,
)
from qsdp.modeling import MatExpr, Model

ROOT5 = np.sqrt(5.0)


def complete_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset((u, v) for u, v in combinations(range(n), 2)))


def empty_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset())


def write_graph(g: GraphSpec) -> str:
    lines = [str(g.n)]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    if g.weights is not None:
        for i, w in enumerate(g.weights):
            lines.append(f"w {i} {w}")
    return "\n".join(lines) + "\n"


def odd_cycle_theta(n: int) -> float:
    # closed form for odd cycles: n cos(pi/n) / (1 + cos(pi/n))
    c = np.cos(np.pi / n)
    return n * c / (1 + c)


def dense_theta_model(g: GraphSpec) -> Model:
    """The eigenvalue form built with one dense indicator matrix per edge:
    the reference for ``lovasz_theta``'s sparse build."""
    model = Model()
    lam = model.declare(1, structure="symmetric", name="lam")
    edges = sorted(g.edges)
    t = model.declare(max(len(edges), 1), 1, structure="full", name="edge_cells")
    base = np.ones((g.n, g.n))
    terms = {}
    for k, (u, v) in enumerate(edges):
        base[u, v] = base[v, u] = 0.0
        ind = np.zeros((g.n, g.n))
        ind[u, v] = ind[v, u] = 1.0
        terms[t.decl.offset + k] = ind
    if not edges:
        terms[t.decl.offset] = np.zeros((g.n, g.n))
    model.add_lmi(MatExpr((g.n, g.n), terms={lam.decl.offset: np.eye(g.n)}) - MatExpr((g.n, g.n), base, terms))
    if not edges:
        model.add_equality(t.expr().entry(0, 0), 0.0)
    model.minimize(lam.entry(0, 0))
    return model


def dense_weighted_theta_model(g: GraphSpec) -> Model:
    """The Gram form with one dense indicator matrix per free cell."""
    w = np.asarray(g.weights)
    cells = [(i, j) for i in range(g.n) for j in range(i, g.n) if i == j or not g.adjacent(i, j)]
    model = Model()
    var = model.declare(len(cells), 1, structure="full", name="cells")
    terms = {}
    for k, (i, j) in enumerate(cells):
        ind = np.zeros((g.n, g.n))
        ind[i, j] = ind[j, i] = 1.0
        terms[var.decl.offset + k] = ind
    b_expr = MatExpr((g.n, g.n), terms=terms)
    model.add_lmi(b_expr)
    model.add_equality(b_expr.trace(), 1.0)
    model.maximize(b_expr.frobenius_with(np.outer(np.sqrt(w), np.sqrt(w))))
    return model


def random_graph(n, seed, p=0.4, weights=None):
    rng = np.random.default_rng(seed)
    return GraphSpec(n, frozenset((u, v) for u, v in combinations(range(n), 2) if rng.random() < p), weights)


SPARSE_BUILD_GRAPHS = {
    "C5": cycle_graph(5),
    "C7": cycle_graph(7),
    "random9": random_graph(9, 3),
    "empty4": empty_graph(4),
    "complete4": complete_graph(4),
}


class TestSparseBuild:
    """lovasz_theta and weighted_theta compile the same bits as the dense builds."""

    @pytest.mark.parametrize("name", sorted(SPARSE_BUILD_GRAPHS))
    def test_theta(self, name):
        g = SPARSE_BUILD_GRAPHS[name]
        want = dense_theta_model(g).compile().problem
        assert_same_problem(lovasz_theta(g)[2].compiled.problem, want)

    @pytest.mark.parametrize("name", sorted(SPARSE_BUILD_GRAPHS))
    def test_weighted_theta(self, name):
        g = SPARSE_BUILD_GRAPHS[name]
        g = GraphSpec(g.n, g.edges, tuple(np.random.default_rng(g.n).uniform(0.5, 2.0, g.n)))
        want = dense_weighted_theta_model(g).compile().problem
        assert_same_problem(weighted_theta(g)[1].compiled.problem, want)

    def test_theta_returns_x_at_the_solution(self):
        value, x_mat, res = lovasz_theta(cycle_graph(7))
        t = res.values["edge_cells"][:, 0]
        want = np.ones((7, 7))
        for k, (u, v) in enumerate(sorted(cycle_graph(7).edges)):
            want[u, v] = want[v, u] = t[k]
        assert np.array_equal(x_mat, want)

    def test_cycle_100_allocates_little(self):
        """A dense indicator per edge held 100 matrices of 100 x 100 and
        peaked at ~24 MiB."""
        tracemalloc.start()
        try:
            value, _, _ = lovasz_theta(cycle_graph(100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(50.0, abs=1e-6)
        assert peak <= 12 * 2**20


class TestGraphSpec:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            GraphSpec(3, frozenset({(1, 1)}))

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            GraphSpec(2, frozenset({(0, 1)}), weights=(1.0, 0.0))

    def test_combinatorial_references(self):
        c5 = cycle_graph(5)
        assert independence_number(c5) == 2
        assert chromatic_number(c5) == 3
        assert independence_number(complete_graph(4)) == 1
        assert chromatic_number(complete_graph(4)) == 4
        assert independence_number(empty_graph(4)) == 4


class TestTheta:
    def test_c5_sqrt5(self):
        value, x_mat, res = lovasz_theta(cycle_graph(5))
        assert res.success
        assert value == pytest.approx(odd_cycle_theta(5), abs=1e-6)
        assert value == pytest.approx(ROOT5, abs=1e-6)
        # the certificate matrix realizes the bound: lambda I - X is PSD
        assert np.linalg.eigvalsh(value * np.eye(5) - x_mat)[0] > -1e-7

    def test_c7_closed_form(self):
        value, _, _ = lovasz_theta(cycle_graph(7))
        assert value == pytest.approx(odd_cycle_theta(7), abs=1e-6)

    def test_complete_and_empty(self):
        assert lovasz_theta(complete_graph(4))[0] == pytest.approx(1.0, abs=1e-6)
        assert lovasz_theta(empty_graph(4))[0] == pytest.approx(4.0, abs=1e-6)

    def test_sandwich_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(4):
            n = 7
            edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.4}
            g = GraphSpec(n, frozenset(edges))
            theta, _, _ = lovasz_theta(g)
            assert independence_number(g) <= theta + 1e-6
            assert theta <= chromatic_number(g.complement()) + 1e-6

    def test_capacity_data_c5(self):
        # alpha(C5) = 2 and alpha(C5 boxtimes C5) = 5, so sqrt(5) <= Theta(C5) <= theta(C5)
        c5 = cycle_graph(5)
        assert independence_number(c5) == 2

        def strong_adjacent(p, q):
            (x1, y1), (x2, y2) = p, q
            ax = c5.adjacent(x1, x2) or x1 == x2
            ay = c5.adjacent(y1, y2) or y1 == y2
            return ax and ay and p != q

        vertices = [(i, j) for i in range(5) for j in range(5)]
        witness = [(i, (2 * i) % 5) for i in range(5)]
        assert all(not strong_adjacent(p, q) for p, q in combinations(witness, 2))
        forbidden = True
        for subset in combinations(range(25), 6):
            pts = [vertices[i] for i in subset]
            if all(not strong_adjacent(p, q) for p, q in combinations(pts, 2)):
                forbidden = False
                break
        assert forbidden  # no independent set of size 6 in C5 (x) C5
        theta, _, _ = lovasz_theta(c5)
        assert np.sqrt(5.0) <= theta + 1e-6


class TestWeightedTheta:
    def test_unit_weights_match_plain(self):
        g = cycle_graph(5)
        gw = GraphSpec(5, g.edges, weights=(1.0,) * 5)
        plain, _, _ = lovasz_theta(g)
        weighted, _ = weighted_theta(gw)
        assert weighted == pytest.approx(plain, abs=1e-7)

    def test_homogeneous_in_weights(self):
        g = cycle_graph(5)
        w1 = GraphSpec(5, g.edges, weights=(1.0, 2.0, 0.5, 1.5, 1.0))
        w3 = GraphSpec(5, g.edges, weights=tuple(3.0 * np.array(w1.weights)))
        v1, _ = weighted_theta(w1)
        v3, _ = weighted_theta(w3)
        assert v3 == pytest.approx(3.0 * v1, abs=1e-5)

    def test_requires_weights(self):
        with pytest.raises(ValueError):
            weighted_theta(cycle_graph(5))


class TestExclusivity:
    def test_chsh_graph_structure(self):
        g = exclusivity_graph(chsh_exclusivity_events())
        assert g.n == 8
        assert all(g.degree(v) == 3 for v in range(8))

    def test_chsh_graph_theta(self):
        g = exclusivity_graph(chsh_exclusivity_events())
        value, _, _ = lovasz_theta(g)
        assert value == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-4)
        gw = GraphSpec(g.n, g.edges, weights=(1.0,) * 8)
        wvalue, _ = weighted_theta(gw)
        assert wvalue == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-4)

    def test_unshared_test_no_edge(self):
        events = [{("x", 0): 0}, {("y", 0): 1}]
        g = exclusivity_graph(events)
        assert len(g.edges) == 0

    def test_identical_events_rejected(self):
        with pytest.raises(ValueError):
            exclusivity_graph([{("x", 0): 0}, {("x", 0): 0}])


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = GraphSpec(5, cycle_graph(5).edges, weights=(1.0, 2.0, 3.0, 4.0, 5.0))
        g2 = parse_graph(write_graph(g))
        assert g2.n == g.n
        assert g2.edges == g.edges
        assert g2.weights == g.weights

    def test_parse_plain(self):
        g = parse_graph("3\n0 1\n1 2\n")
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.weights is None

    def test_weight_of_missing_vertex_rejected(self):
        with pytest.raises(ValueError, match="'w 7 2.5'"):
            parse_graph("3\n0 1\nw 7 2.5\n")

    @pytest.mark.parametrize("line", ["1", "0 1 2", "w 1", "w 1 2.0 3"])
    def test_wrong_field_count_rejected(self, line):
        with pytest.raises(ValueError, match=repr(line)):
            parse_graph(f"3\n0 1\n{line}\n")
