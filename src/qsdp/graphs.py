"""Lovász theta, weighted theta, and exclusivity graphs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .modeling import Model, _symmetric_expr


@dataclass(frozen=True)
class GraphSpec:
    n: int
    edges: frozenset
    weights: tuple | None = None

    def __post_init__(self):
        edges = frozenset((min(u, v), max(u, v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != self.n:
                raise ValueError("need one weight per vertex")
            if any(x <= 0 for x in w):
                raise ValueError("vertex weights must be positive")
            object.__setattr__(self, "weights", w)

    def adjacent(self, u, v) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def complement(self) -> "GraphSpec":
        comp = {(u, v) for u, v in combinations(range(self.n), 2) if not self.adjacent(u, v)}
        return GraphSpec(self.n, frozenset(comp), self.weights)

    def degree(self, v) -> int:
        return sum(1 for e in self.edges if v in e)


def cycle_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset((u, v) for u, v in combinations(range(n), 2)))


def empty_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset())


# ---------------------------------------------------------------------------
# exact combinatorial references (small graphs only)


def independence_number(g: GraphSpec) -> int:
    for size in range(g.n, 0, -1):
        subsets = combinations(range(g.n), size)
        if any(all(not g.adjacent(u, v) for u, v in combinations(subset, 2)) for subset in subsets):
            return size
    return 0


def chromatic_number(g: GraphSpec) -> int:
    """Exact chromatic number by backtracking; fine up to ~10 vertices."""
    order = sorted(range(g.n), key=g.degree, reverse=True)

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def assign(pos: int) -> bool:
            if pos == g.n:
                return True
            v = order[pos]
            used = {colors[u] for u in range(g.n) if colors[u] >= 0 and g.adjacent(u, v)}
            for c in range(k):
                if c not in used:
                    colors[v] = c
                    if assign(pos + 1):
                        return True
                    colors[v] = -1
                if c > max(colors, default=-1):
                    break  # symmetry: first use of a fresh color only once
            return False

        return assign(0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    return g.n


# ---------------------------------------------------------------------------
# theta


def lovasz_theta(g: GraphSpec, cfg=None):
    """Eigenvalue form: minimize lambda with X fixed to 1 on the diagonal and
    on non-adjacent pairs, lambda I - X PSD."""
    model = Model()
    lam = model.declare(1, structure="symmetric", name="lam")
    edges = np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2).T
    ones = np.array([(i, j) for i in range(g.n) for j in range(i, g.n) if i == j or not g.adjacent(i, j)]).T
    t = model.declare(max(edges.shape[1], 1), 1, structure="full", name="edge_cells")
    nrows = 1 + model.nparams
    # X: the constant 1 at the diagonal and non-adjacent cells, parameter t_k at edge k
    rows = np.concatenate([np.zeros(ones.shape[1], np.int64), 1 + t.decl.offset + np.arange(edges.shape[1])])
    x_expr = _symmetric_expr(g.n, np.hstack([ones, edges]), rows, np.ones(rows.size), nrows)
    diag = np.arange(g.n)
    lam_eye = _symmetric_expr(g.n, np.array([diag, diag]), np.full(g.n, 1 + lam.decl.offset), np.ones(g.n), nrows)
    model.add_lmi(lam_eye - x_expr)
    if not edges.size:
        # keep the dummy variable constrained
        model.add_equality(t.expr().entry(0, 0), 0.0)
    model.minimize(lam.entry(0, 0))
    res = model.solve(cfg=cfg)
    return res.value, x_expr.value(res.compiled.params_from(res.solution)).real, res


def weighted_theta(g: GraphSpec, cfg=None):
    """Gram form: maximize <sqrt(w) sqrt(w)^T, B> with Tr B = 1, B zero on edges."""
    if g.weights is None:
        raise ValueError("weighted_theta needs vertex weights")
    w = np.asarray(g.weights)
    cells = np.array([(i, j) for i in range(g.n) for j in range(i, g.n) if i == j or not g.adjacent(i, j)]).T
    model = Model()
    var = model.declare(cells.shape[1], 1, structure="full", name="cells")
    rows = 1 + var.decl.offset + np.arange(cells.shape[1])
    b_expr = _symmetric_expr(g.n, cells, rows, np.ones(rows.size), 1 + model.nparams)
    model.add_lmi(b_expr)
    model.add_equality(b_expr.trace(), 1.0)
    model.maximize(b_expr.frobenius_with(np.outer(np.sqrt(w), np.sqrt(w))))
    res = model.solve(cfg=cfg)
    return res.value, res


# ---------------------------------------------------------------------------
# exclusivity graphs


def exclusivity_graph(events) -> GraphSpec:
    """Events are mappings test -> outcome; two events are exclusive when some
    shared test gets different outcomes."""
    assignments = [dict(e) for e in events]
    edges = set()
    for i, j in combinations(range(len(assignments)), 2):
        ai, aj = assignments[i], assignments[j]
        if ai == aj:
            raise ValueError(f"events {i} and {j} are identical")
        if any(ai[t] != aj[t] for t in set(ai) & set(aj)):
            edges.add((i, j))
    return GraphSpec(len(assignments), frozenset(edges))


def chsh_exclusivity_events():
    """The eight events of the positive CHSH game expression, as test->outcome
    maps over Alice tests ("x", x) and Bob tests ("y", y)."""
    events = []
    for x, y in [(0, 0), (0, 1), (1, 0)]:
        for a in (0, 1):
            events.append({("x", x): a, ("y", y): a})
    for a in (0, 1):
        events.append({("x", 1): a, ("y", 1): 1 - a})
    return events


# ---------------------------------------------------------------------------
# edge-list text format


def parse_graph(text: str) -> GraphSpec:
    """Header line: vertex count; then "u v" edge lines and optional
    "w i weight" lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    n = int(lines[0].split()[0])
    edges = set()
    weights = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != (3 if parts[0] == "w" else 2):
            raise ValueError(f"graph line {ln!r}: expected 'u v' or 'w i weight'")
        if parts[0] == "w":
            if not 0 <= int(parts[1]) < n:
                raise ValueError(f"graph line {ln!r}: vertex {parts[1]} is not in 0..{n - 1}")
            weights[int(parts[1])] = float(parts[2])
        else:
            u, v = int(parts[0]), int(parts[1])
            edges.add((u, v))
    wtuple = None
    if weights:
        wtuple = tuple(weights.get(i, 1.0) for i in range(n))
    return GraphSpec(n, frozenset(edges), wtuple)


def write_graph(g: GraphSpec) -> str:
    lines = [str(g.n)]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    if g.weights is not None:
        for i, w in enumerate(g.weights):
            lines.append(f"w {i} {w}")
    return "\n".join(lines) + "\n"
