"""The sparse constraint operator against a dense reference built here.

``ConeProblem`` keeps A only as one CSR matrix; the dense reference below is
rebuilt from the materialized rows (``p.constraints``), so apply, adjoint and
the Schur matrix are checked against the textbook formulas they replace.
"""

import numpy as np
import pytest

import qsdp.ipm as ipm
from qsdp import BlockStructure, ConeProblem, SymBlockMat, frobenius_inner, solve
from qsdp.ipm import Iterate, _DirectionContext, split_free

STRUCTURES = [
    BlockStructure((3,)),
    BlockStructure((2, 4, 1), nonneg_dim=3),
    BlockStructure((3, 2), nonneg_dim=2, free_dim=2),
    BlockStructure((), nonneg_dim=4, free_dim=1),
]


def sparse_elem(rng, st, density=0.4):
    """Random element with about ``density`` of its entries nonzero."""

    def keep(shape):
        return rng.normal(size=shape) * (rng.random(shape) < density)

    blocks = []
    for n in st.sdp_blocks:
        b = keep((n, n))
        blocks.append(b + b.T)
    return SymBlockMat(st, blocks, keep(st.nonneg_dim), keep(st.free_dim))


def random_problem(rng, st, m=6):
    rows = [sparse_elem(rng, st) for _ in range(m)]
    rows[1] = SymBlockMat.zeros(st)  # an empty row stays a row
    return ConeProblem(sparse_elem(rng, st, 1.0), rows, rng.normal(size=m))


def spd(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T + n * np.eye(n)


def interior_iterate(rng, p):
    def elem():
        st = p.structure
        return SymBlockMat(st, [spd(rng, n) for n in st.sdp_blocks], rng.uniform(0.5, 2.0, size=st.nonneg_dim))

    return Iterate(x=elem(), y=rng.normal(size=p.num_constraints), z=elem())


def dense_schur(p, it, direction):
    """B_ij = <A_i, K(A_j)> from the materialized rows, block by block."""
    rows = p.constraints
    m = len(rows)
    ctx = _DirectionContext(p, it, direction)  # only for Z^-1 and W
    b = np.zeros((m, m))
    for j, aj in enumerate(rows):
        for k in range(len(aj.blocks)):
            if direction == "hkm":
                kj = it.x.blocks[k] @ aj.blocks[k] @ ctx.zinv[k]
            else:
                kj = ctx.w_nt[k] @ aj.blocks[k] @ ctx.w_nt[k]
            for i, ai in enumerate(rows):
                b[i, j] += np.sum(ai.blocks[k] * kj)
        for i, ai in enumerate(rows):
            b[i, j] += np.sum(ai.nonneg * it.x.nonneg / it.z.nonneg * aj.nonneg)
    return (b + b.T) / 2.0, ctx.b


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("st", STRUCTURES, ids=str)
def test_apply_and_adjoint_match_dense_rows(st):
    rng = np.random.default_rng(7)
    for p in (random_problem(rng, st), split_free(random_problem(rng, st))):
        rows = p.constraints
        x = sparse_elem(rng, p.structure, 1.0)
        y = rng.normal(size=len(rows))
        want_apply = np.array([frobenius_inner(a, x) for a in rows])
        want_adjoint = SymBlockMat.zeros(p.structure)
        for yi, a in zip(y, rows):
            want_adjoint = want_adjoint + float(yi) * a
        assert rel_err(p.apply(x), want_apply) <= 1e-12
        assert rel_err(p.adjoint(y).flat(), want_adjoint.flat()) <= 1e-12


@pytest.mark.parametrize("direction", ["hkm", "nt"])
@pytest.mark.parametrize("st", STRUCTURES, ids=str)
def test_schur_matches_dense_reference(st, direction):
    rng = np.random.default_rng(11)
    q = split_free(random_problem(rng, st))
    want, got = dense_schur(q, interior_iterate(rng, q), direction)
    assert rel_err(got, want) <= 1e-12


def test_split_free_rows_extend_the_nonnegative_part():
    rng = np.random.default_rng(3)
    p = random_problem(rng, BlockStructure((2,), nonneg_dim=1, free_dim=2))
    q = split_free(p)
    for a, b in zip(p.constraints, q.constraints):
        assert np.array_equal(b.nonneg, np.concatenate([a.nonneg, a.free, -a.free]))
        assert np.array_equal(b.blocks[0], a.blocks[0])


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("free_dim", [0, 1])
def test_one_schur_per_iteration_and_one_residual_per_iterate(monkeypatch, free_dim):
    structure = BlockStructure((3,), nonneg_dim=1, free_dim=free_dim)
    e = lambda i, j: np.eye(3)[[i]].T @ np.eye(3)[[j]]
    lift = lambda m, nn=0.0, fr=0.0: SymBlockMat(structure, [m + m.T], [nn], [fr] * free_dim)
    p = ConeProblem(
        lift(np.eye(3), 1.0, 0.0),
        [lift(e(0, 0)), lift(e(1, 1), 1.0), lift(e(0, 1) + e(2, 2), 0.0, 1.0)],
        [1.0, 2.0, 0.5],
    )
    schur = _counting(monkeypatch, _DirectionContext, "schur")
    res = _counting(monkeypatch, ipm, "residuals")
    sol, log = solve(p)
    assert sol.success
    its = sol.stats["iterations"]
    assert its == len(log) > 0
    assert len(schur) == its
    # the cold start and every step's iterate; free variables add one pass in
    # the original problem's variables per iterate
    assert len(res) == (its + 1) * (2 if free_dim else 1)
