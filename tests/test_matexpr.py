"""The sparse MatExpr against a dense reference.

The reference keeps one dense matrix per parameter, (const, {k: F_k}), and
applies every operation to each matrix with numpy.  Each MatExpr operation
must agree with it to 1e-15 on random real, Hermitian and rectangular
expressions.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import untied_model

from qsdp.modeling import MatExpr, Model, model_from_json, model_to_json, partial_trace, partial_transpose
from qsdp.npa import Scenario, build_moment_model

TOL = 1e-15


def random_data(kind, seed):
    """(shape, const, terms) with sparse-ish random dense matrices; the
    parameter keys have gaps."""
    rng = np.random.default_rng(seed)
    shape = {"real": (4, 4), "hermitian": (6, 6), "rect": (3, 5)}[kind]

    def mat():
        m = rng.normal(size=shape) * (rng.random(shape) < 0.5)
        if kind == "real":
            return m
        m = m + 1j * rng.normal(size=shape) * (rng.random(shape) < 0.5)
        return (m + m.conj().T) / 2 if kind == "hermitian" else m

    return shape, mat(), {k: mat() for k in (0, 3, 7, 8, 12)}


KINDS = ["real", "hermitian", "rect"]


def pair(kind, seed=0):
    shape, const, terms = random_data(kind, seed)
    return MatExpr(shape, const, terms), (const, terms)


def einsum_partial_trace(m, dims, keep):
    """Partial trace by one einsum over the tensor indices: a traced
    subsystem shares its row and column index."""
    dims, k = list(dims), len(dims)
    t = np.asarray(m).reshape(dims + dims)
    rows = [2 * i for i in range(k)]
    cols = [2 * i + 1 if i in keep else 2 * i for i in range(k)]
    out = np.einsum(t, rows + cols, [rows[i] for i in sorted(keep)] + [cols[i] for i in sorted(keep)])
    d = int(np.prod([dims[i] for i in keep]))
    return out.reshape(d, d)


def ref_map(ref, f):
    const, terms = ref
    return f(const), {k: f(v) for k, v in terms.items()}


def assert_matches(expr, ref):
    const, terms = ref
    assert expr.shape == const.shape
    got = expr.terms
    assert set(got) == {k for k, v in terms.items() if np.any(v)}
    scale = max([1.0] + [float(np.max(np.abs(v))) for v in [const, *terms.values()]])
    assert np.max(np.abs(expr.const - const)) <= TOL * scale
    for k, v in got.items():
        assert np.max(np.abs(v - terms[k])) <= TOL * scale


def assert_scalar_matches(scalar, const, coeffs):
    assert abs(scalar.const - const) <= TOL * max(1.0, abs(const))
    assert set(scalar.coeffs) == set(coeffs)
    for k, v in coeffs.items():
        assert abs(scalar.coeffs[k] - v) <= TOL * max(1.0, abs(v))


@pytest.mark.parametrize("kind", KINDS)
def test_constructor_round_trips_const_and_terms(kind):
    expr, ref = pair(kind)
    assert_matches(expr, ref)
    assert expr.coef.shape == (1 + 13, expr.shape[0] * expr.shape[1])


@pytest.mark.parametrize("kind", KINDS)
def test_linear_combinations(kind):
    e1, r1 = pair(kind, 1)
    e2, r2 = pair(kind, 2)
    # a second expression with fewer parameters: rows are padded on addition
    e3 = MatExpr(e1.shape, r1[0], {1: r2[1][3]})
    t = 0.7 - 0.2j
    add = lambda a, b: (a[0] + b[0], {k: a[1].get(k, 0) + b[1].get(k, 0) for k in a[1].keys() | b[1].keys()})
    scale = lambda a, s: (s * a[0], {k: s * v for k, v in a[1].items()})
    assert_matches(e1 + e2, add(r1, r2))
    assert_matches(e1 - e2, add(r1, scale(r2, -1.0)))
    assert_matches(e1 * t, scale(r1, t))
    assert_matches(t * e1, scale(r1, t))
    assert_matches(-e1, scale(r1, -1.0))
    assert_matches(e1 + e3, add(r1, (r1[0], {1: r2[1][3]})))
    assert_matches(e3 - e1, add((r1[0], {1: r2[1][3]}), scale(r1, -1.0)))
    assert_matches(e1 - e1, (np.zeros(e1.shape), {}))


@pytest.mark.parametrize("kind", KINDS)
def test_products_and_transposes(kind):
    expr, ref = pair(kind, 3)
    rng = np.random.default_rng(4)
    r, c = expr.shape
    a = rng.normal(size=(2, r)) + 1j * rng.normal(size=(2, r))
    b = rng.normal(size=(c, 4))
    assert_matches(expr.left_mul(a), ref_map(ref, lambda m: a @ m))
    assert_matches(expr.right_mul(b), ref_map(ref, lambda m: m @ b))
    assert_matches(expr.transpose(), ref_map(ref, lambda m: m.T))
    assert_matches(expr.T, ref_map(ref, lambda m: m.T))
    assert_matches(expr.conj(), ref_map(ref, np.conj))
    assert_matches(expr.adjoint(), ref_map(ref, lambda m: m.conj().T))
    assert_matches(expr.H, ref_map(ref, lambda m: m.conj().T))


@pytest.mark.parametrize("kind", KINDS)
def test_map_linear_with_a_lambda_and_with_its_matrix(kind):
    expr, ref = pair(kind, 5)
    r, c = expr.shape
    rng = np.random.default_rng(6)
    left, right = rng.normal(size=(3, c)), rng.normal(size=(r, 2))
    f = lambda m: left @ m.T @ right + 2.0 * np.flipud(m.T)[:3, :2]
    # the matrix of f on row-major vec(M), as a sparse operator
    columns = []
    for cell in range(r * c):
        unit = np.zeros((r, c))
        unit.flat[cell] = 1.0
        columns.append(np.ravel(f(unit)))
    op = sp.csr_array(np.array(columns).T)
    assert_matches(expr.map_linear(op, (3, 2)), ref_map(ref, f))


@pytest.mark.parametrize(
    "dims, keep",
    [((2, 3), [0]), ((2, 3), [1]), ((2, 3), []), ((2, 3), [0, 1]), ((3, 2), [1]), ((1, 2, 3), [0, 2])],
)
def test_partial_trace(dims, keep):
    for kind in ("real", "hermitian"):
        shape, const, terms = random_data("hermitian", 7)
        if kind == "real":
            const, terms = const.real, {k: v.real for k, v in terms.items()}
        expr = MatExpr(shape, const, terms)
        reference = ref_map((const, terms), lambda m: einsum_partial_trace(m, dims, keep))
        assert_matches(expr.partial_trace(dims, keep), reference)
        assert np.max(np.abs(partial_trace(const, dims, keep) - reference[0])) <= TOL * np.max(np.abs(const))


@pytest.mark.parametrize(
    "dims, subsystems", [((2, 3), [0]), ((2, 3), [1]), ((2, 3), [0, 1]), ((3, 2), []), ((1, 3, 2), [0, 2])]
)
def test_partial_transpose(dims, subsystems):
    expr, ref = pair("hermitian", 8)
    assert_matches(
        expr.partial_transpose(dims, subsystems), ref_map(ref, lambda m: partial_transpose(m, dims, subsystems))
    )


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_reads(kind):
    expr, (const, terms) = pair(kind, 9)
    r, c = expr.shape
    for i in range(r):
        for j in range(c):
            want = {k: v[i, j] for k, v in terms.items() if v[i, j] != 0}
            assert_scalar_matches(expr.entry(i, j), const[i, j], want)
    assert_scalar_matches(expr.trace(), np.trace(const), {k: np.trace(v) for k, v in terms.items()})
    a = np.random.default_rng(10).normal(size=expr.shape) + 1j
    assert_scalar_matches(
        expr.frobenius_with(a), np.sum(a.conj() * const), {k: np.sum(a.conj() * v) for k, v in terms.items()}
    )


@pytest.mark.parametrize("kind", KINDS)
def test_value_and_clean(kind):
    expr, (const, terms) = pair(kind, 11)
    params = np.random.default_rng(12).normal(size=15)  # longer than the expression's parameters
    want = const + sum(params[k] * v for k, v in terms.items())
    scale = np.max(np.abs(const)) + sum(abs(params[k]) * np.max(np.abs(v)) for k, v in terms.items())
    assert np.max(np.abs(expr.value(params) - want)) <= TOL * scale
    small = MatExpr(expr.shape, const, {**terms, 2: 1e-12 * terms[0]})
    assert set(small.clean(1e-9).terms) == set(terms)
    assert set(small.clean(0.0).terms) == set(terms) | {2}
    kept = {k for k, v in terms.items() if np.max(np.abs(v)) >= 1.0}
    out = expr.clean(1.0)
    assert set(out.terms) == kept
    assert np.array_equal(out.const, expr.const)


def test_constructor_rejects_a_negative_term_key():
    # row 1 + k of key -1 is the constant's: I would have become the constant
    with pytest.raises(ValueError, match="term key -1"):
        MatExpr((2, 2), np.zeros((2, 2)), {0: np.eye(2), -1: np.eye(2)})


def test_json_round_trip_keeps_the_coefficients():
    m = Model()
    h = m.declare(3, structure="hermitian", field="complex", name="H")
    s = m.declare(2, structure="symmetric", name="S")
    expr, _ = pair("hermitian", 13)
    m.add_lmi(h.expr().partial_transpose((3, 1), [0]) + np.eye(3))
    m.add_lmi(expr.partial_trace((2, 3), [0]) + s.expr())
    m.add_equality(h.trace(), 1.0)
    m.minimize(s.entry(0, 1))
    back = model_from_json(model_to_json(m))
    assert [v.name for v in back.vars] == ["H", "S"]
    for got, want in zip(back.lmis, m.lmis):
        assert got.shape == want.shape
        assert abs(got.coef - want.coef).max() == 0


def test_moment_model_allocates_little():
    """I3322 level 3: Gamma is 88 x 88 with 868 unknowns; one dense matrix per
    unknown would take 103 MB."""
    mm = build_moment_model(Scenario((3, 3), ((2, 2, 2), (2, 2, 2))), 3)
    tracemalloc.start()
    try:
        model, gamma = untied_model(mm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gamma.shape == (88, 88) and model.nparams == 868
    assert peak < 10 * 2**20
