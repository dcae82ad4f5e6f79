"""Equality elimination one connected component at a time.

``null_space_by_component`` must give what one SVD of the whole equality
system gave, up to an orthogonal change of basis: an orthonormal basis N of
the null space of E and y0 = pinv(E) f.  So every solve that eliminates its
equalities keeps its iteration count, and its value within 1e-7; the pinned
counts and values are those of the whole-system elimination.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from conftest import seeded_hermitian
from test_modeling import MODELS, redundant_model
from test_sos import motzkin_polynomial, random_sos

from qsdp.cli import main
from qsdp.modeling import Model, ScalarExpr, _equality_system, model_to_json
from qsdp.npa import Scenario, mlp_bound, qrac_witness
from qsdp.problem import STATUS_LACK_OF_PROGRESS, FreeElimination, null_space_by_component
from qsdp.quantum import channel_feasibility, dps_test, werner_state
from qsdp.sos import sos_certificate, tsirelson_sos_chsh


def dps(p, k):
    res = dps_test(werner_state(p), (2, 2), k)
    return res.model_result, res.slack


def channel(*args, **kwargs):
    out = channel_feasibility(*args, **kwargs)
    return out["result"], out["value"]


def mlp(d, level):
    res = mlp_bound(Scenario.prepare_measure(4, 2), d, qrac_witness(2), level=level)
    return res.model_result, res.value


def sos(h, n):
    res = sos_certificate(h, n)
    return res.model_result, res.margin


def tsirelson():
    bound, report = tsirelson_sos_chsh()
    return report["result"], bound


# name: (solve, IPM iterations, value); the MLP d = 1 level-1 solve stalls
# at status -1 (ROADMAP item 6), and its value is pinned all the same
BATTERY = {
    "dps-p025-k1": (lambda: dps(0.25, 1), 10, 0.06249999941055887),
    "dps-p025-k2": (lambda: dps(0.25, 2), 10, 0.03124998526747294),
    "dps-p025-k3": (lambda: dps(0.25, 3), 11, 0.015624998569632991),
    "dps-p025-k4": (lambda: dps(0.25, 4), 11, 0.007812466653111345),
    "dps-p025-k5": (lambda: dps(0.25, 5), 12, 0.003906241965933051),
    "dps-p05-k2": (lambda: dps(0.5, 2), 10, -0.06250000882865026),
    "dps-p05-k3": (lambda: dps(0.5, 3), 11, -0.03125000228267737),
    "dps-p05-k4": (lambda: dps(0.5, 4), 11, -0.015625029386175267),
    "channel-ppt-ns": (
        lambda: channel(4, 4, ppt_preserving_dims=(2, 2, 2, 2), nonsignaling_b_to_a_dims=(2, 2, 2, 2)),
        8,
        0.24999991675357122,
    ),
    "channel-tp": (lambda: channel(2), 8, 0.4999999915449265),
    "channel-objective": (lambda: channel(3, objective=seeded_hermitian(9, 5)), 12, 11.632640895652258),
    "mlp-d1-l2": (lambda: mlp(1, 2), 13, 0.5),
    "mlp-d2-l2": (lambda: mlp(2, 2), 12, 0.8535533318669428),
    "mlp-d3-l2": (lambda: mlp(3, 2), 15, 0.9268356191849386),
    "mlp-d1-l1": (lambda: mlp(1, 1), 25, 0.500000291604972),
    "sos-motzkin": (lambda: sos(*motzkin_polynomial()), 10, -0.0069885549675756786),
    "sos-random-n3-s7": (lambda: sos(random_sos(3, 2, seed=7), 3), 11, 0.00011615506065972544),
    "sos-random-n3-s1": (lambda: sos(random_sos(3, 2, seed=1), 3), 10, -1.0855642458785337e-08),
    "sos-random-n4-s2": (lambda: sos(random_sos(4, 2, seed=2), 4), 11, -1.7093278886078607e-08),
    "tsirelson-sos": (tsirelson, 9, 2.828427125923112),
}


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_solves_keep_their_iterations_and_values(name):
    solve, iterations, value = BATTERY[name]
    result, got = solve()
    assert result.solution.stats["iterations"] == iterations
    assert got == pytest.approx(value, abs=1e-7)


@pytest.mark.parametrize("name", ["dps-p025-k3", "channel-ppt-ns", "channel-objective", "mlp-d2-l2", "tsirelson-sos"])
def test_null_space_is_orthonormal_and_stays_in_one_component(name):
    model = BATTERY[name][0]()[0].compiled.model
    nparams = model.nparams
    e_mat, f_vec = _equality_system(model, nparams)
    y0, nmat = null_space_by_component(e_mat, f_vec)
    assert sp.issparse(nmat)
    n = nmat.toarray()
    assert n.shape == (nparams, nparams - np.linalg.matrix_rank(e_mat))
    assert np.max(np.abs(n.T @ n - np.eye(n.shape[1]))) <= 1e-12
    assert np.max(np.abs(e_mat @ n)) <= 1e-12 * np.linalg.norm(e_mat, 2)
    assert np.max(np.abs(y0 - np.linalg.pinv(e_mat, rcond=1e-12) @ f_vec)) <= 1e-12
    # the components of E's row-column graph, found here by scipy
    pattern = sp.csr_array(e_mat != 0)
    _, labels = connected_components(sp.bmat([[None, pattern.T], [pattern, None]]), directed=False)
    for col in n.T:
        assert np.unique(labels[:nparams][np.flatnonzero(col)]).size == 1
    for k in np.flatnonzero(np.all(e_mat == 0, axis=0)):  # a parameter in no equality
        (j,) = np.flatnonzero(n[k])
        assert np.array_equal(n[:, j], np.eye(nparams)[k])


@pytest.mark.parametrize("case", ["within-a-component", "empty-equality"])
def test_inconsistent_equalities_end_the_solve(case, tmp_path):
    # the compile keeps them as free entries; the solver's presolve finds
    # A_f'y = c_f inconsistent and stops before the first iteration
    model = Model()
    v = model.declare(2, structure="symmetric", name="V")
    model.add_lmi(v.expr())
    model.add_equality(v.entry(0, 0), 1.0)
    if case == "within-a-component":
        model.add_equality(2.0 * v.entry(0, 0), 3.0)
    else:  # real part 0 * V00 = 1, an equality that touches no parameter
        model.add_equality(ScalarExpr({v.decl.offset + 1: 1j}), 1.0)
    model.minimize(v.trace())
    sol = model.solve().solution
    assert sol.status == STATUS_LACK_OF_PROGRESS
    assert sol.stats["iterations"] == 0
    assert "inconsistent" in sol.stats["failure"]
    path = tmp_path / "model.json"
    path.write_text(model_to_json(model))
    assert main(["solve", str(path), "--json-out", str(tmp_path / "report.json")]) == 21


@pytest.mark.parametrize("name, schur_m", [("dps-p025-k3", 65), ("channel-ppt-ns", 78), ("mlp-d2-l2", 29)])
def test_equalities_are_free_entries_the_solver_eliminates(name, schur_m):
    result = BATTERY[name][0]()[0]
    assert result.compiled.problem.structure.free_dim == len(result.compiled.model.equalities)
    assert result.solution.stats["schur"]["m"] == schur_m  # the m of the parameters y0 + N w


# the small models with equalities, by name
EQUALITY_MODELS = {**{name: make for name, make in MODELS.items() if make().equalities}, "redundant": redundant_model}


@pytest.mark.parametrize("name", sorted(EQUALITY_MODELS) + ["channel-ppt-ns", "dps-p025-k3", "mlp-d2-l2"])
def test_presolve_keeps_the_dual_of_the_compile(name):
    # each w of the presolved problem is the dual y = y0 + N w of the
    # compile: y meets the model's equalities, and slack and objective agree
    model = EQUALITY_MODELS[name]() if name in EQUALITY_MODELS else BATTERY[name][0]()[0].compiled.model
    p = model.compile("dual").problem
    free = FreeElimination(p)
    q = free.problem
    e_mat, f_vec = _equality_system(model, model.nparams)
    w = np.random.default_rng(3).normal(size=q.num_constraints)
    y = free.y0 + free.null @ w
    assert np.linalg.norm(e_mat @ y - f_vec) <= 1e-10 * (1.0 + np.linalg.norm(f_vec))
    n_c = q.structure.flat_dim
    slack = p.c_obj.flat()[:n_c] - p.a_t[:n_c] @ y
    assert np.max(np.abs(q.c_obj.flat() - q.a_t @ w - slack)) <= 1e-10 * (1.0 + np.max(np.abs(slack)))
    assert q.rhs @ w + free.offset == pytest.approx(p.rhs @ y, abs=1e-10 * (1.0 + abs(p.rhs @ y)))
