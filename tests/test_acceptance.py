"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance and runtime limit is pinned here.
"""

import time
from contextlib import contextmanager

import numpy as np
from conftest import probability_expr, untied_model

from qsdp import SolverConfig, solve
from qsdp.graphs import chsh_exclusivity_events, cycle_graph, exclusivity_graph, lovasz_theta
from qsdp.ipm import split_free
from qsdp.modeling import Model, scalar_nonneg
from qsdp.npa import (
    Scenario,
    build_moment_model,
    chsh_functional,
    coordinates,
    generate_words,
    mlp_bound,
    nv_build_basis,
    nv_solve,
    qrac_nv_game,
    qrac_nv_task,
    qrac_witness,
    solve_bell,
)
from qsdp.quantum import helstrom_bound, qsd_optimal, random_pure, werner_state, dps_test
from qsdp.seesaw import chsh_seesaw, qrac_seesaw
from qsdp.sos import tsirelson_sos_chsh

ROOT2 = np.sqrt(2.0)
TSIRELSON = 2 * ROOT2
QRAC_OPT = (1 + 1 / ROOT2) / 2


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if failed is None and elapsed < limit_seconds else "FAIL"
        print(f"\n[{verdict}] criterion {number}: {description} ({elapsed:.2f}s / limit {limit_seconds:.0f}s)")
        if failed is None and elapsed >= limit_seconds:
            raise AssertionError(f"criterion {number} exceeded its runtime limit: {elapsed:.2f}s")


def correlation_model(sense: float) -> Model:
    m = Model()
    r = m.declare(3, structure="symmetric", name="R")
    m.add_lmi(r.expr())
    for i in range(3):
        m.add_equality(r.entry(i, i), 1.0)
    e = r.expr()
    m.add_lmi(scalar_nonneg(e.entry(0, 1) - 0.67))
    m.add_lmi(scalar_nonneg(0.73 - e.entry(0, 1)))
    m.add_lmi(scalar_nonneg(e.entry(0, 2) - 0.79))
    m.add_lmi(scalar_nonneg(0.81 - e.entry(0, 2)))
    if sense > 0:
        m.maximize(e.entry(1, 2))
    else:
        m.minimize(e.entry(1, 2))
    return m


def hermitian_eigen_model():
    rng = np.random.default_rng(2024)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = (g + g.conj().T) / 2
    m = Model()
    s = m.declare(3, structure="hermitian", field="complex", name="S")
    m.add_lmi(s.expr())
    m.add_equality(s.trace(), 1.0)
    m.maximize(s.expr().frobenius_with(x))
    return m, x


def test_criterion_01_chsh_tsirelson():
    with criterion(1, "CHSH Tsirelson bound at levels 1 and 1+AB equals 2*sqrt(2) to 1e-6", 5.0):
        for level in (1, "1+AB"):
            res = solve_bell(Scenario.chsh(), level, chsh_functional())
            assert res.success
            assert abs(res.value - TSIRELSON) <= 1e-6, (level, res.value)


def test_criterion_02_table_sizes():
    with criterion(2, "moment-index sizes 13/25/41/61 and dual unknowns 31/61/101/151", 1.0):
        scenario = Scenario.chsh()
        sizes = {2: 13, 3: 25, 4: 41, 5: 61}
        unknowns = {2: 31, 3: 61, 4: 101, 5: 151}
        for level in (2, 3, 4, 5):
            assert len(generate_words(scenario, level)) == sizes[level]
            assert build_moment_model(scenario, level).num_unknowns == unknowns[level]


def test_criterion_03_correlation_interval():
    with criterion(3, "correlation-matrix program bounds [0.074153, 0.99573] to 1e-3", 2.0):
        low = correlation_model(-1.0).solve()
        high = correlation_model(+1.0).solve()
        assert low.success and high.success
        assert abs(low.value - 0.074153) <= 1e-3, low.value
        assert abs(high.value - 0.99573) <= 1e-3, high.value


def test_criterion_04_compile_sizes():
    with criterion(4, "Hermitian model compiles to (6, m=9, 1 free) / (m=8) / (6, m=1)", 1.0):
        model, _ = hermitian_eigen_model()
        c1 = model.compile(framing="dual")
        assert c1.problem.structure.sdp_blocks == (6,)
        assert c1.problem.num_constraints == 9
        assert c1.problem.structure.free_dim == 1
        model2, _ = hermitian_eigen_model()
        c2 = split_free(model2.compile(framing="dual").problem)  # what the IPM solves
        assert c2.problem.num_constraints == 8
        assert c2.problem.structure.free_dim == 0
        model3, _ = hermitian_eigen_model()
        c3 = model3.compile(framing="primal")
        assert c3.problem.structure.sdp_blocks == (6,)
        assert c3.problem.num_constraints == 1


def test_criterion_05_sos_certificate():
    with criterion(5, "CHSH weighted-SoS bound 2*sqrt(2) to 1e-6 with PSD Gram, residual < 1e-6", 5.0):
        q1, report = tsirelson_sos_chsh()
        assert abs(q1 - TSIRELSON) <= 1e-6, q1
        assert np.linalg.eigvalsh(report["gram"])[0] >= -1e-8
        assert report["residual"] < 1e-6


def test_criterion_06_lovasz_theta():
    with criterion(6, "theta(C5) = sqrt(5) to 1e-6 and theta(CHSH exclusivity graph) = 2+sqrt(2) to 1e-4", 10.0):
        theta_c5, _, res = lovasz_theta(cycle_graph(5))
        assert res.success
        assert abs(theta_c5 - np.sqrt(5.0)) <= 1e-6, theta_c5
        g = exclusivity_graph(chsh_exclusivity_events())
        theta_g, _, res2 = lovasz_theta(g)
        assert res2.success
        assert abs(theta_g - (2.0 + ROOT2)) <= 1e-4, theta_g
        # cross-check against criterion 1: the CHSH game value 2 + (CHSH bound)/2...
        # the positive game expression reaches theta(G); the Bell bound gives
        # 2 + sqrt(2) = 2 + TSIRELSON / 2
        assert abs(theta_g - (2.0 + TSIRELSON / 2.0)) <= 1e-4


def test_criterion_07_dps_werner():
    with criterion(7, "DPS(k=1, PPT) matches the partial-transpose oracle on Werner states", 10.0):
        for p in (0.4, 0.5, 0.9):
            rho = werner_state(p)
            res = dps_test(rho, (2, 2), k=1, ppt=True)
            oracle_sign = (1 - 3 * p) / 4.0 < 0
            assert not res.feasible
            assert oracle_sign  # entangled per the eigenvalue oracle
        for p in (0.1, 0.25):
            rho = werner_state(p)
            res = dps_test(rho, (2, 2), k=1, ppt=True)
            oracle_sign = (1 - 3 * p) / 4.0 < 0
            assert res.feasible
            assert not oracle_sign


def test_criterion_08_qsd_helstrom():
    with criterion(8, "QSD matches the Helstrom bound on 20 random pure pairs to 1e-6", 10.0):
        rng = np.random.default_rng(808)
        for _ in range(20):
            r1, r2 = random_pure(rng, 2), random_pure(rng, 2)
            value, _, res = qsd_optimal([r1, r2])
            assert res.success
            c2 = float(np.real(np.trace(r1.matrix @ r2.matrix)))
            target = (1 + np.sqrt(max(0.0, 1 - c2))) / 2
            assert abs(value - target) <= 1e-6
            assert abs(value - helstrom_bound(r1, r2)) <= 1e-6


def test_criterion_09_pincer():
    with criterion(9, "see-saw lower bounds meet NPA/MLP/NV upper bounds to 1e-3 (CHSH, QRAC)", 60.0):
        upper_chsh = solve_bell(Scenario.chsh(), 1, chsh_functional()).value
        lower_chsh = chsh_seesaw(restarts=20, seed=3).value
        assert abs(upper_chsh - TSIRELSON) <= 1e-6
        assert upper_chsh - lower_chsh <= 1e-3, (lower_chsh, upper_chsh)

        upper_mlp = mlp_bound(Scenario.prepare_measure(4, 2), 2, qrac_witness(2), level=2).value
        task = qrac_nv_task(2, 2)
        upper_nv, _, _ = nv_solve(nv_build_basis(task, seed=5), qrac_nv_game(task, 2))
        lower_qrac = qrac_seesaw(restarts=20, seed=4).value
        assert abs(upper_mlp - QRAC_OPT) <= 1e-3, upper_mlp
        assert abs(upper_nv - QRAC_OPT) <= 1e-3, upper_nv
        assert upper_mlp - lower_qrac <= 1e-3
        assert upper_nv - lower_qrac <= 2e-3  # both sides approximate the same optimum
        assert abs(lower_qrac - QRAC_OPT) <= 1e-3


def test_criterion_10_solver_quality_gates():
    with criterion(10, "gap/residuals <= 1e-7 at success, gap >= 0 at every iterate, HKM = NT to 1e-6", 60.0):
        problems = {
            "correlation_max": correlation_model(+1.0).compile().problem,
            "eigen_dual": hermitian_eigen_model()[0].compile().problem,
            "eigen_primal": hermitian_eigen_model()[0].compile(framing="primal").problem,
        }
        chsh = build_moment_model(Scenario.chsh(), 1)
        model, _ = untied_model(chsh)
        coords = coordinates(chsh.scenario, {("joint", *k): c for k, c in chsh_functional().items()})
        model.maximize(probability_expr(chsh, model.vars[0].offset, coords))
        problems["chsh_l1"] = model.compile().problem

        values = {}
        for name, problem in problems.items():
            finals = {}
            for direction in ("hkm", "nt"):
                gaps = []

                def hook(it, gaps=gaps):
                    gaps.append(it.gap())

                cfg = SolverConfig(direction=direction)
                sol, _ = solve(problem, cfg, iterate_hook=hook)
                assert sol.success, (name, direction, sol.status_label)
                assert sol.stats["primal_residual"] <= 1e-7
                assert sol.stats["dual_residual"] <= 1e-7
                assert abs(sol.stats["gap"]) <= 1e-7
                # weak duality in gap form holds at every interior iterate,
                # and in objective form at termination
                assert all(g >= 0 for g in gaps)
                assert sol.primal_value - sol.dual_value >= -10 * cfg.tol_gap * (
                    1 + abs(sol.primal_value) + abs(sol.dual_value)
                )
                finals[direction] = sol.dual_value
            assert abs(finals["hkm"] - finals["nt"]) <= 1e-6, (name, finals)
            values[name] = finals["hkm"]
