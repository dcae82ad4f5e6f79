import numpy as np
import pytest

from qsdp import (
    BlockStructure,
    ConeProblem,
    Iterate,
    SolverConfig,
    SymBlockMat,
    cold_start,
    corrector_nu,
    newton_direction,
    perturb,
    residuals,
    solve,
    step_length,
)


def simple_problem(c, constraints, rhs):
    c = np.asarray(c, dtype=float)
    structure = BlockStructure((c.shape[0],))
    lift = lambda m: SymBlockMat(structure, [np.asarray(m, dtype=float)])
    return ConeProblem(lift(c), [lift(a) for a in constraints], rhs)


class TestColdStart:
    def test_small_problem_hits_floor(self):
        p = simple_problem(np.eye(3), [np.eye(3)], [1.0])
        it = cold_start(p)
        assert np.allclose(it.x.blocks[0], 10.0 * np.eye(3))
        assert np.allclose(it.z.blocks[0], 10.0 * np.eye(3))
        assert np.array_equal(it.y, np.zeros(1))

    def test_scaled_rhs_drives_xi(self):
        n = 3
        a = np.zeros((n, n))
        a[0, 0] = 1.0  # |A|_F = 1
        p = simple_problem(np.eye(n), [a], [1e4])
        it = cold_start(p)
        xi = n * (1.0 + 1e4) / 2.0
        assert np.allclose(it.x.blocks[0], xi * np.eye(n))

    def test_y_zero_always(self):
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(2, 2)) for _ in range(3)]
        p = simple_problem(rng.normal(size=(2, 2)), mats, rng.normal(size=3))
        assert np.array_equal(cold_start(p).y, np.zeros(3))


class TestResiduals:
    def test_feasible_pair_zero(self):
        # X = I/2 satisfies <I, X> = 1; pick Z = C - y1 A1 exactly
        c = np.array([[2.0, 0.0], [0.0, 3.0]])
        p = simple_problem(c, [np.eye(2)], [1.0])
        x = SymBlockMat(p.structure, [np.eye(2) / 2])
        y = np.array([1.5])
        z = SymBlockMat(p.structure, [c - 1.5 * np.eye(2)])
        _, _, (pinf, dinf) = residuals(p, Iterate(x=x, y=y, z=z))
        assert pinf == pytest.approx(0.0, abs=1e-15)
        assert dinf == pytest.approx(0.0, abs=1e-15)

    def test_cold_start_scalar(self):
        p = simple_problem([[1.0]], [[[1.0]]], [1.0])
        it = cold_start(p)
        r_p, _, _ = residuals(p, it)
        assert r_p[0] == pytest.approx(1.0 - 10.0)

    def test_rp_linear_in_b(self):
        # r_p depends affinely on b at a fixed iterate: r_p(2b) - r_p(b) = b
        p = simple_problem(np.eye(2), [np.eye(2)], [1.5])
        p2 = simple_problem(np.eye(2), [np.eye(2)], [3.0])
        it = cold_start(p)
        r1, _, _ = residuals(p, it)
        r2, _, _ = residuals(p2, it)
        assert r2[0] - r1[0] == pytest.approx(1.5)


class TestNewtonDirection:
    def test_zero_on_central_path(self):
        nu = 4.0
        s = np.sqrt(nu)
        structure = BlockStructure((2,))
        lift = lambda m: SymBlockMat(structure, [np.asarray(m, dtype=float)])
        # y = (1,) with C = A1 + sqrt(nu) I keeps the iterate exactly feasible
        p = ConeProblem(lift(np.eye(2) + s * np.eye(2)), [lift(np.eye(2))], [2.0 * s])
        it = Iterate(x=lift(s * np.eye(2)), y=np.array([1.0]), z=lift(s * np.eye(2)))
        dx, dy, dz = newton_direction(p, it, target_nu=nu)
        assert dx.norm() == pytest.approx(0.0, abs=1e-10)
        assert np.linalg.norm(dy) == pytest.approx(0.0, abs=1e-10)
        assert dz.norm() == pytest.approx(0.0, abs=1e-10)

    def test_scalar_problem_matches_hand_system(self):
        # min x s.t. x = 1, x >= 0 from X = Z = 10, y = 0; HKM centering for
        # 1x1 blocks is dX*Z + X*dZ = nu - X*Z.  Oracle: dense 3x3 solve.
        p = simple_problem([[1.0]], [[[1.0]]], [1.0])
        it = Iterate(
            x=SymBlockMat(p.structure, [[[10.0]]]),
            y=np.zeros(1),
            z=SymBlockMat(p.structure, [[[10.0]]]),
        )
        for nu in (0.0, 25.0, 100.0):
            a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [10.0, 0.0, 10.0]])
            rhs = np.array([1.0 - 10.0, 1.0 - 10.0, nu - 100.0])
            ref = np.linalg.solve(a, rhs)  # (dx, dy, dz)
            dx, dy, dz = newton_direction(p, it, target_nu=nu)
            assert dx.blocks[0][0, 0] == pytest.approx(ref[0], rel=1e-10)
            assert dy[0] == pytest.approx(ref[1], rel=1e-10)
            assert dz.blocks[0][0, 0] == pytest.approx(ref[2], rel=1e-10)

    def test_dz_identity_and_symmetry(self):
        rng = np.random.default_rng(2)
        structure = BlockStructure((3,))
        lift = lambda m: SymBlockMat(structure, [np.asarray(m, dtype=float)])
        mats = [rng.normal(size=(3, 3)) for _ in range(2)]
        p = ConeProblem(lift(rng.normal(size=(3, 3)) + 5 * np.eye(3)), [lift(m) for m in mats], rng.normal(size=2))
        it = cold_start(p)
        r_p, r_d, _ = residuals(p, it)
        dx, dy, dz = newton_direction(p, it, target_nu=1.0)
        recon = r_d - p.adjoint(dy)
        assert (dz - recon).norm() <= 1e-12 * max(1.0, dz.norm())
        assert np.allclose(dx.blocks[0], dx.blocks[0].T)
        assert np.allclose(dz.blocks[0], dz.blocks[0].T)
        # primal equation A(dX) = r_p
        assert np.allclose(p.apply(dx), r_p, atol=1e-8 * (1 + np.linalg.norm(r_p)))


class TestStepLength:
    def test_boundary_at_one(self):
        assert step_length(np.eye(2), -np.eye(2)) == pytest.approx(1.0)

    def test_half_step(self):
        assert step_length(np.eye(2), np.diag([-2.0, 1.0])) == pytest.approx(0.5)

    def test_capped_at_one(self):
        # oracle: lambda_max(C^-T (-dm) C^-1) = 1 for m = diag(4, 1), dm = -I
        assert step_length(np.diag([4.0, 1.0]), -np.eye(2)) == pytest.approx(1.0)

    def test_psd_direction_unconstrained(self):
        assert step_length(np.eye(3), np.eye(3)) == 1.0

    def test_cholesky_failure(self):
        with pytest.raises(Exception):
            step_length(np.diag([1.0, -1.0]), np.eye(2))


class TestCorrectorNu:
    def _iterate(self, x, z):
        structure = BlockStructure((2,))
        return Iterate(
            x=SymBlockMat(structure, [x]),
            y=np.zeros(0),
            z=SymBlockMat(structure, [z]),
        )

    def test_zero_predictor(self):
        it = self._iterate(np.eye(2), np.eye(2))
        zero = SymBlockMat(it.x.structure, [np.zeros((2, 2))])
        got = corrector_nu(it, (zero, np.zeros(0), zero), 0.7, 0.3, SolverConfig())
        assert got == pytest.approx(it.gap() / 2)

    def test_full_annihilation(self):
        it = self._iterate(np.eye(2), np.eye(2))
        d = SymBlockMat(it.x.structure, [-np.eye(2)])
        got = corrector_nu(it, (d, np.zeros(0), d), 1.0, 1.0, SolverConfig())
        assert got == pytest.approx(0.0, abs=1e-30)

    def test_quarter(self):
        it = self._iterate(np.eye(2), np.eye(2))
        d = SymBlockMat(it.x.structure, [-0.5 * np.eye(2)])
        # gap 2 > 1e-3 so e = 1: (2/2) * (2*(1/4)/2)^1 = 0.25
        got = corrector_nu(it, (d, np.zeros(0), d), 1.0, 1.0, SolverConfig())
        assert got == pytest.approx(0.25)


class TestPerturb:
    def _iterate(self):
        structure = BlockStructure((2,), nonneg_dim=1)
        return Iterate(
            x=SymBlockMat(structure, [np.eye(2)], [1.0]),
            y=np.zeros(0),
            z=SymBlockMat(structure, [np.eye(2)], [1.0]),
        )

    def test_gap_branch(self):
        it = perturb(self._iterate(), gap=1e-3, eps_p=1e-7, eps_d=1e-7, trace_scale=1.0)
        assert np.allclose(it.x.blocks[0], np.eye(2) + 0.01 * np.eye(2))
        assert np.allclose(it.z.blocks[0], np.eye(2))

    def test_identity_when_balanced(self):
        base = self._iterate()
        it = perturb(base, gap=1e-9, eps_p=1e-7, eps_d=1e-7, trace_scale=1.0)
        assert (it.x - base.x).norm() == 0.0
        assert (it.z - base.z).norm() == 0.0

    def test_both_branches(self):
        it = perturb(self._iterate(), gap=1.0, eps_p=1e-3, eps_d=1e-6, trace_scale=2.0)
        assert np.allclose(it.x.blocks[0], (1 + 0.02) * np.eye(2))
        assert np.allclose(it.z.blocks[0], (1 + 0.2) * np.eye(2))
        assert it.x.nonneg[0] == pytest.approx(1.02)
        assert it.z.nonneg[0] == pytest.approx(1.2)


class TestSolve:
    def test_largest_eigenvalue_program(self):
        # maximize Tr(X S) s.t. S >= 0, Tr S = 1 with X = diag(1, 2): value 2.
        # Canonical primal: min <-X, S> s.t. <I, S> = 1.
        p = simple_problem(-np.diag([1.0, 2.0]), [np.eye(2)], [1.0])
        sol, log = solve(p)
        assert sol.success
        assert sol.primal_value == pytest.approx(-2.0, abs=1e-6)
        assert sol.dual_value == pytest.approx(-2.0, abs=1e-6)
        assert len(log) >= 1

    def test_correlation_interval(self):
        # 3x3 correlation matrix, r12 in [0.67, 0.73], r13 in [0.79, 0.81]:
        # extremal r23; oracle is the closed form r12 r13 +- sqrt((1-r12^2)(1-r13^2))
        lo, hi = _solve_correlation_interval()
        corners = [(a, b) for a in (0.67, 0.73) for b in (0.79, 0.81)]
        f_lo = min(a * b - np.sqrt((1 - a * a) * (1 - b * b)) for a, b in corners)
        f_hi = max(a * b + np.sqrt((1 - a * a) * (1 - b * b)) for a, b in corners)
        assert lo == pytest.approx(f_lo, abs=1e-5)
        assert hi == pytest.approx(f_hi, abs=1e-5)
        assert lo == pytest.approx(0.074153, abs=1e-3)
        assert hi == pytest.approx(0.99573, abs=1e-3)

    def test_weak_duality_and_tolerances_at_success(self):
        p = simple_problem(-np.diag([1.0, 2.0]), [np.eye(2)], [1.0])
        cfg = SolverConfig()
        sol, _ = solve(p, cfg)
        assert sol.success
        assert sol.stats["primal_residual"] <= cfg.tol_primal
        assert sol.stats["dual_residual"] <= cfg.tol_dual
        assert abs(sol.stats["gap"]) <= cfg.tol_gap
        assert sol.primal_value >= sol.dual_value - 10 * cfg.tol_gap

    def test_interior_preserved_and_gap_monotone_trend(self):
        p = _correlation_problem(sense=-1.0)
        gaps = []

        def hook(it):
            assert it.x.min_cone_eig() > 1e-12
            assert it.z.min_cone_eig() > 1e-12
            gaps.append(it.gap())

        sol, _ = solve(p, iterate_hook=hook)
        assert sol.success
        assert gaps[-1] <= gaps[0]

    def test_free_variable_split(self):
        # min x_free s.t. x_free + s = 3, s >= 0 (as 1x1 sdp block), unbounded
        # below unless we add x_free >= 1 via another row: use equality
        # x_free - t = 1 with t in the block; optimum x_free = 1 at t -> 0...
        # simpler: min <I,S> + 0*f s.t. <I,S> + f = 2 and f = 1 -> value 1.
        structure = BlockStructure((1,), 0, 1)
        lift = lambda m, f: SymBlockMat(structure, [np.array([[float(m)]])], free=[float(f)])
        p = ConeProblem(lift(1.0, 0.0), [lift(1.0, 1.0), lift(0.0, 1.0)], [2.0, 1.0])
        sol, _ = solve(p)
        assert sol.success
        assert sol.primal_value == pytest.approx(1.0, abs=1e-6)
        assert sol.x_primal.free[0] == pytest.approx(1.0, abs=1e-6)

    def test_hkm_nt_agree(self):
        p = _correlation_problem(sense=1.0)
        sol_h, _ = solve(p, SolverConfig(direction="hkm"))
        sol_n, _ = solve(p, SolverConfig(direction="nt"))
        assert sol_h.success and sol_n.success
        assert sol_h.primal_value == pytest.approx(sol_n.primal_value, abs=1e-6)

    def test_direction_equations_hold(self):
        p = _correlation_problem(sense=1.0)
        from qsdp.ipm import split_free

        q = split_free(p)
        it = cold_start(q)
        r_p, r_d, _ = residuals(q, it)
        for direction in ("hkm", "nt"):
            dx, dy, dz = newton_direction(q, it, target_nu=it.gap() / q.structure.cone_dim, direction=direction)
            assert np.linalg.norm(q.apply(dx) - r_p) <= 1e-8 * (1 + np.linalg.norm(r_p))
            assert (q.adjoint(dy) + dz - r_d).norm() <= 1e-8 * (1 + r_d.norm())

    def test_dependent_constraints_rejected(self):
        p = simple_problem(np.eye(2), [np.eye(2), 2 * np.eye(2)], [1.0, 2.0])
        with pytest.raises(ValueError, match="constraint 1"):
            solve(p)


def _correlation_problem(sense: float) -> ConeProblem:
    """Canonical form of the correlation-matrix program; sense=+1 maximizes r23."""
    structure = BlockStructure((3,), nonneg_dim=4)

    def sel(i, j):
        m = np.zeros((3, 3))
        if i == j:
            m[i, i] = 1.0
        else:
            m[i, j] = m[j, i] = 0.5
        return m

    def lift(m, nn):
        return SymBlockMat(structure, [m], np.asarray(nn, dtype=float))

    z4 = np.zeros(4)
    constraints = [
        lift(sel(0, 0), z4),
        lift(sel(1, 1), z4),
        lift(sel(2, 2), z4),
        lift(sel(0, 1), [-1, 0, 0, 0]),  # r12 - s1 = 0.67
        lift(sel(0, 1), [0, 1, 0, 0]),  # r12 + s2 = 0.73
        lift(sel(0, 2), [0, 0, -1, 0]),  # r13 - s3 = 0.79
        lift(sel(0, 2), [0, 0, 0, 1]),  # r13 + s4 = 0.81
    ]
    rhs = np.array([1.0, 1.0, 1.0, 0.67, 0.73, 0.79, 0.81])
    c = lift(-sense * sel(1, 2), z4)
    return ConeProblem(c, constraints, rhs)


def _solve_correlation_interval():
    sol_hi, _ = solve(_correlation_problem(+1.0))
    sol_lo, _ = solve(_correlation_problem(-1.0))
    assert sol_hi.success and sol_lo.success
    return -(-sol_lo.primal_value), -sol_hi.primal_value


class TestPerturbationPath:
    def test_solve_with_perturbation_enabled_still_converges(self):
        p = _correlation_problem(sense=1.0)
        sol, _ = solve(p, SolverConfig(perturbation_enabled=True))
        assert sol.success
        assert -sol.primal_value == pytest.approx(0.99573, abs=1e-3)
