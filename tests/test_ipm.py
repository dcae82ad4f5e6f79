import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from qsdp import ipm
from qsdp import (
    BlockStructure,
    ConeProblem,
    Iterate,
    SolverConfig,
    SymBlockMat,
    cold_start,
    corrector_nu,
    newton_direction,
    residuals,
    solve,
    step_length,
)
from qsdp.modeling import Model
from qsdp.problem import STATUS_ITERATION_LIMIT, STATUS_LACK_OF_PROGRESS, STATUS_SUCCESS


def simple_problem(c, constraints, rhs):
    c = np.asarray(c, dtype=float)
    structure = BlockStructure((c.shape[0],))
    lift = lambda m: SymBlockMat(structure, [np.asarray(m, dtype=float)])
    return ConeProblem(lift(c), [lift(a) for a in constraints], rhs)


def _newton(p, it, nu, direction="hkm"):
    """newton_direction at it, with the context and residuals that _solve passes."""
    return newton_direction(ipm._DirectionContext(p, it, direction, ipm._SchurPlan(p)), it, residuals(p, it), nu)


def _free_variable_problem() -> ConeProblem:
    """min <I,S> + 0*f s.t. <I,S> + f = 2 and f = 1, with S a 1x1 block and
    f free: value 1."""
    structure = BlockStructure((1,), 0, 1)
    lift = lambda m, f: SymBlockMat(structure, [np.array([[float(m)]])], free=[float(f)])
    return ConeProblem(lift(1.0, 0.0), [lift(1.0, 1.0), lift(0.0, 1.0)], [2.0, 1.0])


def _free_split_model_problem() -> ConeProblem:
    """max Tr(X S) s.t. S >= 0, Tr S = 1 for a seeded Hermitian X, its
    equality compiled as a free variable."""
    rng = np.random.default_rng(42)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = Model()
    s = m.declare(3, structure="hermitian", field="complex", name="S")
    m.add_lmi(s.expr())
    m.add_equality(s.trace(), 1.0)
    m.maximize(s.expr().frobenius_with((g + g.conj().T) / 2))
    return m.compile(framing="dual").problem


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

    def test_given_scales_give_the_same_norms(self):
        p = _free_variable_problem()
        it = Iterate(x=SymBlockMat(p.structure, [[[2.0]]], free=[0.5]), y=np.array([0.3, -1.0]), z=SymBlockMat.zeros(p.structure))
        assert ipm.residual_scales(p) == (1.0 + np.sqrt(5.0), 1.0 + 1.0)
        assert residuals(p, it, ipm.residual_scales(p))[2] == residuals(p, it)[2]

    @pytest.mark.parametrize("build", [_free_variable_problem, lambda: simple_problem(np.eye(2), [np.eye(2)], [1.5])])
    def test_solve_takes_the_scales_once_per_problem(self, monkeypatch, build):
        calls = []
        scales = ipm.residual_scales
        monkeypatch.setattr(ipm, "residual_scales", lambda p: calls.append(p) or scales(p))
        p = build()
        sol, _ = solve(p)
        assert sol.success and sol.stats["iterations"] > 1
        # the original problem's, with free variables too: the reduced
        # problem's residuals are normalized by them
        assert calls == [p]


class TestNewtonDirection:
    def test_zero_on_central_path(self):
        nu = 4.0
        s = np.sqrt(nu)
        structure = BlockStructure((2,))
        lift = lambda m: SymBlockMat(structure, [np.asarray(m, dtype=float)])
        # y = (1,) with C = A1 + sqrt(nu) I keeps the iterate exactly feasible
        p = ConeProblem(lift(np.eye(2) + s * np.eye(2)), [lift(np.eye(2))], [2.0 * s])
        it = Iterate(x=lift(s * np.eye(2)), y=np.array([1.0]), z=lift(s * np.eye(2)))
        dx, dy, dz = _newton(p, it, nu)
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
            dx, dy, dz = _newton(p, it, nu)
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
        dx, dy, dz = _newton(p, it, 1.0)
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

    @staticmethod
    def _eigvalsh_formula(m, dm):
        low_inv = np.linalg.inv(np.linalg.cholesky(m))
        lam = np.linalg.eigvalsh(low_inv @ -dm @ low_inv.T)[-1]
        return 1.0 if lam <= 1e-300 else min(1.0, 1.0 / lam)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_eigvalsh_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = 4 + 9 * seed
        g = rng.normal(size=(n, n))
        m = g @ g.T + 0.1 * np.eye(n)
        dm = rng.normal(size=(n, n))
        dm = 3.0 * (dm + dm.T)
        assert step_length(m, dm) == pytest.approx(self._eigvalsh_formula(m, dm), rel=1e-10)

    def test_repeated_top_eigenvalue(self):
        # -C^-1 dm C^-T = Q diag(4, 4, 4, 1, ...) Q^T, so the step is 1/4
        rng = np.random.default_rng(9)
        n = 30
        g = rng.normal(size=(n, n))
        m = g @ g.T + np.eye(n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.concatenate([[4.0] * 3, rng.uniform(-2.0, 1.0, size=n - 3)])
        low = np.linalg.cholesky(m)
        dm = -(low @ q) @ np.diag(lam) @ (low @ q).T
        dm = (dm + dm.T) / 2.0
        assert step_length(m, dm) == pytest.approx(0.25, rel=1e-10)
        assert step_length(m, dm) == pytest.approx(self._eigvalsh_formula(m, dm), rel=1e-10)

    def test_bitwise_equal_to_scipy_eigh(self):
        # the direct sygv call against the scipy.linalg wrapper it replaces;
        # the inputs are left as they were
        rng = np.random.default_rng(21)
        for n in range(1, 41):
            g = rng.normal(size=(n, n))
            m = g @ g.T + 0.1 * np.eye(n)
            m = (m + m.T) / 2.0
            dm = rng.normal(size=(n, n))
            dm = dm + dm.T
            m0, dm0 = m.copy(), dm.copy()
            lam = scipy.linalg.eigh(-dm, m, eigvals_only=True, driver="gv")[-1]
            assert step_length(m, dm) == (1.0 if lam <= 1e-300 else min(1.0, 1.0 / lam))
            assert np.array_equal(m, m0) and np.array_equal(dm, dm0)

    @pytest.mark.parametrize("m", [np.diag([1.0, -1.0]), np.diag([2.0, 0.0, 1.0]), -np.eye(1)], ids=len)
    def test_not_positive_definite_raises_linalg_error(self, m):
        with pytest.raises(np.linalg.LinAlgError):
            step_length(m, np.eye(m.shape[0]))


class TestConeStep:
    """The Cholesky-screened _cone_step against its definition,
    min(1, min_k step_length(M_k, dM_k), the nonnegative entries' ratio)."""

    STRUCTURE = BlockStructure((4, 7, 5), nonneg_dim=6)

    @staticmethod
    def _block_with_step(rng, n, step):
        """(M, dM) with M positive definite and step_length(M, dM) = step
        (up to rounding): the pencil's top eigenvalue is 1 / step."""
        g = rng.normal(size=(n, n))
        m = g @ g.T + np.eye(n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.concatenate([[1.0 / step], rng.uniform(-2.0, 0.9 / step, size=n - 1)])
        low = np.linalg.cholesky(m) @ q
        dm = -low @ np.diag(lam) @ low.T
        return m, (dm + dm.T) / 2.0

    def _pair(self, steps, nonneg_step=None, seed=0):
        rng = np.random.default_rng(seed)
        pairs = [self._block_with_step(rng, n, s) for n, s in zip(self.STRUCTURE.sdp_blocks, steps)]
        x_nn = rng.uniform(0.5, 2.0, size=self.STRUCTURE.nonneg_dim)
        dx_nn = rng.uniform(-0.2, 1.0, size=x_nn.size)  # every ratio above 2
        if nonneg_step is not None:
            dx_nn[2] = -x_nn[2] / nonneg_step
        m = SymBlockMat(self.STRUCTURE, [a for a, _ in pairs], x_nn)
        dm = SymBlockMat(self.STRUCTURE, [d for _, d in pairs], dx_nn)
        return m, dm

    @staticmethod
    def _definition(m, dm):
        neg = dm.nonneg < 0
        ratio = float(np.min(-m.nonneg[neg] / dm.nonneg[neg])) if np.any(neg) else 1.0
        return min(1.0, ratio, *(step_length(b, db) for b, db in zip(m.blocks, dm.blocks)))

    def _screened(self, monkeypatch, m, dm):
        calls = []
        monkeypatch.setattr(ipm, "step_length", lambda b, db: calls.append(b.shape[0]) or step_length(b, db))
        return ipm._cone_step(m, dm), calls

    def test_no_block_limits(self, monkeypatch):
        m, dm = self._pair([1.5, 3.0, 1.2])
        got, calls = self._screened(monkeypatch, m, dm)
        assert got == self._definition(m, dm) == 1.0
        assert calls == []  # every block passes the Cholesky screen at t = 1

    @pytest.mark.parametrize("k", range(3))
    def test_each_block_limits_in_turn(self, monkeypatch, k):
        steps = [0.9] * 3
        steps[k] = 0.4
        m, dm = self._pair(steps, seed=k)
        got, calls = self._screened(monkeypatch, m, dm)
        want = self._definition(m, dm)
        assert want == pytest.approx(0.4, rel=1e-12)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        # blocks before k lower t to 0.9 or tie it, so they run step_length,
        # as block k does; the blocks after it pass the screen at 0.4
        assert calls == list(self.STRUCTURE.sdp_blocks[: k + 1])

    def test_nonnegative_part_limits(self, monkeypatch):
        m, dm = self._pair([0.8, 0.6, 0.9], nonneg_step=0.3)
        got, calls = self._screened(monkeypatch, m, dm)
        want = self._definition(m, dm)
        assert want == pytest.approx(0.3, rel=1e-12)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        assert calls == []  # the ratio is taken first, and every block exceeds it

    def test_tied_blocks_give_the_minimum_bitwise(self, monkeypatch):
        # two copies of one block, the second's direction longer by 1e-15:
        # its step is below the first's by rounding, and a Cholesky screen at
        # exactly t passes it here; the screen's margin sends it to
        # step_length, so t is the minimum of both steps exactly
        m, dm = self._block_with_step(np.random.default_rng(0), 4, 0.7)
        st = BlockStructure((4, 4))
        m2 = SymBlockMat(st, [m, m])
        dm2 = SymBlockMat(st, [dm, dm * (1.0 + 1e-15)])
        got, calls = self._screened(monkeypatch, m2, dm2)
        assert got == self._definition(m2, dm2) < step_length(m, dm)
        assert calls == [4, 4]


class TestSpdInverse:
    def test_bitwise_equal_to_cholesky_and_cho_solve(self):
        rng = np.random.default_rng(22)
        for n in range(1, 41):
            g = rng.normal(size=(n, n))
            z = g @ g.T + 0.1 * np.eye(n)
            z = (z + z.T) / 2.0
            zin = scipy.linalg.cho_solve((scipy.linalg.cholesky(z, lower=True), True), np.eye(n))
            assert np.array_equal(ipm._spd_inverse(z), (zin + zin.T) / 2.0)

    def test_not_positive_definite_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            ipm._spd_inverse(np.diag([1.0, -1.0]))


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
        got = corrector_nu(it, (zero, np.zeros(0), zero), 0.7, 0.3, it.gap())
        assert got == pytest.approx(it.gap() / 2)

    def test_full_annihilation(self):
        it = self._iterate(np.eye(2), np.eye(2))
        d = SymBlockMat(it.x.structure, [-np.eye(2)])
        got = corrector_nu(it, (d, np.zeros(0), d), 1.0, 1.0, it.gap())
        assert got == pytest.approx(0.0, abs=1e-30)

    def test_quarter(self):
        it = self._iterate(np.eye(2), np.eye(2))
        d = SymBlockMat(it.x.structure, [-0.5 * np.eye(2)])
        # gap 2 > 1e-3 so e = 1: (2/2) * (2*(1/4)/2)^1 = 0.25
        got = corrector_nu(it, (d, np.zeros(0), d), 1.0, 1.0, it.gap())
        assert got == pytest.approx(0.25)


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
        sol, _ = solve(_free_variable_problem())
        assert sol.success
        assert sol.primal_value == pytest.approx(1.0, abs=1e-6)
        assert sol.x_primal.free[0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("build", [_free_variable_problem, _free_split_model_problem], ids=["split", "model"])
    def test_log_reports_the_residuals_termination_tests(self, build):
        # the log, stats and the convergence test read the reduced problem's
        # residual norms, which are the original's at the recovered solution
        p = build()
        assert p.structure.free_dim
        sol, log = solve(p)
        assert sol.success
        assert (log[-1].p_inf, log[-1].d_inf) == (sol.stats["primal_residual"], sol.stats["dual_residual"])
        assert log[-1].gap == sol.stats["gap"]
        recovered = Iterate(x=sol.x_primal, y=sol.y_dual, z=sol.z_slack)
        pinf, dinf = residuals(p, recovered, ipm.residual_scales(p))[2]
        assert pinf == pytest.approx(sol.stats["primal_residual"], rel=1e-6, abs=1e-14)
        assert dinf == pytest.approx(sol.stats["dual_residual"], rel=1e-6, abs=1e-14)
        assert recovered.gap() == pytest.approx(sol.stats["gap"], rel=1e-12)
        assert not np.any(sol.z_slack.free)

    def test_inconsistent_free_columns_end_without_an_iteration(self):
        # min <I, X> + x_f s.t. X_11 = 1: x_f is in no row, so the dual's
        # equality 0'y = 1 has no solution and the primal is unbounded
        structure = BlockStructure((2,), free_dim=1)
        c = SymBlockMat(structure, [np.eye(2)], free=[1.0])
        p = ConeProblem(c, [SymBlockMat(structure, [np.diag([1.0, 0.0])])], [1.0])
        sol, log = solve(p)
        assert sol.status == STATUS_LACK_OF_PROGRESS and not sol.success
        assert sol.stats["iterations"] == 0 and len(log) == 0
        assert "inconsistent" in sol.stats["failure"]

    def test_iteration_limit(self):
        p = _correlation_problem(sense=1.0)
        want, log = solve(p)
        n = want.stats["iterations"]
        assert want.success and len(log) == n
        # converged exactly at the last permitted step
        sol, log = solve(p, SolverConfig(max_iterations=n))
        assert sol.status == STATUS_SUCCESS
        assert sol.stats["iterations"] == len(log) == n
        assert (sol.primal_value, sol.dual_value) == (want.primal_value, want.dual_value)
        sol, log = solve(p, SolverConfig(max_iterations=n - 1))
        assert sol.status == STATUS_ITERATION_LIMIT
        assert sol.stats["iterations"] == len(log) == n - 1

    def test_hkm_nt_agree(self):
        p = _correlation_problem(sense=1.0)
        sol_h, _ = solve(p, SolverConfig(direction="hkm"))
        sol_n, _ = solve(p, SolverConfig(direction="nt"))
        assert sol_h.success and sol_n.success
        assert sol_h.primal_value == pytest.approx(sol_n.primal_value, abs=1e-6)

    def test_direction_equations_hold(self):
        p = _correlation_problem(sense=1.0)
        from qsdp.ipm import split_free

        q = split_free(p).problem
        it = cold_start(q)
        r_p, r_d, _ = residuals(q, it)
        for direction in ("hkm", "nt"):
            dx, dy, dz = _newton(q, it, it.gap() / q.structure.cone_dim, direction)
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


@pytest.fixture
def scipy_pool():
    """get() of scipy's OpenBLAS pool, set to 2 threads for the test and reset after."""
    pool = ipm._openblas_pools().get("scipy")
    if pool is None:
        pytest.skip("scipy's bundled OpenBLAS is not loaded")
    get, put = pool
    before = get()
    put(2)
    yield get
    put(before)


class TestScipyPoolCap:
    def test_one_thread_during_solve_restored_after(self, scipy_pool):
        seen = []
        sol, _ = solve(_correlation_problem(1.0), iterate_hook=lambda it: seen.append(scipy_pool()))
        assert sol.success
        assert seen and set(seen) == {1}
        assert scipy_pool() == 2
        threads = sol.stats["blas_threads"]
        assert threads["scipy"] == 1
        numpy_pool = ipm._openblas_pools().get("numpy")
        assert threads.get("numpy") == (numpy_pool[0]() if numpy_pool else None)

    def test_restored_when_solve_raises(self, scipy_pool):
        p = simple_problem(np.eye(2), [np.eye(2), 2 * np.eye(2)], [1.0, 2.0])
        with pytest.raises(ValueError, match="constraint 1"):
            solve(p)
        assert scipy_pool() == 2

        def hook(it):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            solve(_correlation_problem(1.0), iterate_hook=hook)
        assert scipy_pool() == 2

    def test_nested_solve(self, scipy_pool):
        inner = []

        def hook(it):
            if not inner:
                inner.append(solve(_correlation_problem(-1.0))[0])
            assert scipy_pool() == 1  # the inner solve left, the outer one runs on

        sol, _ = solve(_correlation_problem(1.0), iterate_hook=hook)
        assert sol.success and inner[0].success
        assert scipy_pool() == 2

    def test_overlapping_solves_in_two_threads(self, scipy_pool):
        # thread 0 finishes while thread 1 is still inside its solve
        both_inside = threading.Barrier(2, timeout=30)
        first_done = threading.Event()
        seen, results, errors = ([], []), [None, None], []

        def run(k):
            def hook(it):
                if it.iteration == 1:
                    both_inside.wait()
                if k == 1 and it.iteration == 2:
                    assert first_done.wait(timeout=30)
                seen[k].append(scipy_pool())

            try:
                results[k] = solve(_correlation_problem(1.0), iterate_hook=hook)[0]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                both_inside.abort()
            finally:
                if k == 0:
                    first_done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert not errors, errors
        assert all(r.success for r in results)
        assert set(seen[0]) == set(seen[1]) == {1}
        assert scipy_pool() == 2

    def test_nothing_touched_without_the_library(self, scipy_pool, monkeypatch):
        monkeypatch.setattr(ipm, "_openblas_pools", lambda: {})
        seen = []
        sol, _ = solve(_correlation_problem(1.0), iterate_hook=lambda it: seen.append(scipy_pool()))
        assert sol.success
        assert set(seen) == {2}
        assert sol.stats["blas_threads"] == {}
        assert scipy_pool() == 2
