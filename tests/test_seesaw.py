import numpy as np
import pytest

from qsdp.modeling import MatExpr, Model
from qsdp.quantum import qsd_optimal, random_pure
from qsdp.seesaw import PamSeesawTask, _max_density, _max_effect, chsh_seesaw, qrac_seesaw, seesaw

ROOT2 = np.sqrt(2.0)


def sdp_max_density(op):
    """Reference: maximize Tr(op rho) over density matrices with the IPM."""
    d = op.shape[0]
    model = Model()
    rho = model.declare(d, structure="hermitian", field="complex", name="rho")
    model.add_lmi(rho.expr())
    model.add_equality(rho.trace(), 1.0)
    model.maximize(rho.expr().frobenius_with(op.conj().T))
    res = model.compile(framing="dual", equality_mode="eliminate").solve()
    assert res.success
    return res.value, res.values["rho"]


def sdp_max_effect(op):
    """Reference: maximize Tr(op M) over effects 0 <= M <= I with the IPM."""
    d = op.shape[0]
    model = Model()
    m = model.declare(d, structure="hermitian", field="complex", name="M")
    model.add_lmi(m.expr())
    model.add_lmi(MatExpr((d, d), np.eye(d)) - m.expr())
    model.maximize(m.expr().frobenius_with(op.conj().T))
    res = model.compile(framing="dual", equality_mode="free_split").solve()
    assert res.success
    return res.value, res.values["M"]


def step_ops():
    """Seeded random Hermitian ops for d = 2, 3, 4, plus one with a repeated
    top eigenvalue and one with a zero eigenvalue."""
    rng = np.random.default_rng(17)
    ops = []
    for d in (2, 3, 4):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ops.append((g + g.conj().T) / 2)
    for spectrum in ((1.0, 1.0, -0.5), (0.7, 0.0, -1.2)):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        ops.append(q @ np.diag(spectrum) @ q.conj().T)
    return ops


STEP_OP_IDS = ["d2", "d3", "d4", "repeated-top", "zero-eigenvalue"]


def eig_bounds(m):
    w = np.linalg.eigvalsh(m)
    return w[0], w[-1]


class TestClosedFormSteps:
    @pytest.mark.parametrize("op", step_ops(), ids=STEP_OP_IDS)
    def test_max_density_matches_sdp(self, op):
        ref_value, ref_rho = sdp_max_density(op)
        rho = _max_density(op)
        assert np.trace(op @ rho).real == pytest.approx(ref_value, abs=1e-6)
        assert np.trace(op @ rho).real == pytest.approx(np.linalg.eigvalsh(op)[-1], abs=1e-12)
        for m in (rho, ref_rho):
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-6)
            assert eig_bounds(m)[0] > -1e-7

    @pytest.mark.parametrize("op", step_ops(), ids=STEP_OP_IDS)
    def test_max_effect_matches_sdp(self, op):
        ref_value, ref_m = sdp_max_effect(op)
        m = _max_effect(op)
        w = np.linalg.eigvalsh(op)
        assert np.trace(op @ m).real == pytest.approx(ref_value, abs=1e-6)
        assert np.trace(op @ m).real == pytest.approx(w[w > 0].sum(), abs=1e-12)
        for e in (m, ref_m):
            lo, hi = eig_bounds(e)
            assert lo > -1e-7 and hi < 1 + 1e-7


class TestSeesawChsh:
    def test_reaches_tsirelson(self):
        out = chsh_seesaw(restarts=4, seed=0)
        assert out.value >= 2 * ROOT2 - 1e-3
        assert out.value <= 2 * ROOT2 + 1e-6  # never exceeds the quantum bound

    def test_trajectory_monotone(self):
        out = chsh_seesaw(restarts=2, seed=1)
        traj = out.trajectory
        assert all(b >= a - 1e-12 for a, b in zip(traj, traj[1:]))

    def test_point_is_physical(self):
        out = chsh_seesaw(restarts=2, seed=2)
        rho = out.point["state"]
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.eigvalsh(rho)[0] > -1e-7
        for side in ("A", "B"):
            for m in out.point[side]:
                w = np.linalg.eigvalsh(m)
                assert w[0] > -1e-7 and w[-1] < 1 + 1e-7


class TestSeesawQrac:
    def test_reaches_analytic_optimum(self):
        out = qrac_seesaw(restarts=4, seed=0)
        target = (1 + 1 / ROOT2) / 2
        assert out.value >= target - 1e-3
        assert out.value <= target + 1e-6

    def test_deterministic_under_seed(self):
        v1 = qrac_seesaw(restarts=2, seed=7).value
        v2 = qrac_seesaw(restarts=2, seed=7).value
        assert v1 == v2


class TestSeesawQsdStep:
    def test_fixed_states_first_step_matches_qsd(self):
        rng = np.random.default_rng(3)
        r1, r2 = random_pure(rng, 2), random_pure(rng, 2)
        value, _, _ = qsd_optimal([r1, r2])
        # discrimination witness: outcome 0 of the single setting bets on state
        # 0, outcome 1 on state 1, with equal priors
        task = PamSeesawTask(
            witness={(0, 0, 0): 0.5, (1, 1, 0): 0.5},
            dim=2,
            n_preparations=2,
            n_meas=1,
            fixed_states=[r1.matrix, r2.matrix],
        )
        out = seesaw(task, restarts=1, seed=0, max_alternations=1)
        assert out.value == pytest.approx(value, abs=1e-6)

    def test_restart_values_recorded(self):
        out = qrac_seesaw(restarts=3, seed=5)
        assert len(out.restart_values) == 3
        assert max(out.restart_values) == pytest.approx(out.value)
