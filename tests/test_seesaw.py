import re

import numpy as np
import pytest

from qsdp.modeling import MatExpr, Model, partial_trace
from qsdp.npa import chsh_functional, qrac_witness
from qsdp.quantum import qsd_optimal, random_pure
from qsdp.seesaw import (
    BellSeesawTask,
    PamSeesawTask,
    _effects,
    _max_density,
    _max_effect,
    chsh_seesaw,
    qrac_seesaw,
    seesaw,
)

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

    @pytest.mark.parametrize("step", [_max_density, _max_effect])
    def test_a_stack_gives_the_stack_of_maximizers(self, step):
        ops = [op for op in step_ops() if op.shape == (3, 3)]
        assert len(ops) == 3
        batched = step(np.array(ops))
        for op, got in zip(ops, batched):
            assert np.array_equal(got, step(op))


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


# ---------------------------------------------------------------------------
# per-term reference: one np.kron and one partial_trace per term, each
# setting updated in turn


def ref_effect(p, outcome):
    return p if outcome == 0 else np.eye(p.shape[0]) - p


def hermitize(m):
    return (m + m.conj().T) / 2.0


class RefBellTask(BellSeesawTask):
    def objective(self, point):
        return float(np.real(np.trace(point["state"] @ self.bell_operator(point))))

    def bell_operator(self, point):
        d_a, d_b = self.dims
        g = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
        for (a, b, x, y), alpha in self.bell.items():
            g += alpha * np.kron(ref_effect(point["A"][x], a), ref_effect(point["B"][y], b))
        return hermitize(g)

    def sweep(self, point):
        d_a, d_b = self.dims
        rho = point["state"]
        for x in range(self.n_settings[0]):
            k = np.zeros((d_a, d_a), dtype=complex)
            for (a, b, xx, y), alpha in self.bell.items():
                if xx == x:
                    fb = ref_effect(point["B"][y], b)
                    k += (-1) ** a * alpha * partial_trace(np.kron(np.eye(d_a), fb) @ rho, (d_a, d_b), keep=[0])
            point["A"][x] = _max_effect(hermitize(k))
        for y in range(self.n_settings[1]):
            k = np.zeros((d_b, d_b), dtype=complex)
            for (a, b, x, yy), alpha in self.bell.items():
                if yy == y:
                    ea = ref_effect(point["A"][x], a)
                    k += (-1) ** b * alpha * partial_trace(np.kron(ea, np.eye(d_b)) @ rho, (d_a, d_b), keep=[1])
            point["B"][y] = _max_effect(hermitize(k))
        point["state"] = _max_density(self.bell_operator(point))
        return point, self.objective(point)


class RefPamTask(PamSeesawTask):
    def objective(self, point):
        total = 0.0
        for (b, x, y), beta in self.witness.items():
            total += beta * np.real(np.trace(point["states"][x] @ ref_effect(point["M"][y], b)))
        return float(total)

    def sweep(self, point):
        for y in range(self.n_meas):
            k = np.zeros((self.dim, self.dim), dtype=complex)
            for (b, x, yy), beta in self.witness.items():
                if yy == y:
                    k += (-1) ** b * beta * point["states"][x]
            point["M"][y] = _max_effect(hermitize(k))
        if self.fixed_states is None:
            for x in range(self.n_preparations):
                k = np.zeros((self.dim, self.dim), dtype=complex)
                for (b, xx, y), beta in self.witness.items():
                    if xx == x:
                        k += beta * ref_effect(point["M"][y], b)
                point["states"][x] = _max_density(hermitize(k))
        return point, self.objective(point)


def mixed_state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def copy_point(point):
    return {key: np.array(value, dtype=complex) for key, value in point.items()}


def assert_points_close(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert np.asarray(got[key]).shape == np.asarray(want[key]).shape
        assert np.max(np.abs(np.asarray(got[key]) - np.asarray(want[key]))) <= 1e-12


def random_bell(rng, n_settings):
    c = rng.normal(size=(2, 2, *n_settings))
    return {key: float(c[key]) for key in np.ndindex(c.shape)}


def bell_tasks():
    rng = np.random.default_rng(23)
    return {
        "chsh": dict(bell=chsh_functional()),
        "three-settings-dims-2-3": dict(bell=random_bell(rng, (3, 3)), dims=(2, 3), n_settings=(3, 3)),
        "settings-3-2-dims-3-2": dict(bell=random_bell(rng, (3, 2)), dims=(3, 2), n_settings=(3, 2)),
    }


def pam_tasks():
    rng = np.random.default_rng(29)
    # beta[0] - beta[1] takes both signs in each column, so no K_y is definite
    # and no effect of a sweep is 0 or I (which would make the states' step
    # degenerate, and its maximizer not unique)
    beta1 = rng.uniform(0.0, 1.0, size=(3, 2))
    beta0 = beta1 + np.array([[1, -1], [1, 1], [-1, 1]]) * rng.uniform(0.5, 1.5, size=(3, 2))
    beta = np.stack([beta0, beta1])
    witness = {key: float(beta[key]) for key in np.ndindex(beta.shape)}
    fixed = [mixed_state(rng, 3) for _ in range(3)]
    return {
        "qrac": dict(witness=qrac_witness(2), dim=2, n_preparations=4, n_meas=2),
        "random-dim-3": dict(witness=witness, dim=3, n_preparations=3, n_meas=2),
        "fixed-states": dict(witness=witness, dim=3, n_preparations=3, n_meas=2, fixed_states=fixed),
    }


class TestContractedSweepMatchesPerTermReference:
    @pytest.mark.parametrize("name", list(bell_tasks()))
    def test_bell(self, name):
        kwargs = bell_tasks()[name]
        task, ref = BellSeesawTask(**kwargs), RefBellTask(**kwargs)
        rng = np.random.default_rng(31)
        states_compared = 0
        for _ in range(3):
            point = task.random_point(rng)
            # full rank: with a pure state and d_a != d_b, the larger party's K
            # has a zero eigenvalue, and its best effect is not unique
            point["state"] = 0.9 * point["state"] + 0.1 * mixed_state(rng, task.dims[0] * task.dims[1])
            assert np.max(np.abs(task.bell_operator(point) - ref.bell_operator(point))) <= 1e-12
            assert task.objective(point) == pytest.approx(ref.objective(point), abs=1e-12)
            (got, got_value), (want, _) = task.sweep(copy_point(point)), ref.sweep(copy_point(point))
            assert_points_close({k: got[k] for k in "AB"}, {k: want[k] for k in "AB"})
            assert task.objective(got) == pytest.approx(ref.objective(want), abs=1e-12)
            # the sweep's value is the top eigenvalue of its state step
            assert got_value == pytest.approx(ref.objective(want), abs=1e-12)
            # the new state is the top eigenprojector of the Bell operator,
            # unique when its top eigenvalue is simple (not so when an effect
            # came out 0 or I)
            w = np.linalg.eigvalsh(ref.bell_operator(want))
            if w[-1] - w[-2] > 1e-6:
                assert_points_close({"state": got["state"]}, {"state": want["state"]})
                states_compared += 1
        assert states_compared > 0

    @pytest.mark.parametrize("name", list(pam_tasks()))
    def test_pam(self, name):
        kwargs = pam_tasks()[name]
        task, ref = PamSeesawTask(**kwargs), RefPamTask(**kwargs)
        rng = np.random.default_rng(37)
        for _ in range(3):
            point = task.random_point(rng)
            assert task.objective(point) == pytest.approx(ref.objective(point), abs=1e-12)
            (got, got_value), (want, _) = task.sweep(copy_point(point)), ref.sweep(copy_point(point))
            assert_points_close(got, want)
            assert task.objective(got) == pytest.approx(ref.objective(want), abs=1e-12)
            assert got_value == pytest.approx(ref.objective(want), abs=1e-12)
        if "fixed_states" in kwargs:
            assert np.array_equal(got["states"], np.array(kwargs["fixed_states"]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chsh_restart_values(self, seed):
        got = chsh_seesaw(seed=seed)
        want = seesaw(RefBellTask(bell=chsh_functional()), seed=seed)
        assert len(got.restart_values) == len(want.restart_values) == 20
        assert np.max(np.abs(np.subtract(got.restart_values, want.restart_values))) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_qrac_restart_values(self, seed):
        got = qrac_seesaw(seed=seed)
        want = seesaw(RefPamTask(witness=qrac_witness(2), dim=2, n_preparations=4, n_meas=2), seed=seed)
        assert len(got.restart_values) == len(want.restart_values) == 20
        assert np.max(np.abs(np.subtract(got.restart_values, want.restart_values))) <= 1e-12


class TestRoundingDoesNotPickTheEffect:
    def test_pure_state_with_unequal_dims(self):
        """With a pure state and dims (2, 3), Bob's K has an exact zero
        eigenvalue, computed as +-1e-17 or so.  Two inputs that differ only
        by rounding give the same effects."""
        task = BellSeesawTask(**bell_tasks()["three-settings-dims-2-3"])
        rng = np.random.default_rng(41)
        zero_eigs = 0
        for _ in range(5):
            point = task.random_point(rng)
            # the same pure state, with its entries perturbed at the last bits
            other = copy_point(point)
            other["state"] = (other["state"] * 3.0 + 1e-300) / 3.0
            assert 0 < np.max(np.abs(other["state"] - point["state"])) <= 1e-15
            got, _ = task.sweep(copy_point(point))
            again, _ = task.sweep(other)
            for side in "AB":
                assert np.max(np.abs(got[side] - again[side])) <= 1e-9
            # Bob's K at the new Alice effects: rank <= 2 of 3
            rho = point["state"].reshape(2, 3, 2, 3)
            f = np.einsum("axy,xaij->yij", task._c[:, 0] - task._c[:, 1], _effects(got["A"]))
            k = np.einsum("yim,mkil->ykl", f, rho)
            zero_eigs += int(np.sum(np.abs(np.linalg.eigvalsh((k + k.conj().swapaxes(1, 2)) / 2)) <= 1e-12))
        assert zero_eigs > 0

    def test_zero_eigenvalue_is_left_out(self):
        q, _ = np.linalg.qr(np.random.default_rng(43).normal(size=(3, 3)))
        for noise in (1e-17, -1e-17, 0.0):
            op = q @ np.diag([0.7, noise, -1.2]) @ q.T
            m = _max_effect(op)
            assert np.max(np.abs(m - np.outer(q[:, 0], q[:, 0]))) <= 1e-12


class TestKeysChecked:
    @pytest.mark.parametrize(
        "key", [(2, 0, 0, 0), (0, 2, 0, 0), (-1, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, -1), (0, 0, 0), (0.0, 0, 0, 0)]
    )
    def test_bell_key_out_of_range(self, key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            BellSeesawTask(bell={(1, 1, 1, 1): 1.0, key: 1.0})

    @pytest.mark.parametrize("key", [(2, 0, 0), (-1, 0, 0), (0, 4, 0), (0, -1, 0), (0, 0, 2), (1, 0)])
    def test_pam_key_out_of_range(self, key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            PamSeesawTask(witness={(1, 1, 1): 1.0, key: 1.0})

    def test_fixed_states_count_matches_preparations(self):
        with pytest.raises(ValueError, match="fixed_states"):
            PamSeesawTask(witness={(0, 0, 0): 1.0}, n_preparations=4, n_meas=1, fixed_states=[np.eye(2) / 2] * 2)

    def test_keys_in_range_accepted(self):
        BellSeesawTask(bell={(1, 1, 2, 0): 1.0}, dims=(2, 3), n_settings=(3, 1))
        PamSeesawTask(witness={(1, 3, 1): 1.0}, n_preparations=4, n_meas=2)
