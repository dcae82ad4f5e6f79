import re

import numpy as np
import pytest

from qsdp.modeling import MatExpr, Model, partial_trace
from qsdp.npa import chsh_functional, haar_projector, haar_state, qrac_witness
from qsdp.quantum import qsd_optimal, random_pure
from qsdp.seesaw import (
    REL_TOL,
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
    res = model.solve()
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
    res = model.solve()
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


def unstack(point):
    """The points of a stack, one dict per restart."""
    n = len(next(iter(point.values())))
    return [{key: np.array(value[i]) for key, value in point.items()} for i in range(n)]


def stack(points):
    return {key: np.array([p[key] for p in points]) for key in points[0]}


class RefBellTask(BellSeesawTask):
    """The per-term reference, looping over the restarts of a stack."""

    def objective(self, point):
        return np.array([float(np.real(np.trace(p["state"] @ self._bell_operator(p)))) for p in unstack(point)])

    def bell_operator(self, point):
        return np.array([self._bell_operator(p) for p in unstack(point)])

    def _bell_operator(self, point):
        d_a, d_b = self.dims
        g = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
        for (a, b, x, y), alpha in self.bell.items():
            g += alpha * np.kron(ref_effect(point["A"][x], a), ref_effect(point["B"][y], b))
        return hermitize(g)

    def sweep(self, point):
        points = [self._sweep(p) for p in unstack(point)]
        return stack(points), self.objective(stack(points))

    def _sweep(self, point):
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
        point["state"] = _max_density(self._bell_operator(point))
        return point


class RefPamTask(PamSeesawTask):
    """The per-term reference, looping over the restarts of a stack."""

    def objective(self, point):
        return np.array([self._objective(p) for p in unstack(point)])

    def _objective(self, point):
        total = 0.0
        for (b, x, y), beta in self.witness.items():
            total += beta * np.real(np.trace(point["states"][x] @ ref_effect(point["M"][y], b)))
        return float(total)

    def sweep(self, point):
        points = [self._sweep(p) for p in unstack(point)]
        return stack(points), self.objective(stack(points))

    def _sweep(self, point):
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
        return point


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
        points = []
        for _ in range(3):
            point = task.random_points(rng, 1)
            # full rank: with a pure state and d_a != d_b, the larger party's K
            # has a zero eigenvalue, and its best effect is not unique
            point["state"] = 0.9 * point["state"] + 0.1 * mixed_state(rng, task.dims[0] * task.dims[1])
            points.append(point)
        point = {key: np.concatenate([p[key] for p in points]) for key in points[0]}
        assert np.max(np.abs(task.bell_operator(point) - ref.bell_operator(point))) <= 1e-12
        assert np.max(np.abs(task.objective(point) - ref.objective(point))) <= 1e-12
        (got, got_value), (want, _) = task.sweep(copy_point(point)), ref.sweep(copy_point(point))
        assert_points_close({k: got[k] for k in "AB"}, {k: want[k] for k in "AB"})
        assert np.max(np.abs(task.objective(got) - ref.objective(want))) <= 1e-12
        # the sweep's value is the top eigenvalue of its state step
        assert np.max(np.abs(got_value - ref.objective(want))) <= 1e-12
        # the new state is the top eigenprojector of the Bell operator, unique
        # when its top eigenvalue is simple (not so when an effect came out 0
        # or I)
        states_compared = 0
        for g, w, op in zip(got["state"], want["state"], ref.bell_operator(want)):
            eigs = np.linalg.eigvalsh(op)
            if eigs[-1] - eigs[-2] > 1e-6:
                assert_points_close({"state": g}, {"state": w})
                states_compared += 1
        assert states_compared > 0

    @pytest.mark.parametrize("name", list(pam_tasks()))
    def test_pam(self, name):
        kwargs = pam_tasks()[name]
        task, ref = PamSeesawTask(**kwargs), RefPamTask(**kwargs)
        point = task.random_points(np.random.default_rng(37), 3)
        assert np.max(np.abs(task.objective(point) - ref.objective(point))) <= 1e-12
        (got, got_value), (want, _) = task.sweep(copy_point(point)), ref.sweep(copy_point(point))
        assert_points_close(got, want)
        assert np.max(np.abs(task.objective(got) - ref.objective(want))) <= 1e-12
        assert np.max(np.abs(got_value - ref.objective(want))) <= 1e-12
        if "fixed_states" in kwargs:
            assert all(np.array_equal(states, np.array(kwargs["fixed_states"])) for states in got["states"])

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


def all_tasks():
    return [
        *(pytest.param(BellSeesawTask(**kwargs), id=name) for name, kwargs in bell_tasks().items()),
        *(pytest.param(PamSeesawTask(**kwargs), id=name) for name, kwargs in pam_tasks().items()),
    ]


def one_restart_draw(task, rng):
    """Reference: the starting point of one restart drawn on its own, with
    one ``haar_state`` and ``haar_projector`` call per state and setting."""
    if isinstance(task, BellSeesawTask):
        (d_a, d_b), (n_a, n_b) = task.dims, task.n_settings
        state = haar_state(rng, d_a * d_b)
        meas_a = np.array([haar_projector(rng, d_a) for _ in range(n_a)])
        meas_b = np.array([haar_projector(rng, d_b) for _ in range(n_b)])
        return {"state": state, "A": meas_a, "B": meas_b}
    states = (
        np.array(task.fixed_states)
        if task.fixed_states is not None
        else np.array([haar_state(rng, task.dim) for _ in range(task.n_preparations)])
    )
    return {"states": states, "M": np.array([haar_projector(rng, task.dim) for _ in range(task.n_meas)])}


def per_restart_seesaw(task, restarts, seed, max_alternations):
    """Each restart run on its own as a batch of one, from the batched draw:
    its trajectory and final point."""
    points = task.random_points(np.random.default_rng(seed), restarts)
    runs = []
    for i in range(restarts):
        point = {key: np.array(value[i : i + 1]) for key, value in points.items()}
        traj = [float(task.objective(point)[0])]
        for _ in range(max_alternations):
            point, value = task.sweep(point)
            traj.append(float(value[0]))
            if traj[-1] - traj[-2] <= REL_TOL * max(1.0, abs(traj[-2])):
                break
        runs.append((traj, {key: value[0] for key, value in point.items()}))
    return runs


class TestRestartsAdvanceTogether:
    @pytest.mark.parametrize("task", all_tasks())
    def test_one_draw_equals_consecutive_draws(self, task):
        batched = np.random.default_rng(53)
        got = task.random_points(batched, 6)
        rng = np.random.default_rng(53)
        for i in range(6):
            want = one_restart_draw(task, rng)
            for key in want:
                assert got[key][i].shape == want[key].shape
            for key in ("A", "B", "M"):
                if key in want:
                    assert np.array_equal(got[key][i], want[key])
            state_key = "state" if "state" in want else "states"
            assert np.max(np.abs(got[state_key][i] - want[state_key])) <= 1e-15
        # the draw leaves the generator where the consecutive draws did
        assert batched.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("task", all_tasks())
    def test_sweep_on_a_stack_equals_sweep_on_each_slice(self, task):
        points = task.random_points(np.random.default_rng(59), 5)
        got, got_values = task.sweep(copy_point(points))
        assert got_values.shape == (5,)
        assert np.max(np.abs(task.objective(points) - [task.objective(p) for p in unstack(points)])) <= 1e-12
        for i, point in enumerate(unstack(points)):
            want, want_value = task.sweep(copy_point(point))
            assert np.ndim(want_value) == 0
            assert abs(got_values[i] - want_value) <= 1e-12
            assert_points_close({key: value[i] for key, value in got.items()}, want)

    @pytest.mark.parametrize(
        "task, max_alternations, sweeps",
        [
            # CHSH, the QRAC and fixed states take 3 or 2 sweeps from every start
            pytest.param(BellSeesawTask(bell=chsh_functional()), 200, [3] * 8, id="chsh"),
            pytest.param(PamSeesawTask(**pam_tasks()["qrac"]), 200, [3] * 8, id="qrac"),
            pytest.param(PamSeesawTask(**pam_tasks()["fixed-states"]), 200, [2] * 8, id="fixed-states"),
            # restarts stop at different alternations, leaving the batch apart
            pytest.param(
                BellSeesawTask(**bell_tasks()["three-settings-dims-2-3"]), 200, [2, 2, 2, 3, 2, 5, 5, 2], id="dims-2-3"
            ),
            # two restarts reach the cap, the others stop before it
            pytest.param(
                BellSeesawTask(**bell_tasks()["three-settings-dims-2-3"]),
                4,
                [2, 2, 2, 3, 2, 4, 4, 2],
                id="dims-2-3-capped",
            ),
        ],
    )
    def test_batched_seesaw_equals_a_per_restart_loop(self, task, max_alternations, sweeps):
        out = seesaw(task, restarts=8, seed=61, max_alternations=max_alternations)
        runs = per_restart_seesaw(task, 8, 61, max_alternations)
        assert [len(traj) - 1 for traj, _ in runs] == sweeps
        assert np.max(np.abs(np.subtract(out.restart_values, [traj[-1] for traj, _ in runs]))) <= 1e-12
        best = max(range(8), key=lambda i: runs[i][0][-1])
        traj, point = runs[best]
        assert out.value == out.restart_values[best]
        assert len(out.trajectory) == len(traj)
        assert np.max(np.abs(np.subtract(out.trajectory, traj))) <= 1e-12
        assert_points_close(out.point, point)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_no_restart_is_an_error(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            chsh_seesaw(restarts=restarts)

    def test_negative_alternation_cap_is_an_error(self):
        with pytest.raises(ValueError, match="max_alternations"):
            seesaw(BellSeesawTask(bell=chsh_functional()), max_alternations=-1)

    def test_no_alternation_scores_the_starting_points(self):
        task = PamSeesawTask(witness=qrac_witness(2), dim=2, n_preparations=4, n_meas=2)
        out = seesaw(task, restarts=4, seed=67, max_alternations=0)
        start = task.objective(task.random_points(np.random.default_rng(67), 4))
        assert out.restart_values == start.tolist()
        assert out.trajectory == [out.value] and out.value == max(start)


class TestRoundingDoesNotPickTheEffect:
    def test_pure_state_with_unequal_dims(self):
        """With a pure state and dims (2, 3), Bob's K has an exact zero
        eigenvalue, computed as +-1e-17 or so.  Two inputs that differ only
        by rounding give the same effects."""
        task = BellSeesawTask(**bell_tasks()["three-settings-dims-2-3"])
        points = task.random_points(np.random.default_rng(41), 5)
        zero_eigs = 0
        for i in range(5):
            point = {key: value[i : i + 1] for key, value in points.items()}
            # the same pure state, with its entries perturbed at the last bits
            other = copy_point(point)
            other["state"] = (other["state"] * 3.0 + 1e-300) / 3.0
            assert 0 < np.max(np.abs(other["state"] - point["state"])) <= 1e-15
            got, _ = task.sweep(copy_point(point))
            again, _ = task.sweep(other)
            for side in "AB":
                assert np.max(np.abs(got[side] - again[side])) <= 1e-9
            # Bob's K at the new Alice effects: rank <= 2 of 3
            rho = point["state"][0].reshape(2, 3, 2, 3)
            f = np.einsum("axy,xaij->yij", task._c[:, 0] - task._c[:, 1], _effects(got["A"][0]))
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
