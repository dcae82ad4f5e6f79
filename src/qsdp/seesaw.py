"""Alternating (see-saw) lower bounds over states and measurements.

States are optimized with measurements fixed and vice versa.  Each
alternation step is an SDP with a closed form, solved by one Hermitian
eigendecomposition: over density matrices, max Tr(op rho) = lambda_max(op)
at the top eigenprojector; over effects 0 <= M <= I, max Tr(op M) is the
sum of op's positive eigenvalues, at the projector onto that eigenspace.
The method yields lower bounds only; restarting from fresh random points
improves the chance of hitting the global optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modeling import partial_trace
from .npa import haar_projector, haar_state


def _max_density(op: np.ndarray) -> np.ndarray:
    """A density matrix maximizing Tr(op rho): the top eigenprojector of op."""
    _, vecs = np.linalg.eigh(op)
    v = vecs[:, -1:]
    return v @ v.conj().T


def _max_effect(op: np.ndarray) -> np.ndarray:
    """An effect 0 <= M <= I maximizing Tr(op M): the projector onto op's
    positive eigenspace."""
    w, vecs = np.linalg.eigh(op)
    v = vecs[:, w > 0]
    return v @ v.conj().T


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _effect(p: np.ndarray, outcome: int) -> np.ndarray:
    """Effect of ``outcome`` in a binary measurement whose outcome-0 effect is ``p``."""
    return p if outcome == 0 else np.eye(p.shape[0]) - p


@dataclass
class BellSeesawTask:
    """Two-party Bell functional with binary-outcome projective settings."""

    bell: dict  # (a, b, x, y) -> coefficient
    dims: tuple[int, int] = (2, 2)
    n_settings: tuple[int, int] = (2, 2)

    def random_point(self, rng):
        d_a, d_b = self.dims
        state = haar_state(rng, d_a * d_b)
        meas_a = [haar_projector(rng, d_a, 1) for _ in range(self.n_settings[0])]
        meas_b = [haar_projector(rng, d_b, 1) for _ in range(self.n_settings[1])]
        return {"state": state, "A": meas_a, "B": meas_b}

    def objective(self, point) -> float:
        return float(np.real(np.trace(point["state"] @ self.bell_operator(point))))

    def bell_operator(self, point) -> np.ndarray:
        d_a, d_b = self.dims
        g = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
        for (a, b, x, y), alpha in self.bell.items():
            g += alpha * np.kron(_effect(point["A"][x], a), _effect(point["B"][y], b))
        return _hermitize(g)

    def sweep(self, point):
        d_a, d_b = self.dims
        rho = point["state"]
        # Alice settings
        for x in range(self.n_settings[0]):
            k = np.zeros((d_a, d_a), dtype=complex)
            for (a, b, xx, y), alpha in self.bell.items():
                if xx != x:
                    continue
                sign = 1.0 if a == 0 else -1.0
                fb = _effect(point["B"][y], b)
                k += sign * alpha * partial_trace(np.kron(np.eye(d_a), fb) @ rho, (d_a, d_b), keep=[0])
            point["A"][x] = _max_effect(_hermitize(k))
        # Bob settings
        for y in range(self.n_settings[1]):
            k = np.zeros((d_b, d_b), dtype=complex)
            for (a, b, x, yy), alpha in self.bell.items():
                if yy != y:
                    continue
                sign = 1.0 if b == 0 else -1.0
                ea = _effect(point["A"][x], a)
                k += sign * alpha * partial_trace(np.kron(ea, np.eye(d_b)) @ rho, (d_a, d_b), keep=[1])
            point["B"][y] = _max_effect(_hermitize(k))
        # shared state
        point["state"] = _max_density(self.bell_operator(point))
        return point


@dataclass
class PamSeesawTask:
    """Prepare-and-measure functional sum beta_{b,x,y} Tr(rho_x M^b_y) with
    binary measurements."""

    witness: dict  # (b, x, y) -> coefficient
    dim: int = 2
    n_preparations: int = 4
    n_meas: int = 2
    fixed_states: list | None = None

    def random_point(self, rng):
        states = (
            [s.copy() for s in self.fixed_states]
            if self.fixed_states is not None
            else [haar_state(rng, self.dim) for _ in range(self.n_preparations)]
        )
        meas = [haar_projector(rng, self.dim, 1) for _ in range(self.n_meas)]
        return {"states": states, "M": meas}

    def objective(self, point) -> float:
        total = 0.0
        for (b, x, y), beta in self.witness.items():
            total += beta * np.real(np.trace(point["states"][x] @ _effect(point["M"][y], b)))
        return float(total)

    def sweep(self, point):
        for y in range(self.n_meas):
            k = np.zeros((self.dim, self.dim), dtype=complex)
            for (b, x, yy), beta in self.witness.items():
                if yy != y:
                    continue
                k += (1.0 if b == 0 else -1.0) * beta * point["states"][x]
            point["M"][y] = _max_effect(_hermitize(k))
        if self.fixed_states is None:
            for x in range(self.n_preparations):
                k = np.zeros((self.dim, self.dim), dtype=complex)
                for (b, xx, y), beta in self.witness.items():
                    if xx != x:
                        continue
                    k += beta * _effect(point["M"][y], b)
                point["states"][x] = _max_density(_hermitize(k))
        return point


@dataclass
class SeesawOutcome:
    value: float
    point: dict
    trajectory: list[float]
    restart_values: list[float] = field(default_factory=list)


def seesaw(task, restarts: int = 20, seed: int = 0, max_alternations: int = 200, rel_tol: float = 1e-8):
    """Best lower bound over random restarts of alternating maximization.

    Every step is an exact maximizer, so within one restart the trajectory of
    objective values is non-decreasing up to rounding; alternation stops when
    the relative improvement drops below ``rel_tol`` or the cap is reached.
    """
    rng = np.random.default_rng(seed)
    best: SeesawOutcome | None = None
    restart_values = []
    for _ in range(max(restarts, 1)):
        point = task.random_point(rng)
        traj = [task.objective(point)]
        for _ in range(max_alternations):
            point = task.sweep(point)
            traj.append(task.objective(point))
            if traj[-1] - traj[-2] <= rel_tol * max(1.0, abs(traj[-2])):
                break
        restart_values.append(traj[-1])
        if best is None or traj[-1] > best.value:
            best = SeesawOutcome(value=traj[-1], point=point, trajectory=traj)
    best.restart_values = restart_values
    return best


def chsh_seesaw(restarts: int = 20, seed: int = 0):
    from .npa import chsh_functional

    return seesaw(BellSeesawTask(bell=chsh_functional()), restarts=restarts, seed=seed)


def qrac_seesaw(n_bits: int = 2, d: int = 2, restarts: int = 20, seed: int = 0):
    from .npa import qrac_witness

    task = PamSeesawTask(witness=qrac_witness(n_bits), dim=d, n_preparations=2**n_bits, n_meas=n_bits)
    return seesaw(task, restarts=restarts, seed=seed)
