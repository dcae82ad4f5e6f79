"""Alternating (see-saw) lower bounds over states and measurements.

States are optimized with measurements fixed and vice versa.  Each
alternation step is an SDP with a closed form, solved by one Hermitian
eigendecomposition: over density matrices, max Tr(op rho) = lambda_max(op)
at the top eigenprojector; over effects 0 <= M <= I, max Tr(op M) is the
sum of op's positive eigenvalues, at the projector onto that eigenspace.

A task holds its functional as one dense coefficient tensor (c[a, b, x, y]
for a Bell functional, beta[b, x, y] for a prepare-and-measure one), built
when the task is made; a key with an outcome other than 0 or 1 or a setting
out of range raises ValueError there.  A point holds each party's binary
settings stacked, so a step is a tensor
contraction: with E^B[y, b] Bob's effects (P_y and I - P_y), Alice's
operators are F_x = sum (-1)^a c[a, b, x, y] E^B[y, b] and
K_x = Tr_B[(I (x) F_x) rho], one einsum each, and all of her settings
update together by one batched eigh (K_x depends only on rho and Bob's
effects, so this is exact).  Bob's settings follow from Alice's new
effects, then the state from both.  A sweep costs the same number of numpy
calls however many terms the functional has.  It returns the new point and
its value; a Bell sweep's value is the top eigenvalue of the Bell operator
that its state step has just diagonalized, so nothing is rebuilt to score
the point.

The method yields lower bounds only; restarting from fresh random points
improves the chance of hitting the global optimum.  The restarts advance
together: every array of a point carries a leading restart axis, so one
sweep moves every restart still running, and a restart leaves the batch
once its own sweep stops improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-8  # a restart stops once one sweep improves the objective by at most this, relative


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


# an eigenvalue with |w| <= _ZERO_EIG * max(1, max |w|) counts as zero
_ZERO_EIG = 1e-12


def _top_eigen(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The top eigenvalue of op and its eigenprojector: the maximum and a
    maximizer of Tr(op rho) over density matrices.  A stack of ops
    (..., d, d) gives the stacks."""
    w, vecs = np.linalg.eigh(op)
    v = vecs[..., -1:]
    return w[..., -1], v @ _dagger(v)


def _max_density(op: np.ndarray) -> np.ndarray:
    """A density matrix maximizing Tr(op rho): the top eigenprojector of op.
    A stack of ops (..., d, d) gives the stack of maximizers."""
    return _top_eigen(op)[1]


def _max_effect(op: np.ndarray) -> np.ndarray:
    """An effect 0 <= M <= I maximizing Tr(op M): the projector onto op's
    positive eigenspace.  An eigenvalue that counts as zero (_ZERO_EIG) is
    left out, so the effect does not follow the sign of rounding noise.  A
    stack of ops (..., d, d) gives the stack of maximizers."""
    w, vecs = np.linalg.eigh(op)
    tol = _ZERO_EIG * np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True))
    v = vecs * (w > tol)[..., None, :]
    return v @ _dagger(vecs)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2.0


def _effects(p: np.ndarray) -> np.ndarray:
    """E[..., s, o] for binary settings whose outcome-0 effects are the stack
    p[..., s]: E[..., s, 0] = p[..., s] and E[..., s, 1] = I - p[..., s]."""
    e = np.empty((*p.shape[:-2], 2, *p.shape[-2:]), dtype=p.dtype)
    e[..., 0, :, :] = p
    np.subtract(np.eye(p.shape[-1]), p, out=e[..., 1, :, :])
    return e


def _normals(rng, restarts: int, *shapes: tuple) -> list[np.ndarray]:
    """One rng.normal call of shape (restarts, k), cut in order into arrays
    (restarts, *shape) for the given shapes: row i holds the normals that
    restart i would draw on its own, shape by shape."""
    sizes = [math.prod(s) for s in shapes]
    z = rng.normal(size=(restarts, sum(sizes)))
    parts = np.split(z, np.cumsum(sizes)[:-1], axis=1)
    return [part.reshape(restarts, *s) for part, s in zip(parts, shapes)]


def _haar_states(z: np.ndarray) -> np.ndarray:
    """Pure states |v><v| with v = z[..., 0, :] + i z[..., 1, :] normalized:
    ``npa.haar_state`` made from the same normals, bitwise (the squared norm
    is summed by the dot products ``np.linalg.norm`` takes)."""
    v = z[..., 0, :] + 1j * z[..., 1, :]
    re, im = v.real[..., None, :], v.imag[..., None, :]
    v /= np.sqrt(re @ _dagger(re) + im @ _dagger(im))[..., 0]
    return v[..., :, None] * v.conj()[..., None, :]


def _haar_projectors(z: np.ndarray) -> np.ndarray:
    """Rank-one projectors onto the first column of the QR factor of
    z[..., 0, :, :] + i z[..., 1, :, :]: ``npa.haar_projector`` made from the
    same normals."""
    q = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])[0][..., :1]
    return q @ _dagger(q)


def _coefficients(terms: dict, shape: tuple, what: str) -> np.ndarray:
    """The dense tensor of ``terms`` over index extents ``shape``; a key that
    is not a tuple of integers within ``shape`` raises ValueError naming it."""
    t = np.zeros(shape, dtype=np.result_type(float, *terms.values()))
    for key, coeff in terms.items():
        if not (
            isinstance(key, tuple)
            and len(key) == len(shape)
            and all(isinstance(i, (int, np.integer)) and 0 <= i < n for i, n in zip(key, shape))
        ):
            raise ValueError(f"{what} key {key!r} is outside {shape}: outcomes must be 0 or 1, settings in range")
        t[key] = coeff
    return t


@dataclass
class BellSeesawTask:
    """Two-party Bell functional with binary-outcome projective settings.

    A point is {"state": rho, "A": P^A, "B": P^B} with rho (..., d, d),
    P^A (..., n_settings[0], d_a, d_a) and P^B (..., n_settings[1], d_b,
    d_b) the stacked outcome-0 projectors; the leading axes "..." index
    restarts.
    """

    bell: dict  # (a, b, x, y) -> coefficient
    dims: tuple[int, int] = (2, 2)
    n_settings: tuple[int, int] = (2, 2)

    def __post_init__(self):
        self._c = _coefficients(self.bell, (2, 2, *self.n_settings), "Bell")

    def random_points(self, rng, restarts: int):
        """``restarts`` random points stacked, from one draw of normals; row i
        holds what one restart drew on its own: the state's real and
        imaginary parts, then each of Alice's projectors, then Bob's."""
        (d_a, d_b), (n_a, n_b) = self.dims, self.n_settings
        z_state, z_a, z_b = _normals(rng, restarts, (2, d_a * d_b), (n_a, 2, d_a, d_a), (n_b, 2, d_b, d_b))
        return {"state": _haar_states(z_state), "A": _haar_projectors(z_a), "B": _haar_projectors(z_b)}

    def objective(self, point) -> np.ndarray:
        return np.einsum("...ij,...ji->...", point["state"], self.bell_operator(point)).real

    def bell_operator(self, point) -> np.ndarray:
        d = self.dims[0] * self.dims[1]
        g = np.einsum("abxy,...xaij,...ybkl->...ikjl", self._c, _effects(point["A"]), _effects(point["B"]))
        return _hermitize(g.reshape(*g.shape[:-4], d, d))

    def sweep(self, point):
        d_a, d_b = self.dims
        rho = point["state"].reshape(*point["state"].shape[:-2], d_a, d_b, d_a, d_b)
        # Alice's settings: K_x = Tr_B[(I (x) F_x) rho], F_x from Bob's effects
        f = np.einsum("bxy,...ybkl->...xkl", self._c[0] - self._c[1], _effects(point["B"]))
        point["A"] = _max_effect(_hermitize(np.einsum("...xkm,...imjk->...xij", f, rho)))
        # Bob's settings: K_y = Tr_A[(F_y (x) I) rho], F_y from Alice's new effects
        f = np.einsum("axy,...xaij->...yij", self._c[:, 0] - self._c[:, 1], _effects(point["A"]))
        point["B"] = _max_effect(_hermitize(np.einsum("...yim,...mkil->...ykl", f, rho)))
        # shared state: the point's value is the top eigenvalue
        value, point["state"] = _top_eigen(self.bell_operator(point))
        return point, value


@dataclass
class PamSeesawTask:
    """Prepare-and-measure functional sum beta_{b,x,y} Tr(rho_x M^b_y) with
    binary measurements.

    A point is {"states": rho, "M": P} with rho (..., n_preparations, dim,
    dim) the stacked states and P (..., n_meas, dim, dim) the stacked
    outcome-0 effects; the leading axes "..." index restarts.
    """

    witness: dict  # (b, x, y) -> coefficient
    dim: int = 2
    n_preparations: int = 4
    n_meas: int = 2
    fixed_states: list | None = None

    def __post_init__(self):
        if self.fixed_states is not None and len(self.fixed_states) != self.n_preparations:
            raise ValueError(f"fixed_states has {len(self.fixed_states)} states for {self.n_preparations} preparations")
        self._beta = _coefficients(self.witness, (2, self.n_preparations, self.n_meas), "witness")

    def random_points(self, rng, restarts: int):
        """``restarts`` random points stacked, from one draw of normals; row i
        holds what one restart drew on its own: each state (none when the
        states are fixed, which every restart shares), then each
        measurement."""
        d, n_x, n_y = self.dim, self.n_preparations, self.n_meas
        if self.fixed_states is not None:
            (z_meas,) = _normals(rng, restarts, (n_y, 2, d, d))
            states = np.broadcast_to(np.array(self.fixed_states), (restarts, n_x, d, d))
        else:
            z_states, z_meas = _normals(rng, restarts, (n_x, 2, d), (n_y, 2, d, d))
            states = _haar_states(z_states)
        return {"states": states, "M": _haar_projectors(z_meas)}

    def objective(self, point) -> np.ndarray:
        return np.einsum("bxy,...xij,...ybji->...", self._beta, point["states"], _effects(point["M"])).real

    def sweep(self, point):
        # K_y = sum_x (beta[0, x, y] - beta[1, x, y]) rho_x
        k = np.einsum("xy,...xij->...yij", self._beta[0] - self._beta[1], point["states"])
        point["M"] = _max_effect(_hermitize(k))
        if self.fixed_states is None:
            # K_x = sum_{b, y} beta[b, x, y] E[y, b]
            k = np.einsum("bxy,...ybij->...xij", self._beta, _effects(point["M"]))
            point["states"] = _max_density(_hermitize(k))
        return point, self.objective(point)


@dataclass
class SeesawOutcome:
    value: float
    point: dict
    trajectory: list[float]
    restart_values: list[float] = field(default_factory=list)


def seesaw(task, restarts: int = 20, seed: int = 0, max_alternations: int = 200):
    """Best lower bound over random restarts of alternating maximization.

    ``task.random_points(rng, restarts)`` draws the stacked starting points
    and ``task.sweep(points)`` returns the next points and their objective
    values, so one sweep advances every restart still running.  Every step
    is an exact maximizer, so within one restart the trajectory of objective
    values is non-decreasing up to rounding; a restart stops when its
    relative improvement drops below ``REL_TOL`` or the cap is reached.  The
    best restart (the first, on a tie) gives the outcome's value, point and
    trajectory.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_alternations < 0:
        raise ValueError(f"max_alternations must be at least 0, got {max_alternations}")
    points = task.random_points(np.random.default_rng(seed), restarts)
    values = task.objective(points)
    trajectories = [[value] for value in values.tolist()]
    final = {key: np.array(value) for key, value in points.items()}  # each restart's last point
    running = np.arange(restarts)
    for _ in range(max_alternations):
        last = values
        points, values = task.sweep(points)
        for i, value in zip(running.tolist(), values.tolist()):
            trajectories[i].append(value)
        done = values - last <= REL_TOL * np.maximum(1.0, np.abs(last))
        if done.any():
            for key, value in points.items():
                final[key][running[done]] = value[done]
            points = {key: value[~done] for key, value in points.items()}
            running, values = running[~done], values[~done]
            if running.size == 0:
                break
    for key, value in points.items():
        final[key][running] = value
    restart_values = [traj[-1] for traj in trajectories]
    best = max(range(restarts), key=restart_values.__getitem__)
    return SeesawOutcome(
        value=restart_values[best],
        point={key: value[best] for key, value in final.items()},
        trajectory=trajectories[best],
        restart_values=restart_values,
    )


def chsh_seesaw(restarts: int = 20, seed: int = 0):
    from .npa import chsh_functional

    return seesaw(BellSeesawTask(bell=chsh_functional()), restarts=restarts, seed=seed)


def qrac_seesaw(n_bits: int = 2, d: int = 2, restarts: int = 20, seed: int = 0):
    from .npa import qrac_witness

    task = PamSeesawTask(witness=qrac_witness(n_bits), dim=d, n_preparations=2**n_bits, n_meas=n_bits)
    return seesaw(task, restarts=restarts, seed=seed)
