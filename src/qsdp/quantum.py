"""Quantum-state applications: states, channels, separability, discrimination."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .modeling import MatExpr, Model, _cell_grid, _cplx_from_json, _hermitian_on_orbits, _signed_orbits, partial_trace, partial_transpose


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-9 * max(1.0, np.max(np.abs(m))):
            raise ValueError("density matrix must be Hermitian")
        if np.linalg.eigvalsh(m)[0] < -1e-9:
            raise ValueError("density matrix must be PSD")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise ValueError("density matrix must have unit trace")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    def to_json_dict(self):
        return {"dim": self.dim, "re": np.real(self.matrix).tolist(), "im": np.imag(self.matrix).tolist()}

    @classmethod
    def from_json_dict(cls, d) -> "DensityMatrix":
        return cls(_cplx_from_json(d))


def random_pure(rng, d: int) -> DensityMatrix:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return DensityMatrix.pure(v)


def werner_state(p: float) -> DensityMatrix:
    """p * |psi-><psi-| + (1-p) I/4 on two qubits."""
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    return DensityMatrix(p * np.outer(psi_minus, psi_minus) + (1.0 - p) * np.eye(4) / 4.0)


# ---------------------------------------------------------------------------
# Choi matrices and channels


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi operator on output (x) input space."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dim_in * self.dim_out,) * 2:
            raise ValueError("Choi matrix has the wrong shape")

    @property
    def is_trace_preserving(self) -> bool:
        red = partial_trace(self.matrix, (self.dim_out, self.dim_in), keep=[1])
        return bool(np.max(np.abs(red - np.eye(self.dim_in))) <= 1e-8)

    def to_json_dict(self):
        return {
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
            "re": np.real(self.matrix).tolist(),
            "im": np.imag(self.matrix).tolist(),
        }

    @classmethod
    def from_json_dict(cls, d) -> "ChoiMatrix":
        return cls(_cplx_from_json(d), int(d["dim_in"]), int(d["dim_out"]))


def choi_of_channel(kraus_or_map, dim_in: int, dim_out: int | None = None) -> ChoiMatrix:
    """J = sum_ij E[|i><j|] (x) |i><j| from Kraus operators or a matrix map."""
    dim_out = dim_out or dim_in
    if callable(kraus_or_map):
        apply = kraus_or_map
    else:
        kraus = [np.asarray(k, dtype=complex) for k in kraus_or_map]
        apply = lambda rho: sum(k @ rho @ k.conj().T for k in kraus)
    j = np.zeros((dim_out * dim_in,) * 2, dtype=complex)
    for i in range(dim_in):
        for k in range(dim_in):
            e = np.zeros((dim_in, dim_in), dtype=complex)
            e[i, k] = 1.0
            j += np.kron(apply(e), e)
    return ChoiMatrix(j, dim_in, dim_out)


def apply_choi(j: ChoiMatrix, rho) -> np.ndarray:
    """Channel action Tr_2[J (I (x) rho^T)]."""
    rho = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if rho.shape != (j.dim_in, j.dim_in):
        raise ValueError("state dimension does not match the channel input")
    op = j.matrix @ np.kron(np.eye(j.dim_out), rho.T)
    return partial_trace(op, (j.dim_out, j.dim_in), keep=[0])


def _add_hermitian_equality(model: Model, expr: MatExpr, target: np.ndarray):
    """expr == target, one equality per cell of the upper triangle: the
    Hermitian-valued expr then matches below it too.  A cell whose equality
    repeats an earlier cell's exactly (the same coefficients, constant and
    target), as cells whose entries are tied to one orbit give, adds none."""
    seen = set()
    for i, k in zip(*np.triu_indices(expr.shape[0])):
        entry = expr.entry(i, k)
        key = (tuple(sorted(entry.coeffs.items())), entry.const, complex(target[i, k]))
        if key not in seen:
            seen.add(key)
            model.add_equality(entry, target[i, k])


def channel_feasibility(
    dim_in: int,
    dim_out: int | None = None,
    objective: np.ndarray | None = None,
    ppt_preserving_dims: tuple | None = None,
    nonsignaling_b_to_a_dims: tuple | None = None,
    fixed_choi: np.ndarray | None = None,
    cfg=None,
):
    """Optimize a linear functional over Choi matrices of channels (CP and
    trace preserving: J >= 0 and Tr_out J = I).

    With ``objective`` J maximizes Tr(J K).  Without one, the routine solves a
    robust feasibility problem (maximize the smallest eigenvalue slack) and
    reports feasibility of the constraint set; ``fixed_choi`` pins every entry
    of J, which turns it into a membership test for the channel set.
    ``ppt_preserving_dims`` / ``nonsignaling_b_to_a_dims`` give the subsystem
    dimensions (a_out, b_out, a_in, b_in) of a bipartite channel.

    The constraints are fixed by J -> conj(J) = J^T and, with the PPT LMI, by
    J -> J^{T_B}; so by convexity an optimum is too when the data are.  J's
    cells are tied over T when the data are real symmetric, and over T_B when
    they are their own partial transpose: J^{T_B} is then J, so the PPT LMI
    is J's own.
    """
    dim_out = dim_out or dim_in
    d = dim_in * dim_out
    for name, sub in (("ppt_preserving_dims", ppt_preserving_dims), ("nonsignaling_b_to_a_dims", nonsignaling_b_to_a_dims)):
        if sub is not None and (len(sub) != 4 or sub[0] * sub[1] != dim_out or sub[2] * sub[3] != dim_in):
            raise ValueError(f"{name} do not match the channel dimensions")
    for name, x in (("objective", objective), ("fixed_choi", fixed_choi)):
        if x is not None and np.shape(x) != (d, d):
            raise ValueError(f"{name} must be {d} x {d}, the Choi dimension")
        if x is not None and not np.allclose(x, np.conj(x).T):
            raise ValueError(f"{name} must be Hermitian")
    dims = None if ppt_preserving_dims is None else tuple(ppt_preserving_dims)
    model = Model()
    data = [np.asarray(x) for x in (objective, fixed_choi) if x is not None]
    cells = _cell_grid((d, d))
    images = [cells, cells.T] if all(np.array_equal(x, x.T) and not np.any(np.imag(x)) for x in data) else [cells]
    # transpose Bob's output and input subsystems (order: a_out, b_out, a_in, b_in)
    tied = dims is not None and all(np.array_equal(partial_transpose(x, dims, [1, 3]), x) for x in data)
    if tied:
        images += [partial_transpose(g, dims, [1, 3]) for g in images]
    j_expr = _hermitian_on_orbits(model, _signed_orbits(np.reshape(images, (len(images), -1)))[0].reshape(d, d), "J")

    feasibility = objective is None
    if feasibility:
        t = model.declare(1, structure="symmetric", name="t")
        t_eye = MatExpr((d, d), terms={t.decl.offset: np.eye(d)})
        model.add_lmi(j_expr - t_eye)
        model.maximize(t.entry(0, 0))
    else:
        model.add_lmi(j_expr)
        model.maximize(j_expr.frobenius_with(np.asarray(objective, dtype=complex)))

    _add_hermitian_equality(model, j_expr.partial_trace((dim_out, dim_in), keep=[1]), np.eye(dim_in))

    if dims is not None and not tied:
        pt = j_expr.partial_transpose(dims, [1, 3])
        if feasibility:
            model.add_lmi(pt - t_eye)
        else:
            model.add_lmi(pt)

    if nonsignaling_b_to_a_dims is not None:
        ao, bo, ai, bi = nonsignaling_b_to_a_dims
        lhs = j_expr.partial_trace(nonsignaling_b_to_a_dims, keep=[0, 2, 3])  # trace out b_out
        marg = j_expr.partial_trace(nonsignaling_b_to_a_dims, keep=[0, 2])  # trace out b_out and b_in
        # kron(M, I) / b_in = sum_s V_s M V_s^T / b_in, V_s = I (x) e_s, and vec(V M V^T) = (V (x) V) vec(M)
        v = [sp.kron(sp.identity(ao * ai), np.eye(bi)[:, [s]]) for s in range(bi)]
        rhs = marg.map_linear(sum(sp.kron(v_s, v_s) for v_s in v) / bi, (ao * ai * bi,) * 2)
        # reorder lhs (a_out, a_in, b_in) is already the kron order of rhs
        _add_hermitian_equality(model, lhs - rhs, np.zeros(rhs.shape))

    if fixed_choi is not None:
        _add_hermitian_equality(model, j_expr, np.asarray(fixed_choi, dtype=complex))

    res = model.solve(cfg=cfg)
    out = {
        "value": res.value,
        "choi": ChoiMatrix(j_expr.value(res.compiled.params_from(res.solution)), dim_in, dim_out),
        "result": res,
    }
    if feasibility:
        out["feasible"] = bool(res.success and res.value >= -1e-7)
        out["slack"] = res.value
    return out


# ---------------------------------------------------------------------------
# separability: PPT symmetric extensions


@dataclass
class DpsResult:
    feasible: bool
    slack: float  # optimal smallest-eigenvalue slack; negative => entangled
    extension: np.ndarray | None
    witness_dual: np.ndarray | None
    model_result: object


def _symmetric_extension(model: Model, dims_ext) -> MatExpr:
    """Declare a Hermitian matrix on A (x) B^k tied on the orbits of its cells
    under the k! permutations of the B copies (``_hermitian_on_orbits``)."""
    d, k = int(np.prod(dims_ext)), len(dims_ext) - 1
    index = np.arange(d).reshape(dims_ext)
    moved = np.array([index.transpose(0, *p).ravel() for p in permutations(range(1, k + 1))])
    images = (moved[:, :, None] * d + moved[:, None, :]).reshape(len(moved), d * d)
    return _hermitian_on_orbits(model, _signed_orbits(images)[0].reshape(d, d), "ext")


def dps_test(rho: DensityMatrix, dims: tuple[int, int], k: int = 2, ppt: bool = True, cfg=None) -> DpsResult:
    """Search for a PPT symmetric extension of rho on A (x) B^k.

    Feasible extensions certify compatibility with separability at level k;
    infeasibility (negative slack) proves entanglement.  The extension is
    symmetric under every permutation of the B copies, reproduces rho after
    tracing out copies 2..k, and optionally stays PSD under the partial
    transposes of every B-copy bipartition.
    """
    d_a, d_b = dims
    if k < 1:
        raise ValueError("need at least one copy")
    if rho.dim != d_a * d_b:
        raise ValueError("state dimension does not match dims")
    dims_ext = (d_a,) + (d_b,) * k
    d_ext = int(np.prod(dims_ext))
    if d_ext > 64:
        raise MemoryError(f"extension dimension {d_ext} exceeds the desk-scale guard (64)")

    model = Model()
    expr = _symmetric_extension(model, dims_ext)
    t = model.declare(1, structure="symmetric", name="t")
    t_eye = MatExpr((d_ext, d_ext), terms={t.decl.offset: np.eye(d_ext)})

    model.add_lmi(expr - t_eye)
    if ppt:
        for j in range(1, k + 1):
            subsystems = list(range(1, 1 + j))  # first j copies of B
            model.add_lmi(expr.partial_transpose(dims_ext, subsystems) - t_eye)

    _add_hermitian_equality(model, expr.partial_trace(dims_ext, keep=[0, 1]), rho.matrix)

    model.maximize(t.entry(0, 0))
    res = model.solve(cfg=cfg)
    slack = res.value
    feasible = bool(res.success and slack >= -1e-7)
    return DpsResult(
        feasible=feasible,
        slack=slack,
        extension=expr.value(res.compiled.params_from(res.solution)) if feasible else None,
        witness_dual=res.solution.x_primal.blocks[0].copy() if not feasible else None,
        model_result=res,
    )


# ---------------------------------------------------------------------------
# SWAP-operator probability extraction


def swap_operator(dims, s1: int, s2: int) -> np.ndarray:
    """SWAP of subsystems s1 and s2 on a tensor space with the given dims."""
    if dims[s1] != dims[s2]:
        raise ValueError("swapped subsystems must have equal dimensions")
    d = int(np.prod(dims))
    axes = list(range(2 * len(dims)))
    axes[s1], axes[s2] = s2, s1
    return np.eye(d).reshape(list(dims) * 2).transpose(axes).reshape(d, d)


def swap_probability_extract(w: np.ndarray, dims: tuple[int, int], targets: str = "both") -> float:
    """Tr[W (SWAP(A,A') (x) SWAP(B,B'))] on the ordering (A, B, A', B').

    ``targets`` selects which sides are swapped: "both", "A" (Bob side left
    alone) or "B".  For separable W built from an ensemble this evaluates the
    matching Born-rule average.
    """
    d_a, d_b = dims
    full = (d_a, d_b, d_a, d_b)
    w = np.asarray(w, dtype=complex)
    if w.shape != (d_a * d_b * d_a * d_b,) * 2:
        raise ValueError("operator shape does not match the dims")
    op = np.eye(w.shape[0])
    if targets in ("both", "A"):
        op = op @ swap_operator(full, 0, 2)
    if targets in ("both", "B"):
        op = op @ swap_operator(full, 1, 3)
    if targets not in ("both", "A", "B"):
        raise ValueError("targets must be 'both', 'A' or 'B'")
    return float(np.real(np.trace(w @ op)))


# ---------------------------------------------------------------------------
# quantum state discrimination


def qsd_optimal(states, priors=None, cfg=None):
    """Maximize sum_i p_i Tr(rho_i M_i) over POVMs {M_i}."""
    states = [s if isinstance(s, DensityMatrix) else DensityMatrix(np.asarray(s)) for s in states]
    n = len(states)
    if n < 2:
        raise ValueError("need at least two states to discriminate")
    d = states[0].dim
    if any(s.dim != d for s in states):
        raise ValueError("all states must share one dimension")
    priors = np.full(n, 1.0 / n) if priors is None else np.asarray(priors, dtype=float)
    if priors.shape != (n,) or np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError("priors must be nonnegative and sum to 1")

    model = Model()
    povm_vars = [model.declare(d, structure="hermitian", field="complex", name=f"M{i}") for i in range(n - 1)]
    total = None
    for v in povm_vars:
        model.add_lmi(v.expr())
        total = v.expr() if total is None else total + v.expr()
    last = MatExpr((d, d), np.eye(d)) - total
    model.add_lmi(last)

    objective = last.frobenius_with(priors[-1] * states[-1].matrix)
    for i, v in enumerate(povm_vars):
        objective = objective + v.expr().frobenius_with(priors[i] * states[i].matrix)
    model.maximize(objective.real())

    res = model.solve(cfg=cfg)
    povm = [res.values[f"M{i}"] for i in range(n - 1)]
    povm.append(np.eye(d) - sum(povm))
    return res.value, povm, res


def helstrom_bound(rho1, rho2, p1=0.5) -> float:
    """Two-state discrimination optimum (independent eigenvalue oracle)."""
    m1 = rho1.matrix if isinstance(rho1, DensityMatrix) else np.asarray(rho1)
    m2 = rho2.matrix if isinstance(rho2, DensityMatrix) else np.asarray(rho2)
    gamma = p1 * m1 - (1 - p1) * m2
    return float(0.5 + 0.5 * np.sum(np.abs(np.linalg.eigvalsh(gamma))))
