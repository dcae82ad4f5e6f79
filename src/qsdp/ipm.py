"""Primal-dual infeasible interior-point solver for :class:`ConeProblem`.

Implements a Mehrotra predictor-corrector scheme with HKM (default) or NT
search directions, cold start, Cholesky-based step lengths and an optional
iterate perturbation.  Free variables are handled internally by splitting
them into differences of nonnegative pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .blockmat import BlockStructure, SymBlockMat, frobenius_inner
from .problem import (
    ConeProblem,
    Solution,
    STATUS_SUCCESS,
    STATUS_PRIMAL_INFEASIBLE,
    STATUS_DUAL_INFEASIBLE,
    STATUS_LACK_OF_PROGRESS,
    STATUS_NUMERICAL_FAILURE,
    STATUS_ITERATION_LIMIT,
    require_independent,
)


@dataclass
class SolverConfig:
    tol_gap: float = 1e-7
    tol_primal: float = 1e-7
    tol_dual: float = 1e-7
    max_iterations: int = 100
    gamma_step: float = 0.98  # step-length safety factor, keeps iterates interior
    expon: float = 3.0  # cap for the corrector exponent
    direction: str = "hkm"  # "hkm" or "nt"
    perturbation_enabled: bool = False
    validate: bool = True

    def __post_init__(self):
        if not 0.0 < self.gamma_step < 1.0:
            raise ValueError("gamma_step must lie in (0, 1)")
        if min(self.tol_gap, self.tol_primal, self.tol_dual) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.direction not in ("hkm", "nt"):
            raise ValueError("direction must be 'hkm' or 'nt'")


@dataclass
class Iterate:
    x: SymBlockMat
    y: np.ndarray
    z: SymBlockMat
    iteration: int = 0

    def gap(self) -> float:
        return frobenius_inner(self.x, self.z)


@dataclass
class IterationRecord:
    it: int
    pstep: float
    dstep: float
    p_inf: float
    d_inf: float
    gap: float
    mean_obj: float
    seconds: float


class IterationLog:
    """Per-iteration history, serializable as a fixed-width text table."""

    COLUMNS = ("it", "pstep", "dstep", "p_inf", "d_inf", "gap", "mean_obj", "time")

    def __init__(self):
        self.records: list[IterationRecord] = []

    def append(self, rec: IterationRecord):
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_text(self) -> str:
        lines = [" it  pstep     dstep     p_inf     d_inf     gap       mean_obj      time"]
        for r in self.records:
            lines.append(
                f"{r.it:3d}  {r.pstep:8.3f}  {r.dstep:8.3f}  {r.p_inf:8.2e}  {r.d_inf:8.2e}  "
                f"{r.gap:8.2e}  {r.mean_obj:12.8f}  {r.seconds:7.3f}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# elementary operations


def cold_start(p: ConeProblem) -> Iterate:
    """Scaled identity start X = xi*I, Z = eta*I, y = 0, block by block.

    xi = max(10, sqrt(n), n * max_i (1+|b_i|)/(1+|A_i|_F)) and
    eta = max(10, sqrt(n), |C|_F, max_i |A_i|_F), evaluated per block with the
    nonnegative orthant treated as one diagonal block.
    """
    st = p.structure
    if st.free_dim:
        raise ValueError("cold_start expects a problem without free variables (split them first)")
    b_abs = np.abs(p.rhs)
    # |A_i|_F restricted to each part: SDP blocks, then the nonnegative entries
    offsets, sq = st.flat_offsets(), p.a * p.a
    a_norms = [np.sqrt(sq[:, lo:hi].sum(axis=1)) for lo, hi in zip(offsets[:-2], offsets[1:-1])]
    x = SymBlockMat.zeros(st)
    z = SymBlockMat.zeros(st)

    def scales(n, c_norm, a_norms):
        xi = max(10.0, np.sqrt(n))
        eta = max(10.0, np.sqrt(n), c_norm)
        if a_norms.size:
            xi = max(xi, n * np.max((1.0 + b_abs) / (1.0 + a_norms)))
            eta = max(eta, np.max(a_norms))
        return xi, eta

    for k, n in enumerate(st.sdp_blocks):
        xi, eta = scales(n, np.linalg.norm(p.c_obj.blocks[k]), a_norms[k])
        x.blocks[k][:] = xi * np.eye(n)
        z.blocks[k][:] = eta * np.eye(n)
    if st.nonneg_dim:
        xi, eta = scales(st.nonneg_dim, np.linalg.norm(p.c_obj.nonneg), a_norms[-1])
        x.nonneg[:] = xi
        z.nonneg[:] = eta
    return Iterate(x=x, y=np.zeros(p.num_constraints), z=z, iteration=0)


def residuals(p: ConeProblem, it: Iterate):
    """Primal/dual residuals r_p = b - A(x), r_d = C - A*(y) - Z and their
    normalized norms |r_p|/(1+|b|) and |r_d|/(1+|C|_F)."""
    r_p = p.rhs - p.apply(it.x)
    r_d = p.c_obj - p.adjoint(it.y) - it.z
    pinf = np.linalg.norm(r_p) / (1.0 + np.linalg.norm(p.rhs))
    dinf = r_d.norm() / (1.0 + p.c_obj.norm())
    return r_p, r_d, (float(pinf), float(dinf))


def step_length(m: np.ndarray, dm: np.ndarray) -> float:
    """Largest t <= 1 with m + t*dm PSD, via min(1, 1/lambda_max(C^-T (-dm) C^-1)).

    C is the Cholesky factor of the positive definite m; a Cholesky failure
    propagates as LinAlgError.
    """
    m = np.asarray(m, dtype=float)
    dm = np.asarray(dm, dtype=float)
    if m.size == 0:
        return 1.0
    low = scipy.linalg.cholesky(m, lower=True)
    w = scipy.linalg.solve_triangular(low, -dm, lower=True)
    w = scipy.linalg.solve_triangular(low, w.T, lower=True)
    lam = float(np.linalg.eigvalsh((w + w.T) / 2.0)[-1])
    if lam <= 1e-300:
        return 1.0
    return min(1.0, 1.0 / lam)


def _cone_step(m: SymBlockMat, dm: SymBlockMat) -> float:
    """Step to the cone boundary over all blocks and nonnegative entries."""
    t = 1.0
    for b, db in zip(m.blocks, dm.blocks):
        t = min(t, step_length(b, db))
    neg = dm.nonneg < 0
    if np.any(neg):
        t = min(t, float(np.min(-m.nonneg[neg] / dm.nonneg[neg])))
    return t


def corrector_nu(it: Iterate, predictor, alpha_p: float, beta_p: float, cfg: SolverConfig) -> float:
    """Mehrotra target (Tr(XZ)/n) * (Tr((X+a dX)(Z+b dZ))/Tr(XZ))^e.

    The exponent e is 1 while the gap exceeds 1e-3, then grows with the decimal
    digits gained, capped by cfg.expon.
    """
    dx, _, dz = predictor
    gap = it.gap()
    n = max(it.x.structure.cone_dim, 1)
    if gap <= 0:
        return 0.0
    x_try = it.x + alpha_p * dx
    z_try = it.z + beta_p * dz
    ratio = max(frobenius_inner(x_try, z_try) / gap, 0.0)
    if gap > 1e-3:
        e = 1.0
    else:
        e = min(cfg.expon, 1.0 + np.log10(1e-3 / gap))
    return float((gap / n) * ratio**e)


def perturb(it: Iterate, gap: float, eps_p: float, eps_d: float, trace_scale: float) -> Iterate:
    """Shift iterates away from the cone boundary.

    When the gap is lagging the primal feasibility by two orders of magnitude,
    X gains 0.01*t_p*I; when the primal residual lags the dual one the same
    way, Z gains 0.1*t_p*I.  Otherwise the iterate is returned unchanged.
    """
    shift_x = gap > 100.0 * eps_p
    shift_z = eps_p > 100.0 * eps_d
    if not (shift_x or shift_z):
        return it
    eye = SymBlockMat.identity(it.x.structure)
    x = it.x + 0.01 * trace_scale * eye if shift_x else it.x
    z = it.z + 0.1 * trace_scale * eye if shift_z else it.z
    return Iterate(x=x, y=it.y.copy(), z=z, iteration=it.iteration)


# ---------------------------------------------------------------------------
# Newton system


class _DirectionContext:
    """Scalings and the factored Schur matrix at one iterate, shared by the
    predictor and the corrector solve of an iteration."""

    def __init__(self, p: ConeProblem, it: Iterate, direction: str):
        self.p = p
        self.zinv = []
        self.w_nt = []
        for zb, xb in zip(it.z.blocks, it.x.blocks):
            low = scipy.linalg.cholesky(zb, lower=True)
            zin = scipy.linalg.cho_solve((low, True), np.eye(zb.shape[0]))
            self.zinv.append((zin + zin.T) / 2.0)
            if direction == "nt":
                self.w_nt.append(_nt_scaling(xb, zb))
        self.direction = direction
        self.b = self.schur(it)
        try:
            self.cho = scipy.linalg.cho_factor(self.b, lower=True)
        except scipy.linalg.LinAlgError:
            self.cho = None

    def kappa(self, it: Iterate, dz: SymBlockMat) -> SymBlockMat:
        """The scaling operator K with dX + K(dZ) = G (blocks symmetrized on construction)."""
        x, z = it.x, it.z
        if self.direction == "hkm":
            blocks = [xb @ db @ zi for xb, db, zi in zip(x.blocks, dz.blocks, self.zinv)]
            return SymBlockMat(x.structure, blocks, x.nonneg * dz.nonneg / z.nonneg)
        blocks = [w @ db @ w for w, db in zip(self.w_nt, dz.blocks)]
        return SymBlockMat(x.structure, blocks, (x.nonneg / z.nonneg) * dz.nonneg)

    def schur(self, it: Iterate) -> np.ndarray:
        """B_ij = <A_i, K(A_j)>, assembled column by column.

        Column j is A applied to K(A_j), and K(A_j) is built from A_j's
        support only: L[:, s] A_j[s, s] R[s, :] in SDP block k, with s the
        nonzero rows of A_j there and (L, R) = (X_k, Z_k^-1) for HKM or
        (W_k, W_k) for NT; a * x / z on the nonnegative entries (both
        scalings coincide there).
        """
        p, st = self.p, it.x.structure
        a, m, nsdp = p.a, p.num_constraints, len(st.sdp_blocks)
        offsets = st.flat_offsets()
        d = it.x.nonneg / it.z.nonneg
        b = np.zeros((m, m))
        u = np.zeros(st.flat_dim)
        for j in range(m):
            u[:] = 0.0
            # row j's entries of each part form one run of the CSR arrays
            cuts = a.indptr[j] + np.searchsorted(a.indices[a.indptr[j] : a.indptr[j + 1]], offsets)
            for k, n in enumerate(st.sdp_blocks):
                cols, vals = a.indices[cuts[k] : cuts[k + 1]], a.data[cuts[k] : cuts[k + 1]]
                if not cols.size:
                    continue
                # A_j's support is sup x sup, with sup its nonzero rows (A_j is symmetric)
                rows, cols = np.divmod(cols - offsets[k], n)
                sup, at = np.unique(rows, return_inverse=True)
                a_sub = np.zeros((sup.size, sup.size))
                a_sub[at, np.searchsorted(sup, cols)] = vals
                lft, rgt = (it.x.blocks[k], self.zinv[k]) if self.direction == "hkm" else (self.w_nt[k],) * 2
                u[offsets[k] : offsets[k + 1]] = (lft[:, sup] @ a_sub @ rgt[sup]).reshape(-1)
            cols = a.indices[cuts[nsdp] : cuts[nsdp + 1]]
            u[cols] = a.data[cuts[nsdp] : cuts[nsdp + 1]] * d[cols - offsets[nsdp]]
            b[:, j] = a @ u
        return (b + b.T) / 2.0

    def solve(self, h: np.ndarray) -> np.ndarray:
        """Cholesky solve with one refinement step; symmetric-indefinite
        fallback when B is not numerically positive definite."""
        if self.cho is not None:
            dy = scipy.linalg.cho_solve(self.cho, h)
            return dy + scipy.linalg.cho_solve(self.cho, h - self.b @ dy)
        try:
            return scipy.linalg.solve(self.b, h, assume_a="sym")
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NewtonSystemError(str(exc)) from exc


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """NT scaling point W with W Z W = X, computed from eigendecompositions."""
    wx, vx = np.linalg.eigh(x)
    wx = np.clip(wx, 1e-300, None)
    x_half = (vx * np.sqrt(wx)) @ vx.T
    inner = x_half @ z @ x_half
    wi, vi = np.linalg.eigh((inner + inner.T) / 2.0)
    wi = np.clip(wi, 1e-300, None)
    inner_inv_half = (vi / np.sqrt(wi)) @ vi.T
    w = x_half @ inner_inv_half @ x_half
    return (w + w.T) / 2.0


class NewtonSystemError(RuntimeError):
    """Schur-complement factorization failed; typical near convergence when the
    Schur matrix becomes ill-conditioned."""


def newton_direction(
    p: ConeProblem,
    it: Iterate,
    target_nu: float,
    direction: str = "hkm",
    corrector=None,
    _ctx: _DirectionContext | None = None,
    _res=None,
):
    """One Newton step (dX, dy, dZ) for the symmetrized central-path system.

    Solves A(dX) = r_p, A*(dy) + dZ = r_d together with the linearized
    centering condition at the given target nu.  ``corrector`` may carry a
    predictor pair (dX_pred, dZ_pred) whose symmetrized second-order product
    is subtracted from the centering right-hand side.  dX and dZ are exactly
    symmetric on return.
    """
    ctx = _ctx or _DirectionContext(p, it, direction)
    r_p, r_d, _ = _res or residuals(p, it)

    # centering RHS matrix G with dX + K(dZ) = G
    st = it.x.structure
    g = SymBlockMat(st, [target_nu * zi for zi in ctx.zinv], target_nu / it.z.nonneg) - it.x
    if corrector is not None:
        dxp, dzp = corrector
        prods = [dxb @ dzb @ zi for dxb, dzb, zi in zip(dxp.blocks, dzp.blocks, ctx.zinv)]
        g = g - SymBlockMat(st, prods, dxp.nonneg * dzp.nonneg / it.z.nonneg)

    dy = ctx.solve(r_p - p.apply(g) + p.apply(ctx.kappa(it, r_d)))
    dz = r_d - p.adjoint(dy)
    dx = g - ctx.kappa(it, dz)
    return dx, dy, dz


# ---------------------------------------------------------------------------
# free-variable split


def split_free(p: ConeProblem) -> ConeProblem:
    """Rewrite free scalars as differences of nonnegative pairs."""
    st = p.structure
    if st.free_dim == 0:
        return p
    st2 = BlockStructure(st.sdp_blocks, st.nonneg_dim + 2 * st.free_dim, 0)

    c = p.c_obj
    c_obj = SymBlockMat(st2, [blk.copy() for blk in c.blocks], np.concatenate([c.nonneg, c.free, -c.free]), np.zeros(0))
    # the free columns come last, so their negated copies extend the nonnegative part
    a = sp.hstack([p.a, -p.a[:, st.flat_dim - st.free_dim :]], format="csr")
    return ConeProblem(c_obj, a, p.rhs.copy(), dict(p.meta))


def _merge_free(st: BlockStructure, internal: SymBlockMat, zero_free=False) -> SymBlockMat:
    nl = st.nonneg_dim
    nf = st.free_dim
    free = np.zeros(nf) if zero_free else internal.nonneg[nl : nl + nf] - internal.nonneg[nl + nf :]
    return SymBlockMat(st, [b.copy() for b in internal.blocks], internal.nonneg[:nl], free)


# ---------------------------------------------------------------------------
# main loop


def solve(p: ConeProblem, cfg: SolverConfig | None = None, iterate_hook=None):
    """Run the predictor-corrector IPM; returns (Solution, IterationLog).

    Termination statuses follow the usual convention: 0 success, -6 iteration
    limit, -1 lack of progress, -3 numerical failure, and the heuristic codes
    1 / 2 for suspected primal / dual infeasibility (diverging iterates with
    shrinking residuals; these two are advisory only).
    """
    cfg = cfg or SolverConfig()
    if cfg.validate:
        require_independent(p)
    orig = p
    q = split_free(p)
    log = IterationLog()
    t0 = time.perf_counter()
    status = STATUS_ITERATION_LIMIT
    merit_hist: list[float] = []

    def measure(iterate):
        """Residuals of an iterate, once, and the iterate with its residual
        norms in the original problem's variables."""
        res = residuals(q, iterate)
        if q is orig:
            return res, (iterate, *res[2])
        x0 = _merge_free(orig.structure, iterate.x)
        z0 = _merge_free(orig.structure, iterate.z, zero_free=True)
        it0 = Iterate(x=x0, y=iterate.y, z=z0, iteration=iterate.iteration)
        _, _, (pi, di) = residuals(orig, it0)
        return res, (it0, pi, di)

    it = cold_start(q)
    x_scale0 = it.x.trace()
    res, (it0, pinf, dinf) = measure(it)
    failure = None
    for k in range(1, cfg.max_iterations + 1):
        _, _, (pinf_i, dinf_i) = res
        gap = it.gap()
        if pinf <= cfg.tol_primal and dinf <= cfg.tol_dual and abs(gap) <= cfg.tol_gap:
            status = STATUS_SUCCESS
            break

        merit = max(pinf_i, dinf_i, abs(gap))
        merit_hist.append(merit)
        if len(merit_hist) > 5:
            prev = merit_hist[-6]
            if prev > 0 and (prev - merit) / prev < 1e-2:
                status = STATUS_LACK_OF_PROGRESS
                break

        # heuristic infeasibility detectors (advisory)
        if it.x.trace() > 1e9 * max(1.0, x_scale0) and pinf_i < 1e-6:
            status = STATUS_DUAL_INFEASIBLE
            break
        if it.y.size and np.max(np.abs(it.y)) > 1e9 * (1.0 + np.max(np.abs(q.rhs))) and dinf_i < 1e-6:
            status = STATUS_PRIMAL_INFEASIBLE
            break

        try:
            ctx = _DirectionContext(q, it, cfg.direction)
            pred = newton_direction(q, it, 0.0, cfg.direction, _ctx=ctx, _res=res)
            alpha_p = min(1.0, cfg.gamma_step * _cone_step(it.x, pred[0]))
            beta_p = min(1.0, cfg.gamma_step * _cone_step(it.z, pred[2]))
            nu_c = corrector_nu(it, pred, alpha_p, beta_p, cfg)
            dx, dy, dz = newton_direction(q, it, nu_c, cfg.direction, corrector=(pred[0], pred[2]), _ctx=ctx, _res=res)
            alpha = min(1.0, cfg.gamma_step * _cone_step(it.x, dx))
            beta = min(1.0, cfg.gamma_step * _cone_step(it.z, dz))
        except (NewtonSystemError, scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            status = STATUS_NUMERICAL_FAILURE
            failure = str(exc)
            break

        it = Iterate(x=it.x + alpha * dx, y=it.y + beta * dy, z=it.z + beta * dz, iteration=k)
        finite = np.isfinite(it.gap())
        if finite and cfg.perturbation_enabled and max(alpha, beta) < 0.1:
            mu = it.gap() / max(q.structure.cone_dim, 1)
            it = perturb(it, it.gap(), pinf_i, dinf_i, mu)
        res, (it0, pinf, dinf) = measure(it)
        if not finite:
            status = STATUS_NUMERICAL_FAILURE
            failure = "non-finite iterate"
            break

        # record describes the iterate the step produced
        pobj = frobenius_inner(orig.c_obj, it0.x)
        dobj = float(orig.rhs @ it.y)
        log.append(
            IterationRecord(
                it=k,
                pstep=alpha,
                dstep=beta,
                p_inf=res[2][0],
                d_inf=res[2][1],
                gap=it.gap(),
                mean_obj=(pobj + dobj) / 2.0,
                seconds=time.perf_counter() - t0,
            )
        )
        if iterate_hook is not None:
            iterate_hook(it)

    pobj = frobenius_inner(orig.c_obj, it0.x)
    dobj = float(orig.rhs @ it.y)
    gap = it.gap()
    if status == STATUS_ITERATION_LIMIT and pinf <= cfg.tol_primal and dinf <= cfg.tol_dual and abs(gap) <= cfg.tol_gap:
        status = STATUS_SUCCESS  # converged exactly at the final permitted step
    if status == STATUS_SUCCESS and pobj - dobj < -10.0 * cfg.tol_gap * (1.0 + abs(pobj) + abs(dobj)):
        status = STATUS_NUMERICAL_FAILURE  # weak duality violated beyond tolerance
        failure = "weak duality violated at reported solution"

    stats = {
        "iterations": it.iteration,
        "gap": gap,
        "primal_residual": pinf,
        "dual_residual": dinf,
        "time": time.perf_counter() - t0,
        "direction": cfg.direction,
    }
    if failure:
        stats["failure"] = failure
    sol = Solution(
        x_primal=it0.x,
        y_dual=it.y.copy(),
        z_slack=it0.z,
        primal_value=pobj,
        dual_value=dobj,
        status=status,
        stats=stats,
    )
    return sol, log
