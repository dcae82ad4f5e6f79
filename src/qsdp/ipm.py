"""Primal-dual infeasible interior-point solver for :class:`ConeProblem`.

Implements a Mehrotra predictor-corrector scheme with HKM (default) or NT
search directions, cold start and Cholesky-based step lengths.  Free
variables are eliminated before the loop (:func:`split_free`), so the
iterates, which ``iterate_hook`` receives, are those of a cone-only problem.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .blockmat import SymBlockMat, frobenius_inner
from .problem import (
    ConeProblem,
    FreeElimination,
    Solution,
    STATUS_SUCCESS,
    STATUS_LACK_OF_PROGRESS,
    STATUS_NUMERICAL_FAILURE,
    STATUS_ITERATION_LIMIT,
    require_independent,
)

GAMMA_STEP = 0.98  # step-length safety factor, keeps iterates interior
EXPON = 3.0  # cap for the corrector exponent
# Floats in one chunk's g x n^2 work array of the Schur assembly, and in one
# band of rows of its symmetrization (2 MB)
_SCHUR_CHUNK_FLOATS = 1 << 18
# _cone_step screens a block by Cholesky at this factor above the running
# step, so a block whose step ties the minimum to rounding is not skipped
_SCREEN_MARGIN = 1.0 + 1e-6
# LAPACK routines of the per-block kernels and of the Schur factorization,
# called without the scipy.linalg wrappers, whose checks cost more than the
# work on small blocks and small m
_SYGV, _SYGV_LWORK, _POTRF, _POTRS = scipy.linalg.get_lapack_funcs(
    ("sygv", "sygv_lwork", "potrf", "potrs"), dtype=np.float64
)


@functools.cache
def _sygv_lwork(n: int) -> int:
    """The workspace size scipy.linalg.eigh queries for sygv on an n x n pencil."""
    work, info = _SYGV_LWORK(n, uplo="L")
    if info != 0:
        raise scipy.linalg.LinAlgError(f"sygv workspace query failed (info {info})")
    return int(work)


@dataclass
class SolverConfig:
    tol_gap: float = 1e-7
    tol_primal: float = 1e-7
    tol_dual: float = 1e-7
    max_iterations: int = 100
    direction: str = "hkm"  # "hkm" or "nt"

    def __post_init__(self):
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


class IterationLog(list):
    """Per-iteration history, a list of :class:`IterationRecord`, serializable
    as a fixed-width text table."""

    def to_text(self) -> str:
        lines = [" it  pstep     dstep     p_inf     d_inf     gap       mean_obj      time"]
        for r in self:
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


def residual_scales(p: ConeProblem) -> tuple[float, float]:
    """The denominators 1 + |b| and 1 + |C|_F of the normalized residual norms."""
    return 1.0 + float(np.linalg.norm(p.rhs)), 1.0 + p.c_obj.norm()


def residuals(p: ConeProblem, it: Iterate, scales: tuple[float, float] | None = None):
    """Primal/dual residuals r_p = b - A(x), r_d = C - A*(y) - Z and their
    normalized norms |r_p|/(1+|b|) and |r_d|/(1+|C|_F).  ``scales`` replaces
    p's residual_scales: _solve passes those of the problem split_free
    reduced to p, once per solve."""
    r_p = p.rhs - p.apply(it.x)
    r_d = p.c_obj - p.adjoint(it.y) - it.z
    scale_p, scale_d = scales or residual_scales(p)
    return r_p, r_d, (float(np.linalg.norm(r_p) / scale_p), r_d.norm() / scale_d)


def step_length(m: np.ndarray, dm: np.ndarray) -> float:
    """Largest t <= 1 with m + t*dm PSD, via min(1, 1/lambda_max) of the
    pencil (-dm, m).

    One call of LAPACK sygv (jobz "N", lower triangle, the workspace that
    scipy.linalg.eigh queries, so the eigenvalues are bitwise those of
    ``eigh(-dm, m, eigvals_only=True, driver="gv")``) factors the positive
    definite m by Cholesky, reduces the pencil to C^-1 (-dm) C^-T and runs
    the QR algorithm (syev) on it.  Both matrices are symmetric, so their
    transposes are passed: the Fortran-ordered -dm^T is reduced in place.
    A nonzero info (m not positive definite, or no convergence) raises
    LinAlgError.
    """
    if m.size == 0:
        return 1.0
    w, _, info = _SYGV(-dm.T, m.T, jobz="N", uplo="L", lwork=_sygv_lwork(m.shape[0]), overwrite_a=1)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"sygv failed in step_length (info {info})")
    lam = float(w[-1])
    if lam <= 1e-300:
        return 1.0
    return min(1.0, 1.0 / lam)


def _cone_step(m: SymBlockMat, dm: SymBlockMat) -> float:
    """Step to the cone boundary over all blocks and nonnegative entries:
    min(1, min_k step_length(M_k, dM_k), the nonnegative entries' ratio).

    The nonnegative ratio is taken first.  Each block is then screened by
    potrf on M_k + s dM_k at s = t * _SCREEN_MARGIN, just above the running
    minimum t: when that factorization succeeds, the block's step exceeds
    t (M_k is positive definite), and its eigenvalue solve is skipped.  The
    blocks that lower t, or tie it to within the margin, run step_length,
    so t is bitwise the minimum over every block.  M's blocks must be
    positive definite; only the blocks that run step_length are checked.
    """
    t = 1.0
    neg = dm.nonneg < 0
    if np.any(neg):
        t = min(t, float(np.min(-m.nonneg[neg] / dm.nonneg[neg])))
    for b, db in zip(m.blocks, dm.blocks):
        # the trial point is symmetric, so its transpose, in Fortran order, is factored in place
        if _POTRF((b + (t * _SCREEN_MARGIN) * db).T, lower=1, overwrite_a=1, clean=0)[1] == 0:
            continue
        t = min(t, step_length(b, db))
    return t


def corrector_nu(it: Iterate, predictor, alpha_p: float, beta_p: float, gap: float) -> float:
    """Mehrotra target (Tr(XZ)/n) * (Tr((X+a dX)(Z+b dZ))/Tr(XZ))^e.

    The exponent e is 1 while the gap exceeds 1e-3, then grows with the decimal
    digits gained, capped by EXPON.  ``gap`` is the iterate's Tr(XZ).
    """
    dx, _, dz = predictor
    n = max(it.x.structure.cone_dim, 1)
    if gap <= 0:
        return 0.0
    x_try = it.x + alpha_p * dx
    z_try = it.z + beta_p * dz
    ratio = max(frobenius_inner(x_try, z_try) / gap, 0.0)
    if gap > 1e-3:
        e = 1.0
    else:
        e = min(EXPON, 1.0 + np.log10(1e-3 / gap))
    return float((gap / n) * ratio**e)


# ---------------------------------------------------------------------------
# Newton system


def _support_chunks(a_k: sp.csr_array, n: int) -> list:
    """Chunks (js, sup, a_sub) of the constraints that touch an n x n block
    whose flat columns of A are a_k; see _SchurPlan."""
    if not a_k.has_sorted_indices:
        a_k = a_k.sorted_indices()
    m = a_k.shape[0]
    j = np.repeat(np.arange(m, dtype=np.int64), np.diff(a_k.indptr))
    rows, cols = np.divmod(a_k.indices, n)
    # A_j's support is sup x sup, with sup its nonzero rows (A_j is symmetric).
    # With sorted indices the pairs (j, row) come sorted, so keys (their
    # distinct values) is read off at run starts and each A_j's support is
    # one run of keys
    flat = j * n + rows
    new = np.empty(flat.size, dtype=bool)
    new[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    keys = flat[new]
    size = np.bincount(keys // n, minlength=m)
    start = np.cumsum(size) - size
    at_row = np.cumsum(new) - 1 - start[j]
    at_col = np.searchsorted(keys, j * n + cols) - start[j]
    # bucket: the support size rounded up to a power of two (2 to the bit
    # length of size - 1), at most n
    bucket = np.minimum(1 << np.frexp(size - 1)[1].astype(np.int64), n)
    g_max = max(1, _SCHUR_CHUNK_FLOATS // (n * n))
    chunks = []
    for s in np.unique(bucket[size > 0]):
        js = np.flatnonzero((bucket == s) & (size > 0))
        # a support shorter than s repeats its last row; A_sub is 0 there
        sup = keys[start[js, None] + np.minimum(np.arange(s), size[js, None] - 1)] % n
        a_sub = np.zeros((js.size, s, s))
        hit = bucket[j] == s
        a_sub[np.searchsorted(js, j[hit]), at_row[hit], at_col[hit]] = a_k.data[hit]
        for lo in range(0, js.size, g_max):
            chunks.append((js[lo : lo + g_max], sup[lo : lo + g_max], a_sub[lo : lo + g_max]))
    return chunks


class _SchurPlan:
    """The sparsity of A that the Schur assembly reads, derived once per solve.

    ``blocks[k]`` is (A_k, chunks) for SDP block k: A_k is A's CSR column
    slice over the block, and each chunk (js, sup, a_sub) holds constraints
    js whose number of touched rows of the block rounds up to the same
    bucket s, a power of two capped at n; their support rows sup (g x s) and
    their dense A_j[sup, sup] (g x s x s).  A support with fewer than s rows
    is padded by repeating its last row, and the padded rows and columns of
    a_sub are exact zeros, so they add nothing to K(A_j).  Bucketing keeps
    the chunks, and so the batched products per Schur build, few when the
    support sizes vary.  A chunk holds at most _SCHUR_CHUNK_FLOATS / n^2
    constraints.  ``a_nn`` is A's column slice over the nonnegative entries.
    ``work`` holds two arrays of the largest chunk's g x n^2 floats, which
    every Schur build of the solve reuses for each chunk's products, so no
    build maps fresh memory for them.
    """

    def __init__(self, p: ConeProblem):
        st = p.structure
        offsets = st.flat_offsets()
        self.blocks = []
        for k, n in enumerate(st.sdp_blocks):
            a_k = p.a[:, offsets[k] : offsets[k + 1]]
            self.blocks.append((a_k, _support_chunks(a_k, n)))
        self.a_nn = p.a[:, offsets[-3] : offsets[-2]]
        size = max((js.size * n * n for (_, chunks), n in zip(self.blocks, st.sdp_blocks) for js, _, _ in chunks), default=0)
        self.work = (np.empty(size), np.empty(size))


class _DirectionContext:
    """Scalings and the Schur matrix B at one iterate, shared by the predictor
    and the corrector solve of an iteration.  ``direction`` ("hkm" or "nt")
    picks the scaling, and ``plan`` is the solve's _SchurPlan of p.  B is
    held once, as its Cholesky factor; only when that fails is B built
    again, for an indefinite solve."""

    def __init__(self, p: ConeProblem, it: Iterate, direction: str, plan: _SchurPlan):
        self.p = p
        self.plan = plan
        self.zinv = []
        self.w_nt = []
        for zb, xb in zip(it.z.blocks, it.x.blocks):
            self.zinv.append(_spd_inverse(zb))
            if direction == "nt":
                self.w_nt.append(_nt_scaling(xb, zb))
        self.direction = direction
        # b is symmetric, so b.T is B in Fortran order, factored in place by
        # potrf (and overwritten when that fails); the upper triangle is left
        # as it was, since potrs reads only the lower one
        b = np.asarray_chkfinite(self.schur(it))
        self.cho, info = _POTRF(b.T, lower=1, overwrite_a=1, clean=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        self.b_indefinite = None
        if info > 0:
            self.cho, self.b_indefinite = None, self.schur(it)

    def kappa(self, it: Iterate, dz: SymBlockMat) -> SymBlockMat:
        """The scaling operator K with dX + K(dZ) = G (blocks symmetrized on construction)."""
        x, z = it.x, it.z
        if self.direction == "hkm":
            blocks = [xb @ db @ zi for xb, db, zi in zip(x.blocks, dz.blocks, self.zinv)]
            return SymBlockMat(x.structure, blocks, x.nonneg * dz.nonneg / z.nonneg)
        blocks = [w @ db @ w for w, db in zip(self.w_nt, dz.blocks)]
        return SymBlockMat(x.structure, blocks, (x.nonneg / z.nonneg) * dz.nonneg)

    def schur(self, it: Iterate) -> np.ndarray:
        """B_ij = <A_i, K(A_j)>, assembled one chunk of the plan at a time.

        For a chunk's constraints js in SDP block k, one batched product
        builds every K(A_j) = L[:, sup] A_j[sup, sup] R[sup, :], with
        (L, R) = (X_k, Z_k^-1) for HKM or (W_k, W_k) for NT, into the plan's
        first work array; its transpose, copied into the second, is the
        C-ordered n^2 x g operand that A_k's product reads, and that product
        adds rows js of B.  The nonnegative entries add
        A_nn diag(x / z) A_nn^T (both scalings coincide there).
        """
        m = self.p.num_constraints
        b = np.zeros((m, m))
        work, work_t = self.plan.work
        for k, (a_k, chunks) in enumerate(self.plan.blocks):
            lft, rgt = (it.x.blocks[k], self.zinv[k]) if self.direction == "hkm" else (self.w_nt[k],) * 2
            n = lft.shape[0]
            for js, sup, a_sub in chunks:
                size = js.size * n * n
                u = work[:size].reshape(js.size, n, n)
                np.matmul(lft[:, sup].transpose(1, 0, 2) @ a_sub, rgt[sup], out=u)
                u_t = work_t[:size].reshape(n * n, js.size)
                np.copyto(u_t, u.reshape(js.size, -1).T)
                b[js] += (a_k @ u_t).T
        a_nn = self.plan.a_nn
        if a_nn.shape[1]:
            scaled = a_nn.copy()
            scaled.data *= (it.x.nonneg / it.z.nonneg)[a_nn.indices]
            # added where it is nonzero, so no second m x m array is made;
            # its entries are unique, so each is added once, as a dense sum would
            nn = (scaled @ a_nn.T).tocoo()
            b[nn.row, nn.col] += nn.data
        # (B + B^T) / 2 by bands of rows, so no m x m transpose is copied
        band = max(1, _SCHUR_CHUNK_FLOATS // max(m, 1))
        for lo in range(0, m, band):
            hi = min(lo + band, m)
            s = b[lo:hi, lo:] + b[lo:, lo:hi].T
            s *= 0.5
            b[lo:hi, lo:] = s
            b[hi:, lo:hi] = s[:, hi - lo :].T
        return b

    def solve(self, h: np.ndarray) -> np.ndarray:
        """B^-1 h by one Cholesky solve; a symmetric-indefinite solve when B
        is not numerically positive definite."""
        if self.cho is not None:
            # B was checked before its factorization, so only each right-hand side needs the finiteness check
            h = np.asarray_chkfinite(h)
            if not h.size:
                return np.zeros(0)
            x, info = _POTRS(self.cho, h, lower=1)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of potrs")
            return x
        try:
            return scipy.linalg.solve(self.b_indefinite, h, assume_a="sym")
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NewtonSystemError(str(exc)) from exc


def _spd_inverse(z: np.ndarray) -> np.ndarray:
    """Z^-1 of a positive definite block by potrf and potrs (the routines of
    scipy.linalg's cholesky and cho_solve), averaged with its transpose."""
    low, info = _POTRF(z, lower=1)
    if info == 0:
        zin, info = _POTRS(low, np.eye(z.shape[0]), lower=1)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"Cholesky factorization of a Z block failed (info {info})")
    return (zin + zin.T) / 2.0


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


def newton_direction(ctx: _DirectionContext, it: Iterate, res, target_nu: float, corrector=None):
    """One Newton step (dX, dy, dZ) for the symmetrized central-path system.

    Solves A(dX) = r_p, A*(dy) + dZ = r_d together with the linearized
    centering condition at the given target nu.  The problem, the scaling
    and B are those of ``ctx``, the context of the iterate ``it``, and
    ``res`` is the iterate's ``residuals`` triple, so the predictor and the
    corrector share both.  ``corrector`` may carry a predictor pair
    (dX_pred, dZ_pred) whose symmetrized second-order product is subtracted
    from the centering right-hand side.  dX and dZ are exactly symmetric on
    return.
    """
    r_p, r_d, _ = res

    # centering RHS matrix G with dX + K(dZ) = G
    st = it.x.structure
    g = SymBlockMat(st, [target_nu * zi for zi in ctx.zinv], target_nu / it.z.nonneg) - it.x
    if corrector is not None:
        dxp, dzp = corrector
        prods = [dxb @ dzb @ zi for dxb, dzb, zi in zip(dxp.blocks, dzp.blocks, ctx.zinv)]
        g = g - SymBlockMat(st, prods, dxp.nonneg * dzp.nonneg / it.z.nonneg)

    dy = ctx.solve(r_p - ctx.p.apply(g - ctx.kappa(it, r_d)))
    dz = r_d - ctx.p.adjoint(dy)
    dx = g - ctx.kappa(it, dz)
    return dx, dy, dz


# ---------------------------------------------------------------------------
# free variables


# the name stays: bench/tracer.py records its calls, and bench/run.py requires one per traced run
def split_free(p: ConeProblem) -> FreeElimination:
    """p's free variables eliminated before the IPM (see FreeElimination)."""
    return FreeElimination(p)


# ---------------------------------------------------------------------------
# BLAS thread pools


@functools.cache
def _openblas_pools() -> dict:
    """Thread-count functions (get, set) of the OpenBLAS pools that numpy and
    scipy have loaded, by package name.

    numpy and scipy wheels each bundle their own OpenBLAS, in ``numpy.libs``
    and ``scipy.libs``, with a thread pool each.  A package is left out when
    no such library is loaded in this process (MKL, a system OpenBLAS) or the
    platform cannot look one up without loading it (no ``RTLD_NOLOAD``).
    """
    import glob

    pools = {}
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return pools
    for pkg, mod in (("numpy", np), ("scipy", scipy)):
        libs = os.path.join(os.path.dirname(mod.__file__), os.pardir, f"{pkg}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path, mode=noload)
            except OSError:  # present but not loaded
                continue
            for suffix in ("", "64_"):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pools[pkg] = (get, put)
                    break
            if pkg in pools:
                break
    return pools


class _ScipyPoolCap:
    """Holds scipy's OpenBLAS pool at one thread while any solve runs.

    The kernels of an iteration alternate between numpy's pool (matmuls,
    ``eigh``) and scipy's (``potrf``, ``potrs`` and ``sygv``, bound directly,
    for the Z blocks, the step lengths and the Schur matrix); when both are
    threaded, the spinning workers of one slow the other down.  Solves may
    nest and overlap across Python threads: under a lock, the first to enter
    saves the pool size and sets 1, and the last to leave restores it.
    Without scipy's bundled OpenBLAS, or with a pool of one thread, nothing
    is changed.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved = 1

    @contextlib.contextmanager
    def __call__(self):
        """Caps the pool for the ``with`` body; yields each package's pool size inside it."""
        pools = _openblas_pools()
        get, put = pools.get("scipy", (None, None))
        with self._lock:
            if self._active == 0 and get is not None:
                self._saved = get()
                if self._saved > 1:
                    put(1)
            self._active += 1
        try:
            yield {pkg: fns[0]() for pkg, fns in pools.items()}
        finally:
            with self._lock:
                self._active -= 1
                if self._active == 0 and get is not None and self._saved > 1:
                    put(self._saved)


_scipy_pool_cap = _ScipyPoolCap()


# ---------------------------------------------------------------------------
# main loop


def solve(p: ConeProblem, cfg: SolverConfig | None = None, iterate_hook=None):
    """Run the predictor-corrector IPM; returns (Solution, IterationLog).

    Termination statuses follow the usual convention: 0 success, -6 iteration
    limit, -1 lack of progress, -3 numerical failure.  The codes 1 / 2
    (primal / dual infeasible) are reserved for a checked infeasibility
    certificate and are not produced.  The solve runs with scipy's OpenBLAS
    pool at one thread (see _ScipyPoolCap), and ``stats["blas_threads"]``
    gives the size of each bundled OpenBLAS pool during it.
    ``stats["schur"]`` gives the Schur matrix's order m and ``iterate_hook``
    receives each iterate, both of the problem with p's free variables
    eliminated (split_free); when their dual equalities are inconsistent,
    the solve ends at -1 without an iteration.
    """
    with _scipy_pool_cap() as blas_threads:
        sol, log = _solve(p, cfg or SolverConfig(), iterate_hook)
    sol.stats["blas_threads"] = blas_threads
    return sol, log


def _solve(p: ConeProblem, cfg: SolverConfig, iterate_hook):
    require_independent(p)
    free = split_free(p)
    q = free.problem
    plan = _SchurPlan(q)
    # p's constant norms of the residuals' normalization, once per problem
    scales = residual_scales(p)
    log = IterationLog()
    t0 = time.perf_counter()
    merit_hist: list[float] = []
    failure = None
    it = cold_start(q)
    while True:
        # each iterate is measured once, in q: its residual norms are p's at
        # the recovered iterate, and its objectives are p's less b'y0
        res = residuals(q, it, scales)
        pinf, dinf = res[2]
        gap = it.gap()
        pobj = frobenius_inner(q.c_obj, it.x) + free.offset
        dobj = float(q.rhs @ it.y) + free.offset
        if it.iteration:
            if not np.isfinite(gap):
                status, failure = STATUS_NUMERICAL_FAILURE, "non-finite iterate"
                break
            # the record describes the iterate the step produced
            seconds = time.perf_counter() - t0
            log.append(IterationRecord(it.iteration, alpha, beta, pinf, dinf, gap, (pobj + dobj) / 2.0, seconds))
            if iterate_hook is not None:
                iterate_hook(it)

        if not free.consistent:
            status = STATUS_LACK_OF_PROGRESS
            failure = "the free variables' dual equalities A_f'y = c_f are inconsistent: the dual is infeasible"
            break
        if pinf <= cfg.tol_primal and dinf <= cfg.tol_dual and abs(gap) <= cfg.tol_gap:
            status = STATUS_SUCCESS
            break
        if it.iteration == cfg.max_iterations:
            status = STATUS_ITERATION_LIMIT
            break
        merit = max(pinf, dinf, abs(gap))
        merit_hist.append(merit)
        if len(merit_hist) > 5:
            prev = merit_hist[-6]
            if prev > 0 and (prev - merit) / prev < 1e-2:
                status = STATUS_LACK_OF_PROGRESS
                break

        try:
            ctx = _DirectionContext(q, it, cfg.direction, plan)
            pred = newton_direction(ctx, it, res, 0.0)
            alpha_p = min(1.0, GAMMA_STEP * _cone_step(it.x, pred[0]))
            beta_p = min(1.0, GAMMA_STEP * _cone_step(it.z, pred[2]))
            nu_c = corrector_nu(it, pred, alpha_p, beta_p, gap)
            dx, dy, dz = newton_direction(ctx, it, res, nu_c, corrector=(pred[0], pred[2]))
            alpha = min(1.0, GAMMA_STEP * _cone_step(it.x, dx))
            beta = min(1.0, GAMMA_STEP * _cone_step(it.z, dz))
        except (NewtonSystemError, scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            status, failure = STATUS_NUMERICAL_FAILURE, str(exc)
            break
        it = Iterate(x=it.x + alpha * dx, y=it.y + beta * dy, z=it.z + beta * dz, iteration=it.iteration + 1)

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
        "schur": {"m": q.num_constraints},
    }
    if failure:
        stats["failure"] = failure
    return Solution(*free.recover(it), pobj, dobj, status, stats), log
