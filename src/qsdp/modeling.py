"""Symbolic model construction and compilation to canonical conic problems.

A :class:`Model` owns matrix variables, affine matrix expressions constrained
to be PSD, scalar equalities and a linear objective.  ``compile`` lowers
complex data to the doubled real representation and emits a
:class:`ConeProblem` in either framing:

* dual framing (default): model scalars become the canonical dual vector y,
  each LMI becomes a slack block of Z, and equalities are handled by one of
  three strategies (primal free variables, elimination by orthogonal
  factorization, or a pair of eps-inequalities);
* primal framing: PSD-constrained matrix variables become primal blocks,
  remaining scalars become free variables, and every equality is one
  constraint row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .blockmat import BlockStructure, SymBlockMat, embed_hermitian
from .problem import ConeProblem, Solution

_STRUCTURES = ("full", "symmetric", "hermitian", "diagonal", "skew")
_EQ_TOL = 1e-9


def param_count(rows: int, cols: int, structure: str, field_: str) -> int:
    if structure == "full":
        return rows * cols
    n = rows
    return {
        "symmetric": n * (n + 1) // 2,
        "hermitian": n * n,
        "diagonal": n,
        "skew": n * (n - 1) // 2,
    }[structure]


@dataclass(frozen=True)
class VarDecl:
    name: str
    rows: int
    cols: int
    structure: str
    field: str
    offset: int  # first scalar-parameter index

    @property
    def nparams(self) -> int:
        return param_count(self.rows, self.cols, self.structure, self.field)

    def basis(self) -> list[np.ndarray]:
        """Coefficient matrix of each scalar parameter."""
        n, c = self.rows, self.cols
        out = []
        if self.structure == "full":
            for j in range(c):
                for i in range(n):
                    e = np.zeros((n, c))
                    e[i, j] = 1.0
                    out.append(e)
        elif self.structure == "symmetric":
            for i in range(n):
                for j in range(i, n):
                    e = np.zeros((n, n))
                    if i == j:
                        e[i, i] = 1.0
                    else:
                        e[i, j] = e[j, i] = 1.0
                    out.append(e)
        elif self.structure == "hermitian":
            for i in range(n):
                for j in range(i, n):
                    e = np.zeros((n, n), dtype=complex)
                    if i == j:
                        e[i, i] = 1.0
                    else:
                        e[i, j] = e[j, i] = 1.0
                    out.append(e)
            for i in range(n):
                for j in range(i + 1, n):
                    e = np.zeros((n, n), dtype=complex)
                    e[i, j] = 1.0j
                    e[j, i] = -1.0j
                    out.append(e)
        elif self.structure == "diagonal":
            for i in range(n):
                e = np.zeros((n, n))
                e[i, i] = 1.0
                out.append(e)
        elif self.structure == "skew":
            for i in range(n):
                for j in range(i + 1, n):
                    e = np.zeros((n, n))
                    e[i, j] = 1.0
                    e[j, i] = -1.0
                    out.append(e)
        return out

    def assemble(self, params: np.ndarray) -> np.ndarray:
        m = sum(p * b for p, b in zip(params, self.basis()))
        return m if self.nparams else np.zeros((self.rows, self.cols))


class ScalarExpr:
    """Affine scalar expression sum_i coeff_i * param_i + const (complex-valued)."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0.0):
        self.coeffs: dict[int, complex] = dict(coeffs or {})
        self.const = complex(const)

    def __add__(self, other):
        other = _as_scalar(other)
        out = ScalarExpr(self.coeffs, self.const + other.const)
        for k, v in other.coeffs.items():
            out.coeffs[k] = out.coeffs.get(k, 0.0) + v
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * _as_scalar(other)

    def __rsub__(self, other):
        return _as_scalar(other) + (-1.0) * self

    def __mul__(self, t):
        t = complex(t)
        return ScalarExpr({k: t * v for k, v in self.coeffs.items()}, t * self.const)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def real(self) -> "ScalarExpr":
        return ScalarExpr({k: v.real for k, v in self.coeffs.items()}, self.const.real)

    def imag(self) -> "ScalarExpr":
        return ScalarExpr({k: v.imag for k, v in self.coeffs.items()}, self.const.imag)

    def is_zero(self, tol=0.0) -> bool:
        return abs(self.const) <= tol and all(abs(v) <= tol for v in self.coeffs.values())

    def value(self, params: np.ndarray) -> complex:
        return self.const + sum(v * params[k] for k, v in self.coeffs.items())


def _as_scalar(v) -> ScalarExpr:
    if isinstance(v, ScalarExpr):
        return v
    return ScalarExpr({}, complex(v))


class MatExpr:
    """Affine matrix expression F0 + sum_i x_i F_i with shared shape."""

    __slots__ = ("shape", "const", "terms")

    def __init__(self, shape, const=None, terms=None):
        self.shape = tuple(shape)
        self.const = np.zeros(self.shape, dtype=complex) if const is None else np.asarray(const, dtype=complex)
        if self.const.shape != self.shape:
            raise ValueError("constant term has the wrong shape")
        self.terms: dict[int, np.ndarray] = {}
        for k, v in (terms or {}).items():
            v = np.asarray(v, dtype=complex)
            if v.shape != self.shape:
                raise ValueError("coefficient matrix has the wrong shape")
            self.terms[k] = v

    # -- algebra ------------------------------------------------------------
    def __add__(self, other):
        other = as_matexpr(other, self.shape)
        if other.shape != self.shape:
            raise ValueError("shape mismatch")
        out = MatExpr(self.shape, self.const + other.const, dict(self.terms))
        for k, v in other.terms.items():
            out.terms[k] = out.terms.get(k, 0.0) + v
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + as_matexpr(other, self.shape) * (-1.0)

    def __rsub__(self, other):
        return as_matexpr(other, self.shape) + self * (-1.0)

    def __mul__(self, t):
        t = complex(t)
        return MatExpr(self.shape, t * self.const, {k: t * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def map_linear(self, f, out_shape) -> "MatExpr":
        """Apply a linear matrix map entrywise to the constant and every term."""
        return MatExpr(out_shape, f(self.const), {k: f(v) for k, v in self.terms.items()})

    def left_mul(self, a) -> "MatExpr":
        a = np.asarray(a, dtype=complex)
        return self.map_linear(lambda m: a @ m, (a.shape[0], self.shape[1]))

    def right_mul(self, a) -> "MatExpr":
        a = np.asarray(a, dtype=complex)
        return self.map_linear(lambda m: m @ a, (self.shape[0], a.shape[1]))

    def transpose(self) -> "MatExpr":
        return self.map_linear(lambda m: m.T, (self.shape[1], self.shape[0]))

    @property
    def T(self):
        return self.transpose()

    def conj(self) -> "MatExpr":
        return self.map_linear(np.conj, self.shape)

    def adjoint(self) -> "MatExpr":
        return self.map_linear(lambda m: m.conj().T, (self.shape[1], self.shape[0]))

    @property
    def H(self):
        return self.adjoint()

    def entry(self, i: int, j: int) -> ScalarExpr:
        return ScalarExpr({k: v[i, j] for k, v in self.terms.items() if v[i, j] != 0}, self.const[i, j])

    def trace(self) -> ScalarExpr:
        return ScalarExpr({k: np.trace(v) for k, v in self.terms.items()}, np.trace(self.const))

    def frobenius_with(self, a) -> ScalarExpr:
        """<A, expr> = Tr(A^dagger expr) for a constant matrix A."""
        a = np.asarray(a, dtype=complex)
        return ScalarExpr(
            {k: np.sum(a.conj() * v) for k, v in self.terms.items()},
            np.sum(a.conj() * self.const),
        )

    def partial_trace(self, dims, keep) -> "MatExpr":
        return self.map_linear(lambda m: partial_trace(m, dims, keep), _pt_shape(dims, keep))

    def partial_transpose(self, dims, subsystems) -> "MatExpr":
        return self.map_linear(lambda m: partial_transpose(m, dims, subsystems), self.shape)

    def value(self, params: np.ndarray) -> np.ndarray:
        out = self.const.copy()
        for k, v in self.terms.items():
            out += params[k] * v
        return out

    def clean(self, threshold: float) -> "MatExpr":
        """Drop variable terms whose coefficient matrix has max-norm below threshold.

        The constant term is never removed.
        """
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        kept = {k: v for k, v in self.terms.items() if v.size and np.max(np.abs(v)) >= threshold}
        if threshold == 0:
            kept = dict(self.terms)
        return MatExpr(self.shape, self.const.copy(), kept)


def as_matexpr(v, shape=None) -> MatExpr:
    if isinstance(v, MatExpr):
        return v
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0:
        if shape is None:
            shape = (1, 1)
        v = v * np.eye(shape[0], shape[1], dtype=complex) if shape[0] == shape[1] else v * np.ones(shape)
    return MatExpr(v.shape, v)


def clean(expr: MatExpr, threshold: float) -> MatExpr:
    return expr.clean(threshold)


def scalar_nonneg(expr: ScalarExpr) -> MatExpr:
    """Wrap a scalar affine expression as a 1x1 LMI (expr >= 0)."""
    return MatExpr((1, 1), np.array([[expr.const]]), {k: np.array([[v]]) for k, v in expr.coeffs.items()})


# ---------------------------------------------------------------------------
# tensor helpers (also used by the quantum applications)


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep`` (indices into dims)."""
    dims = list(dims)
    keep = sorted(keep)
    k = len(dims)
    t = np.asarray(m).reshape(dims + dims)
    row_idx, col_idx, out_row, out_col = [], [], [], []
    nxt = 0
    for i in range(k):
        if i in keep:
            r, c = nxt, nxt + 1
            nxt += 2
            row_idx.append(r)
            col_idx.append(c)
            out_row.append(r)
            out_col.append(c)
        else:
            row_idx.append(nxt)
            col_idx.append(nxt)
            nxt += 1
    out = np.einsum(t, row_idx + col_idx, out_row + out_col)
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return out.reshape(d, d)


def _pt_shape(dims, keep):
    d = int(np.prod([list(dims)[i] for i in sorted(keep)])) if keep else 1
    return (d, d)


def partial_transpose(m: np.ndarray, dims, subsystems) -> np.ndarray:
    """Transpose the listed subsystems of a square operator on a tensor space."""
    dims = list(dims)
    k = len(dims)
    t = np.asarray(m).reshape(dims + dims)
    perm = list(range(2 * k))
    for s in subsystems:
        perm[s], perm[s + k] = perm[s + k], perm[s]
    d = int(np.prod(dims))
    return t.transpose(perm).reshape(d, d)


# ---------------------------------------------------------------------------
# model


class MatVar:
    """Handle to a declared matrix variable; behaves like its MatExpr."""

    def __init__(self, decl: VarDecl):
        self.decl = decl

    @property
    def name(self):
        return self.decl.name

    @property
    def nparams(self):
        return self.decl.nparams

    @property
    def param_ids(self):
        return list(range(self.decl.offset, self.decl.offset + self.decl.nparams))

    def expr(self) -> MatExpr:
        terms = {self.decl.offset + k: b for k, b in enumerate(self.decl.basis())}
        return MatExpr((self.decl.rows, self.decl.cols), terms=terms)

    # convenience passthroughs
    def __add__(self, other):
        return self.expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.expr() - other

    def __rsub__(self, other):
        return as_matexpr(other, (self.decl.rows, self.decl.cols)) - self.expr()

    def __mul__(self, t):
        return self.expr() * t

    __rmul__ = __mul__

    def __neg__(self):
        return -self.expr()

    def trace(self):
        return self.expr().trace()

    def entry(self, i, j):
        return self.expr().entry(i, j)


class ModelError(ValueError):
    pass


class Model:
    """Symbolic optimization model: variables, LMIs, equalities, objective."""

    def __init__(self):
        self.vars: list[VarDecl] = []
        self.lmis: list[MatExpr] = []
        self.equalities: list[ScalarExpr] = []
        self.objective: ScalarExpr = ScalarExpr()
        self.sense: str = "min"
        self._nparams = 0

    # -- construction ---------------------------------------------------
    def declare(self, rows, cols=None, structure="symmetric", field="real", name=None) -> MatVar:
        cols = rows if cols is None else cols
        if structure not in _STRUCTURES:
            raise ModelError(f"unknown structure {structure!r}")
        if structure in ("symmetric", "hermitian", "diagonal", "skew") and rows != cols:
            raise ModelError(f"{structure} variables must be square")
        if structure == "hermitian" and field != "complex":
            raise ModelError("hermitian variables require the complex field")
        if field == "complex" and structure != "hermitian":
            raise ModelError("complex field is only supported for hermitian variables")
        if field not in ("real", "complex"):
            raise ModelError(f"unknown field {field!r}")
        name = name or f"v{len(self.vars)}"
        decl = VarDecl(name, rows, cols, structure, field, self._nparams)
        self.vars.append(decl)
        self._nparams += decl.nparams
        return MatVar(decl)

    @property
    def nparams(self):
        return self._nparams

    def add_lmi(self, expr: MatExpr):
        """Constrain expr (affine, Hermitian-valued) to be PSD."""
        expr = as_matexpr(expr)
        if expr.shape[0] != expr.shape[1]:
            raise ModelError("LMI expressions must be square")
        self.lmis.append(expr)

    def add_equality(self, expr, rhs=0.0):
        """Constrain a scalar affine expression to equal rhs."""
        e = _as_scalar(expr) - _as_scalar(rhs)
        for part in (e.real(), e.imag()):
            if not part.is_zero(tol=0.0):
                self.equalities.append(part)

    def minimize(self, expr):
        self.objective = _as_scalar(expr)
        self.sense = "min"

    def maximize(self, expr):
        self.objective = _as_scalar(expr)
        self.sense = "max"

    # -- compilation ------------------------------------------------------
    def compile(self, framing="dual", equality_mode="free_split", eps=1e-8, real_shortcut=False) -> "CompiledModel":
        """Lower to a canonical ConeProblem.

        With ``real_shortcut`` the imaginary parts of hermitian variables are
        dropped before framing; valid (and checked) only when every piece of
        data touching them is real and the objective ignores them, in which
        case the optimal value is unchanged and the blocks stay at size n
        instead of 2n.
        """
        if framing not in ("dual", "primal"):
            raise ModelError("framing must be 'dual' or 'primal'")
        if equality_mode not in ("free_split", "eliminate", "two_inequalities"):
            raise ModelError("equality_mode must be free_split, eliminate or two_inequalities")
        model = real_restriction(self) if real_shortcut else self
        if not model.lmis:
            raise ModelError("model has no LMI constraints; nothing to optimize over")
        model._check_all_params_used()
        if framing == "dual":
            return _compile_dual(model, equality_mode, eps)
        return _compile_primal(model)

    def solve(self, framing="dual", equality_mode="free_split", eps=1e-8, cfg=None, real_shortcut=False):
        return self.compile(framing, equality_mode, eps, real_shortcut).solve(cfg)

    def _check_all_params_used(self):
        used = set()
        for lmi in self.lmis:
            used.update(lmi.terms)
        for eq in self.equalities:
            used.update(eq.coeffs)
        missing = set(range(self._nparams)) - used
        if missing:
            k = min(missing)
            var = next(v for v in self.vars if v.offset <= k < v.offset + v.nparams)
            raise ModelError(
                f"variable {var.name!r} has parameters that appear in no constraint; "
                "the model would be unbounded or structurally empty"
            )

    # -- evaluation helper for tests ---------------------------------------
    def eval_objective(self, params: np.ndarray) -> float:
        v = self.objective.value(params)
        return float(v.real)


def real_restriction(model: Model) -> Model:
    """Replace hermitian variables by real symmetric ones, dropping the
    imaginary parameters.

    Sound when the surrounding data is real: the real part of any feasible
    Hermitian point is feasible with the same objective value.  Raises when a
    coefficient matrix on a real parameter has imaginary content, or when the
    objective or an equality involves an imaginary parameter.
    """
    new = Model()
    param_map: dict[int, int] = {}
    dropped: set[int] = set()
    for decl in model.vars:
        if decl.structure == "hermitian":
            nv = new.declare(decl.rows, structure="symmetric", name=decl.name)
            n = decl.rows
            n_re = n * (n + 1) // 2
            for k in range(n_re):
                param_map[decl.offset + k] = nv.decl.offset + k
            for k in range(n_re, decl.nparams):
                dropped.add(decl.offset + k)
        else:
            nv = new.declare(decl.rows, decl.cols, structure=decl.structure, field=decl.field, name=decl.name)
            for k in range(decl.nparams):
                param_map[decl.offset + k] = nv.decl.offset + k

    def conv_mat(expr: MatExpr) -> MatExpr:
        if np.max(np.abs(np.imag(expr.const))) > 1e-12:
            raise ModelError("real shortcut requires real constant data")
        terms = {}
        for k, v in expr.terms.items():
            if k in dropped:
                continue  # purely imaginary basis directions are discarded
            if np.max(np.abs(np.imag(v))) > 1e-12:
                raise ModelError("real shortcut requires real coefficient data")
            terms[param_map[k]] = np.real(v).copy()
        return MatExpr(expr.shape, np.real(expr.const).copy(), terms)

    def conv_scalar(e: ScalarExpr, where: str) -> ScalarExpr:
        coeffs = {}
        for k, v in e.coeffs.items():
            if k in dropped:
                if abs(v) > 1e-12:
                    raise ModelError(f"real shortcut invalid: {where} involves an imaginary parameter")
                continue
            coeffs[param_map[k]] = v
        return ScalarExpr(coeffs, e.const)

    for lmi in model.lmis:
        new.add_lmi(conv_mat(lmi))
    for eq in model.equalities:
        new.equalities.append(conv_scalar(eq, "an equality"))
    new.objective = conv_scalar(model.objective, "the objective")
    new.sense = model.sense
    return new


def _hermitian_coeffs(expr: MatExpr, what: str):
    """Validate Hermitian-valuedness and return (is_complex, const, terms)."""
    tol = 1e-10
    mats = [expr.const] + list(expr.terms.values())
    for m in mats:
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
        if np.max(np.abs(m - m.conj().T)) > tol * scale:
            raise ModelError(f"{what} is not Hermitian-valued")
    is_complex = any(np.max(np.abs(np.imag(m))) > 0 for m in mats)
    return is_complex


def _lower_lmi(expr: MatExpr):
    """Return (block_size, const, {param: mat}) with complex data embedded."""
    is_complex = _hermitian_coeffs(expr, "LMI expression")
    if is_complex:
        const = embed_hermitian(expr.const, tol=1e-9)
        terms = {k: embed_hermitian(v, tol=1e-9) for k, v in expr.terms.items()}
    else:
        const = np.real(expr.const).copy()
        terms = {k: np.real(v).copy() for k, v in expr.terms.items()}
    return const.shape[0], const, terms


@dataclass
class CompiledModel:
    problem: ConeProblem
    framing: str
    equality_mode: str
    sense: str
    value_offset: float
    # dual framing: params = y_map(y); primal framing: params read from blocks
    _recover_params: callable = field(repr=False, default=None)
    model: Model = field(repr=False, default=None)

    def params_from(self, sol: Solution) -> np.ndarray:
        return self._recover_params(sol)

    def recover(self, sol: Solution) -> dict:
        params = self.params_from(sol)
        out = {}
        for decl in self.model.vars:
            vals = params[decl.offset : decl.offset + decl.nparams]
            m = decl.assemble(vals)
            if decl.field == "real":
                m = np.real(m)
            out[decl.name] = m
        return out

    def objective_value(self, sol: Solution) -> float:
        params = self.params_from(sol)
        v = float(self.model.objective.value(params).real)
        return v

    def solve(self, cfg=None):
        from .ipm import solve as ipm_solve

        sol, log = ipm_solve(self.problem, cfg)
        return ModelResult(
            value=self.objective_value(sol) if sol.y_dual is not None else float("nan"),
            values=self.recover(sol),
            solution=sol,
            log=log,
            compiled=self,
        )


@dataclass
class ModelResult:
    value: float
    values: dict
    solution: Solution
    log: object
    compiled: CompiledModel

    @property
    def success(self):
        return self.solution.success


def _objective_vector(model: Model, nparams: int):
    c = np.zeros(nparams)
    for k, v in model.objective.coeffs.items():
        if abs(v.imag) > 1e-12 * max(1.0, abs(v)):
            raise ModelError("objective must be real-valued")
        c[k] = v.real
    c0 = model.objective.const
    if abs(c0.imag) > 1e-12 * max(1.0, abs(c0)):
        raise ModelError("objective must be real-valued")
    sign = 1.0 if model.sense == "min" else -1.0
    return sign * c, float(c0.real)


def _equality_system(model: Model, nparams: int):
    n_eq = len(model.equalities)
    e = np.zeros((n_eq, nparams))
    f = np.zeros(n_eq)
    for j, eq in enumerate(model.equalities):
        for k, v in eq.coeffs.items():
            e[j, k] = v.real
        f[j] = -eq.const.real
    return e, f


def _compile_dual(model: Model, equality_mode: str, eps: float) -> CompiledModel:
    nparams = model.nparams
    lowered = [_lower_lmi(expr) for expr in model.lmis]
    block_sizes = [size for size, _, _ in lowered if size > 1]
    nonneg_slots = sum(1 for size, _, _ in lowered if size == 1)
    e_mat, f_vec = _equality_system(model, nparams)
    c_vec, c0 = _objective_vector(model, nparams)

    n_eq = len(model.equalities)
    if equality_mode == "eliminate" and n_eq:
        # all of V, but no square U: the reduced SVD already has V square when n_eq >= nparams
        _, s, vt = np.linalg.svd(e_mat, full_matrices=n_eq < nparams)
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > max(1e-12 * smax, 1e-300)))
        y0 = np.linalg.pinv(e_mat, rcond=1e-12) @ f_vec
        if np.linalg.norm(e_mat @ y0 - f_vec) > 1e-8 * (1.0 + np.linalg.norm(f_vec)):
            raise ModelError("equality constraints are inconsistent")
        nmat = vt[rank:].T  # nparams x (nparams - rank)
        m = nmat.shape[1]
    else:
        y0 = np.zeros(nparams)
        nmat = np.eye(nparams)
        m = nparams

    n_free = n_eq if (equality_mode == "free_split" and n_eq) else 0
    n_ineq = 2 * n_eq if (equality_mode == "two_inequalities" and n_eq) else 0
    structure = BlockStructure(tuple(block_sizes), nonneg_slots + n_ineq, n_free)

    def assemble(vec_params, const_scale=1.0):
        """Map a parameter-space vector to a SymBlockMat via the LMI coefficients."""
        blocks = [np.zeros((s, s)) for s in block_sizes]
        nonneg = np.zeros(nonneg_slots + n_ineq)
        bi = 0
        ni = 0
        for size, const, terms in lowered:
            acc = const_scale * const.copy() if const_scale else np.zeros_like(const)
            for k, mat_k in terms.items():
                if vec_params[k]:
                    acc = acc + vec_params[k] * mat_k
            if size == 1:
                nonneg[ni] = acc[0, 0]
                ni += 1
            else:
                blocks[bi][:] = acc
                bi += 1
        return blocks, nonneg

    # C from F0 with y0 folded in; A_t from columns of N
    cblocks, cnn = assemble(y0, const_scale=1.0)
    c_free = f_vec.copy() if n_free else np.zeros(0)
    if n_ineq:
        for j in range(n_eq):
            cnn[nonneg_slots + 2 * j] = f_vec[j] + eps - e_mat[j] @ y0
            cnn[nonneg_slots + 2 * j + 1] = -(f_vec[j] - eps) + e_mat[j] @ y0
    c_obj = SymBlockMat(structure, cblocks, cnn, c_free)

    constraints = []
    for t in range(m):
        col = nmat[:, t]
        ablocks, ann = assemble(col, const_scale=0.0)
        ablocks = [-b for b in ablocks]
        ann = -ann
        a_free = (e_mat @ col) if n_free else np.zeros(0)
        if n_ineq:
            for j in range(n_eq):
                ann[nonneg_slots + 2 * j] = float(e_mat[j] @ col)
                ann[nonneg_slots + 2 * j + 1] = -float(e_mat[j] @ col)
        constraints.append(SymBlockMat(structure, ablocks, ann, a_free))

    b = -(nmat.T @ c_vec)
    problem = ConeProblem(c_obj, constraints, b, meta={"framing": "dual", "equality_mode": equality_mode})

    def recover_params(sol: Solution):
        return y0 + nmat @ sol.y_dual

    return CompiledModel(
        problem=problem,
        framing="dual",
        equality_mode=equality_mode,
        sense=model.sense,
        value_offset=c0,
        _recover_params=recover_params,
        model=model,
    )


def _selection_matrices(decl: VarDecl, embedded: bool):
    """Dual-basis matrices S_k with <S_k, X_block> = parameter k."""
    n = decl.rows
    sels = []
    if decl.structure == "symmetric":
        for i in range(n):
            for j in range(i, n):
                s = np.zeros((n, n))
                if i == j:
                    s[i, i] = 1.0
                else:
                    s[i, j] = s[j, i] = 0.5
                sels.append(s)
    elif decl.structure == "hermitian":
        # parameters: Re(i<=j) then Im(i<j); block is the doubled embedding and
        # the recovered matrix reads Re S = X11 + X22, Im S = X21 - X21^T
        for i in range(n):
            for j in range(i, n):
                s = np.zeros((2 * n, 2 * n))
                if i == j:
                    s[i, i] = 1.0
                    s[n + i, n + i] = 1.0
                else:
                    s[i, j] = s[j, i] = 0.5
                    s[n + i, n + j] = s[n + j, n + i] = 0.5
                sels.append(s)
        for i in range(n):
            for j in range(i + 1, n):
                s = np.zeros((2 * n, 2 * n))
                s[n + i, j] = s[j, n + i] = 0.5
                s[n + j, i] = s[i, n + j] = -0.5
                sels.append(s)
    else:
        raise ModelError(f"{decl.structure} variables cannot form primal PSD blocks")
    return sels


def _is_bare_var_lmi(expr: MatExpr, decl: VarDecl) -> bool:
    if expr.shape != (decl.rows, decl.cols) or np.max(np.abs(expr.const)) != 0:
        return False
    ids = set(range(decl.offset, decl.offset + decl.nparams))
    if set(expr.terms) != ids:
        return False
    for k, b in zip(sorted(ids), decl.basis()):
        if expr.terms[k].shape != b.shape or np.max(np.abs(expr.terms[k] - b)) != 0:
            return False
    return True


def _compile_primal(model: Model) -> CompiledModel:
    nparams = model.nparams
    # classify variables
    block_vars: list[VarDecl] = []
    bare_lmi_idx: set[int] = set()
    for decl in model.vars:
        for li, expr in enumerate(model.lmis):
            if li in bare_lmi_idx:
                continue
            if decl.structure in ("symmetric", "hermitian") and _is_bare_var_lmi(expr, decl):
                block_vars.append(decl)
                bare_lmi_idx.add(li)
                break
    slack_lmis = [(li, expr) for li, expr in enumerate(model.lmis) if li not in bare_lmi_idx]

    block_sizes: list[int] = []
    var_block: dict[str, int] = {}
    param_loc: dict[int, tuple] = {}  # param -> ("block", block_idx, sel) | ("free", slot)
    for decl in block_vars:
        embedded = decl.structure == "hermitian"
        size = 2 * decl.rows if embedded else decl.rows
        bidx = len(block_sizes)
        block_sizes.append(size)
        var_block[decl.name] = bidx
        for k, sel in enumerate(_selection_matrices(decl, embedded)):
            param_loc[decl.offset + k] = ("block", bidx, sel)

    free_slots: list[int] = []
    for decl in model.vars:
        if decl.name in var_block:
            continue
        for k in range(decl.offset, decl.offset + decl.nparams):
            param_loc[k] = ("free", len(free_slots))
            free_slots.append(k)

    # slack blocks for non-bare LMIs (1x1 -> nonneg slots)
    slack_info = []
    nonneg_count = 0
    for li, expr in slack_lmis:
        size, const, terms = _lower_lmi(expr)
        if size == 1:
            slack_info.append(("nonneg", nonneg_count, const, terms))
            nonneg_count += 1
        else:
            bidx = len(block_sizes)
            block_sizes.append(size)
            slack_info.append(("block", bidx, const, terms))

    structure = BlockStructure(tuple(block_sizes), nonneg_count, len(free_slots))

    def new_elem():
        return SymBlockMat(structure, [np.zeros((s, s)) for s in block_sizes], np.zeros(nonneg_count), np.zeros(len(free_slots)))

    def add_param(elem: SymBlockMat, k: int, w: float):
        kind = param_loc[k]
        if kind[0] == "block":
            elem.blocks[kind[1]] += w * kind[2]
        else:
            elem.free[kind[1]] += w

    constraints = []
    rhs = []
    names = []
    # model equalities -> rows
    for j, eq in enumerate(model.equalities):
        a = new_elem()
        for k, v in eq.coeffs.items():
            add_param(a, k, float(v.real))
        constraints.append(a)
        rhs.append(-float(eq.const.real))
        names.append(f"eq{j}")
    # slack-LMI matching rows, one per independent cell of the real representation
    for kind, idx, const, terms in slack_info:
        if kind == "nonneg":
            a = new_elem()
            a.nonneg[idx] = -1.0
            for k, mat_k in terms.items():
                add_param(a, k, float(mat_k[0, 0]))
            constraints.append(a)
            rhs.append(-float(const[0, 0]))
            names.append(f"slack_nn{idx}")
        else:
            size = block_sizes[idx]
            for i in range(size):
                for j in range(i, size):
                    a = new_elem()
                    sel = np.zeros((size, size))
                    if i == j:
                        sel[i, i] = 1.0
                    else:
                        sel[i, j] = sel[j, i] = 0.5
                    a.blocks[idx] -= sel
                    row_has_param = False
                    for k, mat_k in terms.items():
                        w = float(mat_k[i, j])
                        if w:
                            add_param(a, k, w)
                            row_has_param = True
                    constraints.append(a)
                    rhs.append(-float(const[i, j]))
                    names.append(f"slack_b{idx}_{i}_{j}")

    c_vec, c0 = _objective_vector(model, nparams)
    c_obj = new_elem()
    for k, v in enumerate(c_vec):
        if v:
            add_param(c_obj, k, float(v))

    problem = ConeProblem(
        c_obj,
        constraints,
        np.array(rhs),
        meta={"framing": "primal", "constraint_names": names},
    )

    def recover_params(sol: Solution):
        params = np.zeros(nparams)
        for decl in model.vars:
            if decl.name in var_block:
                bidx = var_block[decl.name]
                xblk = sol.x_primal.blocks[bidx]
                if decl.structure == "hermitian":
                    n = decl.rows
                    re_part = xblk[:n, :n] + xblk[n:, n:]
                    im_part = xblk[n:, :n] - xblk[n:, :n].T
                    k = decl.offset
                    for i in range(n):
                        for j in range(i, n):
                            params[k] = re_part[i, j]
                            k += 1
                    for i in range(n):
                        for j in range(i + 1, n):
                            params[k] = im_part[i, j]
                            k += 1
                else:
                    n = decl.rows
                    k = decl.offset
                    for i in range(n):
                        for j in range(i, n):
                            params[k] = xblk[i, j]
                            k += 1
        for slot, k in enumerate(free_slots):
            params[k] = sol.x_primal.free[slot]
        return params

    return CompiledModel(
        problem=problem,
        framing="primal",
        equality_mode="rows",
        sense=model.sense,
        value_offset=c0,
        _recover_params=recover_params,
        model=model,
    )


# ---------------------------------------------------------------------------
# JSON serialization


def _cplx_to_json(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    out = {"re": np.real(m).tolist()}
    if np.max(np.abs(np.imag(m))) > 0:
        out["im"] = np.imag(m).tolist()
    return out


def _cplx_from_json(d) -> np.ndarray:
    m = np.array(d["re"], dtype=complex)
    if "im" in d:
        m = m + 1j * np.array(d["im"])
    return m


def model_to_json(model: Model) -> str:
    def scalar(e: ScalarExpr):
        return {
            "coeffs": {str(k): [v.real, v.imag] for k, v in e.coeffs.items()},
            "const": [e.const.real, e.const.imag],
        }

    doc = {
        "format": "qsdp-model",
        "version": 1,
        "variables": [
            {"name": v.name, "rows": v.rows, "cols": v.cols, "structure": v.structure, "field": v.field}
            for v in model.vars
        ],
        "lmis": [
            {
                "shape": list(expr.shape),
                "const": _cplx_to_json(expr.const),
                "terms": {str(k): _cplx_to_json(v) for k, v in expr.terms.items()},
            }
            for expr in model.lmis
        ],
        "equalities": [scalar(e) for e in model.equalities],
        "objective": scalar(model.objective),
        "sense": model.sense,
    }
    return json.dumps(doc, indent=1)


def model_from_json(text: str) -> Model:
    doc = json.loads(text)
    if doc.get("format") != "qsdp-model":
        raise ModelError("not a qsdp model document")
    model = Model()
    for v in doc["variables"]:
        model.declare(v["rows"], v["cols"], structure=v["structure"], field=v["field"], name=v["name"])

    def scalar(d):
        return ScalarExpr(
            {int(k): complex(v[0], v[1]) for k, v in d["coeffs"].items()},
            complex(d["const"][0], d["const"][1]),
        )

    for l in doc["lmis"]:
        expr = MatExpr(
            tuple(l["shape"]),
            _cplx_from_json(l["const"]),
            {int(k): _cplx_from_json(v) for k, v in l["terms"].items()},
        )
        model.add_lmi(expr)
    for e in doc["equalities"]:
        model.equalities.append(scalar(e))
    model.objective = scalar(doc["objective"])
    model.sense = doc["sense"]
    return model
