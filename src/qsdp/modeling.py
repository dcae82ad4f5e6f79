"""Symbolic model construction and compilation to canonical conic problems.

A :class:`Model` owns matrix variables, affine matrix expressions constrained
to be PSD, scalar equalities and a linear objective.  ``compile`` lowers
complex data to the doubled real representation and emits a
:class:`ConeProblem` in either framing:

* dual framing (default): model scalars become the canonical dual vector y,
  each LMI becomes a slack block of Z, and each equality becomes a free
  entry of Z (a free primal variable), which the solver's presolve
  eliminates before the IPM starts (ipm.split_free);
* primal framing: PSD-constrained matrix variables become primal blocks,
  remaining scalars become free variables, and every equality is one
  constraint row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .blockmat import BlockStructure, SymBlockMat
from .problem import ConeProblem, Solution

_STRUCTURES = ("full", "symmetric", "hermitian", "diagonal", "skew")


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
        n = self.rows
        return {
            "full": n * self.cols,
            "symmetric": n * (n + 1) // 2,
            "hermitian": n * n,
            "diagonal": n,
            "skew": n * (n - 1) // 2,
        }[self.structure]

    def pattern(self):
        """(parameter, cell, coefficient) arrays of the basis: the coefficient
        matrix of local parameter par[t] has vals[t] at row-major cell cells[t]."""
        n, c = self.rows, self.cols
        if self.structure == "full":  # parameters run down the columns
            j, i = np.divmod(np.arange(n * c), n)
            return np.arange(n * c), i * c + j, np.ones(n * c)
        if self.structure == "diagonal":
            return np.arange(n), np.arange(n) * (n + 1), np.ones(n)
        skew = self.structure == "skew"
        i, j = np.triu_indices(n, 1 if skew else 0)
        off = i != j
        par = np.arange(i.size)
        par, cells = np.concatenate([par, par[off]]), np.concatenate([i * n + j, (j * n + i)[off]])
        vals = np.concatenate([np.ones(i.size), np.full(np.count_nonzero(off), -1.0 if skew else 1.0)])
        if self.structure == "hermitian":  # then the imaginary parts, 1j above and -1j below
            n_re = i.size
            i, j = np.triu_indices(n, 1)
            im = n_re + np.arange(i.size)
            par, cells = np.concatenate([par, im, im]), np.concatenate([cells, i * n + j, j * n + i])
            vals = np.concatenate([vals, np.full(i.size, 1j), np.full(i.size, -1j)])
        return par, cells, vals


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
    """Affine matrix expression F0 + sum_k x_k F_k with shared shape.

    Stored as one sparse complex (1 + nparams) x (rows * cols) coefficient
    matrix ``coef`` in CSC form: row 0 is vec(F0) and row 1 + k is vec(F_k),
    vec flattening row-major.  A linear map of the matrix is a sparse
    operator on the columns, and one entry is one column.  The constructor
    takes the constant and a {k: F_k} dict of dense matrices; ``const`` and
    ``terms`` give them back, built on each read.
    """

    __slots__ = ("shape", "coef")

    def __init__(self, shape, const=None, terms=None):
        shape, terms = tuple(shape), dict(terms or {})
        if terms and min(terms) < 0:  # row 1 + k would be the constant's, or count from the end
            raise ValueError(f"term key {min(terms)} is negative")
        mats = [np.zeros(shape) if const is None else const, *terms.values()]
        if np.shape(mats[0]) != shape:
            raise ValueError("constant term has the wrong shape")
        if any(np.shape(m) != shape for m in mats[1:]):
            raise ValueError("coefficient matrix has the wrong shape")
        flat = sp.coo_array(np.array(mats, dtype=complex).reshape(len(mats), -1))
        rows = 1 + np.array([-1, *terms], dtype=np.int64)
        self.shape = shape
        self.coef = sp.csc_array((flat.data, (rows[flat.row], flat.col)), shape=(1 + rows.max(), flat.shape[1]))

    @classmethod
    def from_coef(cls, shape, coef) -> "MatExpr":
        """Wrap a (1 + nparams) x (rows * cols) coefficient matrix (copied)."""
        out = cls.__new__(cls)
        out.shape = tuple(shape)
        out.coef = sp.csc_array(coef, dtype=complex, copy=True)
        out.coef.eliminate_zeros()
        out.coef.sum_duplicates()
        return out

    @property
    def const(self) -> np.ndarray:
        return self.coef[[0]].toarray().reshape(self.shape)

    @property
    def terms(self) -> dict:
        """{k: F_k} as dense matrices, for every parameter k that appears."""
        rows = np.unique(self.coef.indices)
        rows = rows[rows > 0]
        return dict(zip((rows - 1).tolist(), self.coef[rows].toarray().reshape(-1, *self.shape)))

    # -- algebra ------------------------------------------------------------
    def __add__(self, other):
        other = as_matexpr(other, self.shape)
        if other.shape != self.shape:
            raise ValueError("shape mismatch")
        nrows = max(self.coef.shape[0], other.coef.shape[0])
        return MatExpr.from_coef(self.shape, _padded(self.coef, nrows) + _padded(other.coef, nrows))

    __radd__ = __add__

    def __sub__(self, other):
        return self + as_matexpr(other, self.shape) * (-1.0)

    def __rsub__(self, other):
        return as_matexpr(other, self.shape) + self * (-1.0)

    def __mul__(self, t):
        return MatExpr.from_coef(self.shape, self.coef * complex(t))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def map_linear(self, f, out_shape) -> "MatExpr":
        """Apply a linear matrix map to the constant and every term.

        ``f`` is the map's sparse matrix on row-major vec(M), of size
        (out rows * out cols) x (rows * cols).
        """
        return MatExpr.from_coef(out_shape, self.coef @ sp.csr_array(f).T)

    def _gather(self, source, out_shape) -> "MatExpr":
        """Entry c of the result is entry source[c] of this expression."""
        return MatExpr.from_coef(out_shape, self.coef[:, np.ravel(source)])

    def left_mul(self, a) -> "MatExpr":
        a = np.asarray(a, dtype=complex)
        return self.map_linear(sp.kron(a, sp.identity(self.shape[1])), (a.shape[0], self.shape[1]))

    def right_mul(self, a) -> "MatExpr":
        a = np.asarray(a, dtype=complex)
        return self.map_linear(sp.kron(sp.identity(self.shape[0]), a.T), (self.shape[0], a.shape[1]))

    def transpose(self) -> "MatExpr":
        return self._gather(_cell_grid(self.shape).T, (self.shape[1], self.shape[0]))

    @property
    def T(self):
        return self.transpose()

    def conj(self) -> "MatExpr":
        return MatExpr.from_coef(self.shape, self.coef.conj())

    def adjoint(self) -> "MatExpr":
        return self.transpose().conj()

    @property
    def H(self):
        return self.adjoint()

    def entry(self, i: int, j: int) -> ScalarExpr:
        c = self.coef
        cell = np.ravel_multi_index((i, j), self.shape)
        lo, hi = c.indptr[cell], c.indptr[cell + 1]
        coeffs = dict(zip((c.indices[lo:hi] - 1).tolist(), c.data[lo:hi].tolist()))
        return ScalarExpr(coeffs, coeffs.pop(-1, 0.0))

    def _scalar(self, weights) -> ScalarExpr:
        """sum over cells of weights * entry, as a scalar expression with a
        coefficient for every parameter that appears."""
        v = self.coef @ np.ravel(weights).astype(complex)
        rows = np.unique(self.coef.indices)
        rows = rows[rows > 0]
        return ScalarExpr(dict(zip((rows - 1).tolist(), v[rows].tolist())), v[0])

    def trace(self) -> ScalarExpr:
        return self._scalar(np.eye(*self.shape))

    def frobenius_with(self, a) -> ScalarExpr:
        """<A, expr> = Tr(A^dagger expr) for a constant matrix A."""
        return self._scalar(np.conj(np.asarray(a, dtype=complex)))

    def partial_trace(self, dims, keep) -> "MatExpr":
        return self.map_linear(*_partial_trace_map(dims, keep))

    def partial_transpose(self, dims, subsystems) -> "MatExpr":
        return self._gather(partial_transpose(_cell_grid(self.shape), dims, subsystems), self.shape)

    def value(self, params: np.ndarray) -> np.ndarray:
        p = np.concatenate([[1.0], np.asarray(params)[: self.coef.shape[0] - 1]])
        return (self.coef.T @ p).reshape(self.shape)

    def clean(self, threshold: float) -> "MatExpr":
        """Drop variable terms whose coefficient matrix has max-norm below threshold.

        The constant term is never removed.
        """
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        keep = (_row_max(self.coef) >= threshold) | (threshold == 0)
        keep[0] = True
        c = self.coef.tocoo()
        at = keep[c.row]
        return MatExpr.from_coef(self.shape, sp.coo_array((c.data[at], (c.row[at], c.col[at])), shape=c.shape))


def _padded(coef, nrows: int):
    """coef with zero rows appended up to nrows."""
    return sp.csc_array((coef.data, coef.indices, coef.indptr), shape=(nrows, coef.shape[1]))


def _cell_grid(shape) -> np.ndarray:
    """Row-major cell number of each entry of a matrix of the given shape."""
    return np.arange(shape[0] * shape[1]).reshape(shape)


def _partial_trace_map(dims, keep):
    """Matrix of the partial trace on row-major vec(M), and the result's
    shape: cell (i, j) of M adds to cell (i_keep, j_keep) of the result when
    i and j agree on every traced subsystem."""
    dims, keep = list(dims), sorted(keep)
    k, n = len(dims), int(np.prod(dims))
    ij = np.unravel_index(np.arange(n * n), dims + dims)
    on = np.ones(n * n, dtype=bool)
    for t in set(range(k)) - set(keep):
        on &= ij[t] == ij[t + k]
    src = np.flatnonzero(on)
    out = np.zeros(src.size, dtype=np.int64)
    for t in keep + [t + k for t in keep]:  # row-major over (i_keep, j_keep)
        out = out * (dims + dims)[t] + ij[t][src]
    d = int(np.prod([dims[t] for t in keep]))
    return sp.csr_array((np.ones(src.size), (out, src)), shape=(d * d, n * n)), (d, d)


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


def _symmetric_expr(n: int, cells: np.ndarray, rows: np.ndarray, values: np.ndarray, nrows: int) -> MatExpr:
    """The n x n expression whose coefficient row rows[k] holds values[k] at
    cell (i, j) = cells[:, k] and at its transpose; the values are nonzero
    and no (row, cell) pair repeats."""
    i, j = cells
    off = i != j
    coef = sp.csc_array(
        (np.concatenate([values, values[off]]), (np.concatenate([rows, rows[off]]), np.concatenate([i * n + j, (j * n + i)[off]]))),
        shape=(nrows, n * n),
    )
    return MatExpr.from_coef((n, n), coef)


def scalar_nonneg(expr: ScalarExpr) -> MatExpr:
    """Wrap a scalar affine expression as a 1x1 LMI (expr >= 0)."""
    return MatExpr((1, 1), np.array([[expr.const]]), {k: np.array([[v]]) for k, v in expr.coeffs.items()})


# ---------------------------------------------------------------------------
# tensor helpers (also used by the quantum applications)


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep`` (indices into dims)."""
    dims, keep, k = list(dims), sorted(keep), len(dims)
    cols = [k + i if i in keep else i for i in range(k)]  # a traced subsystem repeats its row index
    out = np.einsum(np.asarray(m).reshape(dims + dims), list(range(k)) + cols, keep + [k + i for i in keep])
    d = int(np.prod([dims[i] for i in keep]))
    return out.reshape(d, d)


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


class MatVar(MatExpr):
    """A declared matrix variable: the expression sum_k x_k F_k over its own
    parameters, together with its declaration."""

    __slots__ = ("decl",)

    def __init__(self, decl: VarDecl):
        par, cells, vals = decl.pattern()
        shape = (1 + decl.offset + decl.nparams, decl.rows * decl.cols)
        self.shape, self.decl = (decl.rows, decl.cols), decl
        self.coef = sp.csc_array((vals, (1 + decl.offset + par, cells)), shape=shape, dtype=complex)

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
        return self


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
    def compile(self, framing="dual") -> "CompiledModel":
        """Lower to a canonical ConeProblem in the dual or the primal framing."""
        if framing not in ("dual", "primal"):
            raise ModelError("framing must be 'dual' or 'primal'")
        if not self.lmis:
            raise ModelError("model has no LMI constraints; nothing to optimize over")
        self._check_all_params_used()
        if framing == "dual":
            return _compile_dual(self)
        return _compile_primal(self)

    def solve(self, framing="dual", cfg=None):
        return self.compile(framing).solve(cfg)

    def _check_all_params_used(self):
        used = set()
        for lmi in self.lmis:
            used.update((np.unique(lmi.coef.indices) - 1).tolist())
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


def _hermitian_coeffs(expr: MatExpr, what: str) -> bool:
    """Raise unless the constant and every term of expr are Hermitian within
    1e-10 (relative); return whether any of them has imaginary content."""
    tol = 1e-10
    c = expr.coef
    skew = c - c[:, _cell_grid(expr.shape).T.ravel()].conj()
    if np.any(_row_max(skew) > tol * np.maximum(1.0, _row_max(c))):
        raise ModelError(f"{what} is not Hermitian-valued")
    return bool(np.any(c.data.imag))


def _row_max(coef) -> np.ndarray:
    """Largest absolute entry of each row of a sparse matrix (0 for empty rows)."""
    c = coef.tocoo()
    out = np.zeros(c.shape[0])
    np.maximum.at(out, c.row, np.abs(c.data))
    return out


def _lmi_sizes(exprs) -> list[int]:
    """Block size of each LMI as real data: n, or 2n when it has complex data."""
    return [expr.shape[0] * (2 if _hermitian_coeffs(expr, "LMI expression") else 1) for expr in exprs]


def _lmi_starts(sizes, offsets, first_block: int) -> list[int]:
    """Flat start of each LMI: the blocks from number ``first_block`` on, in
    order, for sizes above 1 and the nonnegative entries, in order, for 1x1
    LMIs."""
    blocks = iter(offsets[first_block:])
    nonneg = iter(range(offsets[-3], offsets[-2]))
    return [next(blocks) if size > 1 else next(nonneg) for size in sizes]


def _lowered(exprs, sizes, starts):
    """(start, coef) of each LMI as real data, its whole coefficient matrix
    lowered at once.  An LMI of size 2n holds its complex data in the doubled
    real embedding."""
    for expr, size, start in zip(exprs, sizes, starts):
        # _hermitian_coeffs has checked every term already
        yield start, _embedded(expr.coef, expr.shape[0]) if size > expr.shape[0] else expr.coef.real


def _embedded(coef, n: int):
    """[[Re, -Im], [Im, Re]] of every row of an n x n coefficient matrix, as
    the rows of a real (2n)^2-column one."""
    c = coef.tocoo()
    i, j = np.divmod(c.col, n)
    cells = [i * 2 * n + j, (i + n) * 2 * n + j + n, (i + n) * 2 * n + j, i * 2 * n + j + n]
    vals = [c.data.real, c.data.real, c.data.imag, -c.data.imag]
    shape = (c.shape[0], 4 * n * n)
    return sp.coo_array((np.concatenate(vals), (np.tile(c.row, 4), np.concatenate(cells))), shape=shape)


def _affine_map(pieces, flat_dim: int, nparams: int):
    """The affine map p -> F0 + sum_k p_k F_k in flat coordinates.

    Each piece (start, coef) puts its part of the map at flat positions
    start, start + 1, ...: row 0 of the coefficient matrix coef (sparse or
    dense) holds that part of F0 and row 1 + k the part of F_k, flattened
    row-major.  Returns F0 as a dense vector and F as the nparams x flat_dim
    CSR matrix whose row k holds the nonzeros of F_k.
    """
    f0 = np.zeros(flat_dim)
    rows, cols, vals = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)], [np.zeros(0)]
    for start, coef in pieces:
        t = sp.coo_array(coef)
        at0 = t.row == 0
        f0[start + t.col[at0]] = t.data[at0]  # assigned, so a stored -0.0 stays -0.0
        nz = (t.data != 0) & ~at0
        rows.append((t.row[nz] - 1).astype(np.int32))
        cols.append((start + t.col[nz]).astype(np.int32))
        vals.append(t.data[nz])
    f = sp.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(nparams, flat_dim))
    return f0, f


@dataclass
class CompiledModel:
    problem: ConeProblem
    # dual framing: params = y_map(y); primal framing: params read from blocks
    _recover_params: callable = field(repr=False, default=None)
    model: Model = field(repr=False, default=None)

    def params_from(self, sol: Solution) -> np.ndarray:
        return self._recover_params(sol)

    def recover(self, sol: Solution) -> dict:
        params = self.params_from(sol)
        out = {}
        for decl in self.model.vars:
            m = MatVar(decl).value(params)
            out[decl.name] = np.real(m) if decl.field == "real" else m
        return out

    def objective_value(self, sol: Solution) -> float:
        return float(self.model.objective.value(self.params_from(sol)).real)

    def solve(self, cfg=None):
        from .ipm import solve as ipm_solve

        sol, log = ipm_solve(self.problem, cfg)
        return ModelResult(
            value=self.objective_value(sol),
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
    """The objective's coefficients in minimization form; raises unless it is real."""
    c = np.zeros(nparams)
    for k, v in model.objective.coeffs.items():
        if abs(v.imag) > 1e-12 * max(1.0, abs(v)):
            raise ModelError("objective must be real-valued")
        c[k] = v.real
    c0 = model.objective.const
    if abs(c0.imag) > 1e-12 * max(1.0, abs(c0)):
        raise ModelError("objective must be real-valued")
    # zero entries come out +0.0 under either sense, so those of b = -c are -0.0
    return c + 0.0 if model.sense == "min" else 0.0 - c


def _equality_system(model: Model, nparams: int):
    n_eq = len(model.equalities)
    e = np.zeros((n_eq, nparams))
    f = np.zeros(n_eq)
    for j, eq in enumerate(model.equalities):
        for k, v in eq.coeffs.items():
            e[j, k] = v.real
        f[j] = -eq.const.real
    return e, f


def _compile_dual(model: Model) -> CompiledModel:
    """Z(p) = F0 + sum_k p_k F_k is the dual slack and y = p, so A = -F,
    C = F0 and b = -c.  Each equality f - E p = 0 is a free entry of Z; the
    IPM eliminates those free variables before it starts (ipm.split_free)."""
    nparams = model.nparams
    sizes = _lmi_sizes(model.lmis)
    block_sizes = [size for size in sizes if size > 1]
    e_mat, f_vec = _equality_system(model, nparams)
    c_vec = _objective_vector(model, nparams)

    structure = BlockStructure(tuple(block_sizes), len(sizes) - len(block_sizes), len(model.equalities))
    offsets = structure.flat_offsets()
    lmis = _lowered(model.lmis, sizes, _lmi_starts(sizes, offsets, 0))
    equalities = (offsets[-2], np.vstack([f_vec, -e_mat.T]))  # the coefficient matrix of f - E p
    f0, f = _affine_map([*lmis, equalities], structure.flat_dim, nparams)
    problem = ConeProblem(SymBlockMat.from_flat(structure, f0), -f, -c_vec, {"framing": "dual"})
    return CompiledModel(problem, lambda sol: sol.y_dual.copy(), model)


def _selection_matrices(decl: VarDecl):
    """Dual basis S_k of the variable's primal block, <S_k, X_block> = parameter
    k, as row 1 + k of a sparse matrix with an empty row 0: S_k is the
    lowered F_k divided by its number of nonzeros (the block is the doubled
    real embedding for a Hermitian variable)."""
    if decl.structure not in ("symmetric", "hermitian"):
        raise ModelError(f"{decl.structure} variables cannot form primal PSD blocks")
    coef = MatVar(decl).coef
    low = (_embedded(coef, decl.rows) if decl.structure == "hermitian" else coef.real).tocoo()
    counts = np.bincount(coef.indices, minlength=coef.shape[0])
    return sp.coo_array((low.data / counts[low.row], (low.row, low.col)), low.shape)


def _is_bare_var_lmi(expr: MatExpr, decl: VarDecl) -> bool:
    if expr.shape != (decl.rows, decl.cols):
        return False
    bare = MatVar(decl).coef
    nrows = max(expr.coef.shape[0], bare.shape[0])
    return (_padded(expr.coef, nrows) - _padded(bare, nrows)).count_nonzero() == 0


def _compile_primal(model: Model) -> CompiledModel:
    """A variable whose LMI is the bare variable becomes a primal block X_b,
    the other parameters free entries; P (nparams x flat_dim) selects them,
    <P_k, X> = p_k.  Rows: E P for the equalities, then F[:, c]' P - S_c for
    each independent cell c of the slack LMIs' map F0 + sum_k p_k F_k."""
    nparams = model.nparams
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
    slack_lmis = [expr for li, expr in enumerate(model.lmis) if li not in bare_lmi_idx]
    sizes = _lmi_sizes(slack_lmis)
    free_params = [
        k for decl in model.vars if decl not in block_vars for k in range(decl.offset, decl.offset + decl.nparams)
    ]

    block_sizes = [2 * decl.rows if decl.structure == "hermitian" else decl.rows for decl in block_vars]
    block_sizes += [size for size in sizes if size > 1]
    nonneg_count = sizes.count(1)
    structure = BlockStructure(tuple(block_sizes), nonneg_count, len(free_params))
    offsets = structure.flat_offsets()
    dim = structure.flat_dim

    sel_pieces = [(offsets[b], _selection_matrices(decl)) for b, decl in enumerate(block_vars)]
    slots = np.arange(len(free_params))
    free = sp.coo_array((np.ones(slots.size), (1 + np.array(free_params, dtype=np.int64), slots)), (1 + nparams, slots.size))
    _, p_sel = _affine_map(sel_pieces + [(offsets[-2], free)], dim, nparams)

    starts = _lmi_starts(sizes, offsets, len(block_vars))
    f0, f = _affine_map(_lowered(slack_lmis, sizes, starts), dim, nparams)
    e_mat, f_vec = _equality_system(model, nparams)
    # independent cells (i <= j) of each slack LMI, in LMI order
    cells = []
    names = [f"eq{j}" for j in range(len(model.equalities))]
    block_no = iter(range(len(block_vars), len(block_sizes)))
    for size, start in zip(sizes, starts):
        i, j = np.triu_indices(size)
        cells.append(start + i * size + j)
        if size == 1:
            names.append(f"slack_nn{start - offsets[-3]}")
        else:
            b = next(block_no)
            names += [f"slack_b{b}_{r}_{c}" for r, c in zip(i, j)]
    cells = np.concatenate([np.zeros(0, np.int64)] + cells)
    # S_c is the unit at the cell; ConeProblem averages it with its transpose
    unit = sp.csr_array((np.ones(cells.size), (np.arange(cells.size), cells)), shape=(cells.size, dim))
    a = sp.vstack([sp.csr_array(e_mat) @ p_sel, f[:, cells].T @ p_sel - unit], format="csr")

    c_vec = _objective_vector(model, nparams)
    problem = ConeProblem(
        SymBlockMat.from_flat(structure, p_sel.T @ c_vec),
        a,
        np.concatenate([f_vec, -f0[cells]]),
        meta={"framing": "primal", "constraint_names": names},
    )

    def recover_params(sol: Solution):
        return p_sel @ sol.x_primal.flat()

    return CompiledModel(
        problem=problem,
        _recover_params=recover_params,
        model=model,
    )


# ---------------------------------------------------------------------------
# JSON serialization


def _cplx_from_json(d) -> np.ndarray:
    if not isinstance(d, dict) or "re" not in d:
        raise ValueError("a complex matrix document needs an object with an 're' entry")
    m = np.array(d["re"], dtype=complex)
    if "im" in d:
        m = m + 1j * np.array(d["im"])
    return m


def _lmi_to_json(expr: MatExpr) -> dict:
    """Shape and the COO triplets of the coefficient matrix: coefficient row
    (0 the constant, 1 + k parameter k), row-major cell, value."""
    c = expr.coef.tocoo()
    re, im = c.data.real.tolist(), c.data.imag.tolist()
    return {"shape": list(expr.shape), "rows": c.row.tolist(), "cols": c.col.tolist(), "re": re, "im": im}


def model_to_json(model: Model) -> str:
    """Format version 2: each LMI as the triplets of its coefficient matrix.
    ``model_from_json`` also reads version 1, which wrote the constant and
    every term as a dense matrix."""

    def scalar(e: ScalarExpr):
        return {
            "coeffs": {str(k): [v.real, v.imag] for k, v in e.coeffs.items()},
            "const": [e.const.real, e.const.imag],
        }

    doc = {
        "format": "qsdp-model",
        "version": 2,
        "variables": [
            {"name": v.name, "rows": v.rows, "cols": v.cols, "structure": v.structure, "field": v.field}
            for v in model.vars
        ],
        "lmis": [_lmi_to_json(expr) for expr in model.lmis],
        "equalities": [scalar(e) for e in model.equalities],
        "objective": scalar(model.objective),
        "sense": model.sense,
    }
    return json.dumps(doc, indent=1)


def model_from_json(text: str) -> Model:
    def scalar(d, nparams: int):
        coeffs = {int(k): complex(v[0], v[1]) for k, v in d["coeffs"].items()}
        if any(not 0 <= k < nparams for k in coeffs):  # a negative key would count from the end
            raise ModelError(f"coefficient key outside 0..{nparams - 1}")
        return ScalarExpr(coeffs, complex(d["const"][0], d["const"][1]))

    try:
        doc = json.loads(text)  # a json.JSONDecodeError is a ValueError
        if not isinstance(doc, dict) or doc.get("format") != "qsdp-model":
            raise ModelError("not a qsdp model document")
        version = doc.get("version")
        if version not in (1, 2):
            raise ModelError(f"unknown qsdp model format version {version!r}")
        model = Model()
        for v in doc["variables"]:
            model.declare(v["rows"], v["cols"], structure=v["structure"], field=v["field"], name=v["name"])
        for l in doc["lmis"]:
            shape = tuple(l["shape"])
            if version == 1:
                expr = MatExpr(shape, _cplx_from_json(l["const"]), {int(k): _cplx_from_json(v) for k, v in l["terms"].items()})
            else:
                nrows = 1 + max(l["rows"], default=0)
                coef = sp.coo_array((_cplx_from_json(l), (l["rows"], l["cols"])), shape=(nrows, shape[0] * shape[1]))
                expr = MatExpr.from_coef(shape, coef)
            model.add_lmi(expr)
        for e in doc["equalities"]:
            model.equalities.append(scalar(e, model.nparams))
        model.objective = scalar(doc["objective"], model.nparams)
        if doc["sense"] not in ("min", "max"):
            raise ModelError(f"sense must be 'min' or 'max', not {doc['sense']!r}")
        model.sense = doc["sense"]
    except ModelError:
        raise
    except KeyError as exc:
        raise ModelError(f"qsdp model document lacks {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed qsdp model document: {exc}") from exc
    return model
