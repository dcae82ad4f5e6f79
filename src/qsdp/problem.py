"""Canonical conic problem data and its validation.

A :class:`ConeProblem` stores the data (C, {A_i}, b) of

    minimize  <C, X>   subject to  <A_i, X> = b_i,  X in K,

where K is the mixed cone described by a :class:`BlockStructure`.  The same
data read the other way is the dual problem  max b'y  s.t.  C - sum y_i A_i
in K*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# frobenius_inner stays importable from here: bench/tracer.py counts calls through this name
from .blockmat import BlockStructure, StructureMismatchError, SymBlockMat, frobenius_inner  # noqa: F401

SPREAD_LIMIT = 1e8  # a coefficient spread max/min above this sets ValidationReport.scaling_warning
_RANK_RCOND = 1e-12  # relative rank threshold of null_space_by_component and FreeElimination.recover


def _stack_rows(structure: BlockStructure, constraints) -> sp.csr_array:
    """Row i holds constraint i's nonzeros in flat coordinates."""
    for k, a in enumerate(constraints):
        if a.structure != structure:
            raise ValueError(f"constraint {k} does not share the objective's structure")
    rows = [sp.csr_array(a.flat()[None, :]) for a in constraints]
    return sp.vstack(rows, format="csr") if rows else sp.csr_array((0, structure.flat_dim))


def _symmetric_rows(structure: BlockStructure, a) -> sp.csr_array:
    """A new CSR matrix whose row i is (A_i + A_i') / 2 in every SDP block of
    row i of ``a`` (and A_i elsewhere), with sorted 32-bit indices."""
    a = sp.csr_array(a, dtype=float)
    # flip[c] is the flat coordinate of the entry transposed to c
    flip = np.arange(structure.flat_dim, dtype=np.int32)
    for start, n in zip(structure.flat_offsets(), structure.sdp_blocks):
        flip[start : start + n * n] = start + np.arange(n * n, dtype=np.int32).reshape(n, n).T.ravel()
    indptr = a.indptr.astype(np.int32)
    own = sp.csr_array((a.data, a.indices.astype(np.int32, copy=False), indptr), shape=a.shape)
    out = own + sp.csr_array((a.data, flip[a.indices], indptr), shape=a.shape)
    out.sort_indices()
    # the sum's arrays have room for nnz(own) + nnz(mirrored) entries: keep compact ones
    return sp.csr_array((out.data * 0.5, out.indices.copy(), out.indptr), shape=a.shape)


class ConeProblem:
    """Problem data (C, {A_i}, b).

    A is held once, as the m x ``structure.flat_dim`` CSR matrix ``a`` whose
    row i is A_i in flat coordinates (see :meth:`SymBlockMat.flat`): SDP
    blocks row-major with both triangles stored, then the nonnegative and the
    free entries.  ``constraints`` lists the A_i as block matrices, stacked
    into such a matrix, or is already one.  Its rows are averaged with their
    transpose in every SDP block, as :class:`SymBlockMat` does with blocks,
    into a new matrix (the caller's is left as it is); on the rows of block
    matrices, already symmetric, the average is exact.  Its transpose is
    stored beside it as CSR, ``a_t``, for :meth:`adjoint`.
    """

    def __init__(self, c_obj: SymBlockMat, constraints, rhs, meta: dict | None = None):
        self.c_obj = c_obj
        if not sp.issparse(constraints):
            constraints = _stack_rows(c_obj.structure, constraints)
        if constraints.shape[1] != self.structure.flat_dim:
            raise ValueError("constraint rows do not match the objective's structure")
        self.a = _symmetric_rows(c_obj.structure, constraints)
        self.a_t = self.a.T.tocsr()
        self.rhs = np.asarray(rhs, dtype=float)
        self.meta = {} if meta is None else meta
        if self.rhs.shape != (self.a.shape[0],):
            raise ValueError("rhs length must match the number of constraints")

    @property
    def structure(self) -> BlockStructure:
        return self.c_obj.structure

    @property
    def num_constraints(self) -> int:
        return self.a.shape[0]

    @property
    def constraints(self) -> list[SymBlockMat]:
        """The A_i as block matrices, rebuilt from ``a`` on every access."""
        return [SymBlockMat.from_flat(self.structure, self.a[[i]].toarray()[0]) for i in range(self.num_constraints)]

    def apply(self, x: SymBlockMat) -> np.ndarray:
        """Constraint map A(X) = (<A_i, X>)_i."""
        if x.structure != self.structure:
            raise StructureMismatchError("operand does not share the problem's structure")
        return self.a @ x.flat()

    def adjoint(self, y: np.ndarray) -> SymBlockMat:
        """Adjoint map A*(y) = sum_i y_i A_i, the vector a_t @ y wrapped as is.
        Every row of ``a`` is bitwise symmetric in its SDP blocks, so the
        blocks of the product are too, and they are not averaged again."""
        return SymBlockMat._new(self.structure, self.a_t @ np.asarray(y, dtype=float))


@dataclass
class ValidationReport:
    m: int
    rank: int
    dependent_indices: list[int]
    duplicate_pairs: list[tuple[int, int]]
    coeff_min: float
    coeff_max: float
    scaling_warning: bool

    @property
    def independent(self) -> bool:
        return not self.dependent_indices


def _components(g: sp.csr_array) -> np.ndarray:
    """Connected-component label of each node of the symmetric graph g, by
    min-label propagation; a label is the index of a node of the component."""
    rows = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
    label = np.arange(g.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[g.indices])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def null_space_by_component(e_mat: np.ndarray, f_vec: np.ndarray):
    """y0 = pinv(E) f and an orthonormal basis N of the null space of E, from
    one SVD per connected component of E's row-column graph.

    Up to a permutation E is block-diagonal over those components, so the
    rank threshold _RANK_RCOND * sigma_max(E) takes sigma_max as the largest over
    the components, and no SVD of the whole E is taken.  N is a sparse
    nparams x (nparams - rank) CSC matrix: a parameter in no equality keeps
    its unit vector, and each component adds its null-space vectors,
    supported on its own parameters.  Columns come in order of each
    component's first parameter.
    """
    n_eq, nparams = e_mat.shape
    # nodes 0 .. nparams - 1 are the parameters, then the equalities, with an
    # edge both ways for each nonzero of E; a component's label is its
    # smallest node
    eq, par = np.nonzero(e_mat)
    edges = (np.concatenate([par, nparams + eq]), np.concatenate([nparams + eq, par]))
    labels = _components(sp.csr_array((np.ones(2 * eq.size, bool), edges), shape=(nparams + n_eq,) * 2))
    param_label, row_label = labels[:nparams], labels[nparams:]
    factors, smax = [], 0.0
    for label in np.unique(row_label[row_label < nparams]):  # an empty equality touches no parameter
        rows, cols = np.flatnonzero(row_label == label), np.flatnonzero(param_label == label)
        # all of V, but no square U: the reduced SVD already has V square when rows >= cols
        u, s, vt = np.linalg.svd(e_mat[np.ix_(rows, cols)], full_matrices=rows.size < cols.size)
        factors.append((label, rows, cols, u, s, vt))
        smax = max(smax, s[0])
    tol = max(_RANK_RCOND * smax, 1e-300)

    y0 = np.zeros(nparams)
    unit = np.flatnonzero(~np.isin(param_label, row_label))
    # triplets of N with its columns in the order built, each keyed by its component's label
    keys, rows_n, cols_n, vals_n = [unit], [unit], [np.arange(unit.size)], [np.ones(unit.size)]
    width = unit.size
    for label, rows, cols, u, s, vt in factors:
        rank = int(np.sum(s > tol))
        y0[cols] = vt[:rank].T @ ((u[:, :rank].T @ f_vec[rows]) / s[:rank])  # pinv from the same factors
        null = vt[rank:].T
        r, c = np.nonzero(null)
        keys.append(np.full(null.shape[1], label))
        rows_n.append(cols[r])
        cols_n.append(width + c)
        vals_n.append(null[r, c])
        width += null.shape[1]
    position = np.empty(width, np.int64)
    position[np.argsort(np.concatenate(keys), kind="stable")] = np.arange(width)
    triplets = (np.concatenate(vals_n), (np.concatenate(rows_n), position[np.concatenate(cols_n)]))
    return y0, sp.csc_array(triplets, shape=(nparams, width))


class FreeElimination:
    """The cone-only problem the IPM solves for p, and the map back to p.

    With A = [A_c A_f] and C = (C_c, c_f), p's free columns make the dual
    equalities A_f'y = c_f, solved by y = y0 + N w with y0 and the
    orthonormal N of null_space_by_component(A_f', c_f).  ``problem`` has
    rows N'A_c, right-hand side N'b and cost C_c - A_c'y0; p's objectives
    are its own plus ``offset`` = b'y0, and as N is orthonormal and x_f is
    recovered by least squares, p's residual norms are its own.
    ``consistent`` is False when A_f'y = c_f has no solution, so the dual
    is infeasible.  ipm.split_free runs it before every solve.
    """

    def __init__(self, p: ConeProblem):
        self.source = self.problem = p
        self.null, self.offset, self.consistent = None, 0.0, True
        st = p.structure
        if st.free_dim == 0:
            return
        n_c = st.flat_dim - st.free_dim
        a_f, c_f = p.a[:, n_c:], p.c_obj.free
        self.y0, self.null = null_space_by_component(a_f.T.toarray(), c_f)
        self.consistent = bool(np.linalg.norm(a_f.T @ self.y0 - c_f) <= 1e-8 * (1.0 + np.linalg.norm(c_f)))
        cone = BlockStructure(st.sdp_blocks, st.nonneg_dim, 0, st.multiplicities)
        c_obj = SymBlockMat._new(cone, p.c_obj.flat()[:n_c] - p.a_t[:n_c] @ self.y0)
        n_t = sp.csr_array(self.null.T)
        self.problem = ConeProblem(c_obj, n_t @ p.a[:, :n_c], n_t @ p.rhs, dict(p.meta))
        self.offset = float(p.rhs @ self.y0)

    def recover(self, it) -> tuple[SymBlockMat, np.ndarray, SymBlockMat]:
        """(X, y, Z) of p at an ipm.Iterate of ``problem``: y = y0 + N w, x_f the
        least-squares solution of A_f x_f = b - A_c(X), Z's free part 0."""
        if self.null is None:
            return it.x, it.y.copy(), it.z
        p, n_c = self.source, it.x.structure.flat_dim
        x_f = np.linalg.lstsq(p.a[:, n_c:].toarray(), p.rhs - p.a[:, :n_c] @ it.x.flat(), rcond=_RANK_RCOND)[0]
        x = SymBlockMat._new(p.structure, np.concatenate([it.x.flat(), x_f]))
        z = SymBlockMat._new(p.structure, np.concatenate([it.z.flat(), np.zeros(x_f.size)]))
        return x, self.y0 + self.null @ it.y, z


def _ordered_dependents(rows: np.ndarray, tol: np.ndarray) -> list[int]:
    """Positions of the rows whose residual against the span of the earlier
    kept rows is at most ``tol``; a flagged row leaves the span.  Up to the
    first flagged row that residual is |R_ii| in rows.T = QR, so each flag
    restarts the factorization without the flagged row."""
    keep = list(range(len(rows)))
    while keep:
        r = np.abs(np.diag(scipy.linalg.qr(rows[keep].T, mode="r")[0]))
        bad = np.flatnonzero(np.pad(r, (0, len(keep) - r.size)) <= tol[keep])
        if not bad.size:
            break
        del keep[bad[0]]
    return sorted(set(range(len(rows))) - set(keep))


def validate_problem(p: ConeProblem) -> ValidationReport:
    """Report-only diagnostics: constraint rank, dependencies, coefficient spread.

    Row i is dependent when its residual against the span of the earlier
    independent rows is at most 1e-12 * max(|A_i|_F, 1).  Rows with a zero
    Gram entry (such as rows that share no coordinate) are orthogonal, so the
    test runs on each connected component of the sparse Gram matrix A A'; a
    row alone there is dependent only when it is zero.
    """
    a = p.a
    m = p.num_constraints
    gram = a @ a.T
    norms = np.sqrt(gram.diagonal())
    tol = 1e-12 * np.maximum(norms, 1.0)
    labels = _components(gram)
    size = np.bincount(labels, minlength=m)[labels]
    dependent = np.flatnonzero((size == 1) & (norms <= tol)).tolist()
    # the rows of every multi-row component, grouped by label in one slice
    # (a stable sort keeps each component's rows in order)
    multi = np.flatnonzero(size > 1)
    order = multi[np.argsort(labels[multi], kind="stable")]
    rows = a[order]
    row_of = np.repeat(np.arange(order.size), np.diff(rows.indptr))
    bounds = np.flatnonzero(np.diff(labels[order], prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        comp = order[lo:hi]
        # over the columns the component's rows touch; the others are zero in all of them
        span = slice(rows.indptr[lo], rows.indptr[hi])
        cols, at = np.unique(rows.indices[span], return_inverse=True)
        packed = np.zeros((comp.size, cols.size))
        packed[row_of[span] - lo, at] = rows.data[span]
        dependent += comp[_ordered_dependents(packed, tol[comp])].tolist()
    dependent.sort()

    # duplicates up to scaling, read from the off-diagonal Gram entries
    upper = sp.triu(gram, k=1).tocoo()
    i, j = upper.row, upper.col
    dup = np.abs(np.abs(upper.data / (norms[i] * norms[j])) - 1.0) < 1e-12
    pairs = sorted(zip(i[dup].tolist(), j[dup].tolist()))

    coeffs = np.abs(np.concatenate([p.c_obj.flat(), a.data, p.rhs]))
    coeffs = coeffs[coeffs > 0]
    cmin, cmax = (float(coeffs.min()), float(coeffs.max())) if coeffs.size else (0.0, 0.0)
    warning = cmin > 0 and cmax / cmin > SPREAD_LIMIT
    return ValidationReport(m, m - len(dependent), dependent, pairs, cmin, cmax, warning)


def require_independent(p: ConeProblem):
    """Raise when constraints are linearly dependent, naming the offending index."""
    rep = validate_problem(p)
    if not rep.independent:
        k = rep.dependent_indices[0]
        name = ""
        names = p.meta.get("constraint_names")
        if names and k < len(names):
            name = f" ({names[k]})"
        raise ValueError(
            f"constraint {k}{name} is linearly dependent on the others "
            f"(rank {rep.rank} < m = {rep.m}); remove or merge it before solving"
        )


# termination codes, following the usual solver convention
STATUS_SUCCESS = 0
STATUS_PRIMAL_INFEASIBLE = 1  # reserved for a checked certificate; not produced
STATUS_DUAL_INFEASIBLE = 2  # reserved for a checked certificate; not produced
STATUS_LACK_OF_PROGRESS = -1
STATUS_NUMERICAL_FAILURE = -3
STATUS_ITERATION_LIMIT = -6

STATUS_LABELS = {
    STATUS_SUCCESS: "success",
    STATUS_PRIMAL_INFEASIBLE: "primal infeasibility suspected",
    STATUS_DUAL_INFEASIBLE: "dual infeasibility suspected",
    STATUS_LACK_OF_PROGRESS: "lack of progress",
    STATUS_NUMERICAL_FAILURE: "numerical failure",
    STATUS_ITERATION_LIMIT: "iteration limit reached",
}


@dataclass
class Solution:
    x_primal: SymBlockMat
    y_dual: np.ndarray
    z_slack: SymBlockMat
    primal_value: float
    dual_value: float
    status: int
    stats: dict = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.status == STATUS_SUCCESS

    @property
    def status_label(self) -> str:
        return STATUS_LABELS.get(self.status, f"unknown ({self.status})")

    @property
    def gap(self) -> float:
        return self.stats.get("gap", float("nan"))
