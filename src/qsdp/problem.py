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


def _stack_rows(structure: BlockStructure, constraints) -> sp.csr_array:
    """Row i holds constraint i's nonzeros in flat coordinates."""
    for k, a in enumerate(constraints):
        if a.structure != structure:
            raise ValueError(f"constraint {k} does not share the objective's structure")
    rows = [sp.csr_array(a.flat()[None, :]) for a in constraints]
    return sp.vstack(rows, format="csr") if rows else sp.csr_array((0, structure.flat_dim))


class ConeProblem:
    """Problem data (C, {A_i}, b).

    A is held once, as the m x ``structure.flat_dim`` CSR matrix ``a`` whose
    row i is A_i in flat coordinates (see :meth:`SymBlockMat.flat`): SDP
    blocks row-major with both triangles stored, then the nonnegative and the
    free entries.  ``constraints`` lists the A_i as block matrices, or is
    already such a sparse matrix.
    """

    def __init__(self, c_obj: SymBlockMat, constraints, rhs, meta: dict | None = None):
        self.c_obj = c_obj
        if sp.issparse(constraints):
            self.a = sp.csr_array(constraints, dtype=float)
            self.a.sum_duplicates()
            self.a.eliminate_zeros()
        else:
            self.a = _stack_rows(c_obj.structure, constraints)
        self.rhs = np.asarray(rhs, dtype=float)
        self.meta = {} if meta is None else meta
        if self.a.shape[1] != self.structure.flat_dim:
            raise ValueError("constraint rows do not match the objective's structure")
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
        """Adjoint map A*(y) = sum_i y_i A_i."""
        return SymBlockMat.from_flat(self.structure, self.a.T @ np.asarray(y, dtype=float))


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


def validate_problem(p: ConeProblem, spread_limit: float = 1e8) -> ValidationReport:
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
    for label in np.unique(labels[size > 1]):
        comp = np.flatnonzero(labels == label)
        dependent += comp[_ordered_dependents(a[comp].toarray(), tol[comp])].tolist()
    dependent.sort()

    # duplicates up to scaling, read from the off-diagonal Gram entries
    upper = sp.triu(gram, k=1).tocoo()
    i, j = upper.row, upper.col
    dup = np.abs(np.abs(upper.data / (norms[i] * norms[j])) - 1.0) < 1e-12
    pairs = sorted(zip(i[dup].tolist(), j[dup].tolist()))

    coeffs = np.abs(np.concatenate([p.c_obj.flat(), a.data, p.rhs]))
    coeffs = coeffs[coeffs > 0]
    cmin, cmax = (float(coeffs.min()), float(coeffs.max())) if coeffs.size else (0.0, 0.0)
    warning = cmin > 0 and cmax / cmin > spread_limit
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
STATUS_PRIMAL_INFEASIBLE = 1  # heuristic suspicion
STATUS_DUAL_INFEASIBLE = 2  # heuristic suspicion
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
