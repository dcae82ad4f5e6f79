from itertools import permutations

import numpy as np
import pytest
import scipy.sparse as sp

from qsdp import ConeProblem
from qsdp.modeling import MatExpr, Model, ScalarExpr, _symmetric_expr
from qsdp.quantum import werner_state


def _permutation_matrix(dims, perm) -> np.ndarray:
    """Unitary that permutes tensor factors: subsystem k moves to slot perm[k]."""
    d = int(np.prod(dims))
    p = np.eye(d).reshape(list(dims) + list(dims))
    axes = list(perm) + list(range(len(dims), 2 * len(dims)))
    return p.transpose(axes).reshape(d, d)


def seeded_hermitian(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (h + h.conj().T) / 2.0


def dps_reference(rho, dims, k):
    """The PPT symmetric-extension test in its direct form, solved: a full
    Hermitian extension on A (x) B^k whose B-copy symmetry is one equality
    per permutation and upper-triangle cell.  Returns the ModelResult, whose
    value is the slack ``dps_test`` must reproduce."""
    d_a, d_b = dims
    dims_ext = (d_a,) + (d_b,) * k
    d_ext = int(np.prod(dims_ext))
    model = Model()
    expr = model.declare(d_ext, structure="hermitian", field="complex", name="ext").expr()
    t = model.declare(1, structure="symmetric", name="t")
    t_eye = MatExpr((d_ext, d_ext), terms={t.decl.offset: np.eye(d_ext)})
    model.add_lmi(expr - t_eye)
    for j in range(1, k + 1):
        model.add_lmi(expr.partial_transpose(dims_ext, list(range(1, 1 + j))) - t_eye)
    for perm_b in permutations(range(k)):
        if perm_b == tuple(range(k)):
            continue
        u = _permutation_matrix(dims_ext, [0] + [1 + p for p in perm_b])
        diff = expr - expr.left_mul(u).right_mul(u.T)
        for i in range(d_ext):
            for jcol in range(i, d_ext):
                model.add_equality(diff.entry(i, jcol), 0.0)
    reduced = expr.partial_trace(dims_ext, keep=[0, 1])
    for i in range(d_a * d_b):
        for jcol in range(i, d_a * d_b):
            model.add_equality(reduced.entry(i, jcol), rho.matrix[i, jcol])
    model.maximize(t.entry(0, 0))
    return model.solve()


def assert_same_problem(got, want):
    """Two compiled problems hold the same bits: A (indptr, indices, data), C and b."""
    assert got.structure == want.structure
    assert got.meta == want.meta
    pairs = [
        (got.a.indptr, want.a.indptr),
        (got.a.indices, want.a.indices),
        (got.a.data, want.a.data),
        (got.c_obj.flat(), want.c_obj.flat()),
        (got.rhs, want.rhs),
    ]
    for g, w in pairs:
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def untied_model(mm) -> tuple[Model, MatExpr]:
    """The dual-framed model of a moment model: one scalar unknown per
    equality class, the identity's pinned to 1 by an equality.  Gamma's
    coefficient matrix holds a 1 at (class, cell) for both cells of each
    class entry.  This is the untied solve that ``solve_bell``'s tied one is
    checked against."""
    model = Model()
    var = model.declare(mm.num_unknowns, 1, structure="full", name="moments")
    rows = 1 + var.decl.offset + mm.cell_classes
    gamma = _symmetric_expr(mm.size, mm.cells, rows, np.ones(rows.size), 1 + model.nparams)
    model.add_lmi(gamma)
    model.add_equality(ScalarExpr({var.decl.offset + mm.norm_class: 1.0}), 1.0)
    return model, gamma


def probability_expr(mm, offset, coords) -> ScalarExpr:
    """A combination of probabilities (``npa.coordinates``) over the classes
    of ``mm``, whose unknowns start at ``offset``; the identity's term is the
    constant."""
    acc = np.bincount(mm.coordinate_classes().ravel()[1:], weights=coords.ravel()[1:], minlength=mm.num_unknowns)
    return ScalarExpr({offset + k: acc[k] for k in np.flatnonzero(acc).tolist()}, float(coords[0, 0]))


def orthogonal_mix(p: ConeProblem, seed: int) -> ConeProblem:
    """p with its rows replaced by a seeded orthogonal mix Q A, and b by Q b:
    the same row space and rank, with every row nonzero wherever any row of
    p is."""
    m = p.num_constraints
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(m, m)))
    return ConeProblem(p.c_obj, sp.csr_array(q @ p.a.toarray()), q @ p.rhs, dict(p.meta))


@pytest.fixture(scope="session")
def dps_k3():
    """The reference DPS k = 3 solve (ModelResult).  Eliminating its
    permutation equalities one connected component at a time leaves sparse
    constraint rows (2.2 % of each block), whose supports vary in size; the
    tests that need full rows take an ``orthogonal_mix`` of them (92 %)."""
    return dps_reference(werner_state(0.25), (2, 2), 3)
