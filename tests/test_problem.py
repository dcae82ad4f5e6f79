import numpy as np
import pytest
import scipy.sparse as sp
from conftest import orthogonal_mix

from qsdp import BlockStructure, ConeProblem, SymBlockMat, validate_problem
import qsdp.problem as problem_mod
from qsdp.problem import require_independent


def blk(m, structure=None):
    m = np.asarray(m, dtype=float)
    structure = structure or BlockStructure((m.shape[0],))
    return SymBlockMat(structure, [m])


def test_dependent_pair_flagged():
    p = ConeProblem(blk(np.zeros((2, 2))), [blk(np.eye(2)), blk(2 * np.eye(2))], [1.0, 2.0])
    rep = validate_problem(p)
    assert rep.rank == 1
    assert rep.dependent_indices == [1]
    assert (0, 1) in rep.duplicate_pairs


def test_clean_pair():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1
    e22 = np.zeros((2, 2))
    e22[1, 1] = 1
    p = ConeProblem(blk(np.eye(2)), [blk(e11), blk(e22)], [1.0, 1.0])
    rep = validate_problem(p)
    assert rep.rank == 2
    assert rep.independent
    assert not rep.scaling_warning


def test_scaling_warning():
    a = np.diag([1e-9, 1e9])
    p = ConeProblem(blk(np.eye(2)), [blk(a)], [1.0])
    assert validate_problem(p).scaling_warning


def test_require_independent_names_index():
    p = ConeProblem(
        blk(np.zeros((2, 2))),
        [blk(np.eye(2)), blk(2 * np.eye(2))],
        [1.0, 2.0],
        meta={"constraint_names": ["first", "double"]},
    )
    with pytest.raises(ValueError, match=r"constraint 1 \(double\)"):
        require_independent(p)


def test_structure_consistency_enforced():
    with pytest.raises(ValueError):
        ConeProblem(blk(np.eye(2)), [blk(np.eye(3))], [1.0])
    with pytest.raises(ValueError):
        ConeProblem(blk(np.eye(2)), [blk(np.eye(2))], [1.0, 2.0])
    with pytest.raises(ValueError):
        ConeProblem(blk(np.eye(2)), sp.csr_array(np.eye(1, 5, 4)), [1.0])


def test_apply_and_adjoint_are_adjoint():
    from qsdp import frobenius_inner

    rng = np.random.default_rng(0)
    structure = BlockStructure((3,), nonneg_dim=2, free_dim=1)

    def rand_elem():
        return SymBlockMat(structure, [rng.normal(size=(3, 3))], rng.normal(size=2), rng.normal(size=1))

    constraints = [rand_elem() for _ in range(4)]
    p = ConeProblem(rand_elem(), constraints, rng.normal(size=4))
    x = rand_elem()
    y = rng.normal(size=4)
    assert p.apply(x) @ y == pytest.approx(frobenius_inner(p.adjoint(y), x), rel=1e-12)


def unit(i, j, n=3):
    m = np.zeros((n, n))
    m[i, j] = m[j, i] = 1.0
    return m


def validate_rows(*mats):
    rows = [blk(m) for m in mats]
    return validate_problem(ConeProblem(blk(np.eye(mats[0].shape[0])), rows, np.ones(len(rows))))


def test_sum_of_two_earlier_rows_flagged():
    rep = validate_rows(unit(0, 0), unit(1, 1), unit(0, 0) + unit(1, 1))
    assert rep.dependent_indices == [2]
    assert rep.rank == 2


def test_order_decides_which_row_is_flagged():
    rep = validate_rows(unit(0, 0) + unit(1, 1), unit(0, 0), unit(1, 1))
    assert rep.dependent_indices == [2]


def test_independent_row_after_a_dependent_one_sharing_its_support():
    rep = validate_rows(unit(0, 0), 2 * unit(0, 0), unit(0, 0) + unit(0, 1))
    assert rep.dependent_indices == [1]
    assert rep.rank == 2
    # row 1 is dependent only within the threshold; its leftover 1e-17 E22 must
    # not count against row 2
    rep = validate_rows(unit(0, 0), unit(0, 0) + 1e-17 * unit(1, 1), unit(1, 1))
    assert rep.dependent_indices == [1]


def test_separate_components():
    # {0, 3} share E11, {1, 2} share E22, and row 4 touches only E33
    rep = validate_rows(unit(0, 0), unit(1, 1), -3 * unit(1, 1), unit(0, 0) + unit(0, 2), unit(2, 2))
    assert rep.dependent_indices == [2]
    assert rep.rank == 4
    assert rep.duplicate_pairs == [(1, 2)]


def test_each_component_is_factored_over_its_own_columns(monkeypatch):
    # the rows of test_separate_components in a 20 x 20 block: component
    # {0, 3} touches E11, E13 and E31, component {1, 2} only E22
    factored = []
    ordered = problem_mod._ordered_dependents

    def record(rows, tol):
        factored.append(rows)
        return ordered(rows, tol)

    monkeypatch.setattr(problem_mod, "_ordered_dependents", record)
    rep = validate_rows(unit(0, 0, 20), unit(1, 1, 20), -3 * unit(1, 1, 20), unit(0, 0, 20) + unit(0, 2, 20), unit(2, 2, 20))
    assert rep.dependent_indices == [2]
    assert rep.rank == 4
    assert [rows.shape for rows in factored] == [(2, 3), (2, 1)]


def test_negatively_scaled_duplicate_reported():
    a = unit(0, 1) + 0.5 * unit(2, 2)
    rep = validate_rows(a, -2.5 * a)
    assert rep.duplicate_pairs == [(0, 1)]
    assert rep.dependent_indices == [1]


def test_zero_row_flagged():
    rep = validate_rows(unit(0, 0), np.zeros((3, 3)), unit(1, 1))
    assert rep.dependent_indices == [1]
    assert rep.rank == 2
    assert rep.duplicate_pairs == []


def planted_dense_problem():
    """Full rows, with row 5 = row 1 + row 3 and row 7 = -2 * row 2."""
    rng = np.random.default_rng(4)
    st = BlockStructure((4,), nonneg_dim=2)
    rows = [SymBlockMat(st, [rng.normal(size=(4, 4))], rng.normal(size=2)) for _ in range(8)]
    rows[5] = rows[1] + rows[3]
    rows[7] = -2.0 * rows[2]
    return ConeProblem(SymBlockMat.identity(st), rows, np.ones(8))


@pytest.mark.parametrize("build", ["planted", "dps"])
def test_full_rows_validate_through_the_sparse_gram(request, build):
    p = planted_dense_problem() if build == "planted" else orthogonal_mix(request.getfixturevalue("dps_k3").compiled.problem, 1)
    assert p.a.nnz > 0.5 * p.a.shape[0] * p.a.shape[1]
    rep = validate_problem(p)
    assert rep.rank == np.linalg.matrix_rank(p.a.toarray())
    if build == "planted":
        assert rep.dependent_indices == [5, 7]
        assert rep.duplicate_pairs == [(2, 7)]
        assert rep.rank == 6
    else:
        assert rep.independent


class TestSparseInput:
    """A CSR ``constraints`` argument is read, never rewritten, and its rows
    are averaged with their transpose in every SDP block, as block input is."""

    structure = BlockStructure((2,), nonneg_dim=1)

    def test_caller_matrix_unchanged(self):
        # a duplicate entry and an explicit zero: the kind of input that gets normalized
        a = sp.csr_array((np.array([1.0, 2.0, 0.0]), np.array([0, 0, 3]), np.array([0, 3])), shape=(1, 5))
        before = [arr.copy() for arr in (a.data, a.indices, a.indptr)]
        p = ConeProblem(SymBlockMat.identity(self.structure), a, [1.0])
        for arr, old in zip((a.data, a.indices, a.indptr), before):
            assert np.array_equal(arr, old)
        assert a.nnz == 3
        assert np.array_equal(p.a.toarray(), [[3.0, 0.0, 0.0, 0.0, 0.0]])

    def test_asymmetric_rows_match_block_input_and_solve(self):
        from qsdp import solve

        dense = np.array(
            [
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0, 0.0],
                [0.0, 2.0, 0.0, 0.0, 0.0],  # only (0, 1) set
                [0.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        c = SymBlockMat.identity(self.structure)
        b = np.array([1.0, 1.0, 1.0, 0.5])
        p = ConeProblem(c, sp.csr_array(dense[:, ::-1])[:, ::-1], b)  # unsorted indices in
        ref = ConeProblem(c, [SymBlockMat.from_flat(self.structure, row) for row in dense], b)
        assert p.a.has_sorted_indices
        for got, want in zip((p.a.indptr, p.a.indices, p.a.data), (ref.a.indptr, ref.a.indices, ref.a.data)):
            assert got.dtype == want.dtype == (np.float64 if got is p.a.data else np.int32)
            assert np.array_equal(got, want)
        sol, _ = solve(p)
        assert sol.success
        # X = [[1, 1/2], [1/2, 1]] and the nonnegative entry 1/2
        assert sol.primal_value == pytest.approx(2.5, abs=1e-6)
