import numpy as np
import pytest

from qsdp import BlockStructure, ConeProblem, SymBlockMat, validate_problem
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
