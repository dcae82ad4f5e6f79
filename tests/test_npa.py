import numpy as np
import pytest
from hypothesis import given, strategies as st
from itertools import product

from qsdp.npa import (
    ZERO,
    Scenario,
    build_moment_model,
    canonical_order,
    chsh_functional,
    chsh_nv_game,
    chsh_nv_task,
    generate_words,
    mlp_bound,
    mlp_constraints,
    nv_build_basis,
    nv_solve,
    qrac_nv_game,
    qrac_nv_task,
    qrac_witness,
    reduce_word,
    solve_bell,
    word_adjoint,
)

ROOT2 = np.sqrt(2.0)
TSIRELSON = 2.0 * ROOT2

# CHSH alphabet: one reduced projector per binary setting
A1, A2 = (0, 0, 0), (0, 1, 0)
B1, B2 = (1, 0, 0), (1, 1, 0)
ALPHABET = [A1, A2, B1, B2]


class TestWordReduction:
    def test_commutation_reorders_alice_before_bob(self):
        # E^1_2 E^3_2 F^2_1 E^1_1  ->  E^1_2 E^3_2 E^1_1 F^2_1 (commutation step)
        e12, e32, e11 = (0, 1, 0), (0, 1, 2), (0, 0, 0)
        f21 = (1, 0, 1)
        assert canonical_order((e12, e32, f21, e11)) == (e12, e32, e11, f21)
        # the full reduction then annihilates the same-setting pair e12, e32
        assert reduce_word((e12, e32, f21, e11)) == ZERO

    def test_orthogonality_annihilates(self):
        # E^2_1 F^3_3 E^1_1 -> zero (outcomes 2 and 1 of Alice's setting 1 meet)
        e21, e11 = (0, 0, 1), (0, 0, 0)
        f33 = (1, 2, 2)
        assert reduce_word((e21, f33, e11)) == ZERO

    def test_idempotency(self):
        e = (0, 0, 0)
        assert reduce_word((e, e)) == (e,)
        assert reduce_word((e, e, e)) == (e,)

    def test_reduce_is_idempotent_exhaustive(self):
        words = [()]
        for _ in range(6):
            words = [w + (s,) for w in words for s in ALPHABET]
            for w in words:
                r = reduce_word(w)
                assert reduce_word(r) == r if r != ZERO else True

    def test_reduce_is_congruence(self):
        # all split points of words up to length 4: halves of length <= 2 each
        halves = [()] + [(s,) for s in ALPHABET] + [(s, t) for s in ALPHABET for t in ALPHABET]
        for u in halves:
            for v in halves:
                lhs = reduce_word(u + v)
                ru, rv = reduce_word(u), reduce_word(v)
                rhs = ZERO if ZERO in (ru, rv) else reduce_word(ru + rv)
                assert lhs == rhs


# projector words over three parties, three settings and three outcomes
SYMBOLS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
WORDS = st.lists(SYMBOLS, max_size=8).map(tuple)


class TestWordAlgebraProperties:
    @given(WORDS)
    def test_reduce_word_is_idempotent(self, w):
        r = reduce_word(w)
        assert reduce_word(r) == r

    @given(WORDS)
    def test_adjoint_is_an_involution_on_reduced_words(self, w):
        r = reduce_word(w)
        assert word_adjoint(word_adjoint(r)) == r

    @given(WORDS, WORDS, WORDS)
    def test_zero_absorbs(self, u, w, v):
        if reduce_word(w) == ZERO:
            assert reduce_word(u + w + v) == ZERO


class TestGenerateWords:
    def test_table_sizes(self):
        s = Scenario.chsh()
        assert len(generate_words(s, 1)) == 5
        assert len(generate_words(s, 2)) == 13
        assert len(generate_words(s, 3)) == 25
        assert len(generate_words(s, 4)) == 41
        assert len(generate_words(s, 5)) == 61
        assert len(generate_words(s, 6)) == 85

    def test_level_1ab(self):
        words = generate_words(Scenario.chsh(), "1+AB")
        assert len(words) == 9  # identity + 4 singles + 4 products
        assert () in words

    def test_deterministic_order(self):
        w1 = generate_words(Scenario.chsh(), 2)
        w2 = generate_words(Scenario.chsh(), 2)
        assert w1 == w2
        lengths = [len(w) for w in w1]
        assert lengths == sorted(lengths)

    def test_level_one_exhaustive_oracle(self):
        # brute force: all sequences of length <= 1 over the reduced alphabet
        words = generate_words(Scenario.chsh(), 1)
        assert set(words) == {(), (A1,), (A2,), (B1,), (B2,)}


class TestMomentModel:
    def test_dual_unknown_counts(self):
        s = Scenario.chsh()
        for level, expected in [(2, 31), (3, 61), (4, 101), (5, 151)]:
            assert build_moment_model(s, level).num_unknowns == expected

    def test_idempotent_cell_shares_identity_class(self):
        mm = build_moment_model(Scenario.chsh(), 2)
        i_a1 = mm.word_index((A1,))
        assert mm.cell_class(i_a1, i_a1) == mm.cell_class(0, i_a1)

    def test_transpose_symmetry_of_classes(self):
        mm = build_moment_model(Scenario.chsh(), 2)
        # classes keyed by min(word, adjoint): adjoint pairs share a class
        i_ab = mm.word_index((A1, B1))
        i_a, i_b = mm.word_index((A1,)), mm.word_index((B1,))
        assert mm.cell_class(i_a, i_b) == mm.cell_class(i_b, i_a)

    def test_zero_cells_for_three_outcomes(self):
        s = Scenario((2, 1), ((3, 3), (2,)))
        mm = build_moment_model(s, 1)
        # words E^0_0 and E^1_0 are orthogonal projectors of one setting
        i0 = mm.word_index(((0, 0, 0),))
        i1 = mm.word_index(((0, 0, 1),))
        assert (min(i0, i1), max(i0, i1)) in mm.zero_cells

    def test_strategy_moment_matrix_satisfies_constraints(self):
        # oracle: explicit qubit strategies generate feasible moment matrices
        rng = np.random.default_rng(12)
        mm = build_moment_model(Scenario.chsh(), 2)

        def proj(rng):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            return np.outer(v, v.conj())

        for _ in range(5):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            ops = {
                A1: np.kron(proj(rng), np.eye(2)),
                A2: np.kron(proj(rng), np.eye(2)),
                B1: np.kron(np.eye(2), proj(rng)),
                B2: np.kron(np.eye(2), proj(rng)),
            }

            def op_of(word):
                m = np.eye(4, dtype=complex)
                for sym in word:
                    m = m @ ops[sym]
                return m

            n = mm.size
            gamma = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    gamma[i, j] = np.real(psi.conj() @ op_of(mm.words[i]).conj().T @ op_of(mm.words[j]) @ psi)
            # equality classes hold
            by_class = {}
            for (i, j), cls in mm.class_of_cell.items():
                by_class.setdefault(cls, []).append(gamma[i, j])
            for cls, vals in by_class.items():
                assert max(vals) - min(vals) < 1e-10
            for i, j in mm.zero_cells:
                assert abs(gamma[i, j]) < 1e-10
            assert np.linalg.eigvalsh((gamma + gamma.T) / 2)[0] > -1e-10


class TestBell:
    def test_chsh_level1_tsirelson(self):
        res = solve_bell(Scenario.chsh(), 1, chsh_functional())
        assert res.success
        assert res.value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_chsh_level_1ab(self):
        res = solve_bell(Scenario.chsh(), "1+AB", chsh_functional())
        assert res.success
        assert res.value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_hierarchy_monotone(self):
        vals = {}
        for level in (1, 2, 3):
            vals[level] = solve_bell(Scenario.chsh(), level, chsh_functional()).value
        assert vals[2] <= vals[1] + 1e-6
        assert vals[3] <= vals[2] + 1e-6

    def test_gamma_psd_and_normalized(self):
        res = solve_bell(Scenario.chsh(), 2, chsh_functional())
        assert np.linalg.eigvalsh(res.gamma)[0] > -1e-7
        assert res.gamma[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_point_gives_classical_value(self):
        # pin the full distribution to the deterministic a = b = 0 strategy
        extra = []
        for a, b, x, y in product(range(2), range(2), range(2), range(2)):
            target = 1.0 if (a == 0 and b == 0) else 0.0
            extra.append(({("joint", a, b, x, y): 1.0}, target))
        res = solve_bell(Scenario.chsh(), 1, chsh_functional(), extra_constraints=extra)
        assert res.success
        assert res.value == pytest.approx(2.0, abs=1e-6)
        assert res.value <= TSIRELSON + 1e-6


class TestMlp:
    def test_dimension_cells_pinned(self):
        s = Scenario.prepare_measure(4, 2)
        res = mlp_bound(s, 2, qrac_witness(2), level=1)
        mm = build_moment_model(s, 1)
        for x in range(4):
            cls = mm.cell_class(0, mm.word_index(((0, x, 0),)))
            assert res.moments[cls] == pytest.approx(0.5, abs=1e-7)

    def test_qrac_level2_bound(self):
        s = Scenario.prepare_measure(4, 2)
        res = mlp_bound(s, 2, qrac_witness(2), level=2)
        assert res.success
        assert res.value == pytest.approx((1 + 1 / ROOT2) / 2, abs=1e-3)

    def test_dimension_one_is_classical_constant(self):
        s = Scenario.prepare_measure(4, 2)
        res = mlp_bound(s, 1, qrac_witness(2), level=1)
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            mlp_constraints(Scenario.prepare_measure(4, 2), 0)


class TestNV:
    def test_seed_reproducibility(self):
        task = qrac_nv_task(2, 2)
        b1 = nv_build_basis(task, seed=5)
        b2 = nv_build_basis(task, seed=5)
        assert len(b1) == len(b2)
        for m1, m2 in zip(b1, b2):
            assert np.max(np.abs(m1 - m2)) < 1e-12

    def test_pairwise_orthogonal(self):
        basis = nv_build_basis(qrac_nv_task(2, 2), seed=1)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert abs(np.sum(basis[i] * basis[j])) < 1e-9

    def test_basis_dimension_stable_across_seeds(self):
        sizes = {len(nv_build_basis(qrac_nv_task(2, 2), seed=s)) for s in range(10)}
        assert len(sizes) == 1

    def test_qrac_bound(self):
        task = qrac_nv_task(2, 2)
        basis = nv_build_basis(task, seed=3)
        value, gamma, res = nv_solve(basis, qrac_nv_game(task, 2))
        assert res.success
        assert value == pytest.approx((1 + 1 / ROOT2) / 2, abs=1e-4)
        assert gamma[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_zero_game(self):
        task = qrac_nv_task(2, 2)
        basis = nv_build_basis(task, seed=2)
        value, _, _ = nv_solve(basis, np.zeros_like(basis[0]))
        assert value == pytest.approx(0.0, abs=1e-7)

    def test_chsh_unconstrained_dimension(self):
        task = chsh_nv_task(2)
        basis = nv_build_basis(task, seed=7, max_draws=800)
        value, _, _ = nv_solve(basis, chsh_nv_game(task))
        assert value >= TSIRELSON - 1e-4

    def test_max_draws_exhaustion_reported(self):
        with pytest.raises(RuntimeError, match="draws"):
            nv_build_basis(qrac_nv_task(2, 2), seed=0, max_draws=3)


class TestMomentModelExport:
    def test_moment_model_exports_through_model_json(self):
        from qsdp.modeling import ScalarExpr, model_from_json, model_to_json

        mm = build_moment_model(Scenario.chsh(), 2)
        model, _ = mm.to_model()
        model.minimize(ScalarExpr({model.vars[0].offset: 1.0}))
        restored = model_from_json(model_to_json(model))
        p1 = model.compile(equality_mode="eliminate").problem
        p2 = restored.compile(equality_mode="eliminate").problem
        assert p1.structure == p2.structure
        assert p1.num_constraints == p2.num_constraints


class TestGeneralOutcomes:
    def test_three_outcome_normalization_bound_is_one(self):
        # zero cells are present and the inclusion-exclusion expansion of the
        # dropped outcomes must make total probability exactly 1
        s = Scenario((2, 2), ((3, 3), (2, 2)))
        mm = build_moment_model(s, 1)
        assert len(mm.zero_cells) > 0
        bell = {(a, b, 0, 0): 1.0 for a in range(3) for b in range(2)}
        res = solve_bell(s, 1, bell)
        assert res.success
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_three_outcome_single_probability_bound(self):
        s = Scenario((2, 2), ((3, 3), (2, 2)))
        res = solve_bell(s, 1, {(2, 1, 0, 0): 1.0})  # a dropped-outcome cell
        assert res.success
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_chsh_level4_still_tsirelson(self):
        res = solve_bell(Scenario.chsh(), 4, chsh_functional())
        assert res.success
        assert res.value == pytest.approx(2 * np.sqrt(2), abs=1e-6)
