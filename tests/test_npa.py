import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from itertools import permutations, product

from conftest import assert_same_problem, probability_expr, untied_model
from qsdp import npa
from qsdp.cli import _scenario_from_doc
from qsdp.modeling import MatExpr
from qsdp.npa import (
    ZERO,
    Scenario,
    build_moment_model,
    canonical_order,
    chsh_functional,
    chsh_nv_game,
    chsh_nv_task,
    coordinates,
    generate_words,
    mlp_bound,
    mlp_constraints,
    nv_build_basis,
    nv_solve,
    orbit_ties,
    projector_lift,
    qrac_nv_game,
    qrac_nv_task,
    qrac_witness,
    reduce_word,
    solve_bell,
    stabilizer,
    symmetry_blocks,
    word_action,
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


class TestScenario:
    def test_named_scenarios_equal_their_plain_forms(self):
        assert Scenario.chsh() == Scenario((2, 2), ((2, 2), (2, 2)))
        assert Scenario.prepare_measure(4, 2) == Scenario((4, 2), ((2, 2, 2, 2), (2, 2)))
        assert Scenario.prepare_measure(3, 2, 3) == Scenario((3, 2), ((2, 2, 2), (3, 3)))

    def test_chsh_equals_the_shipped_scenario_file(self):
        doc = json.loads((Path(__file__).resolve().parents[1] / "demos" / "data" / "chsh.json").read_text())
        assert Scenario.chsh() == _scenario_from_doc(doc)


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
        assert mm.classes[i_a1, i_a1] == mm.classes[0, i_a1]

    def test_transpose_symmetry_of_classes(self):
        mm = build_moment_model(Scenario.chsh(), 2)
        # classes keyed by min(word, adjoint): adjoint pairs share a class
        i_ab = mm.word_index((A1, B1))
        i_a, i_b = mm.word_index((A1,)), mm.word_index((B1,))
        assert mm.classes[i_a, i_b] == mm.classes[i_b, i_a]

    def test_zero_cells_for_three_outcomes(self):
        s = Scenario((2, 1), ((3, 3), (2,)))
        mm = build_moment_model(s, 1)
        # words E^0_0 and E^1_0 are orthogonal projectors of one setting
        i0 = mm.word_index(((0, 0, 0),))
        i1 = mm.word_index(((0, 0, 1),))
        assert mm.classes[i0, i1] == mm.classes[i1, i0] == -1

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
            for i, j, cls in zip(*mm.cells, mm.cell_classes):
                by_class.setdefault(cls, []).append(gamma[i, j])
            for cls, vals in by_class.items():
                assert max(vals) - min(vals) < 1e-10
            assert np.all(np.abs(gamma[mm.classes < 0]) < 1e-10)
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

    def test_i3322_primal_framing_matches_the_dual_one(self):
        # the moment model framed primal has 23 free columns; with them
        # eliminated before the IPM it solves in the dual framing's steps
        doc = json.loads((Path(__file__).resolve().parents[1] / "demos" / "data" / "i3322.json").read_text())
        bell = {(e["a"], e["b"], e["x"], e["y"]): e["coeff"] for e in doc["bell"]}
        model = solve_bell(_scenario_from_doc(doc), 2, bell).model_result.compiled.model
        dual = model.compile(framing="dual").solve()
        primal = model.compile(framing="primal")
        assert primal.problem.structure.free_dim
        res = primal.solve()
        assert dual.success and res.success
        assert res.value == pytest.approx(dual.value, abs=1e-7)
        assert res.solution.stats["iterations"] <= dual.solution.stats["iterations"]

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
            cls = mm.classes[0, mm.word_index(((0, x, 0),))]
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

    @pytest.mark.xfail(strict=True, reason="the d = 1 solve stalls at status -1 (ROADMAP item 3)")
    def test_dimension_one_succeeds(self):
        assert mlp_bound(Scenario.prepare_measure(4, 2), 1, qrac_witness(2), level=1).success

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

    def test_seed_changes_the_draws(self):
        task = qrac_nv_task(2, 2)
        b1 = nv_build_basis(task, seed=5)
        b2 = nv_build_basis(task, seed=6)
        assert np.max(np.abs(b1[0] - b2[0])) > 1e-6

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
        model, _ = untied_model(mm)
        model.minimize(ScalarExpr({model.vars[0].offset: 1.0}))
        restored = model_from_json(model_to_json(model))
        assert_same_problem(restored.compile(equality_mode="eliminate").problem, model.compile(equality_mode="eliminate").problem)


class TestGeneralOutcomes:
    def test_three_outcome_normalization_bound_is_one(self):
        # zero cells are present and the inclusion-exclusion expansion of the
        # dropped outcomes must make total probability exactly 1
        s = Scenario((2, 2), ((3, 3), (2, 2)))
        mm = build_moment_model(s, 1)
        assert np.any(mm.classes < 0)
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


# ---------------------------------------------------------------------------
# observable basis and relabelling symmetry


def reference_bell(scenario, level, bell, extra_constraints=()):
    """The untied projector-basis solve: one unknown per class of
    build_moment_model, the identity's pinned to 1 by an equality."""
    mm = build_moment_model(scenario, level)
    model, _ = untied_model(mm)
    off = model.vars[0].offset
    model.maximize(probability_expr(mm, off, coordinates(scenario, {("joint", *k): c for k, c in bell.items()})))
    for atoms, rhs in extra_constraints:
        model.add_equality(probability_expr(mm, off, coordinates(scenario, atoms)), rhs)
    return model.compile(framing="dual", equality_mode="eliminate").solve()


I3322 = Scenario((3, 3), ((2, 2, 2), (2, 2, 2)))
I3322_L3 = 0.25087556  # Pal & Vertesi, PRA 82, 022116 (2010)


def i3322_functional(seed=None):
    """I3322 in joint-probability form (Collins-Gisin: -P_A(0|0) - 2 P_B(0|0)
    - P_B(0|1) + sum_xy J_xy P(00|xy), each marginal expanded over a setting
    of the other party).  With a seed, the expanding settings are drawn, the
    settings of each party permuted and the parties possibly swapped."""
    rng = np.random.default_rng(seed) if seed is not None else None
    y_for_a, x_for_b = (0, 0) if rng is None else (int(v) for v in rng.integers(0, 3, size=2))
    joint = [[1, 1, 1], [1, 1, -1], [1, -1, 0]]
    terms = {(0, 0, x, y): float(joint[x][y]) for x in range(3) for y in range(3) if joint[x][y]}

    def add(key, c):
        terms[key] = terms.get(key, 0.0) + c

    for b in range(2):
        add((0, b, 0, y_for_a), -1.0)
    for a in range(2):
        add((a, 0, x_for_b, 0), -2.0)
        add((a, 0, x_for_b, 1), -1.0)
    if rng is None:
        return terms
    perm_a, perm_b, swap = rng.permutation(3), rng.permutation(3), bool(rng.integers(0, 2))
    bell = {}
    for (a, b, x, y), c in terms.items():
        key = (a, b, int(perm_a[x]), int(perm_b[y]))
        if swap:
            key = (key[1], key[0], key[3], key[2])
        bell[key] = bell.get(key, 0.0) + c
    return bell


def random_functional(seed, scenario):
    """Seeded coefficients on every P(a,b|x,y): no relabelling fixes them."""
    rng = np.random.default_rng(seed)
    return {
        (a, b, x, y): float(rng.normal())
        for x in range(scenario.settings[0])
        for y in range(scenario.settings[1])
        for a in range(scenario.outcomes[0][x])
        for b in range(scenario.outcomes[1][y])
    }


def constraint_rows(scenario, d, obs):
    """The rows of mlp_constraints(scenario, d) in local coordinates, left
    side minus right side."""
    rows = []
    for atoms, rhs in mlp_constraints(scenario, d):
        row = coordinates(scenario, atoms, obs.observables)
        row[0, 0] -= rhs
        rows.append(row)
    return rows


def symmetry_of(res):
    return res.model_result.solution.stats["symmetry"]


def sdp_blocks(res):
    return res.model_result.compiled.problem.structure.sdp_blocks


def cell_reference(scenario, level, observables):
    """Classes by reducing every cell on its own: {cell: key word}, zero cells."""
    inv = scenario.observables() if observables else frozenset()
    words = generate_words(scenario, level)
    keys, zero = {}, []
    for i, wi in enumerate(words):
        for j in range(i, len(words)):
            w = reduce_word(tuple(reversed(wi)) + words[j], inv)
            if w == ZERO:
                zero.append((i, j))
            else:
                keys[(i, j)] = min(w, word_adjoint(w), key=lambda v: (len(v), v))
    return keys, zero


BUILD_CASES = [
    (Scenario.chsh(), 3),
    (Scenario.chsh(), "1+AB"),
    (I3322, 2),
    (Scenario((2, 2), ((3, 3), (2, 2))), 2),
    (Scenario((2, 3), ((3, 2), (2, 3, 2))), 2),
    (Scenario((2, 2, 2), ((2, 2), (2, 2), (2, 2))), 2),
]


class TestObservableAlgebra:
    A0, A1 = (0, 0, 0), (0, 1, 0)
    P0, P1 = (0, 2, 0), (0, 2, 1)  # two outcomes of a three-outcome setting
    OBS = frozenset({A0, A1})

    def test_observable_squares_to_identity(self):
        assert reduce_word((self.A0, self.A0), self.OBS) == ()
        assert reduce_word((self.A0, self.A1, self.A1, self.A0), self.OBS) == ()
        assert reduce_word((self.A0, self.A0, self.A0), self.OBS) == (self.A0,)

    def test_projectors_keep_their_rules(self):
        assert reduce_word((self.P0, self.A1, self.A1, self.P0), self.OBS) == (self.P0,)
        assert reduce_word((self.P0, self.A1, self.A1, self.P1), self.OBS) == ZERO
        assert reduce_word((self.A0, self.A0), frozenset()) == (self.A0,)

    def test_scenario_observables_are_the_binary_settings(self):
        s = Scenario((2, 2), ((3, 2), (2, 2)))
        assert s.observables() == {(0, 1, 0), (1, 0, 0), (1, 1, 0)}

    @given(WORDS)
    def test_reduce_is_idempotent_with_observables(self, w):
        obs = frozenset(s for s in product(range(3), range(3), range(3)) if s[1] == 0 and s[2] == 0)
        r = reduce_word(w, obs)
        assert reduce_word(r, obs) == r


class TestFactorBuild:
    @pytest.mark.parametrize("observables", [False, True])
    @pytest.mark.parametrize("scenario,level", BUILD_CASES)
    def test_classes_match_a_reduction_per_cell(self, scenario, level, observables):
        mm = build_moment_model(scenario, level, observables=observables)
        keys, zero = cell_reference(scenario, level, observables)
        # a symmetric table, -1 exactly on the annihilated cells
        assert np.array_equal(mm.classes, mm.classes.T)
        assert list(zip(*np.nonzero(np.triu(mm.classes < 0)))) == zero
        assert list(zip(*mm.cells.tolist())) == list(keys)
        # classes numbered by first cell, keyed by the smaller word
        seen = {}
        for key in keys.values():
            seen.setdefault(key, len(seen))
        assert mm.cell_classes.tolist() == [seen[key] for key in keys.values()]
        assert mm.class_keys == list(seen)
        assert mm.norm_class == mm.classes[0, 0] == seen[()]

    @pytest.mark.parametrize("scenario,level", BUILD_CASES)
    def test_bases_share_first_cells(self, scenario, level):
        """solve_bell reads the projector-basis moments at the observable
        build's first cell of each class."""
        firsts = []
        for observables in (False, True):
            mm = build_moment_model(scenario, level, observables=observables)
            _, first = np.unique(mm.cell_classes, return_index=True)
            firsts.append(mm.cells[:, first])
        assert np.array_equal(*firsts)

    def test_level4_build_keeps_little_memory(self):
        tracemalloc.start()
        try:
            mm = build_moment_model(I3322, 4, observables=True)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mm.size == 244
        assert kept <= 3 * 2**20

    def test_observable_diagonal_is_the_identity(self):
        mm = build_moment_model(I3322, 2, observables=True)
        assert np.all(np.diag(mm.classes) == mm.norm_class)
        assert mm.num_unknowns == build_moment_model(I3322, 2).num_unknowns


def qubit_strategy(rng, scenario):
    """Random qubit projectors for each reduced symbol (rank-1 for binary
    settings, orthogonal rank-1 outcomes otherwise) and a shared pure state."""
    ops = {}
    for p in range(2):
        for x in range(scenario.settings[p]):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            for a in range(scenario.outcomes[p][x] - 1):
                proj = np.outer(q[:, a], q[:, a].conj())
                ops[(p, x, a)] = np.kron(proj, np.eye(3)) if p == 0 else np.kron(np.eye(3), proj)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    return ops, psi / np.linalg.norm(psi)


def strategy_gamma(words, ops, psi):
    mats = []
    for w in words:
        m = np.eye(9, dtype=complex)
        for s in w:
            m = m @ ops[s]
        mats.append(m)
    return np.array([[np.real(psi.conj() @ u.conj().T @ v @ psi) for v in mats] for u in mats])


class TestProjectorLift:
    @pytest.mark.parametrize("scenario,level", [(Scenario.chsh(), 2), (Scenario((2, 2), ((3, 3), (2, 2))), 2), (I3322, 2)])
    def test_lift_maps_observable_moments_to_projector_moments(self, scenario, level):
        obs = build_moment_model(scenario, level, observables=True)
        t = projector_lift(obs)
        ops, psi = qubit_strategy(np.random.default_rng(5), scenario)
        inv = scenario.observables()
        observable_ops = {s: 2 * m - np.eye(9) if s in inv else m for s, m in ops.items()}
        gamma_a = strategy_gamma(obs.words, observable_ops, psi)
        gamma_p = strategy_gamma(obs.words, ops, psi)
        assert np.max(np.abs(t @ gamma_a @ t.T - gamma_p)) <= 1e-12
        # the observable-basis classes hold on the strategy too
        first = {}
        for i, j, cls in zip(*obs.cells, obs.cell_classes):
            assert abs(gamma_a[i, j] - first.setdefault(cls, gamma_a[i, j])) <= 1e-12


CHSH_LEVELS = [1, 2, 3, "1+AB"]


class TestTiedSolveMatchesProjectorReference:
    @pytest.mark.parametrize("level", CHSH_LEVELS)
    def test_chsh(self, level):
        res, ref = solve_bell(Scenario.chsh(), level, chsh_functional()), reference_bell(Scenario.chsh(), level, chsh_functional())
        assert res.success and ref.success
        assert res.value == pytest.approx(ref.value, abs=1e-7)

    @pytest.mark.parametrize("level", [1, 2])
    def test_qrac(self, level):
        s = Scenario.prepare_measure(4, 2)
        bell = {(0, b, x, y): 2 * beta for (b, x, y), beta in qrac_witness(2).items()}
        res = mlp_bound(s, 2, qrac_witness(2), level=level)
        ref = reference_bell(s, level, bell, mlp_constraints(s, 2))
        assert res.success and ref.success
        assert res.value == pytest.approx(ref.value, abs=1e-7)

    @pytest.mark.parametrize("bell", [{(a, b, 0, 0): 1.0 for a in range(3) for b in range(2)}, {(2, 1, 0, 0): 1.0}])
    def test_three_outcomes(self, bell):
        s = Scenario((2, 2), ((3, 3), (2, 2)))
        res, ref = solve_bell(s, 1, bell), reference_bell(s, 1, bell)
        assert res.success and ref.success
        assert res.value == pytest.approx(ref.value, abs=1e-7)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_i3322_level2_relabelled(self, seed):
        bell = i3322_functional(seed)
        res, ref = solve_bell(I3322, 2, bell), reference_bell(I3322, 2, bell)
        assert res.success and ref.success
        assert res.value == pytest.approx(ref.value, abs=1e-7)
        assert symmetry_of(res)["order"] == 8

    @pytest.fixture(scope="class")
    def i3322_level3_reference(self):
        # relabelling permutes the untied problem's rows and columns, so one
        # solve is the reference for every seed (checked per seed at level 2)
        ref = reference_bell(I3322, 3, i3322_functional())
        assert ref.success
        assert ref.value == pytest.approx(I3322_L3, abs=1e-6)
        return ref.value

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_i3322_level3_relabelled(self, seed, i3322_level3_reference):
        res = solve_bell(I3322, 3, i3322_functional(seed))
        assert res.success
        assert res.value == pytest.approx(i3322_level3_reference, abs=1e-7)
        assert sorted(sdp_blocks(res)) == [9, 11, 11, 13, 22, 22]
        assert symmetry_of(res) == {"order": 8, "classes": 867, "orbits": 124, "pinned": 165}
        assert res.model_result.compiled.problem.num_constraints == 124
        assert res.model_result.solution.stats["iterations"] <= 23


class TestStabilizer:
    def test_trivial_stabilizer_gives_identity_orbits(self):
        bell = random_functional(3, I3322)
        obs = build_moment_model(I3322, 2, observables=True)
        functional = coordinates(I3322, {("joint", *k): c for k, c in bell.items()}, obs.observables)
        group, ga, gb = stabilizer(I3322, functional)
        assert group == [(0, 0, False)]
        orbit, sign, n_orbits = orbit_ties(obs, *word_action(obs, group, ga, gb))
        others = np.arange(obs.num_unknowns) != obs.norm_class
        assert n_orbits == obs.num_unknowns - 1
        assert np.array_equal(orbit[others], np.arange(n_orbits))
        assert np.all(sign == 1.0)
        res = solve_bell(I3322, 2, bell)
        assert symmetry_of(res) == {"order": 1, "classes": n_orbits, "orbits": n_orbits, "pinned": 0}
        assert sdp_blocks(res) == (obs.size,)
        assert res.value == pytest.approx(reference_bell(I3322, 2, bell).value, abs=1e-7)

    def test_sign_conflict_pins_a_class_to_zero(self):
        # P(00|00) + P(11|00) = (1 + <A_0 B_0>)/2 is fixed by flipping A_0 and
        # B_0 together, which maps <A_0> to -<A_0>
        bell = {(0, 0, 0, 0): 1.0, (1, 1, 0, 0): 1.0}
        s = Scenario.chsh()
        obs = build_moment_model(s, 1, observables=True)
        group, ga, gb = stabilizer(s, coordinates(s, {("joint", *k): c for k, c in bell.items()}, obs.observables))
        assert any(ga.flip[k_a][0] == -1 and gb.flip[k_b][0] == -1 for k_a, k_b, _ in group)
        orbit, _, _ = orbit_ties(obs, *word_action(obs, group, ga, gb))
        a0 = obs.classes[0, obs.word_index(((0, 0, 0),))]
        assert orbit[a0] == -1 and a0 != obs.norm_class
        res = solve_bell(s, 1, bell)
        assert res.value == pytest.approx(1.0, abs=1e-7)
        assert symmetry_of(res)["pinned"] > 0
        proj = build_moment_model(s, 1)
        assert res.moments[proj.classes[0, proj.word_index(((0, 0, 0),))]] == pytest.approx(0.5, abs=1e-9)

    def test_chsh_group(self):
        s = Scenario.chsh()
        res = solve_bell(s, 1, chsh_functional())
        assert symmetry_of(res)["order"] == 16
        assert res.model_result.compiled.problem.num_constraints == symmetry_of(res)["orbits"]

    def test_mlp_keeps_the_preparation_permutations(self):
        s = Scenario.prepare_measure(4, 2)
        for d in (1, 2):
            bell = {(0, b, x, y): d * beta for (b, x, y), beta in qrac_witness(2).items()}
            obs = build_moment_model(s, 1, observables=True)
            f = coordinates(s, {("joint", *k): c for k, c in bell.items()}, obs.observables)
            group, ga, _ = stabilizer(s, f, constraint_rows(s, d, obs))
            assert len(group) > 1
            assert any(ga.sigma[k_a] != (0, 1, 2, 3) for k_a, _, _ in group)

    def test_mlp_dimension_one_drops_alices_flips(self):
        # a functional of Bob's marginals alone is fixed by every flip of
        # Alice; the rows <A_x> = 2/d - 1 keep the flips at d = 2 only
        s = Scenario.prepare_measure(4, 2)
        obs = build_moment_model(s, 1, observables=True)
        f = coordinates(s, {("mb", 0, 0): 1.0, ("mb", 0, 1): 1.0}, obs.observables)
        flips = {}
        for d in (1, 2):
            group, ga, _ = stabilizer(s, f, constraint_rows(s, d, obs))
            assert any(ga.sigma[k_a] != (0, 1, 2, 3) for k_a, _, _ in group)
            flips[d] = any(-1 in ga.flip[k_a] for k_a, _, _ in group)
        assert flips == {1: False, 2: True}

    def test_swap_needs_matching_parties(self):
        s = Scenario.prepare_measure(4, 2)
        res = mlp_bound(s, 2, qrac_witness(2), level=1)
        group, _, _ = stabilizer(s, np.zeros((5, 3)))
        assert not any(swap for _, _, swap in group)
        assert len(group) == 3072
        assert symmetry_of(res)["order"] < 3072


class TestLiftedGamma:
    @pytest.mark.parametrize(
        "scenario,level,bell",
        [
            (Scenario.chsh(), 2, chsh_functional()),
            (I3322, 2, i3322_functional(4)),
            (Scenario((2, 2), ((3, 3), (2, 2))), 2, {(2, 1, 0, 0): 1.0, (0, 0, 1, 1): 0.5}),
        ],
    )
    def test_projector_classes_agree(self, scenario, level, bell):
        res = solve_bell(scenario, level, bell)
        mm = build_moment_model(scenario, level)
        spread = {}
        for i, j, cls in zip(*mm.cells, mm.cell_classes):
            lo, hi = spread.get(cls, (np.inf, -np.inf))
            spread[cls] = (min(lo, res.gamma[i, j]), max(hi, res.gamma[i, j]))
        assert max(hi - lo for lo, hi in spread.values()) <= 1e-9
        assert np.all(np.abs(res.gamma[mm.classes < 0]) <= 1e-9)
        assert np.allclose(res.gamma, res.gamma.T, atol=1e-12)
        assert res.gamma[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(res.gamma)[0] >= -1e-8
        first = {}
        for i, j, cls in zip(*mm.cells, mm.cell_classes):
            first.setdefault(cls, res.gamma[i, j])
        assert np.array_equal(res.moments, [first[k] for k in range(mm.num_unknowns)])


class TestOneBuildPerSolve:
    @pytest.mark.parametrize(
        "solve",
        [
            lambda: solve_bell(Scenario.chsh(), 2, chsh_functional()),
            lambda: mlp_bound(Scenario.prepare_measure(4, 2), 2, qrac_witness(2), level=1),
        ],
        ids=["chsh", "qrac-mlp"],
    )
    def test_one_moment_model(self, monkeypatch, solve):
        calls = []
        build = npa.build_moment_model
        monkeypatch.setattr(npa, "build_moment_model", lambda *args, **kw: calls.append(kw) or build(*args, **kw))
        assert solve().success
        assert calls == [{"observables": True}]


class TestInputsChecked:
    @pytest.mark.parametrize("key", [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, -1)])
    def test_bell_key_out_of_range(self, key):
        with pytest.raises(ValueError, match="no outcome"):
            solve_bell(Scenario.chsh(), 1, {key: 1.0})

    def test_relabelling_search_is_capped(self):
        # 8! 2^8 signed permutations of Alice's settings: only the identity is tried
        s = Scenario((8, 2), ((2,) * 8, (2, 2)))
        group, ga, gb = stabilizer(s, np.zeros((9, 3)))
        assert len(ga.sigma) == 1 and len(gb.sigma) == 8
        assert len(group) == 8


# ---------------------------------------------------------------------------
# symmetry-adapted blocks


def i3322_action(level):
    """The signed word action of the stabilizer of a relabelled I3322, and
    the observable-basis moment model it acts on."""
    obs = build_moment_model(I3322, level, observables=True)
    f = coordinates(I3322, {("joint", *k): c for k, c in i3322_functional(1).items()}, obs.observables)
    group, ga, gb = stabilizer(I3322, f)
    return obs, word_action(obs, group, ga, gb)


def chsh_action(level):
    """The signed word action of CHSH's stabilizer, and the observable-basis
    moment model it acts on."""
    obs = build_moment_model(Scenario.chsh(), level, observables=True)
    f = coordinates(Scenario.chsh(), {("joint", *k): c for k, c in chsh_functional().items()}, obs.observables)
    return obs, word_action(obs, *stabilizer(Scenario.chsh(), f))


def coo_stacked_kron(bases, n):
    """Reference: the column-stacked Q (x) Q from its entries in any order,
    sorted by scipy's COO -> CSC conversion."""
    sizes = np.array([q.shape[1] for q in bases])
    starts = np.cumsum(sizes * sizes) - sizes * sizes
    rows, cols, vals = [], [], []
    for q, r, lo in zip(bases, sizes, starts):
        a = np.repeat(np.arange(r), np.diff(q.indptr))
        i = q.indices.astype(np.int64)
        rows.append(np.add.outer(i * n, i).ravel())
        cols.append(np.add.outer(lo + a * r, a).ravel())
        vals.append(np.multiply.outer(q.data, q.data).ravel())
    shape = (n * n, int((sizes * sizes).sum()))
    return sp.csc_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape)


def random_tied_gamma(obs, action, rng):
    """Gamma at a random moment vector tied to the orbits: each class is its
    orbit's value times its sign, pinned classes 0 and the identity 1."""
    orbit, sign, n_orbits = orbit_ties(obs, *action)
    y = np.where(orbit >= 0, sign * rng.normal(size=n_orbits)[orbit], 0.0)
    y[obs.norm_class] = 1.0
    return np.where(obs.classes >= 0, y[obs.classes], 0.0)


def cyclic_shifts(n):
    """C_n shifting the coordinates of R^n: the regular representation."""
    return (np.arange(n)[None, :] + np.arange(n)[:, None]) % n, np.ones((n, n))


def copy_permutations(copies, dims=(2,) * 5):
    """S_copies permuting the last ``copies`` factors of the tensor product
    of spaces of the given dimensions, all of one dimension, on its basis."""
    digits = np.indices(dims).reshape(len(dims), -1)
    head = len(dims) - copies
    perm = []
    for sigma in permutations(range(copies)):
        image = np.concatenate([digits[:head], digits[head:][list(sigma)]])
        perm.append(np.ravel_multi_index(tuple(image), dims))
    return np.array(perm), np.ones((len(perm), digits.shape[1]))


class TestSymmetryBlocks:
    @pytest.mark.parametrize(
        "action, sizes",
        [(cyclic_shifts(4), [1, 1, 2]), (copy_permutations(4), [2, 2, 6, 6, 6, 10])],
        ids=["c4-complex-type-irrep", "s4-on-four-copies"],
    )
    def test_blocks_diagonalise_an_invariant_matrix(self, action, sizes):
        perm, sign = action
        n = perm.shape[1]
        bases = symmetry_blocks(perm, sign)
        assert sorted(b.shape[1] for b in bases) == sizes
        # average a random symmetric matrix over the group: P_g M P_g^T
        rng = np.random.default_rng(0)
        m = rng.normal(size=(n, n))
        m = m + m.T
        invariant = np.zeros((n, n))
        for p, s in zip(perm, sign):
            g = np.zeros((n, n))
            g[p, np.arange(n)] = s
            invariant += g @ m @ g.T / len(perm)
        q = sp.hstack(bases).toarray()
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12
        congruent = q.T @ invariant @ q
        label = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
        off = label[:, None] != label[None, :]
        assert np.max(np.abs(congruent[off])) <= 1e-12 * np.max(np.abs(invariant))

    @pytest.mark.parametrize("level", [3, 4])
    def test_basis_is_orthonormal_and_orbit_local(self, level):
        obs, (perm, sign) = i3322_action(level)
        q = sp.hstack(symmetry_blocks(perm, sign)).toarray()
        assert q.shape == (obs.size, obs.size)
        assert np.max(np.abs(q.T @ q - np.eye(obs.size))) <= 1e-12
        orbit = perm.min(axis=0)
        for col in q.T:
            assert np.unique(orbit[np.abs(col) > 0]).size == 1
            assert np.count_nonzero(col) <= 8

    def test_blocks_diagonalise_a_tied_gamma(self):
        obs, action = i3322_action(3)
        gamma = random_tied_gamma(obs, action, np.random.default_rng(0))
        bases = symmetry_blocks(*action)
        q = sp.hstack(bases).toarray()
        congruent = q.T @ gamma @ q
        label = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
        off = label[:, None] != label[None, :]
        assert np.max(np.abs(congruent[off])) <= 1e-12 * np.max(np.abs(gamma))
        assert np.max(np.abs(congruent[~off])) > 0.1

    def test_both_copies_of_the_two_dimensional_irrep(self):
        # D4: four 1-dimensional irreps and one 2-dimensional one, whose two
        # copies are separate blocks holding the same matrix up to a rotation
        obs, action = i3322_action(3)
        assert action[0].shape[0] == 8
        bases = symmetry_blocks(*action)
        sizes = [b.shape[1] for b in bases]
        assert sorted(sizes) == [9, 11, 11, 13, 22, 22]
        gamma = random_tied_gamma(obs, action, np.random.default_rng(1))
        pair = [np.linalg.eigvalsh((b.T @ gamma @ b)) for b, size in zip(bases, sizes) if size == 22]
        assert np.max(np.abs(pair[0] - pair[1])) <= 1e-10

    def test_trivial_group_is_one_identity_block(self):
        n = 70
        (q,) = symmetry_blocks(np.arange(n)[None, :], np.ones((1, n)))
        assert np.array_equal(q.toarray(), np.eye(n))

    @pytest.mark.parametrize(
        "action",
        [lambda: i3322_action(3), lambda: i3322_action(4), lambda: chsh_action(4)],
        ids=["i3322-l3", "i3322-l4", "chsh-l4"],
    )
    def test_stacked_kron_equals_the_coo_built_matrix(self, action):
        obs, (perm, sign) = action()
        bases = symmetry_blocks(perm, sign)
        assert len(bases) > 1
        got, want = npa._stacked_kron(bases, obs.size), coo_stacked_kron(bases, obs.size)
        assert got.shape == want.shape and got.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("level", [3, 4])
    def test_congruent_blocks_equal_the_per_block_products(self, level, monkeypatch):
        # the one stacked product against one product per block, bit for bit
        class Stop(Exception):
            pass

        def capture(gamma, bases):
            raise Stop(gamma, bases)

        monkeypatch.setattr(npa, "_congruent", capture)
        with pytest.raises(Stop) as caught:
            solve_bell(I3322, level, i3322_functional(1))
        gamma, bases = caught.value.args
        monkeypatch.undo()
        got = npa._congruent(gamma, bases)
        assert len(got) == len(bases) == 6
        for expr, q in zip(got, bases):
            r = q.shape[1]
            coef = gamma.coef.real @ sp.kron(q, q, format="csc")
            coef = (coef + coef[:, np.arange(r * r).reshape(r, r).T.ravel()]) / 2
            coef.data[np.abs(coef.data) <= npa._SYM_TOL * np.abs(coef.data).max(initial=0.0)] = 0.0
            want = MatExpr.from_coef((r, r), coef)
            assert expr.shape == want.shape == (r, r) and type(expr.shape[0]) is int
            for x, y in ((expr.coef.indptr, want.coef.indptr), (expr.coef.indices, want.coef.indices)):
                assert np.array_equal(x, y)
            assert expr.coef.data.tobytes() == want.coef.data.tobytes()


class TestSplitSolve:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_split_matches_unsplit(self, seed, monkeypatch):
        bell = i3322_functional(seed)
        split = solve_bell(I3322, 3, bell)
        monkeypatch.setattr(npa, "_SPLIT_MIN", 10**9)
        whole = solve_bell(I3322, 3, bell)
        assert split.success and whole.success
        assert sdp_blocks(whole) == (88,)
        assert sorted(sdp_blocks(split)) == [9, 11, 11, 13, 22, 22]
        assert split.value == pytest.approx(whole.value, abs=1e-7)
        its = [r.model_result.solution.stats["iterations"] for r in (split, whole)]
        assert its[0] == its[1]
        # gamma is read off the unsplit expression either way
        assert split.gamma.shape == whole.gamma.shape == (88, 88)
        assert np.linalg.eigvalsh(split.gamma)[0] >= -1e-8

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: solve_bell(Scenario.chsh(), 4, chsh_functional()),
            lambda: mlp_bound(Scenario.prepare_measure(4, 2), 2, qrac_witness(2), level=2),
            lambda: solve_bell(Scenario.chsh(), 6, random_functional(3, Scenario.chsh())),
        ],
        ids=["chsh-l4-below-gate", "qrac-l2-below-gate", "chsh-l6-trivial-group"],
    )
    def test_unsplit_problems_compile_as_before(self, solve, monkeypatch):
        calls = []
        blocks = npa.symmetry_blocks
        monkeypatch.setattr(npa, "symmetry_blocks", lambda *a, **k: calls.append(1) or blocks(*a, **k))
        res = solve()
        assert calls == []
        assert sdp_blocks(res) == (res.gamma.shape[0],)
        monkeypatch.setattr(npa, "_SPLIT_MIN", 10**9)
        ref = solve()
        assert_same_problem(res.model_result.compiled.problem, ref.model_result.compiled.problem)
