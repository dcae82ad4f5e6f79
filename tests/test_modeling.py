import json

import numpy as np
import pytest
from conftest import assert_same_problem, untied_model

from qsdp import BlockStructure, ConeProblem, SymBlockMat
from qsdp.blockmat import embed_hermitian
from qsdp.modeling import (
    MatExpr,
    Model,
    ModelError,
    ScalarExpr,
    _equality_system,
    _hermitian_coeffs,
    _is_bare_var_lmi,
    _objective_vector,
    clean,
    model_from_json,
    model_to_json,
    partial_trace,
    partial_transpose,
    scalar_nonneg,
)
from qsdp.npa import Scenario, build_moment_model
from qsdp.problem import FreeElimination, null_space_by_component


def random_hermitian(n, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def eigenvalue_model(x):
    """max Tr(X S) s.t. S >= 0, Tr S = 1 for Hermitian data X."""
    m = Model()
    s = m.declare(3, structure="hermitian", field="complex", name="S")
    m.add_lmi(s.expr())
    m.add_equality(s.trace(), 1.0)
    m.maximize(s.expr().frobenius_with(x))
    return m, s


class TestDeclare:
    def test_param_counts(self):
        m = Model()
        assert m.declare(3, structure="hermitian", field="complex").nparams == 9
        assert m.declare(3, structure="symmetric").nparams == 6
        assert m.declare(2, structure="skew").nparams == 1
        assert m.declare(2, 3, structure="full").nparams == 6
        assert m.declare(4, structure="diagonal").nparams == 4

    def test_invalid_combinations(self):
        m = Model()
        with pytest.raises(ModelError):
            m.declare(3, structure="hermitian", field="real")
        with pytest.raises(ModelError):
            m.declare(2, 3, structure="symmetric")
        with pytest.raises(ModelError):
            m.declare(2, structure="symmetric", field="complex")

    def test_assemble_matches_entries(self):
        m = Model()
        v = m.declare(2, structure="hermitian", field="complex")
        params = np.array([1.0, 2.0, 3.0, 4.0])  # re11, re12, re22, im12
        mat_v = v.value(params)
        expected = np.array([[1.0, 2.0 + 4.0j], [2.0 - 4.0j, 3.0]])
        assert np.allclose(mat_v, expected)


class TestClean:
    def test_drops_small_terms(self):
        e = MatExpr((2, 2), np.eye(2), {0: 1e-12 * np.eye(2), 1: np.eye(2)})
        out = clean(e, 1e-9)
        assert set(out.terms) == {1}

    def test_zero_threshold_identity(self):
        e = MatExpr((2, 2), np.eye(2), {0: 1e-300 * np.eye(2)})
        out = clean(e, 0.0)
        assert set(out.terms) == {0}

    def test_constant_never_removed(self):
        e = MatExpr((2, 2), 1e-30 * np.eye(2), {0: np.eye(2)})
        out = clean(e, 1e-9)
        assert np.array_equal(out.const, 1e-30 * np.eye(2))


class TestCompileSizes:
    """The Hermitian eigenvalue model reproduces the reference compile sizes."""

    def setup_method(self):
        self.x = random_hermitian(3, seed=42)

    def test_dual(self):
        m, _ = eigenvalue_model(self.x)
        c = m.compile(framing="dual")
        st = c.problem.structure
        assert st.sdp_blocks == (6,)
        assert c.problem.num_constraints == 9
        assert st.free_dim == 1
        assert st.nonneg_dim == 0

    def test_dual_eliminate(self):
        # the problem the IPM solves once the free entry is eliminated
        m, _ = eigenvalue_model(self.x)
        q = FreeElimination(m.compile(framing="dual").problem).problem
        assert q.structure.sdp_blocks == (6,)
        assert q.num_constraints == 8
        assert q.structure.free_dim == 0

    def test_primal(self):
        m, _ = eigenvalue_model(self.x)
        c = m.compile(framing="primal")
        assert c.problem.structure.sdp_blocks == (6,)
        assert c.problem.num_constraints == 1
        assert c.problem.structure.free_dim == 0


class TestFramingInvariance:
    def test_both_framings_agree_with_eigenvalue_oracle(self):
        x = random_hermitian(3, seed=7)
        target = float(np.linalg.eigvalsh(x)[-1])
        values = {}
        for framing in ("dual", "primal"):
            m, _ = eigenvalue_model(x)
            res = m.solve(framing=framing)
            assert res.success, (framing, res.solution.status_label)
            values[framing] = res.value
            assert res.value == pytest.approx(target, abs=1e-6)
        vals = list(values.values())
        assert max(vals) - min(vals) < 1e-6

    def test_recovery_fidelity(self):
        x = random_hermitian(3, seed=9)
        m, _ = eigenvalue_model(x)
        res = m.solve(framing="primal")
        s = res.values["S"]
        assert np.max(np.abs(s - s.conj().T)) < 1e-9
        assert np.trace(s).real == pytest.approx(1.0, abs=1e-7)
        assert np.linalg.eigvalsh(s)[0] > -1e-8
        # the recovered matrix reproduces the reported objective
        assert np.trace(x @ s).real == pytest.approx(res.value, abs=1e-7)


class TestAffinity:
    def test_scaling_data_scales_only_c_and_b(self):
        def build(lam):
            m = Model()
            v = m.declare(2, structure="symmetric", name="V")
            const = lam * np.array([[1.0, 0.5], [0.5, 2.0]])
            m.add_lmi(v.expr() + MatExpr((2, 2), const))
            m.add_lmi(MatExpr((2, 2), lam * 3.0 * np.eye(2)) - v.expr())
            m.minimize(lam * (v.entry(0, 0) + 2.0 * v.entry(1, 1)))
            return m.compile(framing="dual")

        base = build(1.0).problem
        scaled = build(2.5).problem
        for a1, a2 in zip(base.constraints, scaled.constraints):
            for b1, b2 in zip(a1.blocks, a2.blocks):
                assert np.array_equal(b1, b2)
        assert np.allclose(scaled.rhs, 2.5 * base.rhs)
        for c1, c2 in zip(base.c_obj.blocks, scaled.c_obj.blocks):
            assert np.allclose(c2, 2.5 * c1)


class TestModelChecks:
    def test_unconstrained_param_rejected(self):
        m = Model()
        used = m.declare(2, structure="symmetric", name="used")
        m.declare(2, structure="symmetric", name="lonely")
        m.add_lmi(used.expr())
        m.minimize(used.entry(0, 0))
        with pytest.raises(ModelError, match="lonely"):
            m.compile()

    def test_no_lmi_rejected(self):
        m = Model()
        v = m.declare(1, structure="symmetric")
        m.add_equality(v.entry(0, 0), 1.0)
        m.minimize(v.entry(0, 0))
        with pytest.raises(ModelError):
            m.compile()

    def test_non_hermitian_lmi_rejected(self):
        m = Model()
        v = m.declare(2, 2, structure="full", name="F")
        m.add_lmi(v.expr())
        m.minimize(v.entry(0, 0))
        with pytest.raises(ModelError, match="Hermitian"):
            m.compile()


def json_model():
    """Complex constant and terms, an equality and a real objective."""
    m = Model()
    s = m.declare(2, structure="hermitian", field="complex", name="S")
    t = m.declare(1, structure="symmetric", name="t")
    m.add_lmi(s.expr())
    m.add_lmi(MatExpr((2, 2), np.array([[1.0, 0.5j], [-0.5j, 2.0]]), {t.decl.offset: np.eye(2)}) - s.expr())
    m.add_equality(s.trace(), 1.0)
    m.minimize(t.entry(0, 0) - 0.25 * s.entry(0, 1).real())
    return m


# json_model() as format version 1 wrote it: the constant and each term as dense matrices
JSON_MODEL_V1 = (
    '{"format": "qsdp-model", "version": 1, "variables": [{"name": "S", "rows": 2, "cols": 2, "structure": "hermitian", '
    '"field": "complex"}, {"name": "t", "rows": 1, "cols": 1, "structure": "symmetric", "field": "real"}], "lmis": '
    '[{"shape": [2, 2], "const": {"re": [[0.0, 0.0], [0.0, 0.0]]}, "terms": {"0": {"re": [[1.0, 0.0], [0.0, 0.0]]}, '
    '"1": {"re": [[0.0, 1.0], [1.0, 0.0]]}, "2": {"re": [[0.0, 0.0], [0.0, 1.0]]}, "3": {"re": [[0.0, 0.0], [0.0, 0.0]], '
    '"im": [[0.0, 1.0], [-1.0, 0.0]]}}}, {"shape": [2, 2], "const": {"re": [[1.0, 0.0], [0.0, 2.0]], "im": [[0.0, 0.5], '
    '[-0.5, 0.0]]}, "terms": {"0": {"re": [[-1.0, 0.0], [0.0, 0.0]]}, "1": {"re": [[0.0, -1.0], [-1.0, 0.0]]}, "2": '
    '{"re": [[0.0, 0.0], [0.0, -1.0]]}, "3": {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, -1.0], [1.0, 0.0]]}, "4": '
    '{"re": [[1.0, 0.0], [0.0, 1.0]]}}}], "equalities": [{"coeffs": {"0": [1.0, 0.0], "1": [0.0, 0.0], "2": [1.0, 0.0], '
    '"3": [0.0, 0.0]}, "const": [-1.0, 0.0]}], "objective": {"coeffs": {"4": [1.0, 0.0], "1": [-0.25, 0.0], "3": '
    '[0.0, 0.0]}, "const": [0.0, 0.0]}, "sense": "min"}'
)


def assert_same_compiles(got: Model, want: Model):
    for framing in ("dual", "primal"):
        assert_same_problem(got.compile(framing).problem, want.compile(framing).problem)


class TestJson:
    @pytest.mark.parametrize("name", ["eigenvalue", "json"])
    def test_roundtrip_compiles_identically(self, name):
        m = eigenvalue_model(random_hermitian(3, seed=3))[0] if name == "eigenvalue" else json_model()
        assert_same_compiles(model_from_json(model_to_json(m)), m)

    def test_solve_value_preserved(self):
        x = random_hermitian(3, seed=5)
        m, _ = eigenvalue_model(x)
        v1 = m.solve().value
        v2 = model_from_json(model_to_json(m)).solve().value
        assert v1 == pytest.approx(v2, abs=1e-8)

    def test_writes_coefficient_triplets(self):
        doc = json.loads(model_to_json(json_model()))
        assert doc["version"] == 2
        lmi = doc["lmis"][1]
        assert set(lmi) == {"shape", "rows", "cols", "re", "im"}
        # the constant's four entries, then 1 + 2 + 1 + 2 for S and 2 for t
        assert len(lmi["rows"]) == len(lmi["cols"]) == len(lmi["re"]) == len(lmi["im"]) == 12
        assert lmi["rows"].count(0) == 4

    def test_reads_version_1(self):
        old = model_from_json(JSON_MODEL_V1)
        assert_same_compiles(old, json_model())
        again = model_to_json(old)
        assert json.loads(again)["version"] == 2
        assert_same_compiles(model_from_json(again), json_model())

    @pytest.mark.parametrize(
        "change",
        [
            {"sense": "minimize"},
            {"objective": {"coeffs": {"-1": [1.0, 0.0]}, "const": [0.0, 0.0]}},
            {"version": 1, "lmis": [{"shape": [2, 2], "const": {"re": np.zeros((2, 2)).tolist()}, "terms": {"-1": {"re": np.eye(2).tolist()}}}]},
        ],
        ids=["sense", "key", "v1-term-key"],
    )
    def test_rejects_what_it_would_misread(self, change):
        # "minimize" read as not "min" maximized, objective key -1 was the last
        # parameter, and a version-1 term key -1 was added to the constant
        doc = {**json.loads(model_to_json(json_model())), **change}
        with pytest.raises(ModelError, match="sense must be|outside|negative"):
            model_from_json(json.dumps(doc))

    def test_a_matrix_without_re_is_a_model_error(self):
        # the complex reader's ValueError, in a version-2 LMI and a version-1 constant
        v2 = json.loads(model_to_json(json_model()))
        del v2["lmis"][0]["re"]
        v1 = json.loads(JSON_MODEL_V1)
        del v1["lmis"][0]["const"]["re"]
        for doc in (v2, v1):
            with pytest.raises(ModelError, match="'re' entry"):
                model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["{not json", "", "[1,"])
    def test_text_that_is_not_json_is_a_model_error(self, text):
        with pytest.raises(ModelError, match="malformed"):
            model_from_json(text)

    def test_unknown_version_rejected(self):
        doc = json.loads(JSON_MODEL_V1)
        doc["version"] = 3
        with pytest.raises(ModelError, match="version"):
            model_from_json(json.dumps(doc))

    def test_i3322_level2_is_small(self):
        """Dense terms wrote 1.5 MB for this model."""
        model, _ = untied_model(build_moment_model(Scenario((3, 3), ((2, 2, 2), (2, 2, 2))), 2))
        text = model_to_json(model)
        assert len(text) <= 100_000
        back = model_from_json(text)
        assert_same_problem(back.compile().problem, model.compile().problem)


class TestTensorHelpers:
    def test_partial_trace_kron(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ab = np.kron(a, b)
        assert np.allclose(partial_trace(ab, (2, 3), keep=[0]), a * np.trace(b))
        assert np.allclose(partial_trace(ab, (2, 3), keep=[1]), b * np.trace(a))
        assert np.allclose(partial_trace(ab, (2, 3), keep=[0, 1]), ab)

    def test_partial_transpose_kron(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        ab = np.kron(a, b)
        assert np.allclose(partial_transpose(ab, (2, 2), [1]), np.kron(a, b.T))
        assert np.allclose(partial_transpose(ab, (2, 2), [0]), np.kron(a.T, b))
        assert np.allclose(partial_transpose(partial_transpose(ab, (2, 2), [1]), (2, 2), [1]), ab)

    def test_partial_trace_three_parties(self):
        rng = np.random.default_rng(2)
        ms = [rng.normal(size=(d, d)) for d in (2, 2, 3)]
        full = np.kron(np.kron(ms[0], ms[1]), ms[2])
        got = partial_trace(full, (2, 2, 3), keep=[0, 2])
        want = np.kron(ms[0], ms[2]) * np.trace(ms[1])
        assert np.allclose(got, want)


# ---------------------------------------------------------------------------
# the compiler against a per-constraint reference


def lower(expr):
    """Block size, constant and terms of an LMI as real data, complex data embedded."""
    f = (lambda m: embed_hermitian(m, tol=1e-9)) if _hermitian_coeffs(expr, "LMI expression") else np.real
    const = f(expr.const)
    return const.shape[0], const, {k: f(v) for k, v in expr.terms.items()}


def reference_dual(model):
    """One dense block matrix per parameter k, stacked by ConeProblem:
    A_k = -sym(F_k) with E's column k as its free part, C = sym(F0) with f."""
    nparams = model.nparams
    lowered = [lower(expr) for expr in model.lmis]
    sizes = [size for size, _, _ in lowered if size > 1]
    e_mat, f_vec = _equality_system(model, nparams)
    st = BlockStructure(tuple(sizes), len(lowered) - len(sizes), len(model.equalities))

    def assemble(pick):
        """Blocks and 1x1 entries of pick(const, terms), one matrix per LMI."""
        mats = [pick(const, terms) for _, const, terms in lowered]
        return [m for m in mats if m.shape[0] > 1], np.array([m[0, 0] for m in mats if m.shape[0] == 1])

    c_obj = SymBlockMat(st, *assemble(lambda const, terms: const), f_vec)
    rows = []
    for k, col in enumerate(np.eye(nparams)):
        blocks, nonneg = assemble(lambda const, terms: np.zeros_like(const) + terms.get(k, 0.0))
        rows.append(SymBlockMat(st, [-b for b in blocks], -nonneg, e_mat @ col))
    # b = -c, each entry negated after a sum from 0, so its zeros are -0.0
    rhs = -(0.0 + _objective_vector(model, nparams))
    return ConeProblem(c_obj, rows, rhs, meta={"framing": "dual"})


def reference_presolved(model):
    """The problem the IPM solves for the dual compile, one dense block matrix
    per column t of the null-space basis N of E p = f, stacked by ConeProblem:
    A_t = -sym(sum_k N[k, t] F_k), C = sym(F0 + sum_k y0[k] F_k), b = N'(-c)."""
    nparams = model.nparams
    lowered = [lower(expr) for expr in model.lmis]
    sizes = [size for size, _, _ in lowered if size > 1]
    e_mat, f_vec = _equality_system(model, nparams)
    y0, nmat = np.zeros(nparams), np.eye(nparams)
    # b = -c, each entry negated after a sum from 0, so its zeros are -0.0
    rhs = -(0.0 + _objective_vector(model, nparams))
    if model.equalities:
        y0 = np.linalg.pinv(e_mat, rcond=1e-12) @ f_vec
        nmat = null_space_by_component(e_mat, f_vec)[1].toarray()
        # N' applied to the dual compile's b, summed in parameter order as
        # the sparse product does
        rhs = np.array([sum(col[k] * rhs[k] for k in np.flatnonzero(col)) for col in nmat.T], dtype=float)
    st = BlockStructure(tuple(sizes), len(lowered) - len(sizes))

    def assemble(const_scale, vec):
        """Blocks and 1x1 entries of const_scale F0 + sum_k vec[k] F_k."""
        mats = []
        for _, const, terms in lowered:
            acc = const.copy() if const_scale else np.zeros_like(const)
            for k, mat in terms.items():
                if vec[k]:
                    acc = acc + vec[k] * mat
            mats.append(acc)
        return [m for m in mats if m.shape[0] > 1], np.array([m[0, 0] for m in mats if m.shape[0] == 1])

    c_obj = SymBlockMat(st, *assemble(1.0, y0))
    rows = []
    for col in nmat.T:
        blocks, nonneg = assemble(0.0, col)
        rows.append(SymBlockMat(st, [-b for b in blocks], -nonneg))
    return ConeProblem(c_obj, rows, rhs, meta={"framing": "dual"})


def dense_selection_matrices(decl):
    """Dual-basis matrices S_k with <S_k, X_block> = parameter k, one dense
    matrix per parameter."""
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
    else:
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
    return sels


def reference_primal(model):
    """One block matrix per equality and per independent slack cell, each a
    sum of the selection matrices of the parameters it reads."""
    nparams = model.nparams
    block_vars, bare = [], set()
    for decl in model.vars:
        for li, expr in enumerate(model.lmis):
            if li not in bare and decl.structure in ("symmetric", "hermitian") and _is_bare_var_lmi(expr, decl):
                block_vars.append(decl)
                bare.add(li)
                break
    sizes, loc = [], {}
    for decl in block_vars:
        for k, sel in enumerate(dense_selection_matrices(decl)):
            loc[decl.offset + k] = ("block", len(sizes), sel)
        sizes.append(2 * decl.rows if decl.structure == "hermitian" else decl.rows)
    free = [k for decl in model.vars if decl not in block_vars for k in range(decl.offset, decl.offset + decl.nparams)]
    for slot, k in enumerate(free):
        loc[k] = ("free", slot)
    slack, n_nn = [], 0
    for li, expr in enumerate(model.lmis):
        if li not in bare:
            size, const, terms = lower(expr)
            slack.append((size, n_nn if size == 1 else len(sizes), const, terms))
            if size == 1:
                n_nn += 1
            else:
                sizes.append(size)
    st = BlockStructure(tuple(sizes), n_nn, len(free))

    def add(a, k, w):
        if loc[k][0] == "block":
            a.blocks[loc[k][1]] += w * loc[k][2]
        else:
            a.free[loc[k][1]] += w

    rows, rhs, names = [], [], []
    for j, eq in enumerate(model.equalities):
        a = SymBlockMat(st)
        for k, v in eq.coeffs.items():
            add(a, k, float(v.real))
        rows.append(a)
        rhs.append(-float(eq.const.real))
        names.append(f"eq{j}")
    for size, idx, const, terms in slack:
        for i in range(size):
            for j in range(i, size):
                a = SymBlockMat(st)
                if size == 1:
                    a.nonneg[idx] = -1.0
                else:
                    a.blocks[idx][i, j] -= 0.5
                    a.blocks[idx][j, i] -= 0.5
                for k, mat in terms.items():
                    if mat[i, j]:
                        add(a, k, float(mat[i, j]))
                rows.append(a)
                rhs.append(-float(const[i, j]))
                names.append(f"slack_nn{idx}" if size == 1 else f"slack_b{idx}_{i}_{j}")
    c_vec = _objective_vector(model, nparams)
    c_obj = SymBlockMat(st)
    for k, v in enumerate(c_vec):
        if v:
            add(c_obj, k, float(v))
    return ConeProblem(c_obj, rows, np.array(rhs), meta={"framing": "primal", "constraint_names": names})


def mixed_model():
    """Blocks and 1x1 LMIs interleaved, with two equalities."""
    m = Model()
    v = m.declare(2, structure="symmetric", name="V")
    w = m.declare(3, structure="diagonal", name="W")
    m.add_lmi(v.expr() + 0.5 * np.eye(2))
    m.add_lmi(scalar_nonneg(v.entry(0, 0) - 0.1))
    m.add_lmi(w.expr() - 0.2 * np.eye(3))
    m.add_lmi(scalar_nonneg(1.0 - w.entry(2, 2)))
    m.add_equality(v.trace() + w.trace(), 2.0)
    m.add_equality(v.entry(0, 1), 0.3)
    m.minimize(v.entry(1, 1) + 2.0 * w.entry(0, 0) - w.entry(1, 1))
    return m


def primal_slack_model():
    """A Hermitian block variable, two free scalars and complex slack data."""
    m = Model()
    s = m.declare(2, structure="hermitian", field="complex", name="S")
    t = m.declare(2, structure="diagonal", name="t")
    t0, t1 = t.param_ids
    m.add_lmi(s.expr())
    m.add_lmi(MatExpr((2, 2), random_hermitian(2, seed=3), {t0: np.eye(2)}) - s.expr())
    m.add_lmi(scalar_nonneg(t.entry(0, 0) + t.entry(1, 1) + 1.0))
    m.add_lmi(MatExpr((3, 3), np.eye(3), {t1: np.diag([1.0, -1.0, 0.5])}))
    m.add_equality(s.trace(), 1.0)
    m.minimize(t.entry(0, 0) - 0.1 * t.entry(1, 1))
    return m


def pinned_model():
    """Every parameter fixed by an equality: elimination leaves m = 0."""
    m = Model()
    v = m.declare(2, structure="symmetric", name="V")
    m.add_lmi(v.expr())
    for (i, j), val in {(0, 0): 1.0, (0, 1): 0.5, (1, 1): 2.0}.items():
        m.add_equality(v.entry(i, j), val)
    m.minimize(v.entry(0, 0) + v.entry(1, 1))
    return m


def near_hermitian_model():
    """I + y T >= 0 with T Hermitian only to within the 1e-10 check."""
    m = Model()
    y = m.declare(1, structure="diagonal", name="y")
    term = np.array([[0.0, 1.0], [1.0 + 5e-11, 0.0]])
    m.add_lmi(MatExpr((2, 2), np.eye(2), {y.param_ids[0]: term}))
    m.maximize(y.entry(0, 0))
    return m


def redundant_model():
    """Three equalities of rank two: the second and third are proportional."""
    m = Model()
    v = m.declare(2, structure="symmetric", name="V")
    m.add_lmi(v.expr() + 0.5 * np.eye(2))
    m.add_equality(v.trace(), 2.0)
    m.add_equality(v.entry(0, 1), 0.3)
    m.add_equality(2.0 * v.entry(0, 1), 0.6)
    m.minimize(v.entry(1, 1))
    return m


MODELS = {
    "mixed": mixed_model,
    "hermitian": lambda: eigenvalue_model(random_hermitian(3, seed=11))[0],
    "primal_slack": primal_slack_model,
    "pinned": pinned_model,
    "near_hermitian": near_hermitian_model,
}


class TestCompileMatchesReference:
    """compile emits the same bits as the per-constraint construction."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_dual(self, name):
        model = MODELS[name]()
        assert_same_problem(model.compile("dual").problem, reference_dual(model))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_presolved(self, name):
        # the IPM's presolve of the dual compile, against the dense elimination
        model = MODELS[name]()
        assert_same_problem(FreeElimination(model.compile("dual").problem).problem, reference_presolved(model))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_primal(self, name):
        model = MODELS[name]()
        assert_same_problem(model.compile("primal").problem, reference_primal(model))

    @pytest.mark.parametrize("name", sorted(MODELS) + ["redundant"])
    def test_eliminate_offset_is_pinv_solution(self, name):
        # y0, read from the elimination's own SVD, is pinv(E) f
        model = {**MODELS, "redundant": redundant_model}[name]()
        free = FreeElimination(model.compile("dual").problem)
        e_mat, f_vec = _equality_system(model, model.nparams)
        y0 = free.y0 if model.equalities else np.zeros(model.nparams)
        assert np.max(np.abs(y0 - np.linalg.pinv(e_mat, rcond=1e-12) @ f_vec), initial=0.0) <= 1e-12

    def test_pinned_model_has_no_constraints(self):
        assert FreeElimination(pinned_model().compile("dual").problem).problem.num_constraints == 0

    def test_mixed_slot_order(self):
        st = mixed_model().compile("dual").problem.structure
        assert st.sdp_blocks == (2, 3) and st.nonneg_dim == 2 and st.free_dim == 2

    @pytest.mark.parametrize("framing", ["dual", "primal"])
    def test_near_hermitian_term_solves(self, framing):
        res = near_hermitian_model().solve(framing=framing)
        assert res.success
        assert res.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("framing", ["dual", "primal"])
    def test_one_block_matrix_per_compile(self, monkeypatch, framing):
        model = MODELS["primal_slack"]()
        built = []
        init = SymBlockMat.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SymBlockMat, "__init__", counting)
        model.compile(framing)
        assert len(built) == 1


class TestLowering:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_compile_reads_no_dense_constant(self, monkeypatch, name):
        # each LMI is lowered whole from its coefficient matrix, F0 included
        reads = []
        const = MatExpr.const
        monkeypatch.setattr(MatExpr, "const", property(lambda self: reads.append(1) or const.fget(self)))
        for framing in ("primal", "dual"):
            MODELS[name]().compile(framing)
        assert reads == []
