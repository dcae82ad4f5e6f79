import numpy as np
import pytest
from conftest import assert_same_problem

from qsdp.modeling import MatExpr, Model
from qsdp.npa import Scenario, chsh_functional, solve_bell
from qsdp.problem import null_space_by_component
from qsdp.sos import (
    chsh_operator_coefficients,
    gram_polynomial,
    monomials,
    motzkin_polynomial,
    sos_certificate,
    tsirelson_sos_chsh,
)

ROOT2 = np.sqrt(2.0)


def poly_mul_squares(squares):
    """Independent reconstruction sum_i g_i^2 from square polynomials."""
    out = {}
    for g in squares:
        for m1, c1 in g.items():
            for m2, c2 in g.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                out[key] = out.get(key, 0.0) + c1 * c2
    return {k: v for k, v in out.items() if abs(v) > 1e-12}


def dense_sos_model(h: dict, n_vars: int) -> Model:
    """H - t I + sum_k y_k N_k with one dense matrix and one addition per
    null-space vector: the reference for ``sos_certificate``'s sparse build."""
    (deg,) = {sum(e) for e in h}
    basis, prods = monomials(n_vars, deg // 2), monomials(n_vars, deg)
    d = len(basis)
    cells = [(i, j) for i in range(d) for j in range(i, d)]
    p = np.zeros((len(prods), len(cells)))
    for c, (i, j) in enumerate(cells):
        p[prods.index(tuple(a + b for a, b in zip(basis[i], basis[j]))), c] += 1.0 if i == j else 2.0
    target = np.zeros(len(prods))
    for e, c in h.items():
        target[prods.index(e)] = float(c)
    cell_vec, kernel = null_space_by_component(p, target)
    kernel = kernel.toarray()
    h_mat = np.zeros((d, d))
    for c, (i, j) in enumerate(cells):
        h_mat[i, j] = h_mat[j, i] = cell_vec[c]
    model = Model()
    t = model.declare(1, structure="symmetric", name="t")
    gram_expr = MatExpr((d, d), h_mat, {t.decl.offset: -np.eye(d)})
    if kernel.shape[1]:
        y = model.declare(kernel.shape[1], 1, structure="full", name="y")
        for k in range(kernel.shape[1]):
            nm = np.zeros((d, d))
            for c, (i, j) in enumerate(cells):
                nm[i, j] = nm[j, i] = kernel[c, k]
            gram_expr = gram_expr + MatExpr((d, d), terms={y.decl.offset + k: nm})
    model.add_lmi(gram_expr)
    model.maximize(t.entry(0, 0))
    return model


def random_sos(n_vars, half_degree, seed, n_squares=2):
    rng = np.random.default_rng(seed)
    basis = monomials(n_vars, half_degree)
    return poly_mul_squares([dict(zip(basis, rng.normal(size=len(basis)))) for _ in range(n_squares)])


class TestSparseBuild:
    @pytest.mark.parametrize("name", ["motzkin", "random"])
    def test_compiles_like_the_dense_build(self, name):
        h, n = motzkin_polynomial() if name == "motzkin" else (random_sos(3, 2, seed=7), 3)
        want = dense_sos_model(h, n).compile().problem
        assert_same_problem(sos_certificate(h, n).model_result.compiled.problem, want)

    def test_no_addition_per_null_vector(self, monkeypatch):
        calls = []
        add = MatExpr.__add__
        monkeypatch.setattr(MatExpr, "__add__", lambda self, other: calls.append(1) or add(self, other))
        h = random_sos(3, 2, seed=7)
        res = sos_certificate(h, 3)
        n_null = res.model_result.compiled.model.vars[1].nparams
        assert res.feasible and n_null > 1
        assert not calls

    def test_residual_is_the_pairing_mismatch(self):
        h = random_sos(2, 2, seed=4)
        cert = sos_certificate(h, 2).certificate
        recon = {}
        for i, u in enumerate(cert.basis):
            for j, v in enumerate(cert.basis):
                m = tuple(a + b for a, b in zip(u, v))
                recon[m] = recon.get(m, 0.0) + cert.gram[i, j]
        direct = np.sqrt(sum((recon.get(m, 0.0) - h.get(m, 0.0)) ** 2 for m in set(recon) | set(h)))
        assert cert.residual == pytest.approx(direct, abs=1e-12)


class TestMonomials:
    def test_basis_count(self):
        from math import comb

        for n, m in [(2, 2), (3, 3), (4, 2)]:
            assert len(monomials(n, m)) == comb(n + m - 1, m)


class TestSosCertificate:
    def test_sum_of_two_squares(self):
        # (x^2 + y^2)^2 = x^4 + 2 x^2 y^2 + y^4
        h = {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0}
        res = sos_certificate(h, 2)
        assert res.feasible
        cert = res.certificate
        assert np.linalg.eigvalsh(cert.gram)[0] > -1e-8
        assert cert.residual < 1e-7
        recon = poly_mul_squares(cert.squares)
        for key, want in h.items():
            assert recon.get(key, 0.0) == pytest.approx(want, abs=1e-6)

    def test_difference_square(self):
        h = {(4, 0): 1.0, (2, 2): -2.0, (0, 4): 1.0}  # (x^2 - y^2)^2
        res = sos_certificate(h, 2)
        assert res.feasible
        assert res.certificate.residual < 1e-7

    def test_motzkin_not_sos(self):
        h, n = motzkin_polynomial()
        res = sos_certificate(h, n)
        assert not res.feasible
        assert res.margin < -1e-4
        assert res.dual_witness is not None

    def test_random_sos_soundness(self):
        rng = np.random.default_rng(2)
        basis = monomials(2, 2)
        for _ in range(5):
            gs = [dict(zip(basis, rng.normal(size=len(basis)))) for _ in range(2)]
            h = poly_mul_squares(gs)
            res = sos_certificate(h, 2)
            assert res.feasible
            recon = poly_mul_squares(res.certificate.squares)
            for key in set(h) | set(recon):
                assert recon.get(key, 0.0) == pytest.approx(h.get(key, 0.0), abs=1e-6)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            sos_certificate({(2, 0): 1.0, (1, 0): 1.0}, 2)


class TestTsirelsonSos:
    def test_bound_is_2sqrt2(self):
        q1, report = tsirelson_sos_chsh()
        assert q1 == pytest.approx(2 * ROOT2, abs=1e-6)
        assert np.linalg.eigvalsh(report["gram"])[0] > -1e-8
        assert report["residual"] < 1e-6
        assert np.max(np.abs(report["gamma"])) < 1e-7

    def test_reference_decomposition_identity(self):
        # (r1' r1 + r2' r2) / (2 sqrt 2) equals 2 sqrt 2 - CHSH, word by word,
        # for r1 = A1 + A2 - sqrt2 B1 and r2 = A1 - A2 - sqrt2 B2
        v1 = np.array([1.0, 1.0, -ROOT2, 0.0])
        v2 = np.array([1.0, -1.0, 0.0, -ROOT2])
        gram = (np.outer(v1, v1) + np.outer(v2, v2)) / (2 * ROOT2)
        expanded = gram_polynomial(gram)
        target = {(): 2 * ROOT2}
        for word, c in chsh_operator_coefficients().items():
            target[word] = target.get(word, 0.0) - c
        for word in set(expanded) | set(target):
            assert expanded.get(word, 0.0) == pytest.approx(target.get(word, 0.0), abs=1e-12)

    def test_solver_gram_reproduces_decomposition(self):
        q1, report = tsirelson_sos_chsh()
        expanded = gram_polynomial(report["gram"])
        target = {(): q1}
        for word, c in chsh_operator_coefficients().items():
            target[word] = target.get(word, 0.0) - c
        for word in set(expanded) | set(target):
            assert expanded.get(word, 0.0) == pytest.approx(target.get(word, 0.0), abs=1e-6)

    def test_agrees_with_moment_hierarchy(self):
        q1, _ = tsirelson_sos_chsh()
        npa_value = solve_bell(Scenario.chsh(), 1, chsh_functional()).value
        assert q1 == pytest.approx(npa_value, abs=1e-6)
