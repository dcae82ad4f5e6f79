"""Sum-of-squares certificates: commutative Gram feasibility and the CHSH
level-1 noncommutative decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb

import numpy as np

from .modeling import Model, ScalarExpr, _symmetric_expr
from .npa import Scenario, generate_words, reduce_word, word_adjoint
from .problem import null_space_by_component


def monomials(n_vars: int, degree: int):
    """Exponent tuples of all degree-``degree`` monomials in n_vars variables."""
    out = []
    for combo in combinations_with_replacement(range(n_vars), degree):
        e = [0] * n_vars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def _pairing_matrix(basis, n_vars: int, degree2: int):
    """Linear map from symmetric-matrix cells to degree-2m coefficients; the
    cells (i <= j, row-major) come back as a (2, K) array."""
    prods = monomials(n_vars, degree2)
    prod_index = {m: i for i, m in enumerate(prods)}
    cells = np.array(np.triu_indices(len(basis)))
    p = np.zeros((len(prods), cells.shape[1]))
    for c, (i, j) in enumerate(cells.T.tolist()):
        m = tuple(a + b for a, b in zip(basis[i], basis[j]))
        p[prod_index[m], c] += 1.0 if i == j else 2.0
    return p, prods, cells


@dataclass
class SosCertificate:
    gram: np.ndarray
    basis: list[tuple]
    squares: list[dict]  # polynomials g_i as {exponents: coeff}
    residual: float


@dataclass
class SosResult:
    feasible: bool
    margin: float  # optimal smallest eigenvalue of the Gram matrix
    certificate: SosCertificate | None
    dual_witness: np.ndarray | None
    model_result: object


def sos_certificate(h: dict, n_vars: int, cfg=None) -> SosResult:
    """Decide whether a homogeneous polynomial is a sum of squares.

    ``h`` maps exponent tuples (length n_vars, all of one even degree 2m) to
    coefficients.  Builds one particular Gram representative H, a basis of the
    null pairing space, and maximizes the smallest eigenvalue of H + sum y_i N_i;
    a nonnegative optimum yields the certificate with extracted squares.
    """
    degrees = {sum(e) for e in h}
    if len(degrees) != 1:
        raise ValueError("polynomial must be homogeneous")
    (deg,) = degrees
    if deg % 2 or deg == 0:
        raise ValueError("degree must be a positive even number")
    if any(len(e) != n_vars for e in h):
        raise ValueError("exponent tuples must have length n_vars")
    m = deg // 2
    basis = monomials(n_vars, m)
    d = len(basis)
    assert d == comb(n_vars + m - 1, m)

    p, prods, cells = _pairing_matrix(basis, n_vars, deg)
    target = np.zeros(len(prods))
    for e, c in h.items():
        target[prods.index(e)] = float(c)
    cell_vec, *_ = np.linalg.lstsq(p, target, rcond=None)
    if np.linalg.norm(p @ cell_vec - target) > 1e-9 * max(1.0, np.linalg.norm(target)):
        raise ValueError("polynomial cannot be represented over the monomial basis")
    # each column of P pairs to one product monomial, so the null space
    # splits by monomial: one small SVD each
    kernel = null_space_by_component(p, target)[1].tocoo()
    n_null = kernel.shape[1]

    # H - t I + sum_k y_k N_k, from the nonzeros of H's cell vector and of the kernel
    model = Model()
    t = model.declare(1, structure="symmetric", name="t")
    if n_null:
        model.declare(n_null, 1, structure="full", name="y")  # parameters 1 .. n_null
    nz_cell, nz_k = kernel.row, kernel.col
    h_at = np.flatnonzero(cell_vec)
    diag = np.arange(d)
    gram_expr = _symmetric_expr(
        d,
        np.hstack([cells[:, h_at], [diag, diag], cells[:, nz_cell]]),
        np.concatenate([np.zeros(h_at.size, np.int64), np.full(d, 1 + t.decl.offset), 2 + nz_k]),
        np.concatenate([cell_vec[h_at], -np.ones(d), kernel.data]),
        1 + model.nparams,
    )
    model.add_lmi(gram_expr)
    model.maximize(t.entry(0, 0))
    res = model.compile(framing="dual", equality_mode="eliminate").solve(cfg)

    margin = res.value
    params = res.compiled.params_from(res.solution)
    params[t.decl.offset] = 0.0  # evaluate the Gram matrix itself, without the slack
    gram = gram_expr.value(params).real

    if not (res.success and margin >= -1e-7):
        witness = res.solution.x_primal.blocks[0].copy()
        return SosResult(False, margin, None, witness, res)

    w, v = np.linalg.eigh(gram)
    squares = []
    for lam, vec_ in zip(w, v.T):
        if lam > 1e-10:
            g = np.sqrt(lam) * vec_
            squares.append({basis[i]: g[i] for i in range(d) if abs(g[i]) > 1e-12})
    residual = np.linalg.norm(p @ gram[cells[0], cells[1]] - target)
    cert = SosCertificate(gram=gram, basis=basis, squares=squares, residual=float(residual))
    return SosResult(True, margin, cert, None, res)


def motzkin_polynomial() -> tuple[dict, int]:
    """x^4 y^2 + x^2 y^4 - 3 x^2 y^2 z^2 + z^6: nonnegative but not SoS."""
    return {(4, 2, 0): 1.0, (2, 4, 0): 1.0, (2, 2, 2): -3.0, (0, 0, 6): 1.0}, 3


# ---------------------------------------------------------------------------
# CHSH level-1 weighted sum of squares


def _chsh_words() -> tuple[list, dict]:
    """CHSH's level-1 observables (A1, A2, B1, B2) as words, and the reduced
    word of u_i^dagger u_j for each pair (i, j) of them, an observable
    squaring to the identity."""
    s = Scenario.chsh()
    basis = generate_words(s, 1)[1:]
    pairs = product(enumerate(basis), repeat=2)
    return basis, {(i, j): reduce_word(word_adjoint(u) + v, s.observables()) for (i, u), (j, v) in pairs}


def chsh_operator_coefficients() -> dict:
    """Coefficients of the CHSH operator sum_xy c_xy A_x B_y, c = (1, 1, 1, -1),
    over reduced words."""
    return {((0, x, 0), (1, y, 0)): -1.0 if x == y == 1 else 1.0 for x in range(2) for y in range(2)}


def gram_polynomial(gram: np.ndarray) -> dict:
    """Expand x^T M x over the reduced words."""
    out: dict[tuple, float] = {}
    for (i, j), w in _chsh_words()[1].items():
        out[w] = out.get(w, 0.0) + gram[i, j]
    return out


def tsirelson_sos_chsh(cfg=None):
    """Level-1 weighted-SoS bound for CHSH over the basis (A1, A2, B1, B2).

    Minimizes q subject to q*1 - CHSH = x^T M x + sum_x g_x A_x + sum_y g_y B_y
    with M PSD, matching coefficients word by word over the words of
    ``npa.reduce_word``.  Returns the bound together with a decomposition
    report.
    """
    model = Model()
    mvar = model.declare(4, structure="symmetric", name="M")
    gamma = model.declare(4, 1, structure="full", name="gamma")
    q = model.declare(1, structure="symmetric", name="q")
    model.add_lmi(mvar.expr())

    # x^T M x + sum_k g_k u_k - q 1 = -CHSH
    basis, pairs = _chsh_words()
    lhs = {(): -q.entry(0, 0)} | {w: gamma.entry(k, 0) for k, w in enumerate(basis)}
    for (i, j), w in pairs.items():
        lhs[w] = lhs.get(w, ScalarExpr()) + mvar.entry(i, j)
    chsh = chsh_operator_coefficients()
    for w, expr in lhs.items():
        model.add_equality(expr, -chsh.get(w, 0.0))
    model.minimize(q.entry(0, 0))
    res = model.compile(framing="dual", equality_mode="eliminate").solve(cfg)

    gram = res.values["M"]
    q1 = res.value
    w, v = np.linalg.eigh(gram)
    square_roots = [np.sqrt(max(lam, 0.0)) * vec_ for lam, vec_ in zip(w, v.T) if lam > 1e-9]
    # residual of q1 * 1 - CHSH against the Gram expansion
    target = {(): q1} | {word: -c for word, c in chsh.items()}
    expanded = gram_polynomial(gram)
    words = set(target) | set(expanded)
    residual = float(np.sqrt(sum((target.get(wd, 0.0) - expanded.get(wd, 0.0)) ** 2 for wd in words)))
    report = {
        "gram": gram,
        "gamma": res.values["gamma"][:, 0],
        "squares": square_roots,
        "residual": residual,
        "basis": basis,
        "result": res,
    }
    return q1, report
