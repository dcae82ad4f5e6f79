"""Moment-matrix hierarchies for quantum correlations.

Words are ordered tuples of projector symbols (party, setting, outcome),
reduced modulo commutation between parties, idempotency, and orthogonality
of outcomes of one setting.  Binary-outcome settings keep a single
independent projector (the normalization sum removes the last outcome),
which is what reproduces the published moment-matrix sizes.

On top of the plain hierarchy this module implements the dimension
constraint that pins every preparation-success probability to 1/d, and the
randomized fixed-dimension hierarchy with its orthogonal moment-matrix
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from .modeling import MatExpr, Model, ScalarExpr

ZERO = "ZERO"  # annihilated word sentinel

Symbol = tuple  # (party, setting, outcome)
Word = tuple  # tuple of Symbols; () is the identity


@dataclass(frozen=True)
class Scenario:
    """A correlation experiment: settings and outcome counts per party."""

    settings: tuple[int, ...]  # measurements per party
    outcomes: tuple[tuple[int, ...], ...]  # outcomes per party per setting
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(int(s) for s in self.settings))
        object.__setattr__(self, "outcomes", tuple(tuple(int(o) for o in outs) for outs in self.outcomes))
        if len(self.outcomes) != len(self.settings):
            raise ValueError("outcomes must list one tuple per party")
        for s, outs in zip(self.settings, self.outcomes):
            if len(outs) != s:
                raise ValueError("each setting needs an outcome count")
            if s < 1 or any(o < 2 for o in outs):
                raise ValueError("settings >= 1 and outcomes >= 2 required")

    @property
    def parties(self) -> int:
        return len(self.settings)

    def reduced_symbols(self, party: int) -> list[Symbol]:
        """Independent projectors of one party (last outcome dropped per setting)."""
        out = []
        for x in range(self.settings[party]):
            for a in range(self.outcomes[party][x] - 1):
                out.append((party, x, a))
        return out

    @classmethod
    def chsh(cls) -> "Scenario":
        return cls((2, 2), ((2, 2), (2, 2)), labels=("Alice", "Bob"))

    @classmethod
    def prepare_measure(cls, n_preparations: int, n_meas_settings: int, n_outcomes: int = 2) -> "Scenario":
        """Prepare-and-measure as a two-party scenario; Alice's outcome 0 flags
        a successful preparation projection."""
        return cls(
            (n_preparations, n_meas_settings),
            (tuple(2 for _ in range(n_preparations)), tuple(n_outcomes for _ in range(n_meas_settings))),
            labels=("Alice", "Bob"),
        )


# ---------------------------------------------------------------------------
# word algebra


def _reduce_block(block: list[Symbol]):
    """Idempotency/orthogonality fixpoint within one party's subsequence."""
    changed = True
    while changed:
        changed = False
        out = []
        for s in block:
            if out:
                prev = s_prev = out[-1]
                if s == prev:
                    changed = True
                    continue
                if s[1] == prev[1]:  # same setting, different outcome
                    return None
            out.append(s)
        block = out
    return block


def reduce_word(w) -> Word | str:
    """Canonical form of a projector word, or ZERO when it annihilates."""
    if w == ZERO:
        return ZERO
    parties = sorted({s[0] for s in w})
    blocks = []
    for p in parties:
        blk = _reduce_block([s for s in w if s[0] == p])
        if blk is None:
            return ZERO
        blocks.extend(blk)
    return tuple(blocks)


def canonical_order(w: Word) -> Word:
    """Commutation step alone: sort symbols by party, keeping each party's order."""
    parties = sorted({s[0] for s in w})
    return tuple(s for p in parties for s in w if s[0] == p)


def word_adjoint(w: Word) -> Word | str:
    """Adjoint (reversal) of a projector word, in canonical form."""
    if w == ZERO:
        return ZERO
    return reduce_word(tuple(reversed(w)))


def _word_key(w: Word):
    return (len(w), w)


def _party_sequences(symbols: list[Symbol], length: int):
    """Canonical one-party sequences: adjacent symbols use different settings."""
    if length == 0:
        return [()]
    seqs = [(s,) for s in symbols]
    for _ in range(length - 1):
        seqs = [seq + (s,) for seq in seqs for s in symbols if s[1] != seq[-1][1]]
    return seqs


def generate_words(scenario: Scenario, level) -> list[Word]:
    """Index set of the moment matrix: canonical nonzero words up to the level.

    ``level`` is a positive integer, or the string "1+AB" for the intermediate
    level made of length-1 words plus all Alice x Bob products.
    """
    per_party = [scenario.reduced_symbols(p) for p in range(scenario.parties)]
    words: set[Word] = {()}

    if level == "1+AB":
        if scenario.parties != 2:
            raise ValueError("the 1+AB level is defined for two parties")
        for syms in per_party:
            words.update((s,) for s in syms)
        for a, b in product(per_party[0], per_party[1]):
            words.add((a, b))
    else:
        k = int(level)
        if k < 1:
            raise ValueError("level must be >= 1")

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        for total in range(1, k + 1):
            for lens in compositions(total, scenario.parties):
                partials = [_party_sequences(per_party[p], lens[p]) for p in range(scenario.parties)]
                for combo in product(*partials):
                    words.add(tuple(s for blk in combo for s in blk))
    return sorted(words, key=_word_key)


# ---------------------------------------------------------------------------
# moment model


@dataclass
class MomentModel:
    scenario: Scenario
    level: object
    words: list[Word]
    class_keys: list[Word]  # one canonical word per equality class
    class_of_cell: dict  # (i, j) with i <= j -> class index
    zero_cells: list[tuple[int, int]]
    norm_class: int  # class of the identity cell, pinned to 1

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def num_unknowns(self) -> int:
        """Distinct scalar unknowns of the dual-framed moment model."""
        return len(self.class_keys)

    def word_index(self, w: Word) -> int:
        return self.words.index(w)

    def cell_class(self, i: int, j: int) -> int:
        return self.class_of_cell[(min(i, j), max(i, j))]

    # -- probability bookkeeping -----------------------------------------
    def _single_index(self, party, x, a):
        return self.word_index(((party, x, a),))

    def marginal_expr(self, party: int, a: int, x: int) -> dict:
        """P(a|x) for one party as {class: coeff} plus a '_const' entry."""
        n_out = self.scenario.outcomes[party][x]
        expr = {"_const": 0.0}
        if a < n_out - 1:
            cls = self.cell_class(0, self._single_index(party, x, a))
            expr[cls] = expr.get(cls, 0.0) + 1.0
        else:
            expr["_const"] += 1.0
            for ap in range(n_out - 1):
                cls = self.cell_class(0, self._single_index(party, x, ap))
                expr[cls] = expr.get(cls, 0.0) - 1.0
        return expr

    def joint_expr(self, a: int, b: int, x: int, y: int) -> dict:
        """P(a,b|x,y) for two parties as {class: coeff} plus '_const'."""
        if self.scenario.parties != 2:
            raise ValueError("joint probabilities require a two-party scenario")
        n_a = self.scenario.outcomes[0][x]
        n_b = self.scenario.outcomes[1][y]
        expr = {"_const": 0.0}

        def add(d, w=1.0):
            for k, v in d.items():
                expr[k] = expr.get(k, 0.0) + w * v

        if a < n_a - 1 and b < n_b - 1:
            cls = self.cell_class(self._single_index(0, x, a), self._single_index(1, y, b))
            expr[cls] = expr.get(cls, 0.0) + 1.0
        elif a == n_a - 1 and b < n_b - 1:
            add(self.marginal_expr(1, b, y))
            for ap in range(n_a - 1):
                add(self.joint_expr(ap, b, x, y), -1.0)
        elif a < n_a - 1 and b == n_b - 1:
            add(self.marginal_expr(0, a, x))
            for bp in range(n_b - 1):
                add(self.joint_expr(a, bp, x, y), -1.0)
        else:
            expr["_const"] += 1.0
            for ap in range(n_a - 1):
                add(self.marginal_expr(0, ap, x), -1.0)
            for bp in range(n_b - 1):
                add(self.marginal_expr(1, bp, y), -1.0)
            for ap in range(n_a - 1):
                for bp in range(n_b - 1):
                    add(self.joint_expr(ap, bp, x, y))
        return expr

    # -- model emission ---------------------------------------------------
    def to_model(self) -> tuple[Model, MatExpr]:
        """Dual-framed model: one scalar unknown per equality class.  Gamma's
        coefficient matrix holds a 1 at (class, cell) for both cells of each
        class entry, built from the index arrays of ``class_of_cell``."""
        model = Model()
        var = model.declare(self.num_unknowns, 1, structure="full", name="moments")
        n = self.size
        i, j = np.array(list(self.class_of_cell), dtype=np.int64).reshape(-1, 2).T
        cls = 1 + var.decl.offset + np.fromiter(self.class_of_cell.values(), dtype=np.int64, count=i.size)
        off = i != j
        rows, cells = np.concatenate([cls, cls[off]]), np.concatenate([i * n + j, (j * n + i)[off]])
        coef = sp.csc_array((np.ones(rows.size), (rows, cells)), shape=(1 + model.nparams, n * n))
        gamma = MatExpr.from_coef((n, n), coef)
        model.add_lmi(gamma)
        model.add_equality(ScalarExpr({var.decl.offset + self.norm_class: 1.0}), 1.0)
        return model, gamma

    def prob_scalar(self, model_offset: int, expr: dict) -> ScalarExpr:
        coeffs = {model_offset + k: v for k, v in expr.items() if k != "_const"}
        return ScalarExpr(coeffs, expr.get("_const", 0.0))


def build_moment_model(scenario: Scenario, level) -> MomentModel:
    words = generate_words(scenario, level)
    index = {w: i for i, w in enumerate(words)}
    class_index: dict[Word, int] = {}
    class_keys: list[Word] = []
    class_of_cell = {}
    zero_cells = []
    for i, wi in enumerate(words):
        adj_i = tuple(reversed(wi))
        for j in range(i, len(words)):
            w = reduce_word(adj_i + words[j])
            if w == ZERO:
                zero_cells.append((i, j))
                continue
            key = min(w, word_adjoint(w), key=_word_key)
            if key not in class_index:
                class_index[key] = len(class_keys)
                class_keys.append(key)
            class_of_cell[(i, j)] = class_index[key]
    norm_class = class_index[()]
    return MomentModel(scenario, level, words, class_keys, class_of_cell, zero_cells, norm_class)


# ---------------------------------------------------------------------------
# Bell optimization


@dataclass
class BellResult:
    value: float
    gamma: np.ndarray
    moments: np.ndarray
    model_result: object

    @property
    def success(self):
        return self.model_result.success


def solve_bell(scenario: Scenario, level, bell: dict, extra_constraints=(), cfg=None) -> BellResult:
    """Maximize a Bell functional sum alpha_{a,b,x,y} P(a,b|x,y) at one level.

    ``bell`` maps (a, b, x, y) to a real coefficient.  ``extra_constraints``
    is a list of (atoms, rhs) pairs, each atom dict mapping
    ("joint", a, b, x, y) / ("ma", a, x) / ("mb", b, y) to a coefficient.
    """
    mm = build_moment_model(scenario, level)
    model, gamma = mm.to_model()
    off = model.vars[0].offset

    objective = ScalarExpr()
    for (a, b, x, y), coeff in bell.items():
        objective = objective + coeff * mm.prob_scalar(off, mm.joint_expr(a, b, x, y))
    model.maximize(objective)

    for atoms, rhs in extra_constraints:
        total = ScalarExpr()
        for atom, coeff in atoms.items():
            kind = atom[0]
            if kind == "joint":
                expr = mm.joint_expr(*atom[1:])
            elif kind == "ma":
                expr = mm.marginal_expr(0, atom[1], atom[2])
            elif kind == "mb":
                expr = mm.marginal_expr(1, atom[1], atom[2])
            else:
                raise ValueError(f"unknown constraint atom {atom!r}")
            total = total + coeff * mm.prob_scalar(off, expr)
        model.add_equality(total, rhs)

    res = model.compile(framing="dual", equality_mode="eliminate").solve(cfg)
    moments = np.array([res.values["moments"][k, 0] for k in range(mm.num_unknowns)])
    return BellResult(value=res.value, gamma=gamma.value(_pad(res, model)), moments=moments, model_result=res)


def _pad(res, model) -> np.ndarray:
    params = np.zeros(model.nparams)
    off = model.vars[0].offset
    vals = res.values["moments"]
    params[off : off + vals.shape[0]] = vals[:, 0]
    return params


def chsh_functional() -> dict:
    """CHSH in probability form: sum_xy c_xy <A_x B_y> with c = (1,1,1,-1)."""
    bell = {}
    for x, y in product(range(2), range(2)):
        sign = -1.0 if (x, y) == (1, 1) else 1.0
        for a, b in product(range(2), range(2)):
            bell[(a, b, x, y)] = bell.get((a, b, x, y), 0.0) + sign * (1.0 if a == b else -1.0)
    return bell


# ---------------------------------------------------------------------------
# dimension constraint on the hierarchy


def mlp_constraints(scenario: Scenario, d: int):
    """Pin every preparation-success probability: P(0|x) = 1/d for all x."""
    if d < 1:
        raise ValueError("dimension bound must be >= 1")
    return [({("ma", 0, x): 1.0}, 1.0 / d) for x in range(scenario.settings[0])]


def mlp_bound(scenario: Scenario, d: int, witness: dict, level=2, cfg=None) -> BellResult:
    """Upper bound on sum beta_{b,x,y} P(b|x,y) for d-dimensional messages.

    The witness refers to the prepare-and-measure probabilities; they are
    recovered from the two-party model through P(b|x,y) = d * P(0,b|x,y).
    """
    bell = {}
    for (b, x, y), beta in witness.items():
        bell[(0, b, x, y)] = bell.get((0, b, x, y), 0.0) + d * beta
    return solve_bell(scenario, level, bell, extra_constraints=mlp_constraints(scenario, d), cfg=cfg)


def qrac_witness(n_bits: int = 2) -> dict:
    """Average success probability of the n->1 random access code."""
    n_prep = 2**n_bits
    witness = {}
    for x in range(n_prep):
        bits = [(x >> (n_bits - 1 - y)) & 1 for y in range(n_bits)]
        for y in range(n_bits):
            witness[(bits[y], x, y)] = witness.get((bits[y], x, y), 0.0) + 1.0 / (n_prep * n_bits)
    return witness


# ---------------------------------------------------------------------------
# randomized fixed-dimension hierarchy


@dataclass
class NVTask:
    """Moment-matrix sampler for fixed-dimension strategies.

    ``words`` are monomials over generator names; the first word must be ()
    denoting the identity operator on the d-dimensional space.  ``sampler``
    draws one strategy: a dict mapping generator names to d x d operators.
    """

    dim: int
    words: list[tuple]
    sampler: callable

    def moment_matrix(self, rng) -> np.ndarray:
        ops = self.sampler(rng)
        eye = np.eye(self.dim, dtype=complex)

        def op_of(word):
            m = eye
            for g in word:
                m = m @ ops[g]
            return m

        mats = [op_of(w) for w in self.words]
        n = len(mats)
        gamma = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                v = np.trace(mats[i].conj().T @ mats[j])
                gamma[i, j] = gamma[j, i] = v.real
        return gamma


def haar_state(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def haar_projector(rng, d: int, rank: int = 1) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    cols = q[:, :rank]
    return cols @ cols.conj().T


def nv_build_basis(task: NVTask, seed: int = 0, max_draws: int = 500, stall_limit: int = 5, tol: float = 1e-9):
    """Orthogonal basis of the span of sampled moment matrices.

    Draws strategies until ``stall_limit`` consecutive samples project to zero
    against the current span (to tolerance); raises if ``max_draws`` runs out
    first.  The returned matrices are pairwise orthogonal and unit-normalized
    under the trace pairing.
    """
    rng = np.random.default_rng(seed)
    basis: list[np.ndarray] = []
    stall = 0
    for _ in range(max_draws):
        gamma = task.moment_matrix(rng)
        scale = np.linalg.norm(gamma)
        resid = gamma.copy()
        for b in basis:
            resid -= np.sum(b * resid) * b
        if np.linalg.norm(resid) <= tol * max(scale, 1.0):
            stall += 1
            if stall >= stall_limit:
                return basis
        else:
            stall = 0
            basis.append(resid / np.linalg.norm(resid))
    raise RuntimeError(f"basis not saturated after {max_draws} draws (got {len(basis)} elements)")


def nv_solve(basis, game: np.ndarray, cfg=None):
    """Maximize Tr(game * Gamma) over Gamma in span(basis), Gamma_11 = 1, PSD."""
    if not basis:
        raise ValueError("empty moment-matrix basis")
    n = basis[0].shape[0]
    model = Model()
    var = model.declare(len(basis), 1, structure="full", name="coeffs")
    gamma = MatExpr((n, n), terms={var.decl.offset + k: b for k, b in enumerate(basis)})
    model.add_lmi(gamma)
    model.add_equality(gamma.entry(0, 0), 1.0)
    model.maximize(gamma.frobenius_with(np.asarray(game, dtype=float)))
    res = model.compile(framing="dual", equality_mode="eliminate").solve(cfg)
    params = np.zeros(model.nparams)
    params[: len(basis)] = res.values["coeffs"][:, 0]
    return res.value, gamma.value(params).real, res


def _sym_place(game: np.ndarray, i: int, j: int, w: float):
    if i == j:
        game[i, i] += w
    else:
        game[i, j] += w / 2.0
        game[j, i] += w / 2.0


def qrac_nv_task(n_bits: int = 2, d: int = 2) -> NVTask:
    """Prepare-and-measure sampler: pure states and binary rank-1 measurements."""
    n_prep = 2**n_bits
    preps = [("s", x) for x in range(n_prep)]
    meas = [("m", y) for y in range(n_bits)]
    words = [()] + [(g,) for g in preps + meas]

    def sampler(rng):
        ops = {g: haar_state(rng, d) for g in preps}
        ops.update({g: haar_projector(rng, d, rank=1) for g in meas})
        return ops

    return NVTask(dim=d, words=words, sampler=sampler)


def qrac_nv_game(task: NVTask, n_bits: int = 2) -> np.ndarray:
    """Game matrix for the n->1 random access code on the task's word list.

    The normalization cell is 1 instead of d, so probability cells carry a
    factor d; P(1|x,y) enters through Tr(rho_x) - Tr(rho_x M_y).
    """
    d = task.dim
    n = len(task.words)
    idx = {w: k for k, w in enumerate(task.words)}
    game = np.zeros((n, n))
    witness = qrac_witness(n_bits)
    for (b, x, y), beta in witness.items():
        i = idx[(("s", x),)]
        j = idx[(("m", y),)]
        if b == 0:
            _sym_place(game, i, j, d * beta)
        else:
            _sym_place(game, 0, i, d * beta)  # Tr(rho_x) cell
            _sym_place(game, i, j, -d * beta)
    return game


def chsh_nv_task(d_each: int = 2) -> NVTask:
    """Bipartite sampler: shared pure state, local rank-1 projective settings."""
    d = d_each * d_each
    words = [(), (("psi",),)]
    words += [(("a", x),) for x in range(2)]
    words += [(("b", y),) for y in range(2)]
    words += [(("a", x), ("b", y)) for x in range(2) for y in range(2)]

    def sampler(rng):
        eye = np.eye(d_each)
        ops = {("psi",): haar_state(rng, d)}
        for x in range(2):
            ops[("a", x)] = np.kron(haar_projector(rng, d_each, 1), eye)
        for y in range(2):
            ops[("b", y)] = np.kron(eye, haar_projector(rng, d_each, 1))
        return ops

    return NVTask(dim=d, words=words, sampler=sampler)


def chsh_nv_game(task: NVTask) -> np.ndarray:
    """CHSH correlators through the shared-state cells of the moment matrix."""
    d = task.dim
    n = len(task.words)
    idx = {w: k for k, w in enumerate(task.words)}
    game = np.zeros((n, n))
    psi = idx[(("psi",),)]
    for x, y in product(range(2), range(2)):
        sign = -1.0 if (x, y) == (1, 1) else 1.0
        # <A_x B_y> = 4 P(00) - 2 P_A(0) - 2 P_B(0) + 1
        _sym_place(game, psi, idx[(("a", x), ("b", y))], sign * 4.0 * d)
        _sym_place(game, psi, idx[(("a", x),)], -sign * 2.0 * d)
        _sym_place(game, psi, idx[(("b", y),)], -sign * 2.0 * d)
        _sym_place(game, psi, psi, sign * 1.0 * d)
    return game
