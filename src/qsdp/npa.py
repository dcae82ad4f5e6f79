"""Moment-matrix hierarchies for quantum correlations.

Words are ordered tuples of symbols (party, setting, outcome), reduced
modulo commutation between parties, idempotency, and orthogonality of
outcomes of one setting.  Binary-outcome settings keep a single
independent symbol (the normalization sum removes the last outcome),
which is what reproduces the published moment-matrix sizes.  In the
projector basis that symbol is the outcome-0 projector P; in the
observable basis it is the +-1 observable A = 2P - 1, which squares to the
identity.  Settings with three or more outcomes keep their projectors in
both bases.

``solve_bell`` works in the observable basis.  There, setting permutations,
the party swap and outcome flips act on the words as signed permutations,
so each moment is tied to its orbit under the relabellings that fix the
problem, and a moment that one of them maps to minus itself is 0.  The
same action splits a large moment matrix into symmetry-adapted blocks.

On top of the plain hierarchy this module implements the dimension
constraint that pins every preparation-success probability to 1/d, and the
randomized fixed-dimension hierarchy with its orthogonal moment-matrix
basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np
import scipy.sparse as sp

from .modeling import MatExpr, Model, ScalarExpr, _symmetric_expr

ZERO = "ZERO"  # annihilated word sentinel

Symbol = tuple  # (party, setting, outcome)
Word = tuple  # tuple of Symbols; () is the identity
_NV_STALL = 5  # consecutive samples inside the span that end nv_build_basis
_NV_TOL = 1e-9  # relative residual below which a sample lies inside the span


@dataclass(frozen=True)
class Scenario:
    """A correlation experiment: settings and outcome counts per party."""

    settings: tuple[int, ...]  # measurements per party
    outcomes: tuple[tuple[int, ...], ...]  # outcomes per party per setting

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

    def observables(self) -> frozenset:
        """The symbols of the binary settings: the +-1 observables of the observable basis."""
        return frozenset(
            (p, x, 0) for p in range(self.parties) for x, o in enumerate(self.outcomes[p]) if o == 2
        )

    @classmethod
    def chsh(cls) -> "Scenario":
        return cls((2, 2), ((2, 2), (2, 2)))

    @classmethod
    def prepare_measure(cls, n_preparations: int, n_meas_settings: int, n_outcomes: int = 2) -> "Scenario":
        """Prepare-and-measure as a two-party scenario; Alice's outcome 0 flags
        a successful preparation projection."""
        return cls(
            (n_preparations, n_meas_settings),
            (tuple(2 for _ in range(n_preparations)), tuple(n_outcomes for _ in range(n_meas_settings))),
        )


# ---------------------------------------------------------------------------
# word algebra


def _reduce_block(block: list[Symbol], observables=frozenset()):
    """One party's subsequence reduced: equal neighbours merge (a projector
    is idempotent) or cancel (a symbol in ``observables`` squares to the
    identity), and two outcomes of one setting annihilate (None)."""
    out = []
    for s in block:
        if out and s[1] == out[-1][1]:
            if s != out[-1]:
                return None
            if s in observables:
                out.pop()
            continue
        out.append(s)
    return out


def reduce_word(w, observables=frozenset()) -> Word | str:
    """Canonical form of a word, or ZERO when it annihilates.  Symbols in
    ``observables`` square to the identity; the others are projectors."""
    if w == ZERO:
        return ZERO
    parties = sorted({s[0] for s in w})
    blocks = []
    for p in parties:
        blk = _reduce_block([s for s in w if s[0] == p], observables)
        if blk is None:
            return ZERO
        blocks.extend(blk)
    return tuple(blocks)


def canonical_order(w: Word) -> Word:
    """Commutation step alone: sort symbols by party, keeping each party's order."""
    parties = sorted({s[0] for s in w})
    return tuple(s for p in parties for s in w if s[0] == p)


def word_adjoint(w: Word) -> Word | str:
    """Adjoint (reversal) of a projector word, in canonical form.  The
    reversal of a reduced word is reduced in the observable basis too."""
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
    norm_class: int  # class of the identity cell, pinned to 1
    observables: frozenset  # symbols that square to the identity
    classes: np.ndarray = field(repr=False)  # (n, n) symmetric: each cell's class, -1 where the word annihilates
    factors: list[list[Word]] = field(repr=False)  # per party, the distinct party-p factors of the words
    word_factors: np.ndarray = field(repr=False)  # (words, parties): each word's factor numbers

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def num_unknowns(self) -> int:
        """Distinct scalar unknowns of the dual-framed moment model."""
        return len(self.class_keys)

    @property
    def cells(self) -> np.ndarray:
        """(2, K): the upper-triangle cells that do not annihilate, row-major."""
        i, j = np.triu_indices(self.size)
        live = self.classes[i, j] >= 0
        return np.array([i[live], j[live]])

    @property
    def cell_classes(self) -> np.ndarray:
        """(K,): the classes of ``cells``."""
        c = self.classes[np.triu_indices(self.size)]
        return c[c >= 0]

    def word_index(self, w: Word) -> int:
        return self.words.index(w)

    def coordinate_classes(self) -> np.ndarray:
        """Class of the moment <X_i Y_j> for each pair of local coordinates
        of a two-party scenario (see ``_local_terms``): a (1 + n_A) x (1 + n_B)
        array whose entry (0, 0) is the identity's class."""
        if self.scenario.parties != 2:
            raise ValueError("joint probabilities require a two-party scenario")
        wa, wb = (
            [0] + [self.word_index((s,)) for s in self.scenario.reduced_symbols(p)] for p in range(2)
        )
        return self.classes[np.ix_(wa, wb)]


def build_moment_model(scenario: Scenario, level, observables: bool = False) -> MomentModel:
    """The equality classes of Gamma's cells at one level, in the projector
    basis, or with ``observables`` in the observable basis.

    Cell (i, j) holds the word w_i^dagger w_j.  Parties commute, so that word
    is the product over parties of u_p^dagger v_p, with u_p and v_p the
    party-p factors of w_i and w_j, and each party's products are reduced
    once per pair of distinct factors rather than once per cell.  A class
    is the pair {w, w^dagger}, keyed by the smaller word (by length, then
    symbols) and numbered in the order of its first cell in the row-major
    scan of the upper triangle.  The model holds them as the symmetric
    table ``classes``, -1 on the cells whose word annihilates.
    """
    words = generate_words(scenario, level)
    inv = scenario.observables() if observables else frozenset()
    n, parties = len(words), scenario.parties
    index = [{} for _ in range(parties)]
    word_factors = np.array(
        [[index[p].setdefault(tuple(s for s in w if s[0] == p), len(index[p])) for p in range(parties)] for w in words],
        dtype=np.int64,
    )
    tables = []
    for ix in index:
        own = list(ix)
        table = np.full((len(own), len(own)), -1, dtype=np.int64)
        for u, fu in enumerate(own):
            for v, fv in enumerate(own):
                r = _reduce_block(fu[::-1] + fv, inv)
                if r is not None:
                    table[u, v] = ix.setdefault(tuple(r), len(ix))
        tables.append(table)
    blocks = [list(ix) for ix in index]
    factors = [bl[: t.shape[0]] for bl, t in zip(blocks, tables)]
    # a product word is coded by its blocks' numbers in radix `radix`, and a
    # class by the smaller code of its word and of the adjoint: the reversal
    # of a product u^dagger v is v^dagger u, and of a factor u it is u^dagger ()
    adjoint = [np.array([ix[b[::-1]] for b in bl], dtype=np.int64) for ix, bl in zip(index, blocks)]
    radix = max(len(bl) for bl in blocks)
    scale = radix ** np.arange(parties)

    rows, cols = np.triu_indices(n)
    digits = np.array([t[word_factors[rows, p], word_factors[cols, p]] for p, t in enumerate(tables)])
    live = np.all(digits >= 0, axis=0)
    digits = digits[:, live]
    canon = np.minimum(scale @ digits, scale @ np.array([a[d] for a, d in zip(adjoint, digits)]))
    uniq, first, inverse = np.unique(canon, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    cell_classes = rank[inverse]

    class_keys = []
    for d in digits[:, first[order]].T.tolist():
        w = tuple(s for bl, k in zip(blocks, d) for s in bl[k])
        class_keys.append(min(w, tuple(s for bl, k in zip(blocks, d) for s in bl[k][::-1]), key=_word_key))
    classes = np.full((n, n), -1, dtype=np.int64)
    classes[rows[live], cols[live]] = classes[cols[live], rows[live]] = cell_classes
    return MomentModel(scenario, level, words, class_keys, int(classes[0, 0]), inv, classes, factors, word_factors)


def _local_terms(scenario: Scenario, party: int, a: int, x: int, observables) -> list[tuple[int, float]]:
    """P(a|x) of one party as [(local coordinate, coefficient)].  Coordinate
    0 is the identity and 1 + k the party's k-th reduced symbol: the
    observable of a binary setting in ``observables`` (P(a|x) = (1 +- A_x)/2),
    a projector otherwise (the last outcome is 1 minus the others)."""
    outs = scenario.outcomes[party]
    if not (0 <= x < len(outs) and 0 <= a < outs[x]):
        raise ValueError(f"party {party} has no outcome {a} of setting {x}")
    first = 1 + sum(o - 1 for o in outs[:x])
    if (party, x, 0) in observables:
        return [(0, 0.5), (first, 0.5 - a)]
    if a < outs[x] - 1:
        return [(first + a, 1.0)]
    return [(0, 1.0)] + [(first + b, -1.0) for b in range(outs[x] - 1)]


def coordinates(scenario: Scenario, atoms: dict, observables=frozenset()) -> np.ndarray:
    """A linear combination of probabilities as a (1 + n_A) x (1 + n_B) array
    over pairs of local coordinates (see ``_local_terms``): entry (i, j) is
    the coefficient of <X_i Y_j>, and (0, 0) the constant.  Each atom maps
    ("joint", a, b, x, y), ("ma", a, x) or ("mb", b, y) to a coefficient."""
    if scenario.parties != 2:
        raise ValueError("joint probabilities require a two-party scenario")
    out = np.zeros([1 + len(scenario.reduced_symbols(p)) for p in range(2)])
    ident = [(0, 1.0)]
    for atom, coeff in atoms.items():
        kind = atom[0]
        if kind == "joint":
            a, b, x, y = atom[1:]
            left, right = _local_terms(scenario, 0, a, x, observables), _local_terms(scenario, 1, b, y, observables)
        elif kind == "ma":
            left, right = _local_terms(scenario, 0, *atom[1:], observables), ident
        elif kind == "mb":
            left, right = ident, _local_terms(scenario, 1, *atom[1:], observables)
        else:
            raise ValueError(f"unknown constraint atom {atom!r}")
        for (i, ci), (j, cj) in product(left, right):
            out[i, j] += coeff * ci * cj
    return out


# ---------------------------------------------------------------------------
# relabelling symmetry

_SYM_TOL = 1e-12  # relative: a relabelled functional or row equal to within this is fixed
_SPLIT_MIN = 64  # Gamma this size or larger is split into symmetry-adapted blocks; below, the IPM's per-block cost wins
_MAX_RELABELLINGS = 50_000  # per party; beyond it the search keeps the identity alone


@dataclass
class Relabellings:
    """Every signed setting permutation of one party.

    Element k sends setting x to ``sigma[k][x]`` (only between settings with
    the same outcome count) and flips the observable of a binary setting x
    when ``flip[k][x]`` is -1.  On the party's local coordinates (0 the
    identity, 1 + k its k-th reduced symbol) it maps coordinate i to
    ``sign[k, i]`` times coordinate ``perm[k, i]``.  Element 0 is the
    identity, and the only element when the party has more than
    _MAX_RELABELLINGS of them (8 binary settings have 8! 2^8).
    """

    sigma: list[tuple[int, ...]]
    flip: list[tuple[int, ...]]
    perm: np.ndarray
    sign: np.ndarray

    @classmethod
    def of(cls, scenario: Scenario, party: int) -> "Relabellings":
        outs = scenario.outcomes[party]
        syms = scenario.reduced_symbols(party)
        coord = {s: 1 + k for k, s in enumerate(syms)}
        binary = [x for x, o in enumerate(outs) if o == 2]
        count = 2 ** len(binary)
        for o in set(outs):
            for k in range(2, outs.count(o) + 1):
                count *= k
        if count > _MAX_RELABELLINGS:
            sigmas, flips = [tuple(range(len(outs)))], [(1,) * len(outs)]
        else:
            sigmas = [sg for sg in permutations(range(len(outs))) if all(outs[t] == o for t, o in zip(sg, outs))]
            flips = []
            for bits in product((1, -1), repeat=len(binary)):
                flip = [1] * len(outs)
                for x, b in zip(binary, bits):
                    flip[x] = b
                flips.append(tuple(flip))
        # element k is permutation k // len(flips) with flips k % len(flips)
        perm = np.array([[0] + [coord[(party, sg[x], a)] for _, x, a in syms] for sg in sigmas], dtype=np.int64)
        sign = np.array([[1] + [fl[x] for _, x, _ in syms] for fl in flips], dtype=float)
        return cls(
            [sg for sg in sigmas for _ in flips],
            flips * len(sigmas),
            np.repeat(perm, len(flips), axis=0),
            np.tile(sign, (len(sigmas), 1)),
        )

    def images(self, k: int, words: list[Word], to_party: int, index: dict):
        """Numbers (in ``index``) and signs of the images of one party's
        words under element k, moved to party ``to_party``."""
        sigma, flip = self.sigma[k], self.flip[k]
        ids = [index[tuple((to_party, sigma[x], a) for _, x, a in w)] for w in words]
        flips = [sum(flip[x] < 0 for _, x, _ in w) for w in words]
        return np.array(ids, dtype=np.int64), 1.0 - 2.0 * (np.array(flips) % 2)


def _fixed(target: np.ndarray, coords: np.ndarray, ga: Relabellings, gb: Relabellings, ka, kb, tol: float):
    """(len(ka), len(kb)) mask: target[perm_A(i), perm_B(j)] equals
    sign_A(i) sign_B(j) coords[i, j] for every pair of coordinates."""
    pa, pb = ga.perm[ka], gb.perm[kb]
    lhs = target[pa[:, None, :, None], pb[None, :, None, :]]
    rhs = ga.sign[ka][:, None, :, None] * gb.sign[kb][None, :, None, :] * coords
    return np.all(np.abs(lhs - rhs) <= tol, axis=(2, 3))


def stabilizer(scenario: Scenario, functional: np.ndarray, rows=()) -> tuple[list, Relabellings, Relabellings]:
    """The relabellings that fix a two-party functional and map the set of
    constraint rows onto itself, each row up to sign.

    The functional and the rows are arrays over pairs of local coordinates
    (``coordinates``; a row holds its left side minus its right side).  A
    candidate is (k_A, k_B, swap): signed setting permutations of each party,
    then the party swap when both parties have the same settings and
    outcomes.  It is tested on the coordinates, for all candidates at once
    by broadcasting, first on the marginals, then on the pairs left.
    Returns the elements found (the identity first) and both parties'
    relabellings.
    """
    ga, gb = Relabellings.of(scenario, 0), Relabellings.of(scenario, 1)
    f = np.asarray(functional, dtype=float)
    tol = _SYM_TOL * max(1.0, float(np.abs(f).max()))
    unit = [r / np.abs(r).max() for r in map(np.asarray, rows) if np.abs(r).max() > 0]
    swaps = (False, True) if scenario.settings[0] == scenario.settings[1] and scenario.outcomes[0] == scenario.outcomes[1] else (False,)
    found = []
    for swap in swaps:
        target = f.T if swap else f
        # j = 0 and i = 0 of the pair condition involve one party each
        ka = np.flatnonzero(np.all(np.abs(target[ga.perm, 0] - ga.sign * f[:, 0]) <= tol, axis=1))
        kb = np.flatnonzero(np.all(np.abs(target[0, gb.perm] - gb.sign * f[0, :]) <= tol, axis=1))
        chunk = max(1, 2**18 // max(1, kb.size * f.size))
        for lo in range(0, ka.size, chunk):
            ia, ib = np.nonzero(_fixed(target, f, ga, gb, ka[lo : lo + chunk], kb, tol))
            found += [(int(ka[lo + a]), int(kb[b]), swap) for a, b in zip(ia, ib)]
    if unit:
        stack = np.array(unit)
        kept = []
        for k_a, k_b, swap in found:
            targets = stack.transpose(0, 2, 1) if swap else stack
            # each relabelled row must be +- some row: compare every pair
            pa, pb = ga.perm[k_a], gb.perm[k_b]
            lhs = targets[:, pa[:, None], pb[None, :]]
            rhs = np.outer(ga.sign[k_a], gb.sign[k_b]) * stack
            diff = np.minimum(np.abs(lhs[None] - rhs[:, None]).max(axis=(2, 3)), np.abs(lhs[None] + rhs[:, None]).max(axis=(2, 3)))
            if np.all(diff.min(axis=1) <= _SYM_TOL):
                kept.append((k_a, k_b, swap))
        found = kept
    return found, ga, gb


def word_action(mm: MomentModel, group, ga: Relabellings, gb: Relabellings) -> tuple[np.ndarray, np.ndarray]:
    """The signed action of ``group`` (from ``stabilizer``) on the words of a
    two-party observable-basis moment model: (|G|, n) arrays ``perm`` and
    ``sign`` with element g mapping word w_i to sign[g, i] times the word
    w_perm[g, i] of the list.  ``orbit_ties`` and ``symmetry_blocks`` read
    it."""
    n, wf = mm.size, mm.word_factors
    word_of = np.full([len(f) for f in mm.factors], -1, dtype=np.int64)
    word_of[wf[:, 0], wf[:, 1]] = np.arange(n)
    index = [{f: k for k, f in enumerate(fs)} for fs in mm.factors]
    cache = {}

    def factor_map(rel, party, k, to_party):
        key = (party, k, to_party)
        if key not in cache:
            cache[key] = rel.images(k, mm.factors[party], to_party, index[to_party])
        return cache[key]

    perm = np.empty((len(group), n), dtype=np.int64)
    sign = np.empty(perm.shape)
    for h, (k_a, k_b, swap) in enumerate(group):
        qa, qb = (1, 0) if swap else (0, 1)
        (ia, sa), (ib, sb) = factor_map(ga, 0, k_a, qa), factor_map(gb, 1, k_b, qb)
        image = np.empty_like(wf)
        image[:, qa], image[:, qb] = ia[wf[:, 0]], ib[wf[:, 1]]
        perm[h], sign[h] = word_of[image[:, 0], image[:, 1]], sa[wf[:, 0]] * sb[wf[:, 1]]
    return perm, sign


def orbit_ties(mm: MomentModel, perm: np.ndarray, sign: np.ndarray):
    """Tie each class of a two-party observable-basis moment model to its
    orbit under the signed word action ``perm``, ``sign`` (``word_action``).

    Element g maps the word of class c, at its first cell (i, j), to
    s_g(i) s_g(j) times the word of the class g(c) at cell (pi(i), pi(j)).  A
    moment vector fixed by the group satisfies y[c] = s_g(c) y[g(c)] for
    every g, so each class is its orbit representative (the smallest class
    g(c)) times a sign, and a class with g(c) = c and s_g(c) = -1 is 0.
    Returns the orbit number of each class (-1 for the identity and for
    pinned classes), its sign and the number of orbits.
    """
    _, first = np.unique(mm.cell_classes, return_index=True)
    ci, cj = mm.cells[:, first]
    maps, signs = mm.classes[perm[:, ci], perm[:, cj]], sign[:, ci] * sign[:, cj]
    classes = np.arange(first.size)
    best = maps.argmin(axis=0)
    rep, sign = maps[best, classes], signs[best, classes]
    pinned = np.any((maps == classes) & (signs < 0), axis=0)
    free = ~pinned & (classes != mm.norm_class)
    orbit = np.full(classes.size, -1, dtype=np.int64)
    reps, orbit[free] = np.unique(rep[free], return_inverse=True)
    return orbit, sign, reps.size


def _clusters(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster number of each value: in ascending order, a new cluster starts
    at each gap above tol."""
    order = np.argsort(values)
    out = np.empty(values.size, dtype=np.int64)
    out[order] = np.concatenate([[0], np.cumsum(np.diff(values[order]) > tol)])
    return out


def symmetry_blocks(perm: np.ndarray, sign: np.ndarray) -> list[sp.csc_array]:
    """Orthonormal bases Q_1, Q_2, ... of R^n that block-diagonalise every
    symmetric matrix a group of signed permutations fixes.

    Element g of the group (row g of the (|G|, n) arrays, the identity among
    them) is the matrix P_g sending e_i to sign[g, i] e_{perm[g, i]}.  A
    matrix M with P_g M P_g^T = M for every g commutes with every P_g, so
    with the symmetric element S = sum_g r_g (P_g + P_g^T) of the group
    algebra, and it maps each eigenspace of S into itself, whatever the
    weights r_g.  For generic weights S acts on each isotypic component as
    I_m (x) T_rho, so its eigenspaces, one block per eigenvalue of T_rho,
    are the copies of the irreps (Gatermann & Parrilo 2004; Murota, Kanno,
    Kojima & Kojima 2010).  Every copy of each irrep is kept apart:
    splitting only into isotypic components is also a congruence, but the
    IPM scales its start block by block, and with the copies left together
    the I3322 solves take one iteration more at level 3 (19, seeds 1-10)
    and two at level 4.  The group permutes the span of each index orbit's
    e_i, so S is one eigh per orbit, over all orbits of one length at once,
    and each column of each Q lies inside one orbit; the eigenvalues are
    then clustered across orbits.  [Q_1 Q_2 ...] is orthogonal, and
    Q_a^T M Q_b = 0 for a != b.  The weights have a fixed seed, so the
    blocks are the same on every call.
    """
    codes = np.unique(2 * np.asarray(perm) + (np.asarray(sign) < 0), axis=0)
    perm, sign = codes // 2, 1.0 - 2.0 * (codes % 2)
    size, n = perm.shape
    weights = np.random.default_rng(0).uniform(1.0, 2.0, size=size)
    # the identity is an element, so column i of perm lists the orbit of i
    orbit = np.unique(perm.min(axis=0), return_inverse=True)[1]
    members = np.argsort(orbit, kind="stable")
    starts, lengths = np.unique(orbit[members], return_index=True, return_counts=True)[1:]
    rows, cols, vals, values = [], [], [], []
    for k in np.unique(lengths):
        idx = members[starts[lengths == k, None] + np.arange(k)]  # (orbits, k)
        local = np.empty(n, dtype=np.int64)
        local[idx] = np.arange(k)
        at = (np.arange(idx.shape[0])[None, :, None], local[perm[:, idx]], np.arange(k))
        s = np.zeros((idx.shape[0], k, k))  # sum_g r_g P_g on each orbit's span
        np.add.at(s, at, weights[:, None, None] * sign[:, idx])
        w, u = np.linalg.eigh(s + s.transpose(0, 2, 1))
        q = u.transpose(0, 2, 1)  # q[o, j] is column j of orbit o, on the rows idx[o]
        rows.append(np.broadcast_to(idx[:, None, :], q.shape).ravel())
        cols.append(np.repeat(sum(map(len, values)) + np.arange(w.size), k))
        vals.append(q.ravel())
        values.append(w.ravel())
    # |eigenvalue of S| <= 2 sum_g r_g < 4 |G|
    block = _clusters(np.concatenate(values), 1e-8 * 4.0 * size)  # numbered by value
    place = np.empty_like(block)  # each column's place when sorted by block
    place[np.argsort(block, kind="stable")] = np.arange(n)
    rows, cols, vals = np.concatenate(rows), place[np.concatenate(cols)], np.concatenate(vals)
    keep = np.abs(vals) > 1e-14
    q = sp.csc_array((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    ends = np.cumsum(np.bincount(block))
    return [q[:, lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]


def _stacked_kron(bases, n: int) -> sp.csc_array:
    """The column-stacked Q (x) Q of the sparse n x r CSC bases Q (each with
    sorted indices), built in sorted CSC order.  Entries u, v of one Q, in
    columns a_u, a_v at places p_u, p_v there, give the entry q_u q_v at row
    n i_u + i_v of the block's column r a_u + a_v, where rows sort as
    (i_u, i_v): its place is p_u * (count of column a_v) + p_v."""
    counts, indices, data = [], [], []
    for q in bases:
        r, cnt = q.shape[1], np.diff(q.indptr)
        a = np.repeat(np.arange(r), cnt)
        place = np.arange(q.nnz) - q.indptr[a]
        col_nnz = np.multiply.outer(cnt, cnt).ravel()
        pos = (np.cumsum(col_nnz) - col_nnz)[np.add.outer(a * r, a)]
        pos += np.multiply.outer(place, cnt[a]) + place
        i = q.indices.astype(np.int64)
        rows, vals = np.empty(pos.size, dtype=np.int64), np.empty(pos.size)
        rows[pos.ravel()] = np.add.outer(i * n, i).ravel()
        vals[pos.ravel()] = np.multiply.outer(q.data, q.data).ravel()
        counts.append(col_nnz)
        indices.append(rows)
        data.append(vals)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sp.csc_array((np.concatenate(data), np.concatenate(indices), indptr), shape=(n * n, indptr.size - 1))


def _congruent(gamma: MatExpr, bases) -> list[MatExpr]:
    """Q^T Gamma Q for each sparse n x r CSC basis Q.  Row k of a block's
    coefficient matrix is vec(Q^T F_k Q) = vec(F_k) (Q (x) Q), row-major,
    symmetrised; entries at rounding level for their block, where the sum
    cancels, are dropped.  One product with the column-stacked Q (x) Q
    serves every block: its columns are those of the per-block products."""
    sizes = np.array([q.shape[1] for q in bases])
    ends = np.cumsum(sizes * sizes)
    starts = ends - sizes * sizes
    # column of (j, i) for (i, j)
    flip = np.concatenate([lo + np.arange(r * r).reshape(r, r).T.ravel() for r, lo in zip(sizes, starts)])
    coef = gamma.coef.real @ _stacked_kron(bases, gamma.shape[0])
    coef = sp.csc_array((coef + coef[:, flip]) / 2)
    block = np.repeat(np.arange(sizes.size), np.diff(coef.indptr[np.concatenate([[0], ends])]))
    top = np.zeros(sizes.size)
    np.maximum.at(top, block, np.abs(coef.data))
    coef.data[np.abs(coef.data) <= _SYM_TOL * top[block]] = 0.0
    return [MatExpr.from_coef((r, r), coef[:, lo:hi]) for r, lo, hi in zip(sizes.tolist(), starts, ends)]


def projector_lift(mm: MomentModel) -> np.ndarray:
    """T with P-word_i = sum_k T[i, k] A-word_k, for the words of an
    observable-basis model: each binary symbol is P = (1 + A)/2.  Then
    Gamma_P = T Gamma_A T^T."""
    inv = mm.observables
    index = {w: i for i, w in enumerate(mm.words)}
    expansions = []  # per party, each factor of the words as {A-word: coefficient}
    for factors in mm.factors:
        exp = []
        for b in factors:
            half, terms = 0.5 ** sum(s in inv for s in b), {}
            for keep in product(*[(True, False) if s in inv else (True,) for s in b]):
                r = reduce_word(tuple(s for s, k in zip(b, keep) if k), inv)
                if r != ZERO:
                    terms[r] = terms.get(r, 0.0) + half
            exp.append(terms)
        expansions.append(exp)
    t = np.zeros((mm.size, mm.size))
    for i, ids in enumerate(mm.word_factors.tolist()):
        for parts in product(*[expansions[p][k].items() for p, k in enumerate(ids)]):
            t[i, index[tuple(s for w, _ in parts for s in w)]] += math.prod(c for _, c in parts)
    return t


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

    The SDP is built in the observable basis.  The relabellings that fix the
    functional and the set of constraint rows (``stabilizer``) tie the
    moments to their orbits (``orbit_ties``); by convexity the optimum is
    attained at a moment vector they fix, so the value is that of the untied
    problem.  Gamma's constant term is the identity's moment, so a plain
    Bell problem has no equality row.  The same group fixes the tied Gamma,
    so from _SPLIT_MIN words on, the LMIs are the blocks Q^T Gamma Q of
    ``symmetry_blocks``, an orthogonal congruence of Gamma.  ``gamma`` and
    ``moments`` are read off the unsplit Gamma, in the projector basis,
    Gamma_P = T Gamma_A T^T (``projector_lift``), with ``moments[k]`` at the
    first cell of class k, which the observable and the projector builds
    share.  ``model_result.solution.stats["symmetry"]`` gives the group
    order and the number of classes besides the identity, of orbits (the
    unknowns) and of pinned classes; the LMI sizes are the compiled
    problem's ``structure.sdp_blocks``.
    """
    obs = build_moment_model(scenario, level, observables=True)
    inv = obs.observables
    functional = coordinates(scenario, {("joint", *key): c for key, c in bell.items()}, inv)
    rows = []
    for atoms, rhs in extra_constraints:
        row = coordinates(scenario, atoms, inv)
        row[0, 0] -= rhs
        rows.append(row)
    group, ga, gb = stabilizer(scenario, functional, rows)
    action = word_action(obs, group, ga, gb)
    orbit, sign, n_orbits = orbit_ties(obs, *action)

    model = Model()
    var = model.declare(n_orbits, 1, structure="full", name="orbits")
    cls = obs.cell_classes
    at = (orbit[cls] >= 0) | (cls == obs.norm_class)
    param_rows = np.where(orbit[cls] >= 0, 1 + var.decl.offset + orbit[cls], 0)[at]
    values = np.where(orbit[cls] >= 0, sign[cls], 1.0)[at]
    gamma = _symmetric_expr(obs.size, obs.cells[:, at], param_rows, values, 1 + model.nparams)
    bases = symmetry_blocks(*action) if obs.size >= _SPLIT_MIN and len(group) > 1 else []
    lmis = _congruent(gamma, bases) if len(bases) > 1 else [gamma]
    for lmi in lmis:
        model.add_lmi(lmi)

    coord_cls = obs.coordinate_classes()

    def scalar(coords: np.ndarray) -> ScalarExpr:
        c, v = coord_cls.ravel(), coords.ravel()
        tied = orbit[c] >= 0
        acc = np.bincount(orbit[c][tied], weights=(sign[c] * v)[tied], minlength=n_orbits)
        return ScalarExpr(
            {var.decl.offset + k: acc[k] for k in np.flatnonzero(acc).tolist()}, float(v[c == obs.norm_class].sum())
        )

    model.maximize(scalar(functional))
    for row in rows:
        expr = scalar(row)
        if expr.coeffs or abs(expr.const) > _SYM_TOL * max(1.0, np.abs(row).max()):
            model.add_equality(expr, 0.0)

    res = model.solve(cfg=cfg)
    res.solution.stats["symmetry"] = {
        "order": len(group),
        "classes": obs.num_unknowns - 1,
        "orbits": n_orbits,
        "pinned": int(np.sum((orbit < 0) & (np.arange(orbit.size) != obs.norm_class))),
    }
    t = projector_lift(obs)
    gamma_p = t @ gamma.value(res.compiled.params_from(res.solution)).real @ t.T
    _, first = np.unique(cls, return_index=True)
    moments = gamma_p[obs.cells[0, first], obs.cells[1, first]]
    return BellResult(value=res.value, gamma=gamma_p, moments=moments, model_result=res)


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

        # Gamma_ij = Re Tr(W_i^dagger W_j) = Re(conj(F) F^T), F the flattened words
        f = np.array([op_of(w).ravel() for w in self.words])
        g = np.concatenate([f.real, f.imag], axis=1)
        return g @ g.T


def haar_state(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def haar_projector(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return q[:, :1] @ q[:, :1].conj().T


def nv_build_basis(task: NVTask, seed: int = 0, max_draws: int = 500):
    """Orthogonal basis of the span of sampled moment matrices.

    Draws strategies until ``_NV_STALL`` consecutive samples project to zero
    against the current span (to ``_NV_TOL``); raises if ``max_draws`` runs out
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
        if np.linalg.norm(resid) <= _NV_TOL * max(scale, 1.0):
            stall += 1
            if stall >= _NV_STALL:
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
    res = model.solve(cfg=cfg)
    return res.value, gamma.value(res.compiled.params_from(res.solution)).real, res


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
        ops.update({g: haar_projector(rng, d) for g in meas})
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
            ops[("a", x)] = np.kron(haar_projector(rng, d_each), eye)
        for y in range(2):
            ops[("b", y)] = np.kron(eye, haar_projector(rng, d_each))
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
