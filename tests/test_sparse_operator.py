"""The sparse constraint operator against a dense reference built here.

``ConeProblem`` keeps A only as one CSR matrix; the dense reference below is
rebuilt from the materialized rows (``p.constraints``), so apply, adjoint and
the Schur matrix are checked against the textbook formulas they replace.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import orthogonal_mix, seeded_hermitian

import qsdp.ipm as ipm
from qsdp import BlockStructure, ConeProblem, SolverConfig, SymBlockMat, frobenius_inner, solve
from qsdp.ipm import Iterate, _DirectionContext, split_free
from qsdp.sdpa import _split_pairs
from qsdp.npa import Scenario, chsh_functional, solve_bell
from qsdp.quantum import channel_feasibility, dps_test, werner_state

STRUCTURES = [
    BlockStructure((3,)),
    BlockStructure((2, 4, 1), nonneg_dim=3),
    BlockStructure((3, 2), nonneg_dim=2, free_dim=2),
    BlockStructure((), nonneg_dim=4, free_dim=1),
]


def sparse_elem(rng, st, density=0.4):
    """Random element with about ``density`` of its entries nonzero."""

    def keep(shape):
        return rng.normal(size=shape) * (rng.random(shape) < density)

    blocks = []
    for n in st.sdp_blocks:
        b = keep((n, n))
        blocks.append(b + b.T)
    return SymBlockMat(st, blocks, keep(st.nonneg_dim), keep(st.free_dim))


def random_problem(rng, st, m=6, density=0.4):
    rows = [sparse_elem(rng, st, density) for _ in range(m)]
    rows[1] = SymBlockMat.zeros(st)  # an empty row stays a row
    return ConeProblem(sparse_elem(rng, st, 1.0), rows, rng.normal(size=m))


def spd(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T + n * np.eye(n)


def interior_iterate(rng, p):
    def elem():
        st = p.structure
        return SymBlockMat(st, [spd(rng, n) for n in st.sdp_blocks], rng.uniform(0.5, 2.0, size=st.nonneg_dim))

    return Iterate(x=elem(), y=rng.normal(size=p.num_constraints), z=elem())


def dense_schur(p, it, direction):
    """B_ij = <A_i, K(A_j)> from the materialized rows, block by block."""
    rows = p.constraints
    ctx = _DirectionContext(p, it, direction, ipm._SchurPlan(p))  # only for Z^-1 and W
    b = np.zeros((len(rows), len(rows)))
    for k in range(len(p.structure.sdp_blocks)):
        a = np.array([r.blocks[k] for r in rows])  # A_1 .. A_m restricted to block k
        lft, rgt = (it.x.blocks[k], ctx.zinv[k]) if direction == "hkm" else (ctx.w_nt[k],) * 2
        b += a.reshape(len(rows), -1) @ (lft @ a @ rgt).reshape(len(rows), -1).T
    a_nn = np.array([r.nonneg for r in rows]).reshape(len(rows), -1)
    b += (a_nn * (it.x.nonneg / it.z.nonneg)) @ a_nn.T
    return (b + b.T) / 2.0, ctx.schur(it)


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("st", STRUCTURES, ids=str)
def test_apply_and_adjoint_match_dense_rows(st):
    rng = np.random.default_rng(7)
    for p in (random_problem(rng, st), split_free(random_problem(rng, st)).problem):
        rows = p.constraints
        x = sparse_elem(rng, p.structure, 1.0)
        y = rng.normal(size=len(rows))
        want_apply = np.array([frobenius_inner(a, x) for a in rows])
        want_adjoint = SymBlockMat.zeros(p.structure)
        for yi, a in zip(y, rows):
            want_adjoint = want_adjoint + float(yi) * a
        assert rel_err(p.apply(x), want_apply) <= 1e-12
        assert rel_err(p.adjoint(y).flat(), want_adjoint.flat()) <= 1e-12


SCHUR_CASES = [
    pytest.param(st, direction, density, id=f"{st}-{direction}-{density}")
    for st in STRUCTURES
    for direction in ("hkm", "nt")
    for density in (0.1, 0.9)
] + [
    pytest.param(source, direction, None, id=f"{source}-{direction}")
    for source in ("dps-k3", "dps-k3-mixed")
    for direction in ("hkm", "nt")
]


@pytest.mark.parametrize("source, direction, density", SCHUR_CASES)
def test_schur_matches_dense_reference(request, source, direction, density):
    # after symmetrizing, the random rows fill about 0.2 or all of each SDP
    # block; the reference DPS model's rows are sparse with supports of
    # varied size, and an orthogonal mix of them is 92 % full
    if isinstance(source, str):
        rng = np.random.default_rng(2)
        q = request.getfixturevalue("dps_k3").compiled.problem
        q = orthogonal_mix(q, 1) if source == "dps-k3-mixed" else q
    else:
        rng = np.random.default_rng(11)
        q = split_free(random_problem(rng, source, density=density)).problem
    want, got = dense_schur(q, interior_iterate(rng, q), direction)
    assert rel_err(got, want) <= 1e-12


def several_chunk_problem(rng):
    """One 64 x 64 block and 400 constraints touching 1, 2, 3 or 5 of its rows,
    so every support size fills more than one chunk of the Schur plan."""
    n, st = 64, BlockStructure((64,), nonneg_dim=2)
    rows = []
    for s in np.repeat([1, 2, 3, 5], 100):
        sup = rng.choice(n, size=s, replace=False)
        blk = np.zeros((n, n))
        blk[np.ix_(sup, sup)] = rng.normal(size=(s, s))
        blk[sup, sup] += 1.0  # every support row holds a nonzero
        rows.append(SymBlockMat(st, [blk + blk.T], rng.normal(size=2) * (rng.random(2) < 0.3)))
    return ConeProblem(sparse_elem(rng, st, 1.0), rows, rng.normal(size=len(rows)))


@pytest.mark.parametrize("direction", ["hkm", "nt"])
def test_schur_matches_dense_reference_over_several_chunks(direction):
    rng = np.random.default_rng(5)
    p = several_chunk_problem(rng)
    chunks = ipm._SchurPlan(p).blocks[0][1]
    # support sizes 1, 2, 3 and 5 round up to the buckets 1, 2, 4 and 8
    assert sorted({sup.shape[1] for _, sup, _ in chunks}) == [1, 2, 4, 8]
    assert len(chunks) > 4
    want, got = dense_schur(p, interior_iterate(rng, p), direction)
    assert rel_err(got, want) <= 1e-12


def test_support_plan_rebuilds_the_full_dps_rows(dps_k3):
    # every block of the reference DPS model, its sparse rows and an
    # orthogonal mix of them 92 % full, goes through the support plan: its
    # chunks must hold each constraint once and rebuild it.  A padded
    # support repeats its last row with zeros in a_sub, so the entries are
    # added, not assigned
    for p in (dps_k3.compiled.problem, orthogonal_mix(dps_k3.compiled.problem, 1)):
        for k, (_, chunks) in enumerate(ipm._SchurPlan(p).blocks):
            n = p.structure.sdp_blocks[k]
            want = np.array([r.blocks[k] for r in p.constraints])
            touched = np.concatenate([js for js, _, _ in chunks])
            assert np.array_equal(np.sort(touched), np.flatnonzero(np.any(want != 0, axis=(1, 2))))
            got = np.zeros((p.num_constraints, n, n))
            for js, sup, a_sub in chunks:
                np.add.at(got, (js[:, None, None], sup[:, :, None], sup[:, None, :]), a_sub)
            assert np.array_equal(got, want)


def test_dps_solve_agrees_on_both_directions(dps_k3):
    hkm = dps_k3.solution
    nt, _ = solve(dps_k3.compiled.problem, SolverConfig(direction="nt"))
    assert hkm.stats["direction"] == "hkm" and nt.stats["direction"] == "nt"
    assert hkm.success and nt.success
    assert nt.dual_value == pytest.approx(hkm.dual_value, abs=1e-8)
    assert nt.primal_value == pytest.approx(hkm.primal_value, abs=1e-8)


def test_schur_stats_give_the_order(dps_k3):
    assert dps_k3.solution.stats["schur"] == {"m": 65}
    chsh = solve_bell(Scenario.chsh(), 1, chsh_functional()).model_result
    assert chsh.solution.stats["schur"] == {"m": chsh.compiled.problem.num_constraints}


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("free_dim", [0, 1])
def test_one_schur_per_iteration_and_one_residual_per_iterate(monkeypatch, free_dim):
    structure = BlockStructure((3,), nonneg_dim=1, free_dim=free_dim)
    e = lambda i, j: np.eye(3)[[i]].T @ np.eye(3)[[j]]
    lift = lambda m, nn=0.0, fr=0.0: SymBlockMat(structure, [m + m.T], [nn], [fr] * free_dim)
    p = ConeProblem(
        lift(np.eye(3), 1.0, 0.0),
        [lift(e(0, 0)), lift(e(1, 1), 1.0), lift(e(0, 1) + e(2, 2), 0.0, 1.0)],
        [1.0, 2.0, 0.5],
    )
    plans = _counting(monkeypatch, ipm, "_SchurPlan")
    schur = _counting(monkeypatch, _DirectionContext, "schur")
    res = _counting(monkeypatch, ipm, "residuals")
    sol, log = solve(p)
    assert sol.success
    its = sol.stats["iterations"]
    assert its == len(log) > 0
    assert len(plans) == 1
    assert len(schur) == its
    # the cold start and every step's iterate, with free variables too: the
    # reduced problem's residual norms are the original problem's
    assert len(res) == its + 1


def reference_support_chunks(a_k, n):
    """_support_chunks built the slow way: each constraint's support by
    np.unique, its bucket by doubling, its padded support and A_sub one
    constraint at a time; needs no sorted indices."""
    m = a_k.shape[0]
    g_max = max(1, ipm._SCHUR_CHUNK_FLOATS // (n * n))
    buckets = {}
    for j in range(m):
        lo, hi = a_k.indptr[j], a_k.indptr[j + 1]
        if lo == hi:
            continue
        rows, cols = np.divmod(a_k.indices[lo:hi], n)
        sup = np.unique(rows)
        s = 1
        while s < sup.size:
            s *= 2
        s = min(s, n)
        padded = np.concatenate([sup, np.repeat(sup[-1], s - sup.size)])
        sub = np.zeros((s, s))
        sub[np.searchsorted(sup, rows), np.searchsorted(sup, cols)] = a_k.data[lo:hi]
        buckets.setdefault(s, []).append((j, padded, sub))
    chunks = []
    for s in sorted(buckets):
        entries = buckets[s]
        for lo in range(0, len(entries), g_max):
            part = entries[lo : lo + g_max]
            chunks.append(
                (
                    np.array([j for j, _, _ in part], dtype=np.int64),
                    np.array([sup for _, sup, _ in part], dtype=np.int64).reshape(len(part), s),
                    np.array([sub for _, _, sub in part]).reshape(len(part), s, s),
                )
            )
    return chunks


class _Compiled(Exception):
    """Carries the problem handed to the IPM, so a test compiles without solving."""


def compiled_problem(monkeypatch, build):
    def stop(p, cfg, iterate_hook):
        raise _Compiled(p)

    monkeypatch.setattr(ipm, "_solve", stop)
    with pytest.raises(_Compiled) as caught:
        build()
    return caught.value.args[0]


CHUNK_PROBLEMS = {
    "dps-k3": lambda: dps_test(werner_state(0.25), (2, 2), k=3),
    # real data: one real 16-block, J tied to its partial transpose
    "channel": lambda: channel_feasibility(
        4, 4, ppt_preserving_dims=(2, 2, 2, 2), nonsignaling_b_to_a_dims=(2, 2, 2, 2)
    ),
    # a complex objective keeps J Hermitian: two real-embedded 32-blocks, m = 204
    "channel-complex": lambda: channel_feasibility(
        4, 4, objective=seeded_hermitian(16, 3), ppt_preserving_dims=(2, 2, 2, 2), nonsignaling_b_to_a_dims=(2, 2, 2, 2)
    ),
    # seeded coefficients on every P(a,b|x,y): no relabelling fixes them, so
    # no moments are tied and A keeps I3322's m = 867 rows (a functional with
    # symmetries, such as CHSH's, would tie moments and shrink A)
    "i3322-l3": lambda: solve_bell(Scenario((3, 3), ((2, 2, 2), (2, 2, 2))), 3, untied_i3322_functional()),
}


def untied_i3322_functional() -> dict:
    c = np.random.default_rng(19).normal(size=(2, 2, 3, 3))
    return {key: float(c[key]) for key in np.ndindex(c.shape)}


def test_untied_i3322_keeps_every_moment(monkeypatch):
    p = compiled_problem(monkeypatch, CHUNK_PROBLEMS["i3322-l3"])
    assert p.num_constraints == 867 and p.structure.sdp_blocks == (88,)


@pytest.mark.parametrize("name, limit", [("dps-k3", 6000), ("channel", 4000)])
def test_eliminated_equalities_leave_sparse_rows(monkeypatch, name, limit):
    # each null-space vector of the equalities lives on one connected
    # component of their row-column graph; one SVD of the whole system gave
    # 14 672 nonzeros on dps-k3 and about 8 300 on the channel
    assert split_free(compiled_problem(monkeypatch, CHUNK_PROBLEMS[name])).problem.a.nnz <= limit


def block_slices(q):
    offsets = q.structure.flat_offsets()
    for k, n in enumerate(q.structure.sdp_blocks):
        yield q.a[:, offsets[k] : offsets[k + 1]], n


def assert_same_chunks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("name", [*CHUNK_PROBLEMS, "random", "several-chunks"])
def test_support_chunks_match_the_unique_construction(monkeypatch, name):
    if name in CHUNK_PROBLEMS:
        problems = [compiled_problem(monkeypatch, CHUNK_PROBLEMS[name])]
    elif name == "random":
        rng = np.random.default_rng(13)
        problems = [random_problem(rng, st, density=density) for st in STRUCTURES for density in (0.1, 0.5)]
    else:
        problems = [several_chunk_problem(np.random.default_rng(5))]
    seen = unsorted = 0
    for p in problems:
        for a_k, n in block_slices(split_free(p).problem):
            seen += a_k.nnz > 0
            want = reference_support_chunks(a_k, n)
            assert_same_chunks(ipm._support_chunks(a_k, n), want)
            # the same matrix with each row's entries reversed, so unsorted
            row = np.repeat(np.arange(a_k.shape[0]), np.diff(a_k.indptr))
            rev = a_k.indptr[row] + a_k.indptr[row + 1] - 1 - np.arange(a_k.nnz)
            shuffled = sp.csr_array((a_k.data[rev], a_k.indices[rev], a_k.indptr), shape=a_k.shape)
            unsorted += not shuffled.has_sorted_indices
            assert_same_chunks(ipm._support_chunks(shuffled, n), want)
    assert seen > 0 and unsorted > 0


@pytest.mark.parametrize("name", CHUNK_PROBLEMS)
def test_bucketed_chunks_hold_each_constraint_once_padded_with_zeros(monkeypatch, name):
    p = compiled_problem(monkeypatch, CHUNK_PROBLEMS[name])
    q = split_free(p).problem
    plan = ipm._SchurPlan(q)
    for (a_k, chunks), n in zip(plan.blocks, q.structure.sdp_blocks):
        rows = np.repeat(np.arange(a_k.shape[0]), np.diff(a_k.indptr))
        touched = [np.unique(a_k.indices[rows == j] // n) for j in range(a_k.shape[0])]
        js = np.concatenate([c[0] for c in chunks])
        assert np.array_equal(np.sort(js), [j for j, sup in enumerate(touched) if sup.size])
        for js, sup, a_sub in chunks:
            s = sup.shape[1]
            for j, row, sub in zip(js, sup, a_sub):
                t = touched[j].size
                assert s == min(1 << (t - 1).bit_length(), n)  # the power of two at or above t, at most n
                assert np.array_equal(row[:t], touched[j]) and np.all(row[t:] == row[t - 1])
                assert not np.any(sub[t:]) and not np.any(sub[:, t:])
    rng = np.random.default_rng(17)
    it = interior_iterate(rng, q)
    for direction in ("hkm", "nt"):
        want, got = dense_schur(q, it, direction)
        assert rel_err(got, want) <= 1e-12


def test_adjoint_reads_the_stored_transpose():
    rng = np.random.default_rng(23)
    for st in STRUCTURES:
        p = split_free(random_problem(rng, st, m=9)).problem
        y = rng.normal(size=p.num_constraints)
        assert p.a_t.format == "csr" and p.a_t.shape == p.a.T.shape
        assert np.array_equal(p.adjoint(y).flat(), p.a.T @ y)


def test_adjoint_blocks_need_no_average():
    # ConeProblem makes every row bitwise symmetric, asymmetric CSR input
    # included, so the blocks of A^T y are too: adjoint does not average
    # them, and they equal those of the averaging constructor bit for bit
    rng = np.random.default_rng(29)
    for st in STRUCTURES:
        dense = rng.normal(size=(9, st.flat_dim)) * (rng.random((9, st.flat_dim)) < 0.3)
        for p in (random_problem(rng, st, m=9), ConeProblem(sparse_elem(rng, st, 1.0), sp.csr_array(dense), np.ones(9))):
            y = rng.normal(size=p.num_constraints)
            got, want = p.adjoint(y), SymBlockMat.from_flat(st, p.a_t @ y)
            for g, w in zip(got.blocks, want.blocks):
                assert np.array_equal(g, g.T) and np.array_equal(g, w)


def test_direction_context_keeps_one_schur_matrix(monkeypatch):
    # B is symmetrized and Cholesky-factored in place; only the scalings and
    # small per-block arrays are kept beside it
    q = split_free(compiled_problem(monkeypatch, CHUNK_PROBLEMS["i3322-l3"])).problem
    plan = ipm._SchurPlan(q)
    it = interior_iterate(np.random.default_rng(29), q)
    m = q.num_constraints
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctx = _DirectionContext(q, it, "hkm", plan)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ctx.cho is not None
    assert kept <= 1.2 * m * m * 8


def test_schur_symmetrization_copies_no_transpose():
    # B = (B + B^T) / 2 in place by bands of rows: a whole-matrix b += b.T
    # would copy the overlapping m x m transpose and peak at 2 m^2 floats
    rng = np.random.default_rng(47)
    m, n, nnz = 2000, 64, 40000
    a = sp.csr_array((rng.normal(size=nnz), (rng.integers(0, m, nnz), rng.integers(0, n * n, nnz))), shape=(m, n * n))
    p = ConeProblem(sparse_elem(rng, BlockStructure((n,)), 1.0), a, rng.normal(size=m))
    it = interior_iterate(rng, p)
    ctx = _DirectionContext(p, it, "hkm", ipm._SchurPlan(p))
    tracemalloc.start()
    try:
        b = ctx.schur(it)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * m * m * 8
    assert np.array_equal(b, b.T)


def dense_add_schur(ctx, it):
    """The HKM ctx.schur(it) with its nonnegative part added as a dense m x m
    array: the chunks of the plan, then A_nn diag(x / z) A_nn^T made dense,
    then (B + B^T) / 2."""
    m = ctx.p.num_constraints
    b = np.zeros((m, m))
    for k, (a_k, chunks) in enumerate(ctx.plan.blocks):
        for js, sup, a_sub in chunks:
            u = (it.x.blocks[k][:, sup].transpose(1, 0, 2) @ a_sub @ ctx.zinv[k][sup]).reshape(js.size, -1)
            b[js] += (a_k @ u.T).T
    scaled = ctx.plan.a_nn.copy()
    scaled.data *= (it.x.nonneg / it.z.nonneg)[scaled.indices]
    b += (scaled @ ctx.plan.a_nn.T).toarray()
    return (b + b.T) / 2.0


def test_schur_adds_the_nonnegative_part_in_place():
    # a problem split into pairs, as for SDPA: 200 free entries give 400 of
    # its 600 nonnegative ones.
    # A dense A_nn diag(x / z) A_nn^T would be a second m x m array (a peak
    # of about 2.1 m^2 floats here)
    rng = np.random.default_rng(53)
    m, n, nf, nnz = 1500, 40, 200, 20000
    st = BlockStructure((n,), nonneg_dim=nf, free_dim=nf)
    cols = np.concatenate([rng.integers(0, n * n, nnz), n * n + rng.integers(0, 2 * nf, nnz // 4)])
    a = sp.csr_array((rng.normal(size=cols.size), (rng.integers(0, m, cols.size), cols)), shape=(m, st.flat_dim))
    q = _split_pairs(ConeProblem(sparse_elem(rng, st, 1.0), a, rng.normal(size=m)))
    assert q.structure.nonneg_dim == 600
    it = interior_iterate(rng, q)
    ctx = _DirectionContext(q, it, "hkm", ipm._SchurPlan(q))
    tracemalloc.start()
    try:
        b = ctx.schur(it)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * m * m * 8
    assert np.array_equal(b, dense_add_schur(ctx, it))


@pytest.mark.parametrize("direction", ["hkm", "nt"])
def test_schur_reuses_the_plans_work_arrays(monkeypatch, direction):
    # each chunk's products go into the two work arrays the plan holds for
    # the solve: a later build gives the same B bit for bit, and maps no
    # fresh g x n^2 arrays (a fresh product and its C-ordered transpose
    # would take twice the largest chunk beside B).  The real channel's B is
    # too small (m = 78) for the bound to tell the two apart
    q = split_free(compiled_problem(monkeypatch, CHUNK_PROBLEMS["channel-complex"])).problem
    plan = ipm._SchurPlan(q)
    largest = max(js.size * n * n for (_, chunks), n in zip(plan.blocks, q.structure.sdp_blocks) for js, _, _ in chunks)
    it = interior_iterate(np.random.default_rng(37), q)
    ctx = _DirectionContext(q, it, direction, plan)
    first = ctx.schur(it)
    tracemalloc.start()
    try:
        second = ctx.schur(it)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = q.num_constraints
    assert np.array_equal(second, first)
    assert peak <= (m * m + largest) * 8
    assert all(w.size == largest for w in plan.work)
    if direction == "hkm":  # the products' arithmetic is the fresh arrays'
        assert np.array_equal(second, dense_add_schur(ctx, it))


@pytest.mark.parametrize("direction", ["hkm", "nt"])
def test_failed_cholesky_takes_the_indefinite_solve(monkeypatch, direction):
    rng = np.random.default_rng(31)
    st = BlockStructure((5, 3), nonneg_dim=2, free_dim=1)
    rows = [sparse_elem(rng, st, 0.5) for _ in range(8)]
    p = split_free(ConeProblem(sparse_elem(rng, st, 1.0), rows, rng.normal(size=len(rows)))).problem
    it = interior_iterate(rng, p)
    want_b, _ = dense_schur(p, it, direction)

    potrf = ipm._POTRF

    def fail(a, lower=0, overwrite_a=0, clean=1):
        if not overwrite_a:  # the Z blocks' inverses factor a copy
            return potrf(a, lower=lower, clean=clean)
        a[:] = np.nan  # a failed factorization leaves its input overwritten
        return a, 1  # info > 0: B is not positive definite

    monkeypatch.setattr(ipm, "_POTRF", fail)
    ctx = _DirectionContext(p, it, direction, ipm._SchurPlan(p))
    assert ctx.cho is None
    h = rng.normal(size=p.num_constraints)
    assert rel_err(ctx.solve(h), np.linalg.solve(want_b, h)) <= 1e-10
