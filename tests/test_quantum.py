from itertools import permutations

import numpy as np
import pytest
from conftest import assert_same_problem, dps_reference, seeded_hermitian

from qsdp.modeling import MatExpr, Model, partial_trace, partial_transpose
from qsdp.quantum import (
    ChoiMatrix,
    DensityMatrix,
    _symmetric_extension,
    apply_choi,
    channel_feasibility,
    choi_of_channel,
    dps_test,
    helstrom_bound,
    qsd_optimal,
    random_pure,
    swap_operator,
    swap_probability_extract,
    werner_state,
)


def ensemble_operator(weights, joint_states, a_states, b_states) -> np.ndarray:
    """W = sum_l p_l |Phi_l><Phi_l| (x) |u_l><u_l| (x) |v_l><v_l| on (A,B,A',B')."""
    total = None
    for p, phi, u, v in zip(weights, joint_states, a_states, b_states):
        phi = np.asarray(phi, dtype=complex)
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        term = p * np.kron(np.kron(np.outer(phi, phi.conj()), np.outer(u, u.conj())), np.outer(v, v.conj()))
        total = term if total is None else total + term
    return total


def random_kraus_channel(rng, d, n_kraus=2):
    """Random trace-preserving channel via a Stinespring isometry."""
    g = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    q, _ = np.linalg.qr(g)
    return [q[k * d : (k + 1) * d, :] for k in range(n_kraus)]


class TestChoi:
    def test_identity_channel(self):
        j = choi_of_channel([np.eye(2)], 2)
        phi = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        assert np.allclose(j.matrix, 2.0 * np.outer(phi, phi))
        rho = random_pure(np.random.default_rng(0), 2)
        assert np.allclose(apply_choi(j, rho), rho.matrix, atol=1e-12)
        assert j.is_trace_preserving

    def test_depolarizing_channel(self):
        j = choi_of_channel(lambda rho: np.trace(rho) * np.eye(2) / 2.0, 2)
        assert np.allclose(j.matrix, np.kron(np.eye(2) / 2.0, np.eye(2)))
        assert j.is_trace_preserving

    def test_tp_iff_partial_trace_identity(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            j = choi_of_channel(random_kraus_channel(rng, 2), 2)
            assert j.is_trace_preserving
            rho = random_pure(rng, 2)
            assert np.trace(apply_choi(j, rho)).real == pytest.approx(1.0, abs=1e-10)
            # break trace preservation and observe both indicators flip
            bad = ChoiMatrix(j.matrix + 0.2 * np.kron(np.diag([1.0, 0.0]), np.eye(2)), 2, 2)
            assert not bad.is_trace_preserving
            assert np.trace(apply_choi(bad, rho)).real != pytest.approx(1.0, abs=1e-3)

    def test_choi_dimension_mismatch(self):
        j = choi_of_channel([np.eye(2)], 2)
        with pytest.raises(ValueError):
            apply_choi(j, np.eye(3) / 3.0)


class TestChannelFeasibility:
    def test_identity_channel_is_feasible(self):
        j_id = choi_of_channel([np.eye(2)], 2).matrix
        out = channel_feasibility(2, fixed_choi=j_id)
        assert out["feasible"]
        assert out["slack"] >= -1e-7  # exact slack is 0: the Choi is rank one

    def test_transpose_map_is_not_a_channel(self):
        # Choi of the transpose map is the SWAP operator: eigenvalue -1
        j_swap = choi_of_channel(lambda rho: rho.T, 2).matrix
        assert np.allclose(j_swap, swap_operator((2, 2), 0, 1))
        assert np.linalg.eigvalsh(j_swap)[0] == pytest.approx(-1.0, abs=1e-12)
        out = channel_feasibility(2, fixed_choi=j_swap)
        assert not out["feasible"]
        assert out["slack"] == pytest.approx(-1.0, abs=1e-6)

    def test_output_observable_bound(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(2, 2))
        m = (m + m.T) / 2
        rho = random_pure(rng, 2)
        out = channel_feasibility(2, objective=np.kron(m, rho.matrix.T))
        lam_max = float(np.linalg.eigvalsh(m)[-1])
        assert out["value"] == pytest.approx(lam_max, abs=1e-6)

    def test_ppt_preserving_constraint(self):
        # maximize the singlet fraction of the output on the maximally mixed
        # input: 1 for general channels, 1/2 once the channel must keep PPT
        # states PPT (a PPT two-qubit state has singlet fraction <= 1/2)
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        objective = np.kron(np.outer(phi, phi), np.eye(4).T / 4.0)
        free = channel_feasibility(4, objective=objective)
        constrained = channel_feasibility(4, objective=objective, ppt_preserving_dims=(2, 2, 2, 2))
        assert free["value"] == pytest.approx(1.0, abs=1e-6)
        assert constrained["value"] == pytest.approx(0.5, abs=1e-5)
        pt = np.asarray(constrained["choi"].matrix)
        from qsdp.modeling import partial_transpose

        assert np.linalg.eigvalsh(partial_transpose(pt, (2, 2, 2, 2), [1, 3]))[0] > -1e-6

    def test_nonsignaling_constraint_emitted(self):
        out = channel_feasibility(4, 4, nonsignaling_b_to_a_dims=(2, 2, 2, 2))
        assert out["feasible"]
        j = out["choi"].matrix
        from qsdp.modeling import partial_trace

        lhs = partial_trace(j, (2, 2, 2, 2), keep=[0, 2, 3])
        marg = partial_trace(j, (2, 2, 2, 2), keep=[0, 2])
        rhs = np.kron(marg, np.eye(2)) / 2.0
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestChannelInputs:
    def test_bipartite_dims_must_split_each_side(self):
        # (4, 4, 1, 1) multiplies to the Choi dimension 16 but splits the
        # output into 16 dimensions
        for name in ("ppt_preserving_dims", "nonsignaling_b_to_a_dims"):
            with pytest.raises(ValueError, match=name):
                channel_feasibility(4, objective=singlet_objective(), **{name: (4, 4, 1, 1)})
            with pytest.raises(ValueError, match=name):
                channel_feasibility(4, **{name: (2, 2, 2)})

    @pytest.mark.parametrize(
        "name, shape", [("fixed_choi", (3, 3)), ("objective", (3, 3)), ("objective", (4, 4, 1)), ("objective", (4, 1))]
    )
    def test_data_must_be_choi_sized(self, name, shape):
        with pytest.raises(ValueError, match=f"{name} must be 4 x 4"):
            channel_feasibility(2, **{name: np.ones(shape)})

    def test_objective_must_be_hermitian(self):
        # Tr(J K) is not real for every Hermitian J when K is not Hermitian
        with pytest.raises(ValueError, match="objective must be Hermitian"):
            channel_feasibility(2, objective=np.arange(16.0).reshape(4, 4))

    def test_fixed_choi_must_be_hermitian(self):
        # J's equalities pin one triangle, so the entry below the diagonal
        # was ignored and this matrix, no Choi matrix, was reported feasible
        j = np.array(choi_of_channel([np.eye(2)], 2).matrix)
        j[3, 0] = 5.0
        with pytest.raises(ValueError, match="fixed_choi must be Hermitian"):
            channel_feasibility(2, fixed_choi=j)

def channel_reference(
    dim_in, dim_out=None, objective=None, ppt_preserving_dims=None, nonsignaling_b_to_a_dims=None, fixed_choi=None
):
    """The channel SDP of ``channel_feasibility`` over a full Hermitian J,
    with both PPT LMIs and the no-signalling map built from dense Kronecker
    products.  Returns the ModelResult."""
    dim_out = dim_out or dim_in
    d = dim_in * dim_out
    model = Model()
    j = model.declare(d, structure="hermitian", field="complex", name="J").expr()
    lmis = [j] + ([j.partial_transpose(ppt_preserving_dims, [1, 3])] if ppt_preserving_dims else [])
    if objective is None:
        t = model.declare(1, structure="symmetric", name="t")
        lmis = [lmi - MatExpr((d, d), terms={t.decl.offset: np.eye(d)}) for lmi in lmis]
        model.maximize(t.entry(0, 0))
    else:
        model.maximize(j.frobenius_with(np.asarray(objective, dtype=complex)))
    for lmi in lmis:
        model.add_lmi(lmi)
    pairs = [(j.partial_trace((dim_out, dim_in), keep=[1]), np.eye(dim_in))]
    if nonsignaling_b_to_a_dims:
        ns = nonsignaling_b_to_a_dims
        ao, bo, ai, bi = ns
        n = ao * ai
        # row c of the map is vec(kron(E_c, I) / b_in) for the unit matrix E_c on (a_out, a_in)
        units = np.eye(n * n).reshape(n * n, n, n)
        kron_map = np.array([np.kron(e, np.eye(bi)).ravel() for e in units]).T / bi
        marg = j.partial_trace(ns, keep=[0, 2]).map_linear(kron_map, (n * bi,) * 2)
        pairs.append((j.partial_trace(ns, keep=[0, 2, 3]) - marg, np.zeros((n * bi,) * 2)))
    if fixed_choi is not None:
        pairs.append((j, np.asarray(fixed_choi, dtype=complex)))
    for expr, target in pairs:
        for r, c in zip(*np.triu_indices(expr.shape[0])):
            model.add_equality(expr.entry(r, c), target[r, c])
    return model.solve()


def singlet_objective() -> np.ndarray:
    """The output's singlet fraction on the maximally mixed two-qubit input."""
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return np.kron(np.outer(phi, phi), np.eye(4) / 4.0)


def tb_invariant_objective(seed: int) -> np.ndarray:
    """A seeded real symmetric matrix on (a_out, b_out, a_in, b_in) that is
    its own partial transpose on (b_out, b_in)."""
    k = np.random.default_rng(seed).normal(size=(16, 16))
    k = k + k.T
    return k + partial_transpose(k, PPT_NS, [1, 3])


PPT_NS = (2, 2, 2, 2)
J_ID = choi_of_channel([np.eye(2)], 2).matrix
J_ID4 = choi_of_channel([np.eye(4)], 4).matrix
J_SWAP = choi_of_channel(lambda rho: rho.T, 2).matrix

# name: keyword arguments of channel_feasibility and channel_reference
CHANNELS = {
    "benchmark": dict(dim_in=4, dim_out=4, ppt_preserving_dims=PPT_NS, nonsignaling_b_to_a_dims=PPT_NS),
    "tp-2": dict(dim_in=2),
    "fixed-identity": dict(dim_in=2, fixed_choi=J_ID),
    "fixed-transpose": dict(dim_in=2, fixed_choi=J_SWAP),
    "fixed-identity-ppt": dict(dim_in=4, fixed_choi=J_ID4, ppt_preserving_dims=PPT_NS),
    "singlet": dict(dim_in=4, objective=singlet_objective(), ppt_preserving_dims=PPT_NS),
    "tb-invariant": dict(dim_in=4, objective=tb_invariant_objective(7), ppt_preserving_dims=PPT_NS, nonsignaling_b_to_a_dims=PPT_NS),
}


class TestChannelSymmetry:
    """``channel_feasibility`` declares J real for real symmetric data, and
    ties it to its partial transpose when the data are their own; the
    reference solves the same SDP over a full Hermitian J."""

    def test_benchmark_channel_is_one_real_block(self):
        res = channel_feasibility(**CHANNELS["benchmark"])["result"]
        assert res.compiled.problem.structure.sdp_blocks == (16,)
        assert res.solution.stats["schur"]["m"] == 78

    def test_real_objective_without_tb_symmetry_keeps_both_lmis_real(self):
        res = channel_feasibility(**CHANNELS["singlet"])["result"]
        assert res.compiled.problem.structure.sdp_blocks == (16, 16)

    def test_complex_objective_compiles_as_over_a_hermitian_j(self):
        kw = dict(CHANNELS["benchmark"], objective=seeded_hermitian(16, 3))
        res = channel_feasibility(**kw)["result"]
        ref = channel_reference(**kw)
        assert res.compiled.problem.structure.sdp_blocks == (32, 32)
        assert_same_problem(res.compiled.problem, ref.compiled.problem)
        assert res.value == ref.value

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_value_matches_the_hermitian_model(self, name):
        out = channel_feasibility(**CHANNELS[name])
        ref = channel_reference(**CHANNELS[name])
        assert out["result"].success == ref.success
        assert out["value"] == pytest.approx(ref.value, abs=1e-6)
        assert out["result"].solution.stats["iterations"] <= ref.solution.stats["iterations"]

    @pytest.mark.parametrize("name", ["benchmark", "tb-invariant"])
    def test_choi_is_a_ppt_nonsignalling_channel(self, name):
        assert_ppt_channel(channel_feasibility(**CHANNELS[name])["choi"].matrix, nonsignalling=True)


def complex_tb_invariant_objective(seed: int) -> np.ndarray:
    """K + K^{T_B} for a seeded complex Hermitian K on (a_out, b_out, a_in, b_in)."""
    k = seeded_hermitian(16, seed)
    return k + partial_transpose(k, PPT_NS, [1, 3])


def assert_ppt_channel(m, nonsignalling: bool):
    """m is the Choi matrix of a CP, trace-preserving, PPT-preserving 4 -> 4
    channel, and no-signalling from B to A when asked."""
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(m)[0] >= -1e-6
    assert np.max(np.abs(partial_trace(m, (4, 4), keep=[1]) - np.eye(4))) <= 1e-6
    assert np.linalg.eigvalsh(partial_transpose(m, PPT_NS, [1, 3]))[0] >= -1e-6
    if nonsignalling:
        lhs = partial_trace(m, PPT_NS, keep=[0, 2, 3])
        rhs = np.kron(partial_trace(m, PPT_NS, keep=[0, 2]), np.eye(2)) / 2.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-6


class TestComplexTbInvariantChannel:
    """Complex data that are their own T_B tie J's cells over {id, T_B}: one
    Hermitian 16-block, embedded as one real 32-block, against the
    reference's two."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("nonsignalling, schur_m", [(False, 148), (True, 124)])
    def test_one_block_with_the_hermitian_models_value(self, seed, nonsignalling, schur_m):
        kw = dict(dim_in=4, objective=complex_tb_invariant_objective(seed), ppt_preserving_dims=PPT_NS)
        if nonsignalling:
            kw["nonsignaling_b_to_a_dims"] = PPT_NS
        out = channel_feasibility(**kw)
        res, ref = out["result"], channel_reference(**kw)
        assert res.compiled.problem.structure.sdp_blocks == (32,)
        assert ref.compiled.problem.structure.sdp_blocks == (32, 32)
        assert res.solution.stats["schur"]["m"] == schur_m
        assert res.success and ref.success
        assert out["value"] == pytest.approx(ref.value, abs=1e-6)
        # the merged LMI carries weight 1 where the reference's pair carries
        # 2, so the central paths differ: seed 5 with no-signalling takes 13
        # iterations against 12
        assert res.solution.stats["iterations"] <= ref.solution.stats["iterations"] + 1
        assert_ppt_channel(out["choi"].matrix, nonsignalling)

class TestDps:
    def test_k1_slack_matches_partial_transpose_oracle(self):
        for p in (0.1, 0.25, 0.4, 0.5, 0.9):
            res = dps_test(werner_state(p), (2, 2), k=1, ppt=True)
            oracle = min((1 - p) / 4.0, (1 - 3 * p) / 4.0)
            assert res.slack == pytest.approx(oracle, abs=1e-6)
            assert res.feasible == (1 - 3 * p >= -1e-7)

    def test_werner_quarter_feasible_at_k2(self):
        res = dps_test(werner_state(0.25), (2, 2), k=2, ppt=True)
        assert res.feasible
        ext = res.extension
        from qsdp.modeling import partial_trace

        assert np.max(np.abs(partial_trace(ext, (2, 2, 2), keep=[0, 1]) - werner_state(0.25).matrix)) < 1e-6

    def test_werner_half_infeasible_k1_and_k2(self):
        for k in (1, 2):
            res = dps_test(werner_state(0.5), (2, 2), k=k, ppt=True)
            assert not res.feasible
            assert res.witness_dual is not None

    def test_product_state_feasible(self):
        rng = np.random.default_rng(5)
        rho = DensityMatrix(np.kron(random_pure(rng, 2).matrix, random_pure(rng, 2).matrix))
        for k in (1, 2):
            assert dps_test(rho, (2, 2), k=k, ppt=True).feasible

    def test_memory_guard(self):
        with pytest.raises(MemoryError):
            dps_test(werner_state(0.1), (2, 2), k=6)

    def test_k1_slack_without_ppt_is_the_smallest_eigenvalue(self):
        # without the partial transposes the only k = 1 extension is rho itself
        for p, want in ((0.25, 0.1875), (0.5, 0.125)):
            res = dps_test(werner_state(p), (2, 2), k=1, ppt=False)
            assert res.slack == pytest.approx(want, abs=1e-6)
            assert res.slack == pytest.approx(np.linalg.eigvalsh(werner_state(p).matrix)[0], abs=1e-6)
            assert res.feasible

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ppt_conditions_only_lower_the_slack(self, k):
        for p in (0.25, 0.5):
            free = dps_test(werner_state(p), (2, 2), k=k, ppt=False)
            assert free.feasible
            assert free.slack >= dps_test(werner_state(p), (2, 2), k=k, ppt=True).slack


def locally_rotated_werner(p, seed):
    """A Werner state under a random local unitary: complex, same spectra."""
    rng = np.random.default_rng(seed)
    u = np.kron(*[np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(2)])
    return DensityMatrix(u @ werner_state(p).matrix @ u.conj().T)


def sort_keyed_orbits(dims_ext) -> np.ndarray:
    """The orbit number of each cell (row-major) of a matrix on A (x) B^k
    under the permutations of the B copies: cell (i, j) is keyed by a_i,
    a_j and the sorted pairs (b_t(i), b_t(j)) of the k copies."""
    d, d_b = int(np.prod(dims_ext)), dims_ext[1]
    i, j = np.divmod(np.arange(d * d), d)
    a_i, *b_i = np.unravel_index(i, dims_ext)
    a_j, *b_j = np.unravel_index(j, dims_ext)
    pairs = np.sort(np.multiply(b_i, d_b) + b_j, axis=0)
    return np.unique(np.vstack([a_i, a_j, pairs]), axis=1, return_inverse=True)[1]

class TestDpsOrbitBasis:
    """``dps_test`` declares the extension in the orbit basis of the B-copy
    permutations; the reference imposes the symmetry by equalities."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("state", ["werner-0.25", "werner-0.5", "rotated-0.3"])
    def test_slack_matches_the_permutation_equality_model(self, k, state):
        kind, p = state.split("-")
        rho = werner_state(float(p)) if kind == "werner" else locally_rotated_werner(float(p), 3)
        res = dps_test(rho, (2, 2), k=k)
        ref = dps_reference(rho, (2, 2), k)
        assert res.model_result.success and ref.success
        assert res.slack == pytest.approx(ref.value, abs=1e-9)
        assert res.model_result.solution.stats["iterations"] == ref.solution.stats["iterations"]

    @pytest.mark.parametrize("state", ["werner", "rotated"])
    def test_extension_is_permutation_invariant_and_traces_back(self, state):
        rho = werner_state(0.25) if state == "werner" else locally_rotated_werner(0.25, 4)
        res = dps_test(rho, (2, 2), k=3)
        assert res.feasible
        ext = res.extension.reshape([2] * 8)
        for perm in permutations([1, 2, 3]):
            axes = [0, *perm, 4, *(4 + q for q in perm)]
            assert np.max(np.abs(ext.transpose(axes) - ext)) <= 1e-9
        assert np.max(np.abs(res.extension - res.extension.conj().T)) <= 1e-9
        assert np.max(np.abs(partial_trace(res.extension, (2, 2, 2, 2), keep=[0, 1]) - rho.matrix)) <= 1e-6

    @pytest.mark.parametrize("dims, k", [(dims, k) for dims, top in (((2, 2), 5), ((2, 3), 3), ((3, 2), 4)) for k in range(1, top + 1)])
    def test_orbits_match_the_sort_keyed_partition(self, dims, k):
        dims_ext = (dims[0],) + (dims[1],) * k
        d = int(np.prod(dims_ext))
        model = Model()
        expr = _symmetric_extension(model, dims_ext)
        # at a generic point two cells hold equal values exactly when they
        # share an orbit: each orbit has its own real or imaginary parameter
        values = expr.value(np.random.default_rng(0).normal(size=model.nparams)).ravel()
        got = np.unique(values, return_inverse=True)[1]
        want = sort_keyed_orbits(dims_ext)
        assert got.size == want.size == d * d
        assert np.unique(np.stack([got, want]), axis=1).shape[1] == got.max() + 1 == want.max() + 1

    def test_k3_has_only_the_partial_trace_equalities(self):
        model = dps_test(werner_state(0.25), (2, 2), k=3).model_result.compiled.model
        assert len(model.equalities) == 16
        assert model.nparams == 81
        assert [(v.name, v.nparams) for v in model.vars] == [("ext", 80), ("t", 1)]


class TestSwapExtraction:
    def test_swap_matrix_qubits(self):
        expected = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
        assert np.array_equal(swap_operator((2, 2), 0, 1), expected)

    def test_single_term_perfect_overlap(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        w = ensemble_operator([1.0], [np.kron(u, v)], [u], [v])
        assert swap_probability_extract(w, (2, 2), "both") == pytest.approx(1.0, abs=1e-12)

    def test_matches_born_rule_oracle(self):
        rng = np.random.default_rng(9)
        weights = rng.dirichlet(np.ones(3))
        phis, us, vs = [], [], []
        for _ in range(3):
            phi = rng.normal(size=4) + 1j * rng.normal(size=4)
            phis.append(phi / np.linalg.norm(phi))
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            us.append(u / np.linalg.norm(u))
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            vs.append(v / np.linalg.norm(v))
        w = ensemble_operator(weights, phis, us, vs)
        got = swap_probability_extract(w, (2, 2), "both")
        oracle = 0.0
        for p, phi, u, v in zip(weights, phis, us, vs):
            proj = np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
            oracle += p * np.real(phi.conj() @ proj @ phi)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_single_side_marginal(self):
        rng = np.random.default_rng(11)
        weights = rng.dirichlet(np.ones(2))
        phis, us, vs = [], [], []
        for _ in range(2):
            phi = rng.normal(size=4) + 1j * rng.normal(size=4)
            phis.append(phi / np.linalg.norm(phi))
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            us.append(u / np.linalg.norm(u))
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            vs.append(v / np.linalg.norm(v))
        w = ensemble_operator(weights, phis, us, vs)
        got = swap_probability_extract(w, (2, 2), "A")
        oracle = 0.0
        for p, phi, u, _ in zip(weights, phis, us, vs):
            proj = np.kron(np.outer(u, u.conj()), np.eye(2))
            oracle += p * np.real(phi.conj() @ proj @ phi)
        assert got == pytest.approx(oracle, abs=1e-10)


class TestQsd:
    def test_orthogonal_states(self):
        value, povm, res = qsd_optimal([DensityMatrix.pure([1, 0]), DensityMatrix.pure([0, 1])])
        assert res.success
        assert value == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(sum(povm), np.eye(2), atol=1e-8)

    def test_identical_states(self):
        rho = DensityMatrix.pure([1, 1j])
        value, _, _ = qsd_optimal([rho, rho])
        assert value == pytest.approx(0.5, abs=1e-7)

    def test_helstrom_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            r1, r2 = random_pure(rng, 2), random_pure(rng, 2)
            value, _, _ = qsd_optimal([r1, r2])
            c2 = float(np.real(np.trace(r1.matrix @ r2.matrix)))  # |<psi|phi>|^2
            target = (1 + np.sqrt(1 - c2)) / 2
            assert value == pytest.approx(target, abs=1e-6)
            assert value == pytest.approx(helstrom_bound(r1, r2), abs=1e-6)

    def test_bloch_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        r1, r2 = random_pure(rng, 2), random_pure(rng, 2)
        value, _, _ = qsd_optimal([r1, r2])
        # scan 10^4 projective measurements on the Bloch sphere
        n = 10**4
        us = rng.normal(size=(n, 3))
        us /= np.linalg.norm(us, axis=1)[:, None]
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        best = 0.0
        for u in us:
            proj = (np.eye(2) + u[0] * sx + u[1] * sy + u[2] * sz) / 2.0
            p = 0.5 * np.real(np.trace(r1.matrix @ proj)) + 0.5 * np.real(np.trace(r2.matrix @ (np.eye(2) - proj)))
            best = max(best, p, 1 - p)
        assert value == pytest.approx(best, abs=1e-3)

    def test_priors_validated(self):
        rho = DensityMatrix.pure([1, 0])
        with pytest.raises(ValueError):
            qsd_optimal([rho, rho], priors=[0.7, 0.7])

    def test_three_states_qubit(self):
        # trine states: known optimum 2/3 for symmetric discrimination
        states = [DensityMatrix.pure([np.cos(k * 2 * np.pi / 3 / 2), np.sin(k * 2 * np.pi / 3 / 2)]) for k in range(3)]
        value, povm, _ = qsd_optimal(states)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert np.allclose(sum(povm), np.eye(2), atol=1e-7)


class TestChoiJson:
    def test_roundtrip(self):
        j = choi_of_channel(lambda r: r.T, 2)
        j2 = ChoiMatrix.from_json_dict(j.to_json_dict())
        assert np.allclose(j.matrix, j2.matrix)
        assert (j2.dim_in, j2.dim_out) == (2, 2)
