import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsdp import (
    BlockStructure,
    StructureMismatchError,
    SymBlockMat,
    embed_hermitian,
    frobenius_inner,
    is_psd,
    mat,
    recover_complex,
    schur_complement,
    sylvester_psd_oracle,
    vec,
)


def one_block(m, nonneg=(), free=()):
    m = np.asarray(m, dtype=float)
    st_ = BlockStructure((m.shape[0],), len(nonneg), len(free))
    return SymBlockMat(st_, [m], np.asarray(nonneg, dtype=float), np.asarray(free, dtype=float))


class TestFrobenius:
    def test_identity_trace(self):
        assert frobenius_inner(one_block(np.eye(2)), one_block(np.eye(2))) == 2.0

    def test_elementwise_sum(self):
        a = one_block([[1, 2], [2, 4]])
        b = one_block([[5, 6], [6, 8]])
        assert frobenius_inner(a, b) == pytest.approx(61.0)

    def test_symmetric_vs_antisymmetric_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.normal(size=(4, 4))
            s = s + s.T
            k = rng.normal(size=(4, 4))
            k = k - k.T
            assert np.trace(s.T @ k) == pytest.approx(0.0, abs=1e-12)
            # block container symmetrizes, so the pairing vanishes there too
            assert frobenius_inner(one_block(s), one_block(k)) == pytest.approx(0.0, abs=1e-12)

    def test_structure_mismatch(self):
        with pytest.raises(StructureMismatchError):
            frobenius_inner(one_block(np.eye(2)), one_block(np.eye(3)))

    def test_includes_nonneg_and_free_parts(self):
        a = one_block(np.eye(2), nonneg=[1.0, 2.0], free=[3.0])
        b = one_block(np.zeros((2, 2)), nonneg=[4.0, 5.0], free=[6.0])
        assert frobenius_inner(a, b) == pytest.approx(1 * 4 + 2 * 5 + 3 * 6)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bilinear_symmetric_positive(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (one_block(rng.normal(size=(3, 3))) for _ in range(3))
        s, t = rng.normal(size=2)
        lhs = frobenius_inner(s * a + t * b, c)
        rhs = s * frobenius_inner(a, c) + t * frobenius_inner(b, c)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        assert frobenius_inner(a, b) == pytest.approx(frobenius_inner(b, a))
        assert frobenius_inner(a, a) >= 0.0

    def test_self_pairing_zero_iff_zero(self):
        z = one_block(np.zeros((3, 3)))
        assert frobenius_inner(z, z) == 0.0
        nz = one_block(np.eye(3) * 1e-8)
        assert frobenius_inner(nz, nz) > 0.0


class TestStructure:
    def test_flat_offsets_are_computed_once_and_read_only(self):
        st_ = BlockStructure((2, 3), nonneg_dim=1, free_dim=2)
        offsets = st_.flat_offsets()
        assert offsets is st_.flat_offsets()
        assert offsets.tolist() == [0, 4, 13, 14, 16]
        with pytest.raises(ValueError):
            offsets[0] = 1
        assert st_ == BlockStructure((2, 3), nonneg_dim=1, free_dim=2)


class TestLayout:
    def test_parts_are_views_of_one_flat_vector(self):
        structure = BlockStructure((2, 1), nonneg_dim=2, free_dim=1)
        a = SymBlockMat(structure, [np.array([[1.0, 2.0], [2.0, 3.0]]), [[4.0]]], [5.0, 6.0], [7.0])
        flat = a.flat()
        assert np.array_equal(flat, np.arange(1.0, 8.0)[[0, 1, 1, 2, 3, 4, 5, 6]])
        assert not flat.flags.writeable
        for part in (*a.blocks, a.nonneg, a.free):
            assert np.shares_memory(part, flat)
        a.blocks[1][0, 0] = 9.0
        a.free[0] = 8.0
        assert (flat[4], flat[-1]) == (9.0, 8.0)

    def test_flat_round_trip_copies(self):
        structure = BlockStructure((2,), nonneg_dim=1)
        v = np.array([1.0, 2.0, 2.0, 3.0, 4.0])
        a = SymBlockMat.from_flat(structure, v)
        assert np.array_equal(a.flat(), v) and not np.shares_memory(a.flat(), v)
        assert not np.shares_memory(a.copy().flat(), a.flat())


class TestArithmetic:
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_symmetrizing_construction(self, seed):
        # sums, differences and multiples skip the average with the
        # transpose; on symmetric operands it would change no bit
        rng = np.random.default_rng(seed)
        stc = BlockStructure((1, 3, 7, 22), nonneg_dim=4, free_dim=2)

        def elem():
            return SymBlockMat(stc, [rng.normal(size=(n, n)) for n in stc.sdp_blocks], rng.normal(size=4), rng.normal(size=2))

        a, b, t = elem(), elem(), float(rng.normal())
        cases = [
            (a + b, [x + y for x, y in zip(a.blocks, b.blocks)], a.nonneg + b.nonneg, a.free + b.free),
            (a - b, [x - y for x, y in zip(a.blocks, b.blocks)], a.nonneg - b.nonneg, a.free - b.free),
            (t * a, [t * x for x in a.blocks], t * a.nonneg, t * a.free),
            (a * t, [t * x for x in a.blocks], t * a.nonneg, t * a.free),
            (-a, [-1.0 * x for x in a.blocks], -a.nonneg, -a.free),
        ]
        for got, blocks, nonneg, free in cases:
            want = SymBlockMat(stc, blocks, nonneg, free)
            assert got.structure == want.structure
            assert all(np.array_equal(g, w) for g, w in zip(got.blocks, want.blocks))
            assert np.array_equal(got.nonneg, want.nonneg) and np.array_equal(got.free, want.free)
            assert all(np.array_equal(g, g.T) for g in got.blocks)

    def test_results_share_no_array_with_the_operands(self):
        a = one_block(np.eye(2), nonneg=[1.0], free=[2.0])
        for out in (a + a, a - a, 2.0 * a, -a):
            out.blocks[0][0, 0] = 9.0
            out.nonneg[0] = 9.0
            out.free[0] = 9.0
        assert np.array_equal(a.blocks[0], np.eye(2)) and a.nonneg[0] == 1.0 and a.free[0] == 2.0


class TestVecMat:
    def test_column_major_packing(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        m = np.array([[a, c], [b, d]])
        assert np.array_equal(vec(m), np.array([a, b, c, d]))

    def test_mat_inverse(self):
        assert np.array_equal(mat(np.array([1.0, 2, 3, 4]), 2, 2), np.array([[1.0, 3], [2, 4]]))

    def test_scalar_case(self):
        assert np.array_equal(vec(np.array([[7.5]])), np.array([7.5]))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mat(np.arange(5.0), 2, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))
    def test_roundtrip_exact(self, seed, r, c):
        m = np.random.default_rng(seed).normal(size=(r, c))
        assert np.array_equal(mat(vec(m), r, c), m)


class TestEmbedding:
    def test_pinned_example(self):
        b = np.array([[1, 1j], [-1j, 1]])
        expected = np.array(
            [
                [1, 0, 0, -1],
                [0, 1, 1, 0],
                [0, 1, 1, 0],
                [-1, 0, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(embed_hermitian(b), expected)

    def test_real_symmetric_becomes_block_diagonal(self):
        b = np.array([[2.0, 1.0], [1.0, 3.0]])
        e = embed_hermitian(b)
        assert np.array_equal(e[:2, :2], b)
        assert np.array_equal(e[2:, 2:], b)
        assert np.array_equal(e[:2, 2:], np.zeros((2, 2)))

    def test_eigenvalues_doubled(self):
        # derived oracle: dense eigensolver on both representations
        b = np.array([[1, 1j], [-1j, 1]])
        emb_eigs = np.sort(np.linalg.eigvalsh(embed_hermitian(b)))
        assert np.allclose(emb_eigs, [0, 0, 2, 2], atol=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = (g + g.conj().T) / 2
            doubled = np.sort(np.repeat(np.linalg.eigvalsh(h), 2))
            assert np.allclose(np.sort(np.linalg.eigvalsh(embed_hermitian(h))), doubled, atol=1e-10)

    def test_psd_preservation_500_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = (g + g.conj().T) / 2 + rng.normal() * np.eye(3)
            complex_psd = np.linalg.eigvalsh(h)[0] >= -1e-9
            assert is_psd(embed_hermitian(h)).ok == complex_psd

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            embed_hermitian(np.array([[0, 1.0], [0, 0]]))

    def test_recover_roundtrip(self):
        b = np.array([[1, 1j], [-1j, 1]])
        assert np.allclose(recover_complex(embed_hermitian(b) / 2.0), b, atol=1e-15)
        rng = np.random.default_rng(5)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2
        assert np.allclose(recover_complex(embed_hermitian(h) / 2.0), h, atol=1e-14)

    def test_recover_symmetric_offdiag_is_real(self):
        x11 = np.array([[1.0, 0.2], [0.2, 2.0]])
        x12 = np.array([[0.5, 0.1], [0.1, 0.3]])  # symmetric
        x = np.block([[x11, x12], [x12.T, x11]])
        assert np.max(np.abs(np.imag(recover_complex(x)))) == 0.0

    def test_recover_identity(self):
        assert np.allclose(recover_complex(np.eye(4)), 2 * np.eye(2))

    def test_recover_odd_size_rejected(self):
        with pytest.raises(ValueError):
            recover_complex(np.eye(3))


class TestPsd:
    def test_inside_unit_correlation(self):
        assert is_psd(np.array([[1, 0.5], [0.5, 1]])).ok

    def test_outside_with_witness(self):
        res = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not res.ok
        v = res.witness
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v @ np.array([[1.0, 2.0], [2.0, 1.0]]) @ v < -1e-9
        assert np.allclose(np.abs(v), [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-9)

    def test_all_ones_psd(self):
        # derived oracle: eigenvalues of the 3x3 all-ones matrix are {3, 0, 0}
        res = is_psd(np.ones((3, 3)))
        assert res.ok
        assert res.min_eig == pytest.approx(0.0, abs=1e-12)

    def test_cholesky_witness_on_success(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = is_psd(m)
        assert res.ok
        assert np.allclose(res.witness @ res.witness.T, m, atol=1e-6)


class TestSylvester:
    def test_identity(self):
        assert sylvester_psd_oracle(np.eye(3))

    def test_negative_principal_minor(self):
        assert not sylvester_psd_oracle(np.diag([1.0, -1e-6]), tol=1e-9)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            sylvester_psd_oracle(np.eye(7))

    def test_agreement_with_is_psd_random_4x4(self):
        rng = np.random.default_rng(11)
        agree = 0
        for _ in range(1000):
            m = rng.normal(size=(4, 4))
            m = (m + m.T) / 2
            if sylvester_psd_oracle(m) == is_psd(m).ok:
                agree += 1
        assert agree == 1000

    def test_agreement_small_integer_entries(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            n = rng.integers(1, 6)
            m = rng.integers(-2, 3, size=(n, n)).astype(float)
            m = (m + m.T) / 2
            assert sylvester_psd_oracle(m) == is_psd(m).ok


class TestSchur:
    def test_scalar_example(self):
        out = schur_complement(np.array([[2.0, 1.0], [1.0, 1.0]]), split=1)
        assert np.allclose(out, [[1.0]])

    def test_schur_trick_region(self):
        # [[t, c], [c, f]] PSD with f > 0 iff t >= c^2 / f
        for t, c, f in [(4.0, 2.0, 1.5), (1.0, 2.0, 1.0), (0.5, 0.7, 1.0)]:
            m = np.array([[t, c], [c, f]])
            assert is_psd(m).ok == (t >= c * c / f - 1e-12)
            assert schur_complement(m, 1)[0, 0] == pytest.approx(t - c * c / f)

    def test_block_diagonal(self):
        a = np.array([[1.0, 0.5], [0.5, 2.0]])
        d = np.array([[3.0]])
        m = np.block([[a, np.zeros((2, 1))], [np.zeros((1, 2)), d]])
        assert np.allclose(schur_complement(m, 2), a)

    def test_psd_equivalence_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = rng.normal(size=(5, 5))
            d = g[2:, 2:] @ g[2:, 2:].T + np.eye(3)  # PD trailing block
            m = (g + g.T) / 2
            m[2:, 2:] = d
            lhs = is_psd(m, tol=1e-9).ok
            rhs = is_psd(schur_complement(m, 2), tol=1e-9).ok
            if abs(min(np.linalg.eigvalsh(m))) > 1e-7:  # stay away from the boundary
                assert lhs == rhs

    def test_ill_conditioned_rejected(self):
        m = np.array([[1.0, 1.0], [1.0, 1e-15]])
        with pytest.raises(np.linalg.LinAlgError):
            schur_complement(m, 1, rcond_min=1e-12)
