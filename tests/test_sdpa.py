import numpy as np
import pytest

from qsdp import BlockStructure, ConeProblem, SymBlockMat, solve
from qsdp.sdpa import SdpaFormatError, parse_sdpa, write_sdpa

SIMPLE = """\
* one block, one constraint
1
1
2
1.0
0 1 1 1 -1.0
1 1 1 1 1.0
"""


class TestParse:
    def test_simple_decoding(self):
        p = parse_sdpa(SIMPLE)
        assert p.num_constraints == 1
        assert p.structure.sdp_blocks == (2,)
        # C = -F0 with F0 carrying -1 at (1,1)
        assert p.c_obj.blocks[0][0, 0] == 1.0
        assert p.constraints[0].blocks[0][0, 0] == 1.0
        assert np.array_equal(p.rhs, [1.0])

    def test_negative_block_is_nonneg(self):
        text = "1\n2\n2 -3\n1.0\n0 2 1 1 0.5\n1 1 1 2 1.0\n"
        p = parse_sdpa(text)
        assert p.structure.sdp_blocks == (2,)
        assert p.structure.nonneg_dim == 3
        assert p.c_obj.nonneg[0] == -0.5
        assert p.constraints[0].blocks[0][0, 1] == 1.0

    def test_malformed_line_reports_number(self):
        text = "1\n1\n2\n1.0\n0 1 1 bogus 1.0\n"
        with pytest.raises(SdpaFormatError, match="line 5"):
            parse_sdpa(text)

    def test_fractional_header_rejected(self):
        text = "1.9\n1\n2\n1.0\n1 1 1 1 1.0\n"
        with pytest.raises(SdpaFormatError, match="line 1"):
            parse_sdpa(text)

    def test_fractional_entry_index_rejected(self):
        text = "1\n1\n2\n1.0\n1 1 1.5 2.7 1.0\n"
        with pytest.raises(SdpaFormatError, match="line 5.*1.5"):
            parse_sdpa(text)

    def test_integers_written_as_floats_accepted(self):
        p = parse_sdpa("1.0\n1\n2.0\n1.0\n1.0 1 1 2.0 1.0\n")
        assert p.num_constraints == 1
        assert p.constraints[0].blocks[0][0, 1] == 1.0

    def test_lower_triangle_rejected(self):
        text = "1\n1\n2\n1.0\n1 1 2 1 1.0\n"
        with pytest.raises(SdpaFormatError, match="upper triangular"):
            parse_sdpa(text)

    def test_conflicting_duplicates_rejected(self):
        text = "1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n"
        with pytest.raises(SdpaFormatError, match="duplicate"):
            parse_sdpa(text)

    def test_comment_styles(self):
        text = '* star comment\n" quote comment\n1\n1\n1\n1.0\n1 1 1 1 1.0\n'
        assert parse_sdpa(text).num_constraints == 1


class TestRoundTrip:
    def _mixed_problem(self):
        structure = BlockStructure((2,), nonneg_dim=2, free_dim=1)
        rng = np.random.default_rng(0)

        def elem(mat, nn, fr):
            return SymBlockMat(structure, [np.asarray(mat, dtype=float)], nn, fr)

        c = elem([[1.0, 0.25], [0.25, 2.0]], [0.5, 1.0], [0.0])
        a1 = elem(np.eye(2), [1.0, 0.0], [1.0])
        a2 = elem([[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0], [0.0])
        return ConeProblem(c, [a1, a2], [1.0, 0.3])

    def test_write_parse_semantic_identity(self):
        p = self._mixed_problem()
        q = parse_sdpa(write_sdpa(p, comment="round trip"))
        sol_p, _ = solve(p)
        sol_q, _ = solve(q)
        assert sol_p.success and sol_q.success
        assert sol_p.dual_value == pytest.approx(sol_q.dual_value, abs=1e-9)
        assert sol_p.primal_value == pytest.approx(sol_q.primal_value, abs=1e-7)

    def test_roundtrip_exact_without_free(self):
        structure = BlockStructure((2,), nonneg_dim=1)
        lift = lambda m, nn: SymBlockMat(structure, [np.asarray(m, dtype=float)], nn)
        p = ConeProblem(
            lift([[1.0, -0.125], [-0.125, 0.0]], [0.75]),
            [lift(np.eye(2), [1.0])],
            [2.0],
        )
        q = parse_sdpa(write_sdpa(p))
        assert np.array_equal(q.rhs, p.rhs)
        assert np.array_equal(q.c_obj.blocks[0], p.c_obj.blocks[0])
        assert np.array_equal(q.c_obj.nonneg, p.c_obj.nonneg)
        assert np.array_equal(q.constraints[0].blocks[0], p.constraints[0].blocks[0])

    def test_roundtrip_reproduces_rows_exactly(self):
        structure = BlockStructure((3, 2), nonneg_dim=2)
        rng = np.random.default_rng(4)

        def elem():
            blocks = [rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5) for n in (3, 2)]
            return SymBlockMat(structure, [b + b.T for b in blocks], rng.normal(size=2) * (rng.random(2) < 0.7))

        p = ConeProblem(elem(), [elem() for _ in range(5)], rng.normal(size=5))
        q = parse_sdpa(write_sdpa(p))
        assert q.structure == p.structure
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(q.a, part), getattr(p.a, part))
        assert np.array_equal(q.c_obj.flat(), p.c_obj.flat())
        assert np.array_equal(q.rhs, p.rhs)

    def test_eigenvalue_model_roundtrip_value(self):
        from qsdp.modeling import Model

        rng = np.random.default_rng(42)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = (g + g.conj().T) / 2
        m = Model()
        s = m.declare(3, structure="hermitian", field="complex", name="S")
        m.add_lmi(s.expr())
        m.add_equality(s.trace(), 1.0)
        m.maximize(s.expr().frobenius_with(x))
        compiled = m.compile(framing="dual", equality_mode="free_split")
        p = compiled.problem
        q = parse_sdpa(write_sdpa(p))
        sol_p, _ = solve(p)
        sol_q, _ = solve(q)
        assert sol_p.dual_value == pytest.approx(sol_q.dual_value, abs=1e-9)
