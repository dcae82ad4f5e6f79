import json
from pathlib import Path

import numpy as np
import pytest

from qsdp import BlockStructure, ConeProblem, SolverConfig, SymBlockMat, solve
from qsdp.sdpa import SdpaFormatError, _split_pairs, parse_sdpa, write_sdpa

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

    @pytest.mark.parametrize(
        "entries,error",
        [
            ("1 1 1 1 1.0\n1 1 1 1 2.0\n1 1 1\n", "line 6: conflicting duplicate"),
            ("1 1 1 1 1.0\n1 1 1\n1 1 1 1 2.0\n", "line 6: expected 5 fields"),
            ("1 1 1 2 1.0\n1 1 x 1 1.0\n1 3 1 1 1.0\n", "line 6: malformed entry"),
            ("1 3 1 1 1.0\n1 1 x 1 1.0\n", "line 5: block index 3"),
            ("1 1 2 1 1.0\n2 1 1 1 1.0\n", "line 5: entries must be upper"),
            # ";" joins the lines when they are converted as one block
            ("1 1 1 1 1.0 ;\n1 1 1 2\n", "line 5: expected 5 fields, got 6"),
            ("1 1 1 1 1.0\n1 1 1 2 ;\n", "line 6: malformed entry: could not convert string to float: ';'"),
        ],
    )
    def test_first_bad_line_is_reported_whatever_its_rule(self, entries, error):
        with pytest.raises(SdpaFormatError, match=error):
            parse_sdpa("1\n1\n2\n1.0\n" + entries)

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

    def test_split_pairs_extend_the_nonnegative_part(self):
        p = self._mixed_problem()
        q = _split_pairs(p)
        assert q.structure == BlockStructure((2,), nonneg_dim=4)
        for a, b in zip([p.c_obj, *p.constraints], [q.c_obj, *q.constraints]):
            assert np.array_equal(b.nonneg, np.concatenate([a.nonneg, a.free, -a.free]))
            assert np.array_equal(b.blocks[0], a.blocks[0])

    def test_write_parse_semantic_identity(self):
        # p's free column is eliminated before the IPM, the file's pair is
        # not: the two solves take different paths, so both run to 1e-10
        p = self._mixed_problem()
        q = parse_sdpa(write_sdpa(p, comment="round trip"))
        cfg = SolverConfig(tol_gap=1e-10, tol_primal=1e-10, tol_dual=1e-10)
        sol_p, _ = solve(p, cfg)
        sol_q, _ = solve(q, cfg)
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
        compiled = m.compile(framing="dual")
        p = compiled.problem
        q = parse_sdpa(write_sdpa(p))
        sol_p, _ = solve(p)
        sol_q, _ = solve(q)
        assert sol_p.dual_value == pytest.approx(sol_q.dual_value, abs=1e-9)

    def test_merged_block_is_written_once_as_a_plain_block(self):
        # SDPA has no block weights: the file holds the merged block's data,
        # whose feasible set and objective are the problem's, so its solve
        # reaches the same value and y along a plain barrier's path
        from qsdp.npa import Scenario, solve_bell

        doc = json.loads((Path(__file__).resolve().parents[1] / "demos" / "data" / "i3322.json").read_text())
        bell = {(e["a"], e["b"], e["x"], e["y"]): e["coeff"] for e in doc["bell"]}
        res = solve_bell(Scenario(doc["settings"], doc["outcomes"]), 3, bell)
        p, sol_p = res.model_result.compiled.problem, res.model_result.solution
        assert 2 in p.structure.multiplicities
        q = parse_sdpa(write_sdpa(p))
        assert q.structure == BlockStructure(p.structure.sdp_blocks, p.structure.nonneg_dim)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(q.a, part), getattr(p.a, part))
        sol_q, _ = solve(q)
        assert sol_p.success and sol_q.success
        assert sol_q.dual_value == pytest.approx(sol_p.dual_value, abs=1e-7)
        # y, the tied moments, to about the square root of the 1e-7 gap
        assert np.abs(sol_q.y_dual - sol_p.y_dual).max() <= 1e-3


def reference_entries(text: str):
    """The line-by-line reading of the entry lines, for a text whose four
    header lines are well formed: the first error as "line N: message", or
    F_0 .. F_m as the rows of one dense array over the flat coordinates."""
    lines = [(no + 1, ln.replace(",", " ")) for no, ln in enumerate(text.splitlines()) if ln.strip() and ln.lstrip()[0] not in '*"']
    m, _, sizes = int(lines[0][1]), int(lines[1][1]), [int(s) for s in lines[2][1].split()]
    structure = BlockStructure(tuple(s for s in sizes if s > 0), sum(-s for s in sizes if s < 0), 0)
    offsets, nn = structure.flat_offsets(), structure.flat_offsets()[-3]
    layout, sdp_starts = [], iter(offsets)
    for s in sizes:
        layout.append((next(sdp_starts), s, True) if s > 0 else (nn, -s, False))
        nn += max(-s, 0)
    f, seen = np.zeros((m + 1, structure.flat_dim)), {}
    for no, ln in lines[4:]:
        toks = ln.split()
        if len(toks) != 5:
            return f"line {no}: expected 5 fields, got {len(toks)}"
        try:
            fields = []
            for t in toks[:4]:
                fields.append(float(t))
                if not fields[-1].is_integer():
                    raise ValueError(f"{t!r} is not an integer")
            value = float(toks[4])
        except ValueError as exc:
            return f"line {no}: malformed entry: {exc}"
        mat, blk, i, j = (int(v) for v in fields)
        if not 0 <= mat <= m:
            return f"line {no}: matrix index {mat} out of range 0..{m}"
        if not 1 <= blk <= len(sizes):
            return f"line {no}: block index {blk} out of range"
        start, size, sdp = layout[blk - 1]
        if not (1 <= i <= size and 1 <= j <= size):
            return f"line {no}: entry ({i}, {j}) outside block of size {size}"
        if i > j:
            return f"line {no}: entries must be upper triangular (i <= j)"
        if not sdp and i != j:
            return f"line {no}: diagonal block entries need i == j"
        key = (mat, blk, i, j)
        if key in seen:
            if seen[key] != value:
                return f"line {no}: conflicting duplicate entry for {key}"
            continue
        seen[key] = value
        for at in {start + (i - 1) * size + j - 1, start + (j - 1) * size + i - 1} if sdp else {start + i - 1}:
            f[mat, at] = value
    return f


def random_sdpa_text(rng) -> str:
    """A small SDPA text, its entry lines sometimes broken: a bad token, a
    missing or extra field, a repeated or conflicting entry, a lower-triangle
    entry, separators or a comment in between."""
    m, sizes = int(rng.integers(1, 4)), [int(rng.choice([1, 2, 3, -1, -2])) for _ in range(rng.integers(1, 4))]
    lines = [str(m), str(len(sizes)), " ".join(map(str, sizes)), " ".join(["1.0"] * m)]
    for _ in range(rng.integers(0, 9)):
        blk = int(rng.integers(1, len(sizes) + 1))
        size = abs(sizes[blk - 1])
        i = int(rng.integers(1, size + 1))
        j = int(rng.integers(i, size + 1))
        lines.append(f"{rng.integers(0, m + 1)} {blk} {i} {j} {rng.choice(['1.0', '-0.25', '2', '0.0'])}")
    for _ in range(rng.choice([0, 1, 2])):
        k = int(rng.integers(4, len(lines))) if len(lines) > 4 else 4
        toks = lines[k].split() if k < len(lines) else []
        kind = rng.integers(0, 7)
        if kind == 0 and toks:
            toks[rng.integers(0, len(toks))] = str(rng.choice(["x", "1.5", "inf", "nan", "-1", "9", "1e30"]))
        elif kind == 1 and toks:
            toks.pop()
        elif kind == 2:
            toks.append("1")
        elif kind == 3 and len(toks) == 5:
            lines.insert(k, " ".join(toks[:4] + [rng.choice(["3.25", toks[4]])]))
        elif kind == 4 and len(toks) == 5:
            toks[2], toks[3] = toks[3], toks[2]
        elif kind == 5:
            toks = [t + "," for t in toks]
        elif kind == 6:
            lines.insert(k, "* a comment")
        if k < len(lines):
            lines[k] = " ".join(toks)
        else:
            lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


class TestParseMatchesLineByLine:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_texts(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            text = random_sdpa_text(rng)
            want = reference_entries(text)
            if isinstance(want, str):
                with pytest.raises(SdpaFormatError) as err:
                    parse_sdpa(text)
                assert str(err.value) == want, text
            else:
                p = parse_sdpa(text)
                assert np.array_equal(p.c_obj.flat(), -want[0], equal_nan=True), text
                assert np.array_equal(p.a.toarray(), want[1:], equal_nan=True), text
