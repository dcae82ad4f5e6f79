"""SDPA sparse text format: parse to and write from canonical problems.

The file lists F_0 .. F_m over a block structure; negative block sizes denote
diagonal (LP) blocks.  Reading maps the data to the canonical form with
C = -F_0, A_i = F_i and b = c, so that the file's variables x appear as the
canonical dual vector y = -x.  Writing inverts that map; free variables are
split into nonnegative pairs because the format has no free cone.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .blockmat import BlockStructure, SymBlockMat
from .ipm import split_free
from .problem import ConeProblem


class SdpaFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _clean_tokens(line: str) -> list[str]:
    for ch in ",(){}":
        line = line.replace(ch, " ")
    return line.split()


def _int(token: str) -> int:
    """An integer field: "2" and "2.0" read as 2, "2.7" raises ValueError."""
    value = float(token)
    if not value.is_integer():
        raise ValueError(f"{token!r} is not an integer")
    return int(value)


def parse_sdpa(text: str) -> ConeProblem:
    """Parse SDPA sparse input (entries "mat# blk# i j value", upper triangle)."""
    numbered = [(no + 1, raw) for no, raw in enumerate(text.splitlines())]
    lines = [(no, ln.strip()) for no, ln in numbered if ln.strip() and not ln.lstrip().startswith(("*", '"'))]
    if len(lines) < 4:
        raise SdpaFormatError(len(numbered), "missing header lines")

    def ints(idx, expect=None):
        no, ln = lines[idx]
        toks = _clean_tokens(ln)
        try:
            vals = [_int(t) for t in toks]
        except ValueError as exc:
            raise SdpaFormatError(no, f"expected integers, got {ln!r}") from exc
        if expect is not None and len(vals) < expect:
            raise SdpaFormatError(no, f"expected {expect} integers")
        return vals

    m = ints(0, 1)[0]
    nblocks = ints(1, 1)[0]
    sizes = ints(2, nblocks)[:nblocks]
    no_b, ln_b = lines[3]
    try:
        b = np.array([float(t) for t in _clean_tokens(ln_b)])
    except ValueError as exc:
        raise SdpaFormatError(no_b, "malformed objective vector") from exc
    if b.size != m:
        raise SdpaFormatError(no_b, f"objective vector has {b.size} entries, expected {m}")

    if any(s == 0 for s in sizes):
        raise SdpaFormatError(lines[2][0], "zero block size")
    structure = BlockStructure(tuple(s for s in sizes if s > 0), sum(-s for s in sizes if s < 0), 0)

    # F_0 .. F_m become the rows of one matrix over the flat coordinates;
    # block number -> (flat start, size, SDP block?)
    offsets = structure.flat_offsets()
    layout, sdp_starts, nn_start = [], iter(offsets), offsets[-3]
    for s in sizes:
        layout.append((next(sdp_starts), s, True) if s > 0 else (nn_start, -s, False))
        nn_start += max(-s, 0)
    rows, cols, vals = [], [], []
    seen: dict[tuple, tuple] = {}
    for no, ln in lines[4:]:
        toks = _clean_tokens(ln)
        if len(toks) != 5:
            raise SdpaFormatError(no, f"expected 5 fields, got {len(toks)}")
        try:
            mat_no, blk_no, i, j = (_int(t) for t in toks[:4])
            value = float(toks[4])
        except ValueError as exc:
            raise SdpaFormatError(no, f"malformed entry: {exc}") from exc
        if not 0 <= mat_no <= m:
            raise SdpaFormatError(no, f"matrix index {mat_no} out of range 0..{m}")
        if not 1 <= blk_no <= len(sizes):
            raise SdpaFormatError(no, f"block index {blk_no} out of range")
        start, size, sdp = layout[blk_no - 1]
        if not (1 <= i <= size and 1 <= j <= size):
            raise SdpaFormatError(no, f"entry ({i}, {j}) outside block of size {size}")
        if i > j:
            raise SdpaFormatError(no, "entries must be upper triangular (i <= j)")
        if not sdp and i != j:
            raise SdpaFormatError(no, "diagonal block entries need i == j")
        key = (mat_no, blk_no, i, j)
        if key in seen:
            if seen[key] != value:
                raise SdpaFormatError(no, f"conflicting duplicate entry for {key}")
            continue
        seen[key] = value
        at = {start + (i - 1) * size + j - 1, start + (j - 1) * size + i - 1} if sdp else {start + i - 1}
        rows.extend([mat_no] * len(at))
        cols.extend(at)
        vals.extend([value] * len(at))

    f = sp.csr_array((vals, (rows, cols)), shape=(m + 1, structure.flat_dim))
    c_obj = SymBlockMat.from_flat(structure, -f[[0]].toarray()[0])
    return ConeProblem(c_obj, f[1:], b, meta={"source": "sdpa"})


def _fmt(x: float) -> str:
    return repr(float(x))


def write_sdpa(p: ConeProblem, comment: str | None = None) -> str:
    """Serialize to SDPA sparse text; the inverse of :func:`parse_sdpa` up to
    the free-variable split."""
    q = split_free(p)  # the format has no free cone
    st = q.structure
    lines = [f"* {ln}" for ln in (comment or "").splitlines()]
    lines.append(str(q.num_constraints))
    sizes = [str(s) for s in st.sdp_blocks] + ([str(-st.nonneg_dim)] if st.nonneg_dim else [])
    lines.append(str(len(sizes)))
    lines.append(" ".join(sizes) if sizes else "0")
    lines.append(" ".join(_fmt(v) for v in q.rhs))

    # F_0 = -C heads the rows, so that a row's index is its matrix number; CSR
    # order is already the file's order (matrix, block, i, j)
    f = sp.vstack([sp.csr_array(-q.c_obj.flat()[None, :]), q.a], format="csr")
    f.eliminate_zeros()
    offsets = st.flat_offsets()
    part = np.searchsorted(offsets, f.indices, side="right") - 1
    local = f.indices - offsets[part]
    nsdp = len(st.sdp_blocks)
    i, j = np.divmod(local, np.array(st.sdp_blocks + (1, 1))[part])
    j[part == nsdp] = i[part == nsdp]  # the diagonal block holds entry (k, k)
    upper = i <= j
    mat_no = np.repeat(np.arange(f.shape[0]), np.diff(f.indptr))
    entries = zip(mat_no[upper].tolist(), (part[upper] + 1).tolist(), (i[upper] + 1).tolist(), (j[upper] + 1).tolist())
    lines.extend(f"{a} {b} {r} {c} {_fmt(v)}" for (a, b, r, c), v in zip(entries, f.data[upper].tolist()))
    return "\n".join(lines) + "\n"
