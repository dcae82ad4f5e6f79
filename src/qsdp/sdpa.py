"""SDPA sparse text format: parse to and write from canonical problems.

The file lists F_0 .. F_m over a block structure; negative block sizes denote
diagonal (LP) blocks.  Reading maps the data to the canonical form with
C = -F_0, A_i = F_i and b = c, so that the file's variables x appear as the
canonical dual vector y = -x.  Writing inverts that map; free variables are
split into nonnegative pairs because the format has no free cone.
"""

from __future__ import annotations

import contextlib
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .blockmat import BlockStructure, SymBlockMat
from .ipm import split_free
from .problem import ConeProblem


class SdpaFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_SEPARATORS = str.maketrans(",(){}", "     ")


def _int(token: str) -> int:
    """An integer field: "2" and "2.0" read as 2, "2.7" raises ValueError."""
    value = float(token)
    if not value.is_integer():
        raise ValueError(f"{token!r} is not an integer")
    return int(value)


def _entry_error(toks: list[str]) -> str | None:
    """Why one entry line is not five numbers with the first four integers,
    or None."""
    if len(toks) != 5:
        return f"expected 5 fields, got {len(toks)}"
    try:
        for t in toks[:4]:
            _int(t)
        float(toks[4])
    except ValueError as exc:
        return f"malformed entry: {exc}"
    return None


def _entry_table(lines: list[str]) -> np.ndarray:
    """The entry lines before the first malformed one (``_entry_error``), as
    one float array with five columns.  The lines are split as one block,
    joined by ";" tokens, and every sixth token is dropped: a ";" is no
    number, so when the rest converts, the dropped tokens were the joins and
    each line has five fields.  Only a malformed block is split line by line."""
    tokens = " ; ".join(lines).split()
    if len(tokens) == 6 * len(lines) - 1:
        del tokens[5::6]
        with contextlib.suppress(ValueError):
            table = np.array(tokens, dtype=float).reshape(-1, 5)
            ints = table[:, :4]
            if np.all(np.isfinite(ints) & (ints == np.trunc(ints))):
                return table
    parts = [ln.split() for ln in lines]
    good = next((k for k, toks in enumerate(parts) if _entry_error(toks)), len(parts))
    return np.array(list(chain.from_iterable(parts[:good])), dtype=float).reshape(good, 5)


def parse_sdpa(text: str) -> ConeProblem:
    """Parse SDPA sparse input (entries "mat# blk# i j value", upper triangle).

    The entry lines are converted and checked as arrays.  An error names the
    first line that breaks a rule, and the first rule that line breaks."""
    raw = text.splitlines()
    clean = text.translate(_SEPARATORS).splitlines()  # the same lines, separators blanked
    data = [k for k, r in enumerate(raw) if (t := r.lstrip()) and t[0] not in '*"']  # 0-based line numbers
    if len(data) < 4:
        raise SdpaFormatError(len(raw), "missing header lines")

    def ints(idx, expect=None):
        k = data[idx]
        try:
            vals = [_int(t) for t in clean[k].split()]
        except ValueError as exc:
            raise SdpaFormatError(k + 1, f"expected integers, got {raw[k].strip()!r}") from exc
        if expect is not None and len(vals) < expect:
            raise SdpaFormatError(k + 1, f"expected {expect} integers")
        return vals

    m = ints(0, 1)[0]
    nblocks = ints(1, 1)[0]
    sizes = ints(2, nblocks)[:nblocks]
    try:
        b = np.array([float(t) for t in clean[data[3]].split()])
    except ValueError as exc:
        raise SdpaFormatError(data[3] + 1, "malformed objective vector") from exc
    if b.size != m:
        raise SdpaFormatError(data[3] + 1, f"objective vector has {b.size} entries, expected {m}")

    if any(s == 0 for s in sizes):
        raise SdpaFormatError(data[2] + 1, "zero block size")
    structure = BlockStructure(tuple(s for s in sizes if s > 0), sum(-s for s in sizes if s < 0), 0)

    # F_0 .. F_m become the rows of one matrix over the flat coordinates.
    # Per block number: flat start, size and whether it is an SDP block,
    # with a sentinel block 0 that out-of-range block numbers read
    offsets = structure.flat_offsets()
    sdp_starts, nn_start, starts = iter(offsets), offsets[-3], [0]
    for s in sizes:
        starts.append(next(sdp_starts) if s > 0 else nn_start)
        nn_start += max(-s, 0)
    starts, widths, sdp = np.array(starts), np.abs([0, *sizes]), np.array([True] + [s > 0 for s in sizes])

    entries = data[4:]
    table = _entry_table([clean[k] for k in entries])
    good = table.shape[0]
    # an integer that large is out of every range; the clip keeps the cast defined
    mat, blk, i, j = np.clip(table[:, :4], -(2**62), 2**62).astype(np.int64).T
    value = table[:, 4]
    inside = (1 <= blk) & (blk <= len(sizes))
    at = np.where(inside, blk, 0)
    start, size, on_sdp = starts[at], widths[at], sdp[at]
    # a valid entry's place in F: the upper-triangle cell for an SDP block
    cell = np.where(on_sdp, start + (i - 1) * size + j - 1, start + i - 1)
    _, first, inverse = np.unique(mat * structure.flat_dim + cell, return_index=True, return_inverse=True)
    first = first[inverse]

    def key(k):
        return tuple(int(v) for v in table[k, :4])

    checks = [
        (~((0 <= mat) & (mat <= m)), lambda k: f"matrix index {key(k)[0]} out of range 0..{m}"),
        (~inside, lambda k: f"block index {key(k)[1]} out of range"),
        (~((1 <= i) & (i <= size) & (1 <= j) & (j <= size)), lambda k: f"entry {key(k)[2:]} outside block of size {size[k]}"),
        (i > j, lambda k: "entries must be upper triangular (i <= j)"),
        (~on_sdp & (i != j), lambda k: "diagonal block entries need i == j"),
        ((first != np.arange(first.size)) & (value != value[first]), lambda k: f"conflicting duplicate entry for {key(k)}"),
    ]
    failed = np.array([mask for mask, _ in checks])
    if failed.any():
        k = int(np.argmax(failed.any(axis=0)))
        raise SdpaFormatError(entries[k] + 1, checks[int(np.argmax(failed[:, k]))][1](k))
    if good < len(entries):
        raise SdpaFormatError(entries[good] + 1, _entry_error(clean[entries[good]].split()))

    # each entry once; an SDP entry also sits at (j, i)
    keep = first == np.arange(first.size)
    mirror = keep & on_sdp & (i != j)
    rows = np.concatenate([mat[keep], mat[mirror]])
    cols = np.concatenate([cell[keep], (start + (j - 1) * size + i - 1)[mirror]])
    f = sp.csr_array((np.concatenate([value[keep], value[mirror]]), (rows, cols)), shape=(m + 1, structure.flat_dim))
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
