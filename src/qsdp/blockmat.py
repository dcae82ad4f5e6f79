"""Block-structured symmetric matrices and the matrix algebra used everywhere else.

The variable space is a direct sum of symmetric matrix blocks, a nonnegative
orthant and a group of unconstrained scalars.  Everything in this module is
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class StructureMismatchError(ValueError):
    """Two block objects with incompatible structures were combined."""


@dataclass(frozen=True)
class BlockStructure:
    """Shape of the mixed cone: SDP blocks + nonnegative scalars + free scalars.

    ``multiplicities`` gives each SDP block's multiplicity w_b, 1 by default
    (an empty tuple): a block of multiplicity w stands for w congruent copies
    merged into one, and the IPM weights its barrier by w (see ipm).  The
    data, the pairing <., .> and the step lengths treat it as one plain block.
    """

    sdp_blocks: tuple[int, ...] = ()
    nonneg_dim: int = 0
    free_dim: int = 0
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sdp_blocks", tuple(int(s) for s in self.sdp_blocks))
        if any(s < 1 for s in self.sdp_blocks):
            raise ValueError("all SDP block sizes must be >= 1")
        weights = tuple(int(w) for w in self.multiplicities) or (1,) * len(self.sdp_blocks)
        if len(weights) != len(self.sdp_blocks) or any(w < 1 for w in weights):
            raise ValueError("multiplicities must give one integer >= 1 per SDP block")
        object.__setattr__(self, "multiplicities", weights)
        if self.nonneg_dim < 0 or self.free_dim < 0:
            raise ValueError("nonneg_dim and free_dim must be >= 0")
        sizes = [s * s for s in self.sdp_blocks] + [self.nonneg_dim, self.free_dim]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        offsets.flags.writeable = False
        object.__setattr__(self, "_offsets", offsets)
        # the same offsets as Python ints, which slice a flat vector faster
        object.__setattr__(self, "_cuts", tuple(offsets.tolist()))

    @property
    def cone_dim(self) -> int:
        """Barrier dimension: sum of w_b times block size n_b plus the nonnegative count."""
        return sum(w * n for w, n in zip(self.multiplicities, self.sdp_blocks)) + self.nonneg_dim

    @property
    def flat_dim(self) -> int:
        """Length of the flat coordinates: every SDP block stored in full (n*n)."""
        return self._cuts[-1]

    def flat_offsets(self) -> np.ndarray:
        """Flat start of each SDP block, the nonnegative and the free part, then
        flat_dim, as one read-only array computed with the structure."""
        return self._offsets


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _flat_views(structure: BlockStructure, v: np.ndarray):
    """Blocks, nonnegative and free part of flat coordinates v, as views of v."""
    cuts = structure._cuts
    blocks = [v[cuts[k] : cuts[k + 1]].reshape(s, s) for k, s in enumerate(structure.sdp_blocks)]
    return blocks, v[cuts[-3] : cuts[-2]], v[cuts[-2] :]


class SymBlockMat:
    """One element of the block space: per-block symmetric matrices plus vectors.

    The element is held once, as one float vector in flat coordinates (see
    :meth:`flat`); ``blocks``, ``nonneg`` and ``free`` are views of it.
    Blocks are symmetrized on construction by averaging with the transpose, so
    entry (i, j) equals entry (j, i) bit-for-bit afterwards.  Sums, differences
    and scalar multiples of such blocks are bitwise symmetric already, so the
    arithmetic wraps its result vector with :meth:`_new`, which does not average.
    """

    __slots__ = ("structure", "_v", "blocks", "nonneg", "free")

    def __init__(self, structure: BlockStructure, blocks=None, nonneg=None, free=None):
        self.structure = structure
        self._v = np.zeros(structure.flat_dim)
        self.blocks, self.nonneg, self.free = _flat_views(structure, self._v)
        if blocks is not None:
            if len(blocks) != len(structure.sdp_blocks):
                raise StructureMismatchError("wrong number of SDP blocks")
            for out, b, s in zip(self.blocks, blocks, structure.sdp_blocks):
                b = np.asarray(b, dtype=float)
                if b.shape != (s, s):
                    raise StructureMismatchError(f"block shape {b.shape} != ({s}, {s})")
                np.add(b, b.T, out=out)
                out /= 2.0
        for part, given, name in ((self.nonneg, nonneg, "nonneg"), (self.free, free, "free")):
            if given is not None:
                given = np.asarray(given, dtype=float)
                if given.shape != part.shape:
                    raise StructureMismatchError(f"{name} part has wrong length")
                part[:] = given

    # -- constructors -------------------------------------------------------
    @classmethod
    def _new(cls, structure: BlockStructure, v: np.ndarray) -> "SymBlockMat":
        """Wrap flat coordinates v, already bitwise symmetric, without copying."""
        out = object.__new__(cls)
        out.structure, out._v = structure, v
        out.blocks, out.nonneg, out.free = _flat_views(structure, v)
        return out

    @classmethod
    def zeros(cls, structure: BlockStructure) -> "SymBlockMat":
        return cls(structure)

    @classmethod
    def from_flat(cls, structure: BlockStructure, v: np.ndarray) -> "SymBlockMat":
        """Inverse of :meth:`flat`."""
        return cls(structure, *_flat_views(structure, v))

    @classmethod
    def identity(cls, structure: BlockStructure) -> "SymBlockMat":
        """Identity of the cone part: unit blocks and unit nonnegative entries."""
        return cls(
            structure,
            blocks=[np.eye(s) for s in structure.sdp_blocks],
            nonneg=np.ones(structure.nonneg_dim),
            free=np.zeros(structure.free_dim),
        )

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "SymBlockMat"):
        if self.structure != other.structure:
            raise StructureMismatchError("operands have different block structures")

    def __add__(self, other: "SymBlockMat") -> "SymBlockMat":
        self._check(other)
        return SymBlockMat._new(self.structure, self._v + other._v)

    def __sub__(self, other: "SymBlockMat") -> "SymBlockMat":
        self._check(other)
        return SymBlockMat._new(self.structure, self._v - other._v)

    def __mul__(self, t: float) -> "SymBlockMat":
        return SymBlockMat._new(self.structure, float(t) * self._v)

    __rmul__ = __mul__

    def __neg__(self) -> "SymBlockMat":
        return self * -1.0

    def flat(self) -> np.ndarray:
        """Blocks row-major in full, then the nonnegative and the free entries,
        as a read-only view of the element."""
        v = self._v.view()
        v.flags.writeable = False
        return v

    def copy(self) -> "SymBlockMat":
        return SymBlockMat(self.structure, self.blocks, self.nonneg, self.free)

    def norm(self) -> float:
        """Frobenius norm over all parts."""
        return float(np.sqrt(frobenius_inner(self, self)))

    def weighted_norm(self) -> float:
        """sqrt(sum_b |M_b|_F^2 / w_b + |nonneg|^2 + |free|^2): the Frobenius
        norm of the element with each block of multiplicity w_b split back
        into its w_b copies M_b / w_b; bitwise :meth:`norm` when every w_b is 1."""
        total = 0.0
        for x, w in zip(self.blocks, self.structure.multiplicities):
            total += float(np.vdot(x, x)) / w
        total += float(self.nonneg @ self.nonneg) + float(self.free @ self.free)
        return float(np.sqrt(total))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._v))) if self._v.size else 0.0

    def trace(self) -> float:
        return float(sum(np.trace(b) for b in self.blocks) + self.nonneg.sum())

    def min_cone_eig(self) -> float:
        """Smallest eigenvalue over SDP blocks and nonnegative entries."""
        vals = [np.linalg.eigvalsh(b)[0] for b in self.blocks if b.size]
        if self.nonneg.size:
            vals.append(self.nonneg.min())
        return float(min(vals)) if vals else np.inf

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    def __repr__(self):
        s = self.structure
        return f"SymBlockMat(blocks={list(s.sdp_blocks)}, nonneg={s.nonneg_dim}, free={s.free_dim})"


def frobenius_inner(a: SymBlockMat, b: SymBlockMat) -> float:
    """Trace pairing summed over blocks plus the nonneg/free dot products."""
    if a.structure != b.structure:
        raise StructureMismatchError("frobenius_inner: operands have different structures")
    total = 0.0
    for x, y in zip(a.blocks, b.blocks):
        total += float(np.vdot(x, y))
    total += float(a.nonneg @ b.nonneg) + float(a.free @ b.free)
    return total


# ---------------------------------------------------------------------------
# vec / mat


def vec(m: np.ndarray) -> np.ndarray:
    """Stack matrix columns into one vector (column-wise packing)."""
    return np.asarray(m).reshape(-1, order="F").copy()


def mat(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`; requires len(v) == rows * cols."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape length-{v.size} vector to {rows}x{cols}")
    return v.reshape(rows, cols, order="F").copy()


# ---------------------------------------------------------------------------
# complex <-> real embedding


def embed_hermitian(b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Real symmetric embedding [[Re, -Im], [Im, Re]] of a Hermitian matrix.

    The embedding is PSD exactly when the input is, with every eigenvalue
    doubled in multiplicity.
    """
    b = np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    if np.max(np.abs(b - b.conj().T)) > tol * scale:
        raise ValueError("input is not Hermitian within tolerance")
    br, bi = np.real(b), np.imag(b)
    return np.block([[br, -bi], [bi, br]])


def recover_complex(x_real: np.ndarray) -> np.ndarray:
    """Pull a Hermitian matrix back out of its doubled real representation.

    For x = embed_hermitian(B) / 2 the round trip returns B exactly.
    """
    x = np.asarray(x_real, dtype=float)
    n2 = x.shape[0]
    if x.shape[0] != x.shape[1] or n2 % 2 != 0:
        raise ValueError("input must be square with even size")
    n = n2 // 2
    x11 = x[:n, :n]
    x21 = x[n:, :n]
    return 2.0 * x11 + 1j * (x21 - x21.T)


# ---------------------------------------------------------------------------
# PSD checks


@dataclass(frozen=True)
class PsdCheck:
    ok: bool
    min_eig: float
    # on failure: unit vector v with v' M v = min_eig < -tol
    # on success: lower-triangular L with L L' ~= M (up to the tolerance shift)
    witness: np.ndarray = field(repr=False, default=None)


def is_psd(m: np.ndarray, tol: float = 1e-9) -> PsdCheck:
    """Eigenvalue test for positive semidefiniteness with a witness.

    Returns ok=True iff the smallest eigenvalue is >= -tol.  The witness is a
    failing unit direction when not PSD, otherwise a Cholesky factor of the
    (tolerance-shifted) matrix.
    """
    m = np.asarray(m, dtype=float)
    if m.size and np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
        raise ValueError("is_psd expects a symmetric matrix")
    w, v = np.linalg.eigh(_symmetrize(m))
    lam = float(w[0])
    if lam < -tol:
        return PsdCheck(False, lam, v[:, 0].copy())
    shift = max(0.0, -lam) + tol
    try:
        chol = np.linalg.cholesky(m + shift * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        chol = None
    return PsdCheck(True, lam, chol)


def sylvester_psd_oracle(m: np.ndarray, tol: float = 1e-9) -> bool:
    """Exhaustive principal-minor test; independent oracle for :func:`is_psd`.

    Only sensible for small matrices; sizes above 6 are rejected.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n > 6:
        raise ValueError("sylvester_psd_oracle supports sizes up to 6")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    idx = range(n)
    from itertools import combinations

    for k in range(1, n + 1):
        for subset in combinations(idx, k):
            sub = m[np.ix_(subset, subset)]
            if np.linalg.det(sub) < -tol * scale**k:
                return False
    return True


# ---------------------------------------------------------------------------
# Schur complement


def schur_complement(m: np.ndarray, split: int, rcond_min: float = 1e-12) -> np.ndarray:
    """Schur complement M / D of the trailing block for M = [[A, B], [B', D]].

    ``split`` is the size of the leading block A.  Raises when D is singular
    or too ill-conditioned (reciprocal condition estimate below rcond_min).
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if not 0 < split < n:
        raise ValueError("split must cut the matrix into two nonempty blocks")
    a = m[:split, :split]
    b = m[:split, split:]
    d = m[split:, split:]
    sv = np.linalg.svd(d, compute_uv=False)
    scale = max(sv[0], float(np.linalg.norm(m, 2)))
    if scale == 0 or sv[-1] / scale < rcond_min:
        raise np.linalg.LinAlgError("trailing block is singular or ill-conditioned")
    return _symmetrize(a - b @ np.linalg.solve(d, b.T))
