"""Symmetric sparse matrices with reusable band factorizations and delta products.

Matrices share one sparsity pattern per mesh; each assembly writes new
values, never into a matrix already made.  A pattern may carry a
band-reducing symmetric order of its rows (``BandOrder``); the finite-element
model sweeps its tangents along the grid's longer axis.  Factorizations,
made once in that order and reused across many solves, are banded
Cholesky LL^T (LAPACK ``dpbtrf``), the symmetric LDL^T-family
factorization the paper's solver relies on; an indefinite tangent falls
back to banded LU with partial pivoting (``dgbtrf``) on the same band.
The entry point keeps the name ``ldlt_factor`` for that symmetric family.
A factor that will only be swept by iterative refinement can be rounded to
float32 in its own buffer (``Factorization.demoted``), which halves the
memory a solve streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import (dgbtrf, dgbtrs, dpbtrf, dpbtrs, sgbtrs,
                                 spbtrs)

from .errors import SingularMatrixError

# entries rounded per step when a band is demoted in place: the only
# temporary, 256 KiB
DEMOTE_CHUNK = 1 << 16


class BandOrder:
    """Symmetric permutation of a pattern's rows that keeps its band narrow.

    ``perm[k]`` is the original index of the k-th row in the new order.  The
    band layout of the pattern is built on the first factorization and kept
    here, so every matrix that shares the pattern and this order reuses it.
    """

    def __init__(self, perm):
        self.perm = np.asarray(perm, dtype=np.intp)
        self._layout = None     # (pattern indices, _BandLayout)

    def layout(self, K: "SparseSym") -> "_BandLayout":
        if self._layout is None or self._layout[0] is not K.indices:
            self._layout = (K.indices, _BandLayout.build(K, self.perm))
        return self._layout[1]


@dataclass(frozen=True)
class _BandLayout:
    """Where each stored entry lands in LAPACK lower band storage.

    The band is Fortran-ordered with shape (kd + 1, n), so LAPACK works on it
    in place; entry (i, j) of the permuted matrix, i >= j, sits at row i - j
    of column j.
    """

    n: int
    kd: int             # half-bandwidth of the permuted matrix
    pick: np.ndarray    # data positions of the entries with i >= j
    dest: np.ndarray    # flat band offsets of those entries

    @classmethod
    def build(cls, K: "SparseSym", perm: np.ndarray) -> "_BandLayout":
        pos = np.empty(K.n, dtype=np.intp)
        pos[perm] = np.arange(K.n)
        rows = pos[np.repeat(np.arange(K.n), np.diff(K.indptr))]
        cols = pos[K.indices]
        pick = np.flatnonzero(rows >= cols)
        offset, cols = rows[pick] - cols[pick], cols[pick]
        kd = int(offset.max()) if offset.size else 0
        return cls(K.n, kd, pick, offset + cols * (kd + 1))

    def cholesky_band(self, vals: np.ndarray) -> np.ndarray:
        ab = np.zeros((self.kd + 1) * self.n)
        ab[self.dest] = vals
        return ab.reshape((self.kd + 1, self.n), order="F")

    def lu_band(self, vals: np.ndarray) -> np.ndarray:
        """Both triangles in ``dgbtrf`` storage, kl = ku = kd plus kd rows of
        room for pivoting fill: entry (i, j) sits at row 2 kd + i - j."""
        kd, ld = self.kd, 3 * self.kd + 1
        col, offset = np.divmod(self.dest, kd + 1)
        ab = np.zeros(ld * self.n)
        ab[2 * kd + offset + col * ld] = vals
        ab[2 * kd - offset + (col + offset) * ld] = vals
        return ab.reshape((ld, self.n), order="F")


@dataclass
class SparseSym:
    """Symmetric matrix in CSR form with a fixed, sorted pattern.

    ``indptr``/``indices`` and ``order`` are shared between matrices on the
    same pattern; only ``data`` differs.  ``order`` is the pattern's
    band-reducing ``BandOrder``; None means the natural order.  Symmetry is
    by construction (both triangles are stored).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    order: BandOrder = None

    def __post_init__(self):
        if self.data.shape != self.indices.shape:
            raise ValueError("data and indices must have matching length")

    @classmethod
    def from_csr(cls, A: sp.csr_matrix) -> "SparseSym":
        A = A.tocsr().sorted_indices()
        A.sum_duplicates()
        return cls(A.shape[0], A.indptr, A.indices, np.asarray(A.data, dtype=float))

    @classmethod
    def from_dense(cls, A: np.ndarray) -> "SparseSym":
        return cls.from_csr(sp.csr_matrix(np.asarray(A, dtype=float)))

    def to_csr(self) -> sp.csr_matrix:
        # cached view sharing the data buffer; values edited in place show up
        csr = getattr(self, "_csr", None)
        if csr is None:
            csr = sp.csr_matrix((self.data, self.indices, self.indptr),
                                shape=(self.n, self.n))
            self._csr = csr
        return csr

    def same_pattern(self, other: "SparseSym") -> bool:
        if self.indices is other.indices and self.indptr is other.indptr:
            return True
        return (self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {v.shape}")
        return self.to_csr() @ v


def _lapack_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} is invalid")


@dataclass
class BandFactor:
    """LAPACK band factor: Cholesky when ``piv`` is None, else LU.

    ``ab`` is float64 as factored, or float32 once demoted; a factor whose
    buffer was handed to its demoted copy holds None and refuses to solve.
    """

    ab: np.ndarray
    kd: int
    piv: np.ndarray = None

    @property
    def nnz(self) -> int:
        """Stored band entries, padding included."""
        return self.ab.size

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve in the factor's own precision and order; ``b`` may be
        overwritten."""
        if self.ab is None:
            raise RuntimeError("band factor was demoted; solve with its "
                               "float32 copy")
        single = self.ab.dtype == np.float32
        b = b.astype(self.ab.dtype, copy=False)
        if self.piv is None:
            x, info = (spbtrs if single else dpbtrs)(self.ab, b, lower=1,
                                                     overwrite_b=1)
            _lapack_info("pbtrs", info)
        else:
            x, info = (sgbtrs if single else dgbtrs)(self.ab, self.kd, self.kd,
                                                     b, self.piv, overwrite_b=1)
            _lapack_info("gbtrs", info)
        return x

    def demoted(self) -> "BandFactor":
        """This factor rounded to float32, written over its own buffer.

        The band is converted front to back, one chunk at a time: float32
        entry i lands in the bytes of float64 entry i // 2, which was read
        no later than entry i, so no entry is overwritten before it is
        read.  This factor goes stale and raises if used.
        """
        flat = self.ab.reshape(-1, order="F")       # a view: F-ordered band
        single = flat.view(np.float32)
        for start in range(0, flat.size, DEMOTE_CHUNK):
            stop = min(start + DEMOTE_CHUNK, flat.size)
            single[start:stop] = flat[start:stop].astype(np.float32)
        ab = single[:flat.size].reshape(self.ab.shape, order="F")
        self.ab = None
        return BandFactor(ab, self.kd, self.piv)


@dataclass
class Factorization:
    """Held factorization of a SparseSym, reusable for many solves."""

    n: int
    _lu: BandFactor
    perm: np.ndarray

    @property
    def single(self) -> bool:
        """Whether the band was demoted to float32."""
        return self._lu.ab.dtype == np.float32

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"expected right-hand side of length {self.n}, got {b.shape}")
        x = np.empty(self.n)
        x[self.perm] = self._lu.solve(b[self.perm])
        return x

    def demoted(self) -> "Factorization":
        """The same factor in float32, in this one's buffer (see
        ``BandFactor.demoted``); this factorization goes stale."""
        return Factorization(self.n, self._lu.demoted(), self.perm)


def ldlt_factor(K: SparseSym) -> Factorization:
    """Factor a symmetric (possibly indefinite) matrix for repeated solves.

    A banded Cholesky LL^T, the symmetric LDL^T-family factorization the
    paper relies on (hence the name), in the pattern's sweep order.  A
    matrix that is not positive definite is factored by banded LU with
    partial pivoting on the same band instead.  Raises SingularMatrixError
    on non-finite values or an exactly zero LU pivot.
    """
    if not np.isfinite(K.data).all():
        raise SingularMatrixError("matrix holds non-finite values")
    order = K.order if K.order is not None else BandOrder(np.arange(K.n))
    layout = order.layout(K)
    vals = K.data[layout.pick]
    ab, info = dpbtrf(layout.cholesky_band(vals), lower=1, overwrite_ab=1)
    _lapack_info("dpbtrf", info)
    if info == 0:
        return Factorization(K.n, BandFactor(ab, layout.kd), order.perm)
    # not positive definite: LU with partial pivoting on the same band
    ab, piv, info = dgbtrf(layout.lu_band(vals), layout.kd, layout.kd,
                           overwrite_ab=1)
    _lapack_info("dgbtrf", info)
    if info > 0:
        raise SingularMatrixError(f"zero pivot in column {info} of the band LU")
    return Factorization(K.n, BandFactor(ab, layout.kd, piv), order.perm)


def difference(K_new: SparseSym, K_old: SparseSym) -> SparseSym:
    """K_new - K_old on the shared pattern, for repeated delta products."""
    if not K_new.same_pattern(K_old):
        raise ValueError("matrices do not share a sparsity pattern")
    return SparseSym(K_new.n, K_new.indptr, K_new.indices,
                     K_new.data - K_old.data, K_new.order)


def delta_apply(dK: SparseSym, v: np.ndarray) -> np.ndarray:
    """dK @ v for a held difference dK = K_new - K_old (see ``difference``).

    The delta product of the reanalysis sweeps, kept apart from ``matvec``
    so that its calls and cost are counted on their own.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (dK.n,):
        raise ValueError(f"expected vector of length {dK.n}, got {v.shape}")
    return dK.to_csr() @ v
