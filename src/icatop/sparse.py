"""Symmetric sparse matrices with reusable band factorizations.

A symmetric matrix stores its upper triangle once, as CSR rows.
Matrices share one sparsity pattern per mesh; each assembly writes new
values, never into a matrix already made.  A pattern carries its
factorization plan (``BandPlan``): a band-reducing symmetric order of its
rows and where each stored entry lands in the band, built once per
pattern; the finite-element model sweeps its tangents along the grid's
longer axis.  Factorizations, made once in that order and reused across
many solves, are banded Cholesky LL^T (LAPACK ``dpbtrf``), the symmetric
LDL^T-family factorization the paper's solver relies on; an indefinite
tangent falls back to banded LU with partial pivoting (``dgbtrf``) on the
same band.  The entry point keeps the name ``ldlt_factor`` for that
symmetric family.  A held factor that will only be swept by iterative
refinement demotes itself to float32 in its own buffer
(``Factorization.demote``), which halves the memory a solve streams.
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


@dataclass(frozen=True)
class BandPlan:
    """Factorization plan of one sparsity pattern.

    ``perm[k]`` is the original index of the k-th row in the band's
    symmetric order.  The band is LAPACK lower band storage, Fortran-ordered
    with shape (kd + 1, n), so LAPACK works on it in place; entry (i, j) of
    the permuted matrix, i >= j, sits at row i - j of column j.  Built on
    the stored triangle, whose entry (i, j) lands at row |i - j| of column
    min(i, j).
    """

    n: int
    kd: int             # half-bandwidth of the permuted matrix
    perm: np.ndarray
    dest: np.ndarray    # flat band offset of each stored entry

    @classmethod
    def build(cls, indptr: np.ndarray, indices: np.ndarray,
              perm) -> "BandPlan":
        n = len(indptr) - 1
        perm = np.asarray(perm, dtype=np.intp)
        pos = np.empty(n, dtype=np.intp)
        pos[perm] = np.arange(n)
        rows = pos[np.repeat(np.arange(n), np.diff(indptr))]
        cols = pos[indices]
        offset = np.abs(rows - cols)
        kd = int(offset.max()) if offset.size else 0
        return cls(n, kd, perm, offset + np.minimum(rows, cols) * (kd + 1))

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
    """Symmetric matrix stored as its upper triangle (i <= j) in CSR rows
    with a fixed, sorted pattern.

    ``indptr``/``indices`` and ``plan`` are shared between matrices on the
    same pattern; only ``data`` differs, so a matrix on an existing pattern
    is ``dataclasses.replace(K, data=...)``.  Symmetry is by construction:
    each entry off the diagonal is stored once, for both of its places.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    plan: BandPlan

    def __post_init__(self):
        if self.data.shape != self.indices.shape:
            raise ValueError("data and indices must have matching length")
        if self.plan.n != self.n:
            raise ValueError(f"plan is for {self.plan.n} rows, matrix has "
                             f"{self.n}")

    @classmethod
    def from_dense(cls, A: np.ndarray) -> "SparseSym":
        """The upper nonzeros of a symmetric A, with a plan in the natural
        order; raises ValueError if A is not symmetric."""
        A = np.asarray(A, dtype=float)
        if not np.array_equal(A, A.T, equal_nan=True):
            raise ValueError("matrix is not symmetric")
        U = sp.csr_matrix(np.triu(A))
        n = U.shape[0]
        return cls(n, U.indptr, U.indices, U.data,
                   BandPlan.build(U.indptr, U.indices, np.arange(n)))

    def to_csr(self) -> sp.csr_matrix:
        """The stored triangle U, a cached CSR view of ``data`` (cached
        with its diagonal); the matrix is U + triu(U, 1).T."""
        csr = getattr(self, "_csr", None)
        if csr is None:
            csr = sp.csr_matrix((self.data, self.indices, self.indptr),
                                shape=(self.n, self.n))
            self._csr, self._diagonal = csr, csr.diagonal()
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
        U = self.to_csr()
        y = U @ v
        y += U.T @ v
        y -= self._diagonal * v
        return y


def _lapack_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} is invalid")


@dataclass
class BandFactor:
    """LAPACK band factor: Cholesky when ``piv`` is None, else LU.

    ``ab`` is float64 as factored, or float32 once demoted.
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

    def demote(self) -> None:
        """Round the band to float32 in its own buffer; later solves run in
        float32.

        The band is converted front to back, one chunk at a time: float32
        entry i lands in the bytes of float64 entry i // 2, which was read
        no later than entry i, so no entry is overwritten before it is
        read.
        """
        ab = self._lu.ab
        flat = ab.reshape(-1, order="F")            # a view: F-ordered band
        single = flat.view(np.float32)
        for start in range(0, flat.size, DEMOTE_CHUNK):
            stop = min(start + DEMOTE_CHUNK, flat.size)
            single[start:stop] = flat[start:stop].astype(np.float32)
        self._lu.ab = single[:flat.size].reshape(ab.shape, order="F")


def ldlt_factor(K: SparseSym) -> Factorization:
    """Factor a symmetric (possibly indefinite) matrix for repeated solves.

    A banded Cholesky LL^T, the symmetric LDL^T-family factorization the
    paper relies on (hence the name), on the band of the pattern's plan.  A
    matrix that is not positive definite is factored by banded LU with
    partial pivoting on the same band instead.  Raises SingularMatrixError
    on non-finite values or an exactly zero LU pivot.
    """
    if not np.isfinite(K.data).all():
        raise SingularMatrixError("matrix holds non-finite values")
    plan = K.plan
    ab, info = dpbtrf(plan.cholesky_band(K.data), lower=1, overwrite_ab=1)
    _lapack_info("dpbtrf", info)
    if info == 0:
        return Factorization(K.n, BandFactor(ab, plan.kd), plan.perm)
    # not positive definite: LU with partial pivoting on the same band,
    # built once the failed band is dropped, so one band is held at a time
    del ab
    ab, piv, info = dgbtrf(plan.lu_band(K.data), plan.kd, plan.kd,
                           overwrite_ab=1)
    _lapack_info("dgbtrf", info)
    if info > 0:
        raise SingularMatrixError(f"zero pivot in column {info} of the band LU")
    return Factorization(K.n, BandFactor(ab, plan.kd, piv), plan.perm)


def delta_apply(dK: SparseSym, v: np.ndarray) -> np.ndarray:
    """dK @ v for a matrix dK: ``dK.matvec(v)`` under its own name.

    Nothing in the package calls it since the sweeps iterate in residual
    form.  It stays only because the benchmark's span tracer
    (``perfbench/tracer.py``) refuses to install when one of its layers,
    ``sparse.delta_apply`` among them, has no lookup site left.
    """
    return dK.matvec(v)
