import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import make_cantilever_model
from icatop.errors import SingularMatrixError
from icatop.sparse import (BandOrder, Factorization, SparseSym, delta_apply,
                           ldlt_factor, solve, write_matrix_market)


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_identity_roundtrip():
    K = SparseSym.from_dense(np.eye(5))
    F = ldlt_factor(K)
    b = np.arange(5.0)
    assert np.allclose(F.solve(b), b, rtol=1e-14)


def test_spd_against_dense_cholesky():
    rng = np.random.default_rng(0)
    A = random_spd(rng, 50)
    b = rng.standard_normal(50)
    x = ldlt_factor(SparseSym.from_dense(A)).solve(b)
    expect = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), b)
    assert np.abs(x - expect).max() <= 1e-10 * np.abs(expect).max()


def test_indefinite_diagonal():
    # diag(1, -1) embedded in a full pattern
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    K = SparseSym.from_csr(sp.csr_matrix(A))
    F = ldlt_factor(K)
    b = np.array([2.0, 3.0])
    assert np.allclose(F.solve(b), [2.0, -3.0], rtol=1e-14)


def test_indefinite_random():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((40, 40))
    A = 0.5 * (A + A.T)              # symmetric, generically indefinite
    evals = np.linalg.eigvalsh(A)
    assert evals.min() < 0 < evals.max()
    b = rng.standard_normal(40)
    x = ldlt_factor(SparseSym.from_dense(A)).solve(b)
    assert np.abs(A @ x - b).max() <= 1e-9 * np.abs(b).max()


def test_zero_rhs():
    rng = np.random.default_rng(2)
    K = SparseSym.from_dense(random_spd(rng, 10))
    x = ldlt_factor(K).solve(np.zeros(10))
    assert np.all(x == 0.0)


def test_solve_recovers_random_vector():
    rng = np.random.default_rng(3)
    A = random_spd(rng, 30)
    K = SparseSym.from_dense(A)
    w = rng.standard_normal(30)
    x = solve(ldlt_factor(K), K.matvec(w))
    assert np.abs(x - w).max() <= 1e-10 * np.abs(w).max()


def test_ordering_invariance():
    rng = np.random.default_rng(4)
    A = random_spd(rng, 25)
    K = SparseSym.from_dense(A)
    b = rng.standard_normal(25)
    x_nat = ldlt_factor(K).solve(b)
    for order in (BandOrder(np.arange(25)), BandOrder(rng.permutation(25))):
        x = ldlt_factor(SparseSym(25, K.indptr, K.indices, K.data,
                                  order)).solve(b)
        assert np.abs(x - x_nat).max() <= 1e-12 * max(1.0, np.abs(x_nat).max())


def test_repeated_solves_bitwise_identical():
    rng = np.random.default_rng(5)
    K = SparseSym.from_dense(random_spd(rng, 20))
    F = ldlt_factor(K)
    b = rng.standard_normal(20)
    assert F.solve(b).tobytes() == F.solve(b).tobytes()


def test_singular_matrix_raises():
    # third pivot structurally present but exactly zero
    K = SparseSym.from_csr(sp.csr_matrix(
        ([1.0, 1.0, 0.0], ([0, 1, 2], [0, 1, 2])), shape=(3, 3)))
    with pytest.raises(SingularMatrixError):
        ldlt_factor(K)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_raise(bad):
    A = random_spd(np.random.default_rng(7), 6)
    A[2, 3] = A[3, 2] = bad
    with pytest.raises(SingularMatrixError):
        ldlt_factor(SparseSym.from_dense(A))


@pytest.mark.parametrize("nx, ny", [(30, 10), (8, 30)])
class TestFeModelTangents:
    """Tangents on the model's own pattern and sweep order; the two meshes
    take the two branches of the order (longer axis x, longer axis y)."""

    def setup_method(self):
        self.rng = np.random.default_rng(8)

    def tangent(self, nx, ny):
        model = make_cantilever_model(nx, ny)
        rho = self.rng.uniform(0.2, 1.0, model.mesh.n_el)
        return model.tangent(rho, 3.0, np.zeros(model.mesh.n_free))

    def check_against_spsolve(self, K):
        b = self.rng.standard_normal(K.n)
        x = ldlt_factor(K).solve(b)
        expect = spla.spsolve(K.to_csr().tocsc(), b)
        assert np.abs(x - expect).max() <= 1e-10 * np.abs(expect).max()

    def test_band_within_sweep_bound(self, nx, ny):
        K = self.tangent(nx, ny)
        pos = np.empty(K.n, dtype=int)
        pos[K.order.perm] = np.arange(K.n)
        rows = np.repeat(np.arange(K.n), np.diff(K.indptr))
        band = np.abs(pos[rows] - pos[K.indices]).max()
        assert band <= 2 * min(nx, ny) + 5
        # the stored entries the benchmark counts: one band column per row
        assert ldlt_factor(K)._lu.nnz == (band + 1) * K.n

    def test_cholesky_matches_spsolve(self, nx, ny):
        K = self.tangent(nx, ny)
        assert ldlt_factor(K)._lu.piv is None
        self.check_against_spsolve(K)

    def test_indefinite_shift_matches_spsolve(self, nx, ny):
        K = self.tangent(nx, ny)
        diag = K.indices == np.repeat(np.arange(K.n), np.diff(K.indptr))
        shifted = K.copy()
        shifted.data[diag] -= K.data[diag].mean()
        assert ldlt_factor(shifted)._lu.piv is not None
        self.check_against_spsolve(shifted)

    def test_refactorization_bitwise_identical(self, nx, ny):
        K = self.tangent(nx, ny)
        b = self.rng.standard_normal(K.n)
        assert ldlt_factor(K).solve(b).tobytes() == \
            ldlt_factor(K.copy()).solve(b).tobytes()


def test_dimension_mismatch():
    K = SparseSym.from_dense(np.eye(4))
    F = ldlt_factor(K)
    with pytest.raises(ValueError):
        F.solve(np.zeros(5))
    with pytest.raises(ValueError):
        K.matvec(np.zeros(3))


class TestDeltaApply:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.A = random_spd(rng, 15)
        self.K_old = SparseSym.from_dense(self.A)
        self.rng = rng

    def _with_values(self, dense):
        return SparseSym(15, self.K_old.indptr, self.K_old.indices,
                         SparseSym.from_dense(dense).data)

    def test_equal_matrices_give_zero(self):
        v = self.rng.standard_normal(15)
        out = delta_apply(self.K_old.copy(), self.K_old, v)
        assert np.all(out == 0.0)

    def test_linearity(self):
        K_new = self._with_values(self.A + 0.3 * np.diag(np.arange(15.0)))
        v = self.rng.standard_normal(15)
        direct = K_new.matvec(v) - self.K_old.matvec(v)
        assert np.abs(delta_apply(K_new, self.K_old, v) - direct).max() <= \
            1e-13 * max(1.0, np.abs(direct).max())

    def test_double_matrix(self):
        K_new = SparseSym(15, self.K_old.indptr, self.K_old.indices,
                          2.0 * self.K_old.data)
        v = self.rng.standard_normal(15)
        assert np.allclose(delta_apply(K_new, self.K_old, v),
                           self.K_old.matvec(v), rtol=1e-14)

    def test_pattern_mismatch_rejected(self):
        other = SparseSym.from_dense(np.eye(15))
        other = SparseSym.from_csr(sp.csr_matrix(np.diag(np.ones(15))))
        with pytest.raises(ValueError):
            delta_apply(other, self.K_old, np.zeros(15))


def test_matrix_market_export(tmp_path):
    A = np.array([[4.0, 1.0, 0.0],
                  [1.0, 3.0, 0.5],
                  [0.0, 0.5, 2.0]])
    path = tmp_path / "K.mtx"
    write_matrix_market(SparseSym.from_dense(A), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    n_rows, n_cols, nnz = map(int, lines[1].split())
    assert (n_rows, n_cols) == (3, 3)
    entries = [line.split() for line in lines[2:]]
    assert len(entries) == nnz
    B = np.zeros((3, 3))
    for i, j, val in entries:
        i, j = int(i) - 1, int(j) - 1
        assert i >= j                    # lower triangle, 1-based
        B[i, j] = float(val)
        B[j, i] = float(val)
    assert np.array_equal(B, A)


def test_stamp_field():
    F = ldlt_factor(SparseSym.from_dense(np.eye(2)))
    assert F.stamp is None
    F.stamp = (3, 17)
    assert F.stamp == (3, 17)
