import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from conftest import full_csr, make_cantilever_model, rest_state
from icatop.errors import SingularMatrixError
from icatop.sparse import BandPlan, SparseSym, delta_apply, ldlt_factor


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
    K = SparseSym.from_dense(A)
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


def test_failed_cholesky_band_dropped_before_lu_band(monkeypatch):
    # the LU band is three times the Cholesky band's size; the failed
    # Cholesky band must be freed before it is built
    bands, lu_built = [], []
    cholesky_band, lu_band = BandPlan.cholesky_band, BandPlan.lu_band

    def keep_weakref(plan, vals):
        band = cholesky_band(plan, vals)
        bands.append(weakref.ref(band))
        return band

    def check_dropped(plan, vals):
        assert len(bands) == 1 and bands[0]() is None
        lu_built.append(True)
        return lu_band(plan, vals)

    monkeypatch.setattr(BandPlan, "cholesky_band", keep_weakref)
    monkeypatch.setattr(BandPlan, "lu_band", check_dropped)
    A = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    x = ldlt_factor(SparseSym.from_dense(A)).solve(b)
    assert lu_built
    assert np.abs(A @ x - b).max() <= 1e-14 * np.abs(b).max()


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
    x = ldlt_factor(K).solve(K.matvec(w))
    assert np.abs(x - w).max() <= 1e-10 * np.abs(w).max()


def test_ordering_invariance():
    rng = np.random.default_rng(4)
    A = random_spd(rng, 25)
    K = SparseSym.from_dense(A)
    b = rng.standard_normal(25)
    x_nat = ldlt_factor(K).solve(b)
    for perm in (np.arange(25), rng.permutation(25)):
        plan = BandPlan.build(K.indptr, K.indices, perm)
        x = ldlt_factor(replace(K, plan=plan)).solve(b)
        assert np.abs(x - x_nat).max() <= 1e-12 * max(1.0, np.abs(x_nat).max())


def test_repeated_solves_bitwise_identical():
    rng = np.random.default_rng(5)
    K = SparseSym.from_dense(random_spd(rng, 20))
    F = ldlt_factor(K)
    b = rng.standard_normal(20)
    assert F.solve(b).tobytes() == F.solve(b).tobytes()


def test_singular_matrix_raises():
    # third pivot structurally present but exactly zero
    diag = np.arange(3)
    K = SparseSym(3, np.arange(4), diag, np.array([1.0, 1.0, 0.0]),
                  BandPlan.build(np.arange(4), diag, diag))
    with pytest.raises(SingularMatrixError):
        ldlt_factor(K)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_raise(bad):
    A = random_spd(np.random.default_rng(7), 6)
    A[2, 3] = A[3, 2] = bad
    with pytest.raises(SingularMatrixError):
        ldlt_factor(SparseSym.from_dense(A))


def test_from_dense_rejects_non_symmetric():
    # storing the upper triangle would silently drop A[2, 0]
    A = np.eye(3)
    A[0, 2] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        SparseSym.from_dense(A)


@pytest.mark.parametrize("nx, ny", [(30, 10), (8, 30)])
class TestFeModelTangents:
    """Tangents on the model's own pattern and sweep order; the two meshes
    take the two branches of the order (longer axis x, longer axis y)."""

    def setup_method(self):
        self.rng = np.random.default_rng(8)

    def tangent(self, nx, ny):
        model = make_cantilever_model(nx, ny)
        rho = self.rng.uniform(0.2, 1.0, model.mesh.n_el)
        return model.tangent(rho, 3.0, rest_state(model))

    def check_against_spsolve(self, K):
        b = self.rng.standard_normal(K.n)
        x = ldlt_factor(K).solve(b)
        expect = spla.spsolve(full_csr(K).tocsc(), b)
        assert np.abs(x - expect).max() <= 1e-10 * np.abs(expect).max()

    def test_band_within_sweep_bound(self, nx, ny):
        K = self.tangent(nx, ny)
        pos = np.empty(K.n, dtype=int)
        pos[K.plan.perm] = np.arange(K.n)
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
        shifted = replace(K, data=K.data.copy())
        shifted.data[diag] -= K.data[diag].mean()
        assert ldlt_factor(shifted)._lu.piv is not None
        self.check_against_spsolve(shifted)

    def test_refactorization_bitwise_identical(self, nx, ny):
        K = self.tangent(nx, ny)
        b = self.rng.standard_normal(K.n)
        assert ldlt_factor(K).solve(b).tobytes() == \
            ldlt_factor(replace(K, data=K.data.copy())).solve(b).tobytes()


def test_plan_of_another_size_rejected():
    K = SparseSym.from_dense(np.eye(4))
    other = SparseSym.from_dense(np.eye(5)).plan
    with pytest.raises(ValueError, match="plan"):
        replace(K, plan=other)


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
        return replace(self.K_old, data=SparseSym.from_dense(dense).data)

    def _minus_old(self, K_new):
        """K_new - K_old on the shared pattern."""
        return replace(K_new, data=K_new.data - self.K_old.data)

    def test_equal_matrices_give_zero(self):
        v = self.rng.standard_normal(15)
        copy = replace(self.K_old, data=self.K_old.data.copy())
        out = delta_apply(self._minus_old(copy), v)
        assert np.all(out == 0.0)

    def test_linearity(self):
        K_new = self._with_values(self.A + 0.3 * np.diag(np.arange(15.0)))
        v = self.rng.standard_normal(15)
        direct = K_new.matvec(v) - self.K_old.matvec(v)
        assert np.abs(delta_apply(self._minus_old(K_new), v)
                      - direct).max() <= \
            1e-13 * max(1.0, np.abs(direct).max())

    def test_double_matrix(self):
        K_new = replace(self.K_old, data=2.0 * self.K_old.data)
        v = self.rng.standard_normal(15)
        assert np.allclose(delta_apply(self._minus_old(K_new), v),
                           self.K_old.matvec(v), rtol=1e-14)
