import numpy as np
import pytest

from icatop.errors import NonPositiveJacobianError
from icatop.material import (GAUSS_POINTS, MaterialParams,
                             gauss_shape_gradients, shape_gradients)
from reference import (deformation_gradient, elasticity_matrix, energy_many,
                       pk1_many, tangent_many)

MAT = MaterialParams(3000.0, 0.4)


def random_F(rng, spread=0.3):
    """Deformation gradient with 0.5 < J < 2."""
    while True:
        F = np.eye(2) + spread * rng.standard_normal((2, 2))
        if 0.5 < np.linalg.det(F) < 2.0:
            return F


def fd_stress(F, mat, h=5e-6):
    out = np.zeros(4)
    for k in range(4):
        dF = np.zeros(4)
        dF[k] = h
        out[k] = (energy_many((F + dF.reshape(2, 2))[None], mat)[0]
                  - energy_many((F - dF.reshape(2, 2))[None], mat)[0]) / (2 * h)
    return out


def fd_tangent(F, mat, h=5e-6):
    out = np.zeros((4, 4))
    for k in range(4):
        dF = np.zeros(4)
        dF[k] = h
        out[:, k] = (pk1_many((F + dF.reshape(2, 2))[None], mat)[0]
                     - pk1_many((F - dF.reshape(2, 2))[None], mat)[0]) / (2 * h)
    return out


class TestMaterialParams:
    def test_lame_constants(self):
        lam = 3000.0 * 0.4 / (1.4 * 0.2)
        mu = 3000.0 / 2.8
        assert MAT.lam == pytest.approx(lam, rel=1e-15)
        assert MAT.mu == pytest.approx(mu, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(-1.0, 0.3)
        with pytest.raises(ValueError):
            MaterialParams(1.0, 0.5)


class TestShapeGradients:
    def test_rigid_translation_has_zero_gradient(self):
        G = shape_gradients(2.0, 1.5, 0.3, -0.4)
        u = np.tile([1.7, -2.2], 4)
        assert np.allclose(G @ u, 0.0, atol=1e-14)

    def test_exact_linear_field(self):
        # u_x = X on a unit square element with corner coordinates
        coords = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        u = np.zeros(8)
        u[0::2] = coords[:, 0]
        for xi, eta in GAUSS_POINTS:
            G = shape_gradients(1.0, 1.0, xi, eta)
            assert np.allclose(G @ u, [1, 0, 0, 0], atol=1e-14)

    def test_bilinear_field_matches_analytic_gradient(self):
        rng = np.random.default_rng(3)
        w, h = 2.0, 0.75
        coeff = rng.standard_normal((2, 4))    # (a, b, c, d) per component

        def field(x, y, c):
            return c[0] + c[1] * x + c[2] * y + c[3] * x * y

        corners = np.array([[0, 0], [w, 0], [w, h], [0, h]])
        u = np.zeros(8)
        for a, (x, y) in enumerate(corners):
            u[2 * a] = field(x, y, coeff[0])
            u[2 * a + 1] = field(x, y, coeff[1])
        for xi, eta in GAUSS_POINTS:
            x = 0.5 * w * (1 + xi)
            y = 0.5 * h * (1 + eta)
            G = shape_gradients(w, h, xi, eta)
            grad = G @ u
            expect = [coeff[0][1] + coeff[0][3] * y, coeff[0][2] + coeff[0][3] * x,
                      coeff[1][1] + coeff[1][3] * y, coeff[1][2] + coeff[1][3] * x]
            assert np.allclose(grad, expect, rtol=1e-12, atol=1e-12)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            shape_gradients(0.0, 1.0, 0.0, 0.0)


class TestDeformationGradient:
    def test_zero_displacement(self):
        G = shape_gradients(1.0, 1.0, 0.0, 0.0)
        F, J = deformation_gradient(G, np.zeros(8))
        assert np.array_equal(F, np.eye(2))
        assert J == 1.0

    def test_uniform_stretch(self):
        alpha = 0.25
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        u = np.zeros(8)
        u[0::2] = alpha * corners[:, 0]
        G = shape_gradients(1.0, 1.0, -0.2, 0.6)
        _, J = deformation_gradient(G, u)
        assert J == pytest.approx(1.0 + alpha, rel=1e-14)

    def test_small_field_linearization(self):
        rng = np.random.default_rng(5)
        G = shape_gradients(1.0, 1.0, 0.1, -0.3)
        u = 1e-6 * rng.standard_normal(8)
        F, J = deformation_gradient(G, u)
        H = F - np.eye(2)
        assert J == pytest.approx(1.0 + np.trace(H), abs=10 * np.sum(H * H))


class TestConstitutiveLaw:
    def test_stress_free_reference_exact(self):
        sigma = pk1_many(np.eye(2)[None], MAT)[0]
        assert np.all(sigma == 0.0)

    def test_stress_matches_energy_fd(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            F = random_F(rng)
            sigma = pk1_many(F[None], MAT)[0]
            err = np.abs(sigma - fd_stress(F, MAT)) / (1.0 + np.abs(sigma))
            assert err.max() <= 1e-6

    def test_tangent_matches_stress_fd(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            F = random_F(rng)
            D = tangent_many(F[None], MAT)[0]
            err = np.abs(D - fd_tangent(F, MAT)) / (1.0 + np.abs(D))
            assert err.max() <= 1e-5

    def test_tangent_major_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            D = tangent_many(random_F(rng)[None], MAT)[0]
            assert np.allclose(D, D.T, rtol=1e-12, atol=1e-12 * np.abs(D).max())

    def test_tangent_at_identity_is_plane_strain_modulus(self):
        assert np.allclose(tangent_many(np.eye(2)[None], MAT)[0],
                           elasticity_matrix(MAT), rtol=1e-12)

    def test_small_strain_limit_matches_linear_elasticity(self):
        eps = 1e-8
        sigma = pk1_many(np.diag([1.0 + eps, 1.0])[None], MAT)[0]
        lam, mu = MAT.lam, MAT.mu
        expect = np.array([(lam + 2 * mu) * eps, 0.0, 0.0, lam * eps])
        assert np.allclose(sigma, expect, rtol=1e-6, atol=1e-8 * (lam + 2 * mu) * eps)

    def test_objectivity(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            F = random_F(rng, 0.2)
            th = rng.uniform(0.0, 2 * np.pi)
            Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            W = energy_many(F[None], MAT)[0]
            assert energy_many((Q @ F)[None], MAT)[0] == pytest.approx(W, rel=1e-12)

    def test_nonpositive_jacobian_raises(self):
        with pytest.raises(NonPositiveJacobianError):
            energy_many(np.diag([1.0, -0.5])[None], MAT)
        with pytest.raises(NonPositiveJacobianError):
            pk1_many(np.diag([0.0, 1.0])[None], MAT)
        with pytest.raises(NonPositiveJacobianError):
            tangent_many(np.diag([1.0, 0.0])[None], MAT)


def test_gauss_shape_gradients_shape():
    G = gauss_shape_gradients(2.0, 1.0)
    assert G.shape == (4, 4, 8)
