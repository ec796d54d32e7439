import numpy as np
import pytest

from hamrom.linalg import (
    LuFactorization,
    SingularMatrixError,
    thin_svd_snapshots,
)


def _full_svd_oracle(Y):
    """Independent thin SVD via eigendecompositions of both Gram matrices.

    Left vectors from Y Y^T, right vectors from Y^T Y, signs aligned so that
    u_j ~ Y v_j; entirely separate from the LAPACK SVD code path.
    """
    n, m = Y.shape
    lam_l, U = np.linalg.eigh(Y @ Y.T)
    lam_r, V = np.linalg.eigh(Y.T @ Y)
    order_l = np.argsort(lam_l)[::-1]
    order_r = np.argsort(lam_r)[::-1]
    U = U[:, order_l][:, :m]
    V = V[:, order_r]
    sigma = np.sqrt(np.clip(lam_r[order_r], 0.0, None))
    for j in range(m):
        if U[:, j] @ (Y @ V[:, j]) < 0:
            U[:, j] = -U[:, j]
    return U, sigma, V


class TestThinSvd:
    def test_single_column(self):
        phi, sigma = thin_svd_snapshots(np.array([[1.0], [0.0], [0.0]]), max_rank=1)
        assert np.allclose(sigma, [1.0])
        assert np.allclose(np.abs(phi[:, 0]), [1.0, 0.0, 0.0])

    def test_orthogonal_columns(self):
        Y = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        phi, sigma = thin_svd_snapshots(Y)
        assert np.allclose(sigma, [2.0, 1.0])
        assert np.allclose(np.abs(phi), [[1, 0], [0, 1], [0, 0]], atol=1e-14)

    def test_matches_full_svd_oracle(self):
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((8, 4))
        phi, sigma = thin_svd_snapshots(Y, max_rank=4)
        U, sig_oracle, V = _full_svd_oracle(Y)
        assert np.allclose(sigma, sig_oracle[: sigma.size], rtol=1e-12, atol=1e-12)
        # columns agree up to sign
        for j in range(4):
            assert min(
                np.abs(phi[:, j] - U[:, j]).max(), np.abs(phi[:, j] + U[:, j]).max()
            ) <= 1e-9
        # reconstruction through the oracle factors
        recon = U @ np.diag(sig_oracle) @ V.T
        assert np.abs(recon - Y).max() <= 1e-9

    def test_orthonormality(self):
        rng = np.random.default_rng(22)
        Y = rng.standard_normal((30, 12))
        phi, _ = thin_svd_snapshots(Y)
        assert np.abs(phi.T @ phi - np.eye(phi.shape[1])).max() <= 1e-12

    def test_energy_identity(self):
        rng = np.random.default_rng(23)
        Y = rng.standard_normal((20, 6))
        _, sigma = thin_svd_snapshots(Y)
        assert np.isclose(np.sum(sigma**2), np.sum(Y * Y), rtol=1e-10)

    def test_rank_deficient_truncation(self):
        # singular-value noise of an exactly rank-2 matrix sits near
        # eps*sigma_1, far below the default cutoff
        rng = np.random.default_rng(24)
        base = rng.standard_normal((10, 2))
        Y = np.column_stack([base, base @ rng.standard_normal((2, 3))])
        phi, sigma = thin_svd_snapshots(Y)
        assert sigma.size == 2
        assert phi.shape == (10, 2)

    def test_graded_spectrum(self):
        # sigma from 1 down to 1e-11; an SVD through the Gram matrix Y.T @ Y
        # would lose every value below about 1e-8 * sigma_1
        rng = np.random.default_rng(26)
        U = np.linalg.qr(rng.standard_normal((400, 60)))[0]
        V = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        sigma_true = np.logspace(0, -11, 60)
        Y = (U * sigma_true) @ V.T
        phi, sigma = thin_svd_snapshots(Y)
        assert sigma.size == 60 and phi.shape == (400, 60)
        assert np.abs(sigma / sigma_true - 1.0).max() <= 1e-5
        residual = Y - phi @ (phi.T @ Y)
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(Y)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            thin_svd_snapshots(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            thin_svd_snapshots(np.array([[1.0, np.nan]]))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            thin_svd_snapshots(np.ones(3))

    def test_zero_matrix_warns(self):
        with pytest.warns(UserWarning, match="all-zero"):
            phi, sigma = thin_svd_snapshots(np.zeros((4, 3)))
        assert phi.shape == (4, 0)
        assert sigma.size == 0

    def test_max_rank_validation(self):
        with pytest.raises(ValueError, match="max_rank"):
            thin_svd_snapshots(np.eye(3), max_rank=5)

    def test_max_rank_truncates_columns_not_spectrum(self):
        rng = np.random.default_rng(25)
        Y = rng.standard_normal((9, 5))
        phi, sigma = thin_svd_snapshots(Y, max_rank=2)
        assert phi.shape == (9, 2)
        assert sigma.size == 5


class TestLu:
    def test_identity(self):
        v = np.array([3.0, -1.0, 2.0])
        assert np.allclose(LuFactorization(np.eye(3)).solve(v), v)

    def test_diagonal(self):
        assert np.allclose(LuFactorization(np.diag([2.0, 4.0])).solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_residual_oracle(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        rhs = rng.standard_normal((10, 3))
        x = LuFactorization(A).solve(rhs)
        assert np.abs(A @ x - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())

    def test_roundtrip(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((12, 12)) + 8 * np.eye(12)
        x = rng.standard_normal(12)
        out = LuFactorization(A).solve(A @ x)
        assert np.abs(out - x).max() <= 1e-9 * np.abs(x).max()

    def test_factorization_reuse(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        fac = LuFactorization(A)
        for seed in (1, 2):
            rhs = np.random.default_rng(seed).standard_normal(6)
            assert np.abs(A @ fac.solve(rhs) - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            LuFactorization(A)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            LuFactorization(np.ones((2, 3)))

    def test_rhs_dimension_mismatch(self):
        fac = LuFactorization(np.eye(3))
        with pytest.raises(ValueError):
            fac.solve(np.ones(4))
