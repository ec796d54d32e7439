import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import dense
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrom.linalg import (
    LuFactorization,
    SingularMatrixError,
    thin_svd_snapshots,
)
from hamrom.systems import Grid1D, laplacian_matrix


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
        phi, sigma = thin_svd_snapshots(np.array([[1.0], [0.0], [0.0]]))
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
        phi, sigma = thin_svd_snapshots(Y)
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

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(3, 64), scale=st.floats(1e-3, 1e3))
    def test_periodic_laplacian_is_singular(self, n, scale):
        # constants span the kernel: the last pivot is rounding noise
        with pytest.raises(SingularMatrixError):
            LuFactorization(dense(laplacian_matrix(Grid1D(n=n, length=1.0), scale)))

    def test_rejected_refactor_keeps_previous_factors(self):
        fac = LuFactorization(np.diag([2.0, 4.0, 5.0]))
        singular = np.diag([1e20, 1.0])  # factors, then fails the pivot check
        with pytest.raises(SingularMatrixError):
            fac.factor(singular)
        assert fac.shape == (3, 3)
        np.testing.assert_allclose(fac.solve(np.array([2.0, 4.0, 5.0])), np.ones(3), rtol=1e-15)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            LuFactorization(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(ValueError):
            LuFactorization(A)

    def test_rhs_dimension_mismatch(self):
        fac = LuFactorization(np.eye(3))
        with pytest.raises(ValueError):
            fac.solve(np.ones(4))


def test_cli_import_leaves_the_sparse_solvers_unimported(tmp_path):
    # no code path needs scipy.sparse: importing the command line or running
    # a tiny wave and a tiny KdV experiment must not load any of it
    src = Path(__file__).resolve().parent.parent / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = f"""
import sys
import hamrom.cli
from hamrom.experiments import ExperimentConfig, RomSpec, run_experiment

def sparse():
    return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))

print(sparse())
roms = tuple(RomSpec.parse(r) for r in ("SP0:3", "GROM:3", "SP1:3", "SP2:3"))
run_experiment(ExperimentConfig(system="wave", c=0.1, n=16, length=1.0, dt=0.05, t_end=1.0,
                                stride=5, roms=roms, out_dir={str(tmp_path / "wave")!r}))
run_experiment(ExperimentConfig(system="kdv", alpha=-6.0, rho=0.0, nu=-1.0, n=32,
                                length=40.0, origin=-20.0, dt=0.02, t_end=0.4, stride=2,
                                roms=roms, out_dir={str(tmp_path / "kdv")!r}))
print(sparse())
"""
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]
