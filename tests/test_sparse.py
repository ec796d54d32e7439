"""The sparse full-order path against dense copies of the same operators."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrom.avf import AvfStepper
from hamrom.linalg import LuFactorization, SingularMatrixError
from hamrom.systems import (
    Grid1D,
    build_kdv_fom,
    build_wave_fom,
    kdv_initial,
    laplacian_matrix,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def _densified(flow):
    return replace(flow, structure=flow.structure.toarray(), linear=flow.linear.toarray())


def _five_steps(flow, u, dt):
    stepper = AvfStepper(flow, dt)
    for k in range(1, 6):
        u = stepper.step(u, step_index=k)
    return u


def _assert_paths_agree(flow, u0, dt):
    sparse = _five_steps(flow, u0, dt)
    dense = _five_steps(_densified(flow), u0, dt)
    assert np.abs(sparse - dense).max() <= 1e-11 * np.abs(dense).max()


class TestStepperPaths:
    @PROPERTY
    @given(
        n=st.integers(8, 64),
        alpha=st.floats(-6.0, 6.0),
        rho=st.floats(-1.0, 1.0),
        nu=st.floats(-1.5, 1.5),
        dt=st.floats(1e-3, 0.05),
    )
    def test_kdv_sparse_matches_dense(self, n, alpha, rho, nu, dt):
        grid = Grid1D(n=n, length=40.0, origin=-20.0)
        _assert_paths_agree(build_kdv_fom(alpha, rho, nu, grid), kdv_initial(grid), dt)

    @PROPERTY
    @given(
        n=st.integers(8, 64),
        c=st.floats(0.05, 2.0),
        dt=st.floats(1e-3, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wave_sparse_matches_dense(self, n, c, dt, seed):
        u0 = np.random.default_rng(seed).standard_normal(2 * n)
        _assert_paths_agree(build_wave_fom(c, Grid1D(n=n, length=1.0)), u0, dt)


class TestSparseLu:
    @PROPERTY
    @given(
        n=st.integers(1, 40),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_matches_dense(self, n, density, seed):
        # strictly diagonally dominant, hence well conditioned
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        np.fill_diagonal(A, 0.0)
        A += np.diag(1.0 + np.abs(A).sum(axis=1))
        rhs = rng.standard_normal((n, 2))
        x_sparse = LuFactorization(scipy.sparse.csr_array(A)).solve(rhs)
        x_dense = LuFactorization(A).solve(rhs)
        assert np.abs(x_sparse - x_dense).max() <= 1e-12 * np.abs(x_dense).max()

    @PROPERTY
    @given(n=st.integers(3, 64), scale=st.floats(1e-3, 1e3))
    def test_periodic_laplacian_is_singular(self, n, scale):
        # constants span the kernel: the last pivot is rounding noise
        with pytest.raises(SingularMatrixError):
            LuFactorization(laplacian_matrix(Grid1D(n=n, length=1.0), scale))

    def test_exactly_singular_raises(self):
        A = scipy.sparse.csr_array(np.array([[1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(SingularMatrixError):
            LuFactorization(A)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            LuFactorization(scipy.sparse.csr_array(np.ones((2, 3))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(ValueError):
            LuFactorization(scipy.sparse.csr_array(A))


class TestStorage:
    @pytest.mark.parametrize("rho, nu", [(0.0, -1.0), (0.4, -1.0), (0.4, 0.0)])
    def test_kdv_operators_are_stencils(self, rho, nu):
        flow = build_kdv_fom(-6.0, rho, nu, Grid1D(n=50, length=40.0, origin=-20.0))
        for op in (flow.structure, flow.linear):
            assert scipy.sparse.issparse(op)
            assert np.diff(op.tocsr().indptr).max() <= 3

    def test_wave_operators_are_stencils(self):
        flow = build_wave_fom(0.1, Grid1D(n=50, length=1.0))
        for op in (flow.structure, flow.linear):
            assert scipy.sparse.issparse(op)
            assert np.diff(op.tocsr().indptr).max() <= 3
