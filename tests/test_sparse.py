"""The periodic-stencil full-order operators and their Fourier-mode steps
against dense copies of the same operators."""

import numpy as np
import pytest
import scipy.sparse
from conftest import dense, densified
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrom.avf import AvfStepper
from hamrom.systems import (
    Grid1D,
    PeriodicStencil,
    PolyGradFlow,
    build_kdv_fom,
    build_wave_fom,
    central_diff_matrix,
    kdv_initial,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def _five_steps(flow, u, dt):
    stepper = AvfStepper(flow, dt)
    for k in range(1, 6):
        u = stepper.step(u, step_index=k)
    return u


def _assert_paths_agree(flow, u0, dt):
    modes = _five_steps(flow, u0, dt)
    reference = _five_steps(densified(flow), u0, dt)
    assert np.abs(modes - reference).max() <= 1e-11 * np.abs(reference).max()


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


class TestPeriodicStencil:
    @PROPERTY
    @given(
        fields=st.sampled_from([1, 2]),
        n=st.integers(1, 40),
        width=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_match_the_dense_copy(self, fields, n, width, seed):
        # random columns with some zero entries; a vector or a (dim, k) block
        rng = np.random.default_rng(seed)
        columns = rng.standard_normal((fields, fields, n)) * (rng.random((fields, fields, n)) < 0.6)
        op = PeriodicStencil(columns)
        x = rng.standard_normal(fields * n if width is None else (fields * n, width))
        for stencil, matrix in ((op, dense(op)), (op.T, dense(op).T)):
            expected = matrix @ x
            scale = max(np.abs(expected).max(), 1e-300)
            assert (stencil @ x).shape == expected.shape
            assert np.abs(stencil @ x - expected).max() <= 1e-14 * scale
        assert np.array_equal(dense(op.T), dense(op).T)

    @pytest.mark.parametrize("shape", [(2, 8), (1, 2, 8), (2, 1, 8), (1, 1, 0)])
    def test_rejects_columns_that_are_not_square_blocks(self, shape):
        with pytest.raises(ValueError, match="columns"):
            PeriodicStencil(np.zeros(shape))

    def test_flow_rejects_mixed_and_foreign_operators(self):
        grid = Grid1D(n=8, length=1.0)
        D = central_diff_matrix(grid)
        with pytest.raises(ValueError, match="both"):
            PolyGradFlow(structure=scipy.sparse.csr_array(dense(D)),
                         linear=scipy.sparse.eye_array(8, format="csr"))
        with pytest.raises(ValueError, match="both"):
            PolyGradFlow(structure=D, linear=np.eye(8))
        # both (16, 16): D on two fields of 8 against an identity on one of 16
        two_fields = PeriodicStencil(np.stack([np.stack([D.columns[0, 0]] * 2)] * 2))
        one_field = PeriodicStencil(np.eye(1, 16)[None])
        with pytest.raises(ValueError, match="field counts"):
            PolyGradFlow(structure=two_fields, linear=one_field)


class TestStorage:
    @pytest.mark.parametrize("rho, nu", [(0.0, -1.0), (0.4, -1.0), (0.4, 0.0)])
    def test_kdv_operators_are_stencils(self, rho, nu):
        flow = build_kdv_fom(-6.0, rho, nu, Grid1D(n=50, length=40.0, origin=-20.0))
        for op in (flow.structure, flow.linear):
            assert isinstance(op, PeriodicStencil) and op.columns.shape == (1, 1, 50)
            assert np.count_nonzero(op.columns) <= 3

    def test_wave_operators_are_stencils(self):
        flow = build_wave_fom(0.1, Grid1D(n=50, length=1.0))
        for op in (flow.structure, flow.linear):
            assert isinstance(op, PeriodicStencil) and op.columns.shape == (2, 2, 50)
            assert np.count_nonzero(op.columns, axis=-1).max() <= 3
