import numpy as np
import pytest
import scipy.sparse
from conftest import dense
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrom.systems import (
    DiagonalQuadratic,
    Grid1D,
    PeriodicStencil,
    PolyGradFlow,
    TensorQuadratic,
    build_kdv_fom,
    build_wave_fom,
    central_diff_matrix,
    eval_energy,
    eval_grad,
    kdv_initial,
    laplacian_matrix,
    wave_initial,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


class TestGrid:
    def test_spacing(self):
        g = Grid1D(n=500, length=1.0)
        assert np.isclose(g.dx * g.n, g.length, rtol=1e-14)
        assert g.points[0] == pytest.approx(g.dx)
        assert g.points[-1] == pytest.approx(1.0)

    def test_offset_domain(self):
        g = Grid1D(n=2000, length=40.0, origin=-20.0)
        assert g.dx == pytest.approx(0.02)
        assert g.points[-1] == pytest.approx(20.0)
        assert 0.0 in g.points  # grid hits the domain center

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Grid1D(n=2, length=1.0)

    @pytest.mark.parametrize("n", [16.5, 16.0, True])
    def test_non_integer_size_rejected(self, n):
        # n=16.5 used to build a 17-point grid, then fail in the stencil builder
        with pytest.raises(ValueError, match="n must be an integer"):
            Grid1D(n=n, length=1.0)

    def test_numpy_integer_size_accepted(self):
        g = Grid1D(n=np.int64(16), length=1.0)
        assert type(g.n) is int and g == Grid1D(n=16, length=1.0)


class TestOperators:
    def test_central_diff_annihilates_constants(self):
        A = central_diff_matrix(Grid1D(n=7, length=2.0))
        assert np.abs(A @ np.ones(7)).max() == 0.0

    def test_central_diff_first_row(self):
        A = central_diff_matrix(Grid1D(n=4, length=4.0))
        assert np.array_equal(dense(A)[0], [0.0, 0.5, 0.0, -0.5])

    def test_central_diff_exactly_skew(self):
        A = dense(central_diff_matrix(Grid1D(n=9, length=1.0)))
        assert np.abs(A + A.T).max() == 0.0

    def test_central_diff_second_order(self):
        # error against the analytic derivative of sin must drop ~4x per halving
        errs = []
        for n in (64, 128):
            g = Grid1D(n=n, length=2 * np.pi)
            x = g.points
            err = central_diff_matrix(g) @ np.sin(x) - np.cos(x)
            errs.append(np.abs(err).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_laplacian_annihilates_constants(self):
        B = laplacian_matrix(Grid1D(n=6, length=3.0))
        assert np.abs(B @ np.ones(6)).max() == 0.0

    def test_laplacian_first_row(self):
        B = laplacian_matrix(Grid1D(n=4, length=4.0), scale=1.0)
        assert np.array_equal(dense(B)[0], [-2.0, 1.0, 0.0, 1.0])

    def test_laplacian_exactly_symmetric(self):
        B = laplacian_matrix(Grid1D(n=11, length=2.0), scale=0.3)
        assert np.array_equal(dense(B), dense(B.T))

    def test_laplacian_spectrum_bounds(self):
        g = Grid1D(n=16, length=1.0)
        scale = 0.7
        w = np.linalg.eigvalsh(dense(laplacian_matrix(g, scale)))
        assert w.max() <= 1e-12
        assert w.min() >= -4.0 * scale / g.dx**2 * (1 + 1e-12)


class TestWaveSystem:
    def test_structure_exactly_skew(self):
        S = dense(build_wave_fom(0.1, Grid1D(n=8, length=1.0)).structure)
        assert np.abs(S + S.T).max() == 0.0

    def test_zero_state_energy(self):
        flow = build_wave_fom(0.1, Grid1D(n=8, length=1.0))
        assert eval_energy(flow, np.zeros(16)) == 0.0

    def test_benchmark_energy(self):
        # continuous energy of the bump profile is 0.075
        grid = Grid1D(n=500, length=1.0)
        flow = build_wave_fom(0.1, grid)
        H0 = eval_energy(flow, wave_initial(grid))
        assert H0 == pytest.approx(0.075, rel=0.01)

    def test_energy_equals_quadratic_form(self):
        grid = Grid1D(n=32, length=1.0)
        c = 0.25
        flow = build_wave_fom(c, grid)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(64)
            u, v = x[:32], x[32:]
            du = (np.roll(u, -1) - u) / grid.dx
            forward_diff = grid.dx * (0.5 * (v @ v) + 0.5 * c * c * (du @ du))
            assert eval_energy(flow, x) == pytest.approx(forward_diff, rel=1e-12)

    def test_gradient_blocks(self):
        grid = Grid1D(n=16, length=1.0)
        c = 0.3
        flow = build_wave_fom(c, grid)
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal(16), rng.standard_normal(16)
        g = eval_grad(flow, np.concatenate([u, v]))
        lap = laplacian_matrix(grid, c * c)
        assert np.allclose(g[:16], -(lap @ u), rtol=1e-13, atol=1e-13)
        assert np.allclose(g[16:], v, rtol=0, atol=0)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            build_wave_fom(0.0, Grid1D(n=8, length=1.0))


class TestKdvSystem:
    def test_zero_state(self):
        flow = build_kdv_fom(-6.0, 0.0, -1.0, Grid1D(n=16, length=40.0, origin=-20.0))
        assert np.abs(eval_grad(flow, np.zeros(16))).max() == 0.0
        assert eval_energy(flow, np.zeros(16)) == 0.0

    def test_structure_exactly_skew(self):
        S = dense(build_kdv_fom(-6.0, 0.0, -1.0, Grid1D(n=16, length=40.0, origin=-20.0)).structure)
        assert np.abs(S + S.T).max() == 0.0

    def test_benchmark_energy(self, kdv_system):
        flow, u0, _ = kdv_system
        assert eval_energy(flow, u0) == pytest.approx(-1.1317, rel=0.01)

    def test_constant_state_gradient(self):
        # the periodic difference operator annihilates constants
        alpha, rho = -6.0, 0.4
        flow = build_kdv_fom(alpha, rho, -1.0, Grid1D(n=12, length=6.0))
        cval = 0.7
        g = eval_grad(flow, np.full(12, cval))
        assert np.allclose(g, alpha / 2 * cval**2 + rho * cval, rtol=1e-13)

    def test_energy_matches_operator_form(self):
        # the flow's polynomial == the forward-difference energy formula
        grid = Grid1D(n=24, length=8.0)
        alpha, rho, nu = -6.0, 0.2, -1.0
        flow = build_kdv_fom(alpha, rho, nu, grid)
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = rng.standard_normal(24)
            du = (np.roll(u, -1) - u) / grid.dx
            alg = grid.dx * (alpha / 6.0 * np.sum(u**3) + rho / 2.0 * (u @ u) - nu / 2.0 * (du @ du))
            assert eval_energy(flow, u) == pytest.approx(alg, rel=1e-12, abs=1e-14)

    def test_gradient_is_energy_gradient(self):
        # central finite differences of the energy against dx * <grad, w>
        grid = Grid1D(n=64, length=20.0, origin=-10.0)
        flow = build_kdv_fom(-6.0, 0.3, -1.0, grid)
        rng = np.random.default_rng(10)
        eps = 1e-6
        for _ in range(5):
            u = 0.5 * rng.standard_normal(64)
            w = rng.standard_normal(64)
            fd = (eval_energy(flow, u + eps * w) - eval_energy(flow, u - eps * w)) / (2 * eps)
            assert fd == pytest.approx(grid.dx * (eval_grad(flow, u) @ w), rel=1e-6)


class TestInitialData:
    def test_wave_profile_values(self):
        grid = Grid1D(n=500, length=1.0)
        x = grid.points
        u0 = wave_initial(grid)[:500]
        for xv, expected in [(0.5, 1.0), (0.4, 0.25), (0.1, 0.0)]:
            idx = int(np.argmin(np.abs(x - xv)))
            assert x[idx] == pytest.approx(xv, abs=1e-12)
            assert u0[idx] == pytest.approx(expected, abs=1e-12)

    def test_wave_velocity_starts_at_rest(self):
        grid = Grid1D(n=50, length=1.0)
        assert np.abs(wave_initial(grid)[50:]).max() == 0.0

    def test_wave_requires_unit_interval(self):
        with pytest.raises(ValueError):
            wave_initial(Grid1D(n=50, length=2.0))

    def test_kdv_center_value(self):
        grid = Grid1D(n=2000, length=40.0, origin=-20.0)
        u0 = kdv_initial(grid)
        center = int(np.argmin(np.abs(grid.points)))
        assert u0[center] == pytest.approx(1.0, abs=1e-14)

    def test_kdv_even_symmetry(self):
        grid = Grid1D(n=200, length=40.0, origin=-20.0)
        u0 = kdv_initial(grid)
        # points i and n-2-i sit at +/- the same coordinate
        for i in (0, 10, 50, 90):
            assert u0[i] == pytest.approx(u0[grid.n - 2 - i], rel=1e-13)

    def test_kdv_tail_decay(self):
        grid = Grid1D(n=2000, length=40.0, origin=-20.0)
        u0 = kdv_initial(grid)
        z = 20.0 / np.sqrt(2.0)
        expected = (2.0 / (np.exp(z) + np.exp(-z))) ** 2
        assert u0[-1] == pytest.approx(expected, rel=1e-12)
        assert u0[-1] <= 1e-11


class TestPolyGradFlow:
    def test_identity_gradient(self):
        flow = PolyGradFlow(
            structure=np.zeros((3, 3)),
            linear=np.eye(3),
            structure_tag="skew",
        )
        u = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(eval_grad(flow, u), u)

    def test_gradient_of_a_block_matches_its_columns(self):
        rng = np.random.default_rng(17)
        wave = build_wave_fom(0.3, Grid1D(n=12, length=1.0))
        kdv = build_kdv_fom(-6.0, 0.1, -1.0, Grid1D(n=12, length=12.0, origin=-6.0))
        G1 = rng.standard_normal((5, 5))
        dense = PolyGradFlow(
            structure=np.zeros((5, 5)),
            linear=G1 + G1.T,
            constant=rng.standard_normal(5),
            quadratic=DiagonalQuadratic(0.8),
            structure_tag="skew",
        )
        # stencil operators give the same bits column by column; a dense
        # matrix product may round differently from a matrix-vector product
        for flow, rtol in ((wave, 0.0), (kdv, 0.0), (dense, 1e-14)):
            U = rng.standard_normal((flow.dim, 7))
            G = eval_grad(flow, U)
            assert G.shape == U.shape
            for j in range(U.shape[1]):
                g = eval_grad(flow, U[:, j])
                assert np.abs(G[:, j] - g).max() <= rtol * np.abs(g).max()
        with pytest.raises(ValueError, match="non-finite"):
            eval_grad(dense, np.full((5, 2), np.nan))

    def test_quadratic_cross_term(self):
        # grad(u+v) - grad(u) - grad(v) + grad(0) isolates the bilinear term
        rng = np.random.default_rng(15)
        G1 = rng.standard_normal((5, 5))
        G1 = G1 + G1.T
        g0 = rng.standard_normal(5)
        quad = DiagonalQuadratic(0.8)
        flow = PolyGradFlow(
            structure=np.zeros((5, 5)),
            linear=G1,
            constant=g0,
            quadratic=quad,
            structure_tag="skew",
        )
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        cross = (
            eval_grad(flow, u + v)
            - eval_grad(flow, u)
            - eval_grad(flow, v)
            + eval_grad(flow, np.zeros(5))
        )
        assert np.allclose(cross, 2 * quad.eval(u, v), rtol=1e-12, atol=1e-13)

    def test_polynomial_energy_gradient_consistency(self):
        rng = np.random.default_rng(16)
        G1 = rng.standard_normal((4, 4))
        G1 = G1 + G1.T
        g0 = rng.standard_normal(4)
        coeff = -1.3
        flow = PolyGradFlow(
            structure=np.zeros((4, 4)),
            linear=G1,
            constant=g0,
            quadratic=DiagonalQuadratic(coeff),
            structure_tag="skew",
            energy_weight=0.5,
        )
        u = rng.standard_normal(4)
        w = rng.standard_normal(4)
        eps = 1e-6
        fd = (eval_energy(flow, u + eps * w) - eval_energy(flow, u - eps * w)) / (2 * eps)
        assert fd == pytest.approx(0.5 * (eval_grad(flow, u) @ w), rel=1e-7)

    def test_rejects_nonskew_structure(self):
        with pytest.raises(ValueError, match="skew"):
            PolyGradFlow(
                structure=np.array([[0.0, 1.0], [1.0, 0.0]]),
                linear=np.eye(2),
                structure_tag="skew",
            )

    def test_rejects_asymmetric_gradient_operator(self):
        with pytest.raises(ValueError, match="symmetric"):
            PolyGradFlow(
                structure=np.zeros((2, 2)),
                linear=np.array([[1.0, 2.0], [0.0, 1.0]]),
                structure_tag="skew",
            )

    def test_plain_tag_allows_asymmetric_operator(self):
        PolyGradFlow(
            structure=np.eye(2),
            linear=np.array([[1.0, 2.0], [0.0, 1.0]]),
            structure_tag="none",
        )

    def test_tensor_symmetry_validation(self):
        T = np.zeros((2, 2, 2))
        T[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            TensorQuadratic(T)

    def test_dimension_mismatch(self):
        flow = build_kdv_fom(-6.0, 0.0, -1.0, Grid1D(n=8, length=4.0))
        with pytest.raises(ValueError):
            eval_grad(flow, np.zeros(9))


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
