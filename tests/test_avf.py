import numpy as np
import pytest

from hamrom.avf import AvfScheme, AvfStepper, StepFailure, Trajectory, integrate
from hamrom.systems import (
    DiagonalQuadratic,
    Grid1D,
    PolyGradFlow,
    build_kdv_fom,
    build_wave_fom,
    eval_energy,
    polynomial_energy,
    wave_initial,
)


def random_skew_quadratic_flow(dim=6, seed=0, coeff=0.3):
    """Small skew system with an entrywise quadratic gradient (cubic energy).

    The linear gradient operator is kept positive definite so the linear
    dynamics is bounded and the cubic term stays perturbative at the
    amplitudes the tests use.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    S = 0.5 * (A - A.T)
    B = rng.standard_normal((dim, dim))
    G1 = B @ B.T / dim + 0.5 * np.eye(dim)
    g0 = 0.1 * rng.standard_normal(dim)
    return PolyGradFlow(
        structure=S,
        linear=G1,
        constant=g0,
        quadratic=DiagonalQuadratic(coeff),
        energy=polynomial_energy(G1, g0, coeff),
        structure_tag="skew",
    )


class TestStep:
    def test_rotation_preserves_norm(self):
        # the linear AVF step is a Cayley transform, orthogonal for skew S G1
        flow = PolyGradFlow(
            structure=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            linear=np.eye(2),
            energy=polynomial_energy(np.eye(2)),
            structure_tag="skew",
        )
        u1 = AvfStepper(flow, dt=0.37).step(np.array([1.0, 0.0]))
        assert np.linalg.norm(u1) == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_fixed_point_at_zero(self):
        # scalar du/dt = u^2 stays at the equilibrium
        flow = PolyGradFlow(
            structure=np.array([[1.0]]),
            linear=np.zeros((1, 1)),
            quadratic=DiagonalQuadratic(1.0),
            energy=polynomial_energy(np.zeros((1, 1)), quad_coeff=1.0),
            structure_tag="none",
        )
        assert AvfStepper(flow, dt=0.5).step(np.array([0.0]))[0] == 0.0

    def test_wave_single_step_conserves_energy(self):
        grid = Grid1D(n=500, length=1.0)
        flow = build_wave_fom(0.1, grid)
        u0 = wave_initial(grid)
        u1 = AvfStepper(flow, dt=0.01).step(u0)
        h0, h1 = eval_energy(flow, u0), eval_energy(flow, u1)
        assert abs(h1 - h0) <= 1e-11 * abs(h0)

    def test_linear_step_time_reversible(self):
        grid = Grid1D(n=24, length=1.0)
        flow = build_wave_fom(0.2, grid)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(48)
        forward = AvfStepper(flow, dt=0.05).step(u)
        back = AvfStepper(flow, dt=-0.05).step(forward)
        assert np.abs(back - u).max() <= 1e-10 * np.abs(u).max()

    def test_picard_divergence_raises(self):
        flow = PolyGradFlow(
            structure=np.array([[1.0]]),
            linear=np.zeros((1, 1)),
            quadratic=DiagonalQuadratic(1.0),
            energy=polynomial_energy(np.zeros((1, 1)), quad_coeff=1.0),
            structure_tag="none",
        )
        with pytest.raises(StepFailure) as info:
            AvfStepper(flow, dt=10.0, picard_max_iter=8).step(np.array([1.0]))
        assert 1 <= info.value.iterations <= 8


class TestEnergyBehavior:
    def test_skew_quadratic_conservation(self):
        flow = random_skew_quadratic_flow(seed=6)
        u = 0.2 * np.random.default_rng(7).standard_normal(6)
        scheme = AvfScheme(dt=0.01, t_end=2.0, picard_tol=1e-12)
        traj = integrate(flow, u, scheme)
        h = traj.energies
        assert np.abs(h - h[0]).max() <= 1e-9 * (1.0 + abs(h[0]))

    def test_dissipative_never_increases(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((5, 5))
        S = -(M @ M.T) / 5.0  # negative semidefinite
        B = rng.standard_normal((5, 5))
        G1 = B @ B.T / 5.0 + 0.5 * np.eye(5)
        flow = PolyGradFlow(
            structure=S,
            linear=G1,
            quadratic=DiagonalQuadratic(0.3),
            energy=polynomial_energy(G1, quad_coeff=0.3),
            structure_tag="negative-semidefinite",
        )
        u0 = 0.3 * rng.standard_normal(5)
        traj = integrate(flow, u0, AvfScheme(dt=0.02, t_end=2.0, picard_tol=1e-12))
        h = traj.energies
        assert np.all(np.diff(h) <= 10 * 1e-12 * (1.0 + np.abs(h[:-1])))

    def test_kdv_zero_state_stays_zero(self):
        flow = build_kdv_fom(-6.0, 0.0, -1.0, Grid1D(n=32, length=40.0, origin=-20.0))
        traj = integrate(flow, np.zeros(32), AvfScheme(dt=0.02, t_end=0.2))
        assert np.abs(traj.states).max() == 0.0


class TestIntegrate:
    def test_recording_stride(self):
        grid = Grid1D(n=16, length=1.0)
        flow = build_wave_fom(0.1, grid)
        scheme = AvfScheme(dt=0.01, t_end=1.0, snapshot_stride=10)
        traj = integrate(flow, wave_initial(grid), scheme)
        assert traj.steps_total == 100
        assert traj.times.size == 11
        assert traj.states.shape == (32, 11)
        assert traj.energies.size == 101
        assert np.allclose(traj.times, 0.1 * np.arange(11))
        assert np.allclose(traj.energy_times, 0.01 * np.arange(101))

    def test_stride_that_misses_the_end(self):
        grid = Grid1D(n=8, length=1.0)
        flow = build_wave_fom(0.1, grid)
        traj = integrate(
            flow, wave_initial(grid), AvfScheme(dt=0.1, t_end=1.0, snapshot_stride=3)
        )
        assert traj.times.size == 4  # steps 0, 3, 6, 9
        assert traj.times[-1] == pytest.approx(0.9)

    def test_misaligned_horizon_rejected(self):
        grid = Grid1D(n=8, length=1.0)
        flow = build_wave_fom(0.1, grid)
        with pytest.raises(ValueError, match="integer"):
            integrate(flow, wave_initial(grid), AvfScheme(dt=0.3, t_end=1.0))

    def test_benchmark_alignment_accepted(self):
        # 50 / 0.01 is not exactly representable; must still count as aligned
        assert AvfScheme(dt=0.01, t_end=50.0).steps() == 5000
        assert AvfScheme(dt=0.02, t_end=20.0).steps() == 1000

    def test_step_failure_carries_index(self):
        flow = PolyGradFlow(
            structure=np.array([[1.0]]),
            linear=np.zeros((1, 1)),
            quadratic=DiagonalQuadratic(1.0),
            energy=polynomial_energy(np.zeros((1, 1)), quad_coeff=1.0),
            structure_tag="none",
        )
        # blows up in finite time; the failing step index must be reported
        with pytest.raises(StepFailure) as info:
            integrate(flow, np.array([1.0]), AvfScheme(dt=0.9, t_end=9.0, picard_max_iter=30))
        assert info.value.step_index >= 1

    def test_deterministic(self):
        flow = random_skew_quadratic_flow(seed=9)
        u0 = 0.1 * np.random.default_rng(10).standard_normal(6)
        scheme = AvfScheme(dt=0.05, t_end=1.0)
        a = integrate(flow, u0, scheme)
        b = integrate(flow, u0, scheme)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.energies, b.energies)


class TestValidation:
    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            AvfScheme(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            AvfScheme(dt=0.1, t_end=1.0, picard_tol=0.0)
        with pytest.raises(ValueError):
            AvfScheme(dt=0.1, t_end=1.0, snapshot_stride=0)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="match"):
            Trajectory(
                times=np.array([0.0, 1.0]),
                states=np.zeros((2, 3)),
                energies=np.zeros(3),
                steps_total=2,
            )
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(
                times=np.array([0.0, 0.0]),
                states=np.zeros((2, 2)),
                energies=np.zeros(3),
                steps_total=2,
            )


class TestBenchmarkRuns:
    def test_wave_fom_energy_flat(self, wave_dense):
        h = wave_dense.energies
        assert h[0] == pytest.approx(0.075, rel=0.01)
        assert np.abs(h - h[0]).max() <= 1e-9

    def test_wave_fom_recording(self, wave_snap):
        assert wave_snap.times.size == 101
        assert wave_snap.states.shape[0] == 1000

    def test_kdv_fom_energy_flat(self, kdv_dense):
        h = kdv_dense.energies
        assert h[0] == pytest.approx(-1.1317, rel=0.01)
        assert np.abs(h - h[0]).max() <= 1e-8

    def test_kdv_fom_recording(self, kdv_snap):
        assert kdv_snap.times.size == 201

    def test_kdv_picard_budget(self, kdv_dense):
        # tight solves must stay cheap on the benchmark configuration
        assert kdv_dense.max_picard_iterations <= 10

    def test_kdv_initial_profile_is_benchmark(self, kdv_system, kdv_dense):
        _, u0, _ = kdv_system
        assert np.array_equal(kdv_dense.states[:, 0], u0)
