import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from hamrom import avf
from hamrom.avf import AvfScheme, AvfStepper, StepFailure, Trajectory, integrate
from hamrom.pod import collect_snapshots, collect_wave_snapshots, compute_basis
from hamrom.rom import RomVariant, reduce_operators
from hamrom.systems import (
    DiagonalQuadratic,
    Grid1D,
    PeriodicStencil,
    PolyGradFlow,
    ProjectedQuadratic,
    build_kdv_fom,
    build_wave_fom,
    eval_energy,
    kdv_initial,
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
        structure_tag="skew",
    )


def blowup_flow(storage):
    """Scalar ``du/dt = u^2``: dense operators step by Newton iteration, a
    stencil on one field of one point by Picard iteration."""
    S, G1 = np.array([[1.0]]), np.zeros((1, 1))
    if storage == "stencil":
        S, G1 = PeriodicStencil(S[None]), PeriodicStencil(G1[None])
    return PolyGradFlow(
        structure=S, linear=G1, quadratic=DiagonalQuadratic(1.0), structure_tag="none"
    )


STORAGES = (("dense", "Newton"), ("stencil", "Picard"))


class TestStep:
    def test_rotation_preserves_norm(self):
        # the linear AVF step is a Cayley transform, orthogonal for skew S G1
        flow = PolyGradFlow(
            structure=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            linear=np.eye(2),
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

    def test_picard_divergence_raises(self, monkeypatch):
        # both storages: Newton stalls (dense), Picard diverges (stencil)
        monkeypatch.setattr(avf, "MAX_ITERATIONS", 8)
        for storage, solver in STORAGES:
            with pytest.raises(StepFailure, match=f"{solver} iteration (stalled|diverged)") as info:
                AvfStepper(blowup_flow(storage), dt=10.0).step(np.array([1.0]))
            assert 1 <= info.value.iterations <= 8

    def test_overflowing_prediction_fails_as_a_step(self, monkeypatch):
        # the RK4 stages of the start guess overflow; that is a solver
        # failure of the step, not an invalid state
        monkeypatch.setattr(avf, "MAX_ITERATIONS", 8)
        for storage, solver in STORAGES:
            with pytest.raises(StepFailure, match=f"{solver} iteration (stalled|diverged)") as info:
                AvfStepper(blowup_flow(storage), dt=10.0).step(np.array([1e100]))
            assert 1 <= info.value.iterations <= 8


class TestIteration:
    """The nonlinear iteration shared by Picard and Newton, driven by a
    scripted update from a prediction of 0."""

    @staticmethod
    def _scripted(iterates, picard_tol=1e-12):
        flow = PolyGradFlow(
            structure=np.eye(1),
            linear=np.zeros((1, 1)),
            quadratic=DiagonalQuadratic(1.0),
            structure_tag="none",
        )
        stepper = AvfStepper(flow, dt=0.1, picard_tol=picard_tol)
        script = iter(iterates)
        stepper._predict = lambda u: np.zeros(1)
        stepper._newton = lambda u, step_index: ("Newton", lambda x, m: next(script))
        return stepper

    def test_stopping_rule_is_relative_to_the_previous_iterate(self):
        # 0 -> 2 moves by 2 > 0.9 (1 + |0|), though 2 <= 0.9 (1 + |2|); 2 -> 2 stops
        stepper = self._scripted([np.array([2.0]), np.array([2.0])], picard_tol=0.9)
        assert stepper.step(np.array([1.0])) == 2.0
        assert stepper.last_iterations == 2
        assert np.array_equal(stepper._deltas[-1], [1.0])  # the step increment

    def test_stall_and_divergence(self, monkeypatch):
        monkeypatch.setattr(avf, "MAX_ITERATIONS", 3)
        stepper = self._scripted([np.array([float(m)]) for m in range(1, 4)])
        with pytest.raises(StepFailure, match="Newton iteration stalled after 3") as info:
            stepper.step(np.array([1.0]), step_index=5)
        assert (info.value.step_index, info.value.iterations) == (5, 3)
        stepper = self._scripted([np.array([1.0]), None])
        with pytest.raises(StepFailure, match="diverged .overflow after 2") as info:
            stepper.step(np.array([1.0]), step_index=6)
        assert (info.value.step_index, info.value.iterations) == (6, 2)


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

    def test_step_failure_carries_index(self, monkeypatch):
        monkeypatch.setattr(avf, "MAX_ITERATIONS", 30)
        # blows up in finite time; the failing step index must be reported
        with pytest.raises(StepFailure) as info:
            integrate(blowup_flow("dense"), np.array([1.0]), AvfScheme(dt=0.9, t_end=9.0))
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
        for name in ("dt", "t_end", "picard_tol"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    AvfScheme(**{"dt": 0.1, "t_end": 1.0, name: value})

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="match"):
            Trajectory(
                times=np.array([0.0, 1.0]),
                states=np.zeros((2, 3)),
                energies=np.zeros(3),
                steps_total=2,
                dt=1.0,
            )
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(
                times=np.array([0.0, 0.0]),
                states=np.zeros((2, 2)),
                energies=np.zeros(3),
                steps_total=2,
                dt=1.0,
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


def _stepping_paths():
    """One small flow per stepping path: (flow, start state, maps class,
    whether it iterates by Newton)."""
    kdv_grid = Grid1D(n=64, length=40.0, origin=-20.0)
    kdv, kdv_u0 = build_kdv_fom(-6.0, 0.0, -1.0, kdv_grid), kdv_initial(kdv_grid)
    wave_grid = Grid1D(n=32, length=1.0)
    wave, wave_u0 = build_wave_fom(0.1, wave_grid), wave_initial(wave_grid)
    scheme = AvfScheme(dt=0.01, t_end=0.2)
    kdv_basis = compute_basis(collect_snapshots(integrate(kdv, kdv_u0, scheme), kdv), 4)
    wave_bases = [compute_basis(s, 3)
                  for s in collect_wave_snapshots(integrate(wave, wave_u0, scheme), wave)]
    kdv_rom = reduce_operators(kdv, kdv_basis, RomVariant.SP0).flow
    wave_rom = reduce_operators(wave, wave_bases, RomVariant.SP0).flow
    phi = kdv_basis.phi
    lazy = ProjectedQuadratic(left=phi.T, basis=phi, coeff=kdv.quadratic.coeff)
    return {
        "kdv fom (Fourier Picard)": (kdv, kdv_u0, avf._FourierMaps, False),
        "wave fom (Fourier linear)": (wave, wave_u0, avf._FourierMaps, False),
        "wave SP-ROM (propagator)": (wave_rom, np.zeros(wave_rom.dim), avf._PropagatorMaps,
                                     False),
        "kdv SP-ROM (tensor Newton)": (kdv_rom, phi.T @ kdv_u0, avf._LuMaps, True),
        "kdv SP-ROM (lazy Newton)": (replace(kdv_rom, quadratic=lazy), phi.T @ kdv_u0,
                                     avf._LuMaps, True),
    }


def test_every_stepping_path_is_freed_without_the_cycle_collector():
    # nothing a stepper holds may refer back to it (a bound method stored on
    # the instance would): reference counting alone must free it, with its
    # flow and factorizations, as soon as the last reference goes
    paths = _stepping_paths()
    gc.collect()
    gc.disable()
    try:
        for name, (flow, u, maps, newton) in paths.items():
            stepper = AvfStepper(flow, dt=0.01)
            assert type(stepper._maps) is maps and (stepper._jacobian is not None) == newton, name
            for k in range(1, 6):
                u = stepper.step(u, step_index=k)
            released = weakref.ref(stepper)
            del stepper
            assert released() is None, name
    finally:
        gc.enable()
