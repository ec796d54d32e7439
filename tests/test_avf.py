import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import march

from hamrom import avf
from hamrom.avf import AvfScheme, AvfStepper, StepFailure, Trajectory, integrate
from hamrom.linalg import SingularMatrixError
from hamrom.pod import collect_snapshots, collect_wave_snapshots, compute_basis
from hamrom.rom import RomVariant, reduce_operators
from hamrom.systems import (
    DiagonalQuadratic,
    Grid1D,
    PeriodicStencil,
    PolyGradFlow,
    ProjectedQuadratic,
    TensorQuadratic,
    build_kdv_fom,
    build_wave_fom,
    eval_energy,
    eval_grad,
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
    """Both nonlinear iterations on the scalar flow ``du/dt = u^2`` from
    ``u = 1``, where the AVF step solves ``x - 1 = k (1 + x + x^2)`` with
    ``k = dt/3``, from a prediction the test sets."""

    @staticmethod
    def _stepper(storage, x0, dt=0.3, picard_tol=1e-12):
        stepper = AvfStepper(blowup_flow(storage), dt=dt, picard_tol=picard_tol)
        stepper._predict = lambda u: np.array([x0])
        return stepper

    def test_stopping_rule_is_relative_to_the_previous_iterate(self):
        # from 0 the first update moves by more than 0.9 (1 + |0|), though by
        # less than 0.9 (1 + |x_1|); the second update stops
        k = 0.1
        x1 = 1.1 / 0.9  # Newton from 0: R(0) = -1 - k, R'(0) = 1 - k
        newton = x1 - (x1 - 1.0 - k * (1.0 + x1 + x1 * x1)) / 0.9  # the chord reuses R'(0)
        picard = 1.0 + k * (1.0 + 1.1 + 1.1 * 1.1)  # x_1 = 1 + k
        for (storage, _), expected in zip(STORAGES, (newton, picard)):
            stepper = self._stepper(storage, 0.0, picard_tol=0.9)
            assert stepper.step(np.array([1.0]))[0] == pytest.approx(expected, rel=1e-14)
            assert stepper.last_iterations == 2
            start, end = stepper._history[-2:, 0]  # the step's chain: 1 to its state
            assert (start, end) == (1.0, pytest.approx(expected, rel=1e-14))

    def test_newton_stops_on_its_predicted_error(self):
        # from 0 the Newton increments are d_1 = 1.22 and d_2 = 0.166: d_2 is
        # above 0.03 (1 + |x_1|) = 0.067, the predicted remaining error
        # d_2^2 / (d_1 - d_2) = 0.026 is not; Picard has the increment rule alone
        newton = self._stepper("dense", 0.0, picard_tol=0.03)
        newton.step(np.array([1.0]))
        assert newton.last_iterations == 2
        picard = self._stepper("stencil", 0.0, picard_tol=0.03)
        picard.step(np.array([1.0]))
        assert picard.last_iterations > 2

    def test_stall_and_divergence(self, monkeypatch):
        monkeypatch.setattr(avf, "MAX_ITERATIONS", 3)
        for storage, solver in STORAGES:
            with pytest.raises(StepFailure, match=f"{solver} iteration stalled after 3") as info:
                self._stepper(storage, 0.0).step(np.array([1.0]), step_index=5)
            assert (info.value.step_index, info.value.iterations) == (5, 3)
        # at dt = 10 the step has no real solution: the Picard iterates from 0
        # square at every update and overflow at the ninth
        monkeypatch.setattr(avf, "MAX_ITERATIONS", 100)
        with pytest.raises(StepFailure, match="Picard iteration diverged .overflow after 9") as info:
            self._stepper("stencil", 0.0, dt=10.0).step(np.array([1.0]), step_index=6)
        assert (info.value.step_index, info.value.iterations) == (6, 9)


class TestNewtonFailures:
    """Failures of the chord Newton iteration, each reported with its step
    and iteration.  From x_0 = 4.4, next to the fold x = 4.5 of the step's
    residual at dt = 0.3, the first update jumps to x_1 = -41.8 and the
    chord update to x_2 = 10628; that increment grew, so iteration 3
    refactors."""

    @staticmethod
    def _hard_step():
        return TestIteration._stepper("dense", 4.4)

    def test_a_hard_step_refactors_and_converges(self):
        stepper = self._hard_step()
        factored = []
        factor = stepper._maps.lhs.factor
        stepper._maps.lhs.factor = lambda A: factored.append(A[0, 0]) or factor(A)
        x = stepper.step(np.array([1.0]))[0]
        assert x == pytest.approx((9.0 + np.sqrt(37.0)) / 2.0, rel=1e-12)  # a root of R
        assert factored[0] == pytest.approx(0.02)  # R'(4.4)
        assert factored[1] == pytest.approx(1.0 - 0.1 * (1.0 + 2.0 * 10628.0), rel=1e-3)

    def test_singular_jacobian_at_a_refactor(self):
        stepper = self._hard_step()
        factor = stepper._maps.lhs.factor
        calls = []

        def singular_refactor(A):  # the second factorization meets a zero Jacobian
            calls.append(A)
            return factor(A if len(calls) == 1 else 0.0 * A)

        stepper._maps.lhs.factor = singular_refactor
        with pytest.raises(StepFailure, match="Newton.*singular Jacobian at iteration 3") as info:
            stepper.step(np.array([1.0]), step_index=4)
        assert (info.value.step_index, info.value.iterations) == (4, 3)
        assert isinstance(info.value.__cause__, SingularMatrixError)

    @pytest.mark.parametrize("m", [2, 3])  # a chord update, then a refactor
    def test_overflow_in_the_middle_of_an_iteration(self, m):
        # K(x_{m-1}) overflows: in the residual of a chord update, in the
        # Jacobian of a refactor
        stepper = self._hard_step()
        jacobian = stepper._maps.jacobian
        calls = []

        def overflowing(x):  # call 0 is K(u), call j is K(x_{j-1})
            calls.append(x)
            return np.full((1, 1), np.inf) if len(calls) == m + 1 else jacobian(x)

        stepper._maps.jacobian = overflowing
        with pytest.raises(StepFailure, match=f"Newton iteration diverged .overflow after {m} it"
                           ) as info:
            stepper.step(np.array([1.0]), step_index=8)
        assert (info.value.step_index, info.value.iterations) == (8, m)

    def test_stall_at_the_iteration_cap(self):
        # at dt = 10 the step has no real solution: Newton wanders
        with pytest.raises(StepFailure, match=f"Newton iteration stalled after {avf.MAX_ITERATIONS}"
                           ) as info:
            TestIteration._stepper("dense", 0.0, dt=10.0).step(np.array([1.0]), step_index=9)
        assert (info.value.step_index, info.value.iterations) == (9, avf.MAX_ITERATIONS)


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

    def test_iteration_histogram(self):
        # entry m counts the steps that took m iterations: Newton on a dense
        # flow, Picard (every update of a window row) on a stencil flow
        grid = Grid1D(n=64, length=40.0, origin=-20.0)
        kdv = build_kdv_fom(-6.0, 0.0, -1.0, grid)
        flows = [(random_skew_quadratic_flow(seed=9), 0.1 * np.ones(6)),
                 (kdv, kdv_initial(grid))]
        scheme = AvfScheme(dt=0.02, t_end=1.0)
        for flow, u0 in flows:
            traj = integrate(flow, u0, scheme)
            counts = []
            stepper = AvfStepper(flow, scheme.dt)
            for _ in stepper.march(u0, traj.steps_total):
                counts.append(stepper.last_iterations)
            assert np.array_equal(traj.iteration_histogram, np.bincount(counts))
            assert traj.max_picard_iterations == max(counts)
        linear = build_wave_fom(0.1, Grid1D(n=16, length=1.0))
        traj = integrate(linear, wave_initial(Grid1D(n=16, length=1.0)), scheme)
        assert traj.iteration_histogram.tolist() == [scheme.steps()]
        assert traj.max_picard_iterations == 0

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

    @pytest.mark.parametrize("stride", [2.5, 2.0, True])
    def test_non_integer_stride_rejected(self, stride):
        # 2.5 used to pass here, then fail with a TypeError inside integrate
        with pytest.raises(ValueError, match="snapshot_stride must be an integer"):
            AvfScheme(dt=0.1, t_end=1.0, snapshot_stride=stride)

    def test_numpy_integer_stride_accepted(self):
        scheme = AvfScheme(dt=0.1, t_end=1.0, snapshot_stride=np.int32(2))
        assert type(scheme.snapshot_stride) is int
        assert scheme == AvfScheme(dt=0.1, t_end=1.0, snapshot_stride=2)

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

    def test_kdv_reference_meets_the_avf_step_equation(self, kdv_dense, kdv_system, kdv_cfg):
        # every stored step x of its predecessor u solves the AVF equation,
        # evaluated with the stencils' own products (no transform), within
        # what the Picard stopping rule leaves plus the rounding of the
        # transforms and of this evaluation (derivation: docs/decisions.md,
        # "A window of Picard steps")
        flow = kdv_system[0]
        S, G1, quad = flow.structure, flow.linear, flow.quadratic
        dt, tol, c = kdv_cfg.dt, kdv_cfg.picard_tol, abs(quad.coeff)
        s_norm, g_norm = (np.abs(op.columns).sum() for op in (S, G1))  # max row sums
        eps = np.finfo(float).eps
        transform_err = (2 * math.ceil(math.log2(flow.dim)) + 4) * eps
        eval_err = (np.count_nonzero(S.columns) + np.count_nonzero(G1.columns) + 4) * eps
        steps, width = kdv_dense.times.size, 64
        for start in range(0, steps - 1, width):
            block = kdv_dense.full_states(start, min(start + width + 1, steps))
            u, x = block[:, :-1], block[:, 1:]
            q = quad.eval(u, u) + quad.eval(u, x) + quad.eval(x, x)
            residual = np.abs(x - u - dt * (S @ (G1 @ (0.5 * (u + x)) + q / 3.0))).max(axis=0)
            a_u, a_x = np.abs(u).max(axis=0), np.abs(x).max(axis=0)
            tau = tol * (1.0 + a_x) / (1.0 - tol)  # the last Picard increment, at most
            stopping = dt / 3.0 * c * s_norm * tau * (a_u + 2.0 * a_x + tau)
            jacobian = 1.0 + dt / 2.0 * s_norm * g_norm + dt / 3.0 * c * s_norm * (a_u + 2.0 * a_x)
            terms = a_u + a_x + dt * s_norm * (g_norm * (a_u + a_x) / 2.0
                                               + c * (a_u * a_u + a_u * a_x + a_x * a_x) / 3.0)
            bound = stopping + jacobian * transform_err * (a_u + a_x) + eval_err * terms
            over = np.flatnonzero(residual > bound)
            assert over.size == 0, (f"step {start + over[0] + 1}: AVF residual "
                                    f"{residual[over[0]]:.3e} > {bound[over[0]]:.3e}")

    def test_kdv_initial_profile_is_benchmark(self, kdv_system, kdv_snap):
        _, u0, _ = kdv_system
        assert np.array_equal(kdv_snap.states[:, 0], u0)


def _reference_predictor(flow, dt):
    """``(predict, states)``: the stepper's start guess, RK4 while fewer than
    four states of the chain are appended to ``states``, then the cubic
    extrapolation of the last four, in the stepper's arithmetic."""
    states = []

    def rhs(v):
        return flow.structure @ eval_grad(flow, v)

    def predict(u):
        if len(states) >= 4:
            return np.array([-1.0, 4.0, -6.0, 4.0]).dot(np.array(states[-4:]))
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return predict, states


def _fourier_picard_march(flow, u, dt, steps, tol=1e-12):
    """States (one row per step) and Picard counts of the one-field Fourier
    iteration written out plainly, in the arithmetic of the maps' window of
    one: per-mode symbols ``P`` and ``K`` (``K`` times the coefficient of
    G2), and per iteration ``q = u (u + x) + x x`` and one inverse transform
    of ``K q + P u``, ``u``'s spectrum taken once per step."""
    n = flow.dim
    S, G1 = (np.moveaxis(np.fft.rfft(c), -1, 0) for c in (flow.structure.columns,
                                                          flow.linear.columns))
    half = 0.5 * dt * (S @ G1)
    eye = np.eye(1)
    lhs = eye - half
    P = np.linalg.solve(lhs, eye + half)[:, 0, 0]
    K = flow.quadratic.coeff * np.linalg.solve(lhs, (dt / 3.0) * S)[:, 0, 0]
    predict, chain = _reference_predictor(flow, dt)
    chain.append(u)
    states, counts = [], []
    for _ in range(steps):
        linear, x = P * np.fft.rfft(u), predict(u)
        for m in range(1, avf.MAX_ITERATIONS + 1):
            new = np.fft.irfft(K * np.fft.rfft(u * (u + x) + x * x) + linear, n)
            if np.abs(new - x).max() <= tol * (1.0 + np.abs(x).max()):
                break
            x = new
        chain.append(new)
        counts.append(m)
        states.append(new)
        u = new
    return np.array(states), counts


def _full_newton_march(flow, u, dt, steps, tol=1e-12):
    """States (one row per step) and Newton counts of a dense quadratic
    flow's AVF steps by full Newton: the Jacobian factored at every
    iteration (``np.linalg.solve``), stopping on the increment rule alone."""
    S, T = flow.structure, flow.quadratic.tensor
    half = 0.5 * dt * (S @ flow.linear)
    lhs, rhs = np.eye(flow.dim) - half, np.eye(flow.dim) + half
    dtS3 = dt * S / 3.0

    def G2(a, b):
        return np.einsum("pij,i,j->p", T, a, b)

    def J2(a):  # the matrix of v -> G2(a, v)
        return np.einsum("pij,i->pj", T, a)

    predict, chain = _reference_predictor(flow, dt)
    chain.append(u)
    states, counts = [], []
    for _ in range(steps):
        x, base = predict(u), rhs @ u + dtS3 @ G2(u, u)
        for m in range(1, avf.MAX_ITERATIONS + 1):
            residual = lhs @ x - base - dtS3 @ (G2(u, x) + G2(x, x))
            new = x - np.linalg.solve(lhs - dtS3 @ (J2(u) + 2.0 * J2(x)), residual)
            if np.abs(new - x).max() <= tol * (1.0 + np.abs(x).max()):
                break
            x = new
        chain.append(new)
        counts.append(m)
        states.append(new)
        u = new
    return np.array(states), counts


class TestReferencePaths:
    """The Picard loop against the same iteration written out plainly, and
    the chord Newton loop against full Newton, on a tiny KdV model (n = 64,
    50 steps)."""

    GRID = Grid1D(n=64, length=40.0, origin=-20.0)
    DT, STEPS = 0.02, 50

    def test_fourier_picard_is_bit_identical(self):
        flow, u0 = build_kdv_fom(-6.0, 0.0, -1.0, self.GRID), kdv_initial(self.GRID)
        states, counts = march(flow, u0, self.DT, self.STEPS)
        ref_states, ref_counts = _fourier_picard_march(flow, u0, self.DT, self.STEPS)
        assert np.array_equal(states, ref_states)
        assert counts == ref_counts

    @pytest.mark.parametrize("variant", [RomVariant.SP0, RomVariant.GROM])
    def test_chord_newton_matches_full_newton(self, variant):
        # the march carries K from step to step: one K(x) per iteration,
        # and K(u) once, at the first step
        rom, a0 = _kdv_rom(variant, self.DT, self.STEPS)
        stepper = AvfStepper(rom, self.DT)
        gemvs = _counted_jacobian(stepper)
        u, states, counts = a0, [], []
        for k in range(1, self.STEPS + 1):
            u = stepper.step(u, step_index=k)
            states.append(u)
            counts.append(stepper.last_iterations)
        states = np.array(states)
        ref_states, ref_counts = _full_newton_march(rom, a0, self.DT, self.STEPS)
        assert np.abs(states - ref_states).max() <= 1e-12 * np.abs(ref_states).max()
        assert sum(counts) <= sum(ref_counts)
        assert len(gemvs) == sum(counts) + 1


def _kdv_rom(variant, dt=0.02, steps=50, r=8):
    """A tiny KdV reduced model (n = 64, r = 8) and its start coefficients."""
    grid = Grid1D(n=64, length=40.0, origin=-20.0)
    fom, u0 = build_kdv_fom(-6.0, 0.0, -1.0, grid), kdv_initial(grid)
    scheme = AvfScheme(dt=dt, t_end=dt * steps)
    basis = compute_basis(collect_snapshots(integrate(fom, u0, scheme), fom), r)
    return reduce_operators(fom, basis, variant).flow, basis.phi.T @ u0


def _counted_jacobian(stepper):
    """The points at which the stepper's maps evaluate ``K`` from now on."""
    points, jacobian = [], stepper._maps.jacobian
    stepper._maps.jacobian = lambda x: points.append(x) or jacobian(x)
    return points


def _three_gemv_iterate(maps, u, x, tol=1e-12):
    """The chord Newton step that evaluates ``K(u)`` itself: residual
    ``(I - A - K(u) - K(x)) x - (I + A) u - dt S g0 - K(u) u``, Jacobian
    ``I - A - K(u) - 2 K(x)`` refactored after an increment that did not
    halve, both stopping rules; ``(state, iterations)``."""
    k_u = maps.jacobian(u)
    base = maps.rhs_mat @ u + k_u @ u
    if maps.const is not None:
        base = base + maps.const
    refactor, last = True, np.inf
    for m in range(1, avf.MAX_ITERATIONS + 1):
        k_x = maps.jacobian(x)
        mat = maps.lhs_mat - k_u - k_x
        if refactor:
            jac = mat - k_x
        dx = np.linalg.solve(jac, mat @ x - base)
        increment, bound = np.abs(dx).max(), tol * (1.0 + np.abs(x).max())
        x = x - dx
        if increment <= bound or (m > 1 and increment < last
                                  and increment * increment <= bound * (last - increment)):
            return x, m
        refactor, last = increment > 0.5 * last, increment
    raise AssertionError("the reference step stalled")


class TestCarriedState:
    """A dense quadratic step takes ``K(u)`` from the step that returned
    ``u``, the array itself; any other input evaluates ``K(u)``, as the
    three-GEMV step does."""

    DT = 0.02

    def _chained(self, variant=RomVariant.SP0, steps=6):
        rom, a0 = _kdv_rom(variant)
        stepper = AvfStepper(rom, self.DT)
        u = a0
        for k in range(1, steps + 1):
            u = stepper.step(u, step_index=k)
        return rom, stepper, u

    @pytest.mark.parametrize("variant", [RomVariant.SP0, RomVariant.GROM])
    @pytest.mark.parametrize("source", ["copy", "fresh stepper"])
    def test_other_input_takes_the_three_gemv_step(self, variant, source):
        rom, stepper, u = self._chained(variant)
        if source == "fresh stepper":
            stepper = AvfStepper(rom, self.DT)
        u = u.copy()
        x0 = stepper._predict(u)  # a new chain: the RK4 prediction
        ref, ref_m = _three_gemv_iterate(stepper._maps, u, x0)
        gemvs = _counted_jacobian(stepper)
        new = stepper.step(u, step_index=7)
        assert stepper.last_iterations == ref_m
        assert len(gemvs) == ref_m + 1 and gemvs[0] is u  # K(u) first
        assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_the_returned_array_carries_its_k(self):
        _, stepper, u = self._chained()
        gemvs = _counted_jacobian(stepper)
        carried = stepper.step(u, step_index=7)
        assert len(gemvs) == stepper.last_iterations and all(p is not u for p in gemvs)
        # the same step from an equal copy evaluates K(u)
        _, stepper, u = self._chained()
        x0 = stepper._predict(u)
        stepper._predict = lambda _: x0  # the chained prediction, for both
        again = stepper.step(u.copy(), step_index=7)
        assert np.abs(carried - again).max() <= 1e-14 * np.abs(again).max()

    def test_a_failed_step_breaks_the_carry(self):
        _, stepper, u = self._chained()
        factor = stepper._maps.lhs.factor

        def singular(A):
            raise SingularMatrixError("forced")

        stepper._maps.lhs.factor = singular
        with pytest.raises(StepFailure, match="singular Jacobian"):
            stepper.step(u, step_index=7)
        stepper._maps.lhs.factor = factor
        gemvs = _counted_jacobian(stepper)
        stepper.step(u, step_index=7)
        assert gemvs[0] is u and len(gemvs) == stepper.last_iterations + 1

    def test_a_nearly_symmetric_tensor_meets_the_step_equation(self):
        # a tensor symmetric only to 1e-13 (TensorQuadratic accepts 1e-12):
        # every step still solves the AVF equation of the term's own eval
        rng = np.random.default_rng(11)
        flow = random_skew_quadratic_flow(dim=6, seed=12)
        T = rng.standard_normal((6, 6, 6))
        T = 0.5 * (T + T.transpose(0, 2, 1)) + 1e-13 * np.abs(T).max() * rng.random((6, 6, 6))
        assert not np.array_equal(T, T.transpose(0, 2, 1))
        flow = replace(flow, quadratic=TensorQuadratic(0.1 * T))
        traj = integrate(flow, 0.2 * rng.standard_normal(6), AvfScheme(dt=0.01, t_end=2.0))
        u, x = traj.states[:, :-1], traj.states[:, 1:]
        G2 = flow.quadratic.eval
        q = G2(u, u) + G2(u, x) + G2(x, x)
        grad = flow.linear @ (0.5 * (u + x)) + flow.constant[:, None] + q / 3.0
        residual = np.abs(x - u - 0.01 * (flow.structure @ grad)).max(axis=0)
        assert residual.max() <= 1e-12 * (1.0 + np.abs(x).max())


class TestPicardWindow:
    """``integrate`` iterates a quadratic stencil flow on a window of steps
    once the start steps have given the cubic predictor its history; a
    single-step march takes the window of one at every step."""

    GRID = Grid1D(n=64, length=40.0, origin=-20.0)
    DT, STEPS = 0.02, 50

    def _kdv(self):
        return build_kdv_fom(-6.0, 0.0, -1.0, self.GRID), kdv_initial(self.GRID)

    def test_integrate_agrees_with_single_steps(self):
        flow, u0 = self._kdv()
        traj = integrate(flow, u0, AvfScheme(dt=self.DT, t_end=self.DT * self.STEPS))
        states, counts = march(flow, u0, self.DT, self.STEPS)
        assert np.array_equal(traj.states[:, 1:4].T, states[:3])  # the start steps
        # each path stops every step within picard_tol (1 + max|x|) of the
        # step's solution (the increments contract); summed over the steps
        bound = self.STEPS * 1e-12 * (1.0 + np.abs(states).max())
        assert np.abs(traj.states[:, 1:].T - states).max() <= bound
        assert np.abs(traj.energies[1:] - eval_energy(flow, states.T)).max() <= bound

    def test_a_sweep_is_one_transform_pair_of_the_window(self, monkeypatch):
        flow, u0 = self._kdv()
        rows, irfft = [], np.fft.irfft

        def counted(spectra, *args, **kwargs):
            rows.append(spectra.shape[0] if spectra.ndim > 1 else 1)
            return irfft(spectra, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted)
        stepper = AvfStepper(flow, self.DT)
        counts = [stepper.last_iterations for _ in stepper.march(u0, self.STEPS)]
        assert sum(rows) == sum(counts)  # every update of a row is one inverse transform row
        assert max(rows) == avf._WINDOW
        assert len(rows) < sum(counts) / 2

    def test_divergence_after_the_start_steps(self):
        # du/dt = u^2 from 1 blows up at t = 1; at dt = 0.1 a step from u has
        # a real solution only while dt u / 3 <= 0.155, and the single-step
        # march fails at step 9, after the start steps
        flow, u0, dt = blowup_flow("stencil"), np.array([1.0]), 0.1
        with pytest.raises(StepFailure) as single:
            march(flow, u0, dt, 20)
        with pytest.raises(StepFailure, match="Picard iteration diverged") as window:
            integrate(flow, u0, AvfScheme(dt=dt, t_end=2.0))
        assert window.value.step_index == single.value.step_index == 9
        assert 1 <= window.value.iterations <= avf.MAX_ITERATIONS
        assert f"overflow after {window.value.iterations} iterations" in str(window.value)

    def test_a_row_that_reaches_the_cap_stalls(self, monkeypatch):
        flow, u0 = self._kdv()
        marched = AvfStepper(flow, self.DT).march(u0, self.STEPS)
        for _ in range(3):  # the start steps, at the full cap
            next(marched)
        # from its cubic extrapolation, step 4 needs more than three updates
        monkeypatch.setattr(avf, "MAX_ITERATIONS", 3)
        with pytest.raises(StepFailure, match="Picard iteration stalled after 3") as info:
            next(marched)
        assert (info.value.step_index, info.value.iterations) == (4, 3)


def _stepping_paths():
    """One small flow per stepping path: (flow, start state, maps class)."""
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
        "kdv fom (Fourier Picard)": (kdv, kdv_u0, avf._FourierMaps),
        "wave fom (Fourier linear)": (wave, wave_u0, avf._FourierMaps),
        "wave SP-ROM (LU step)": (wave_rom, np.zeros(wave_rom.dim), avf._DenseMaps),
        "kdv SP-ROM (tensor Newton)": (kdv_rom, phi.T @ kdv_u0, avf._DenseMaps),
        "kdv SP-ROM (lazy Newton)": (replace(kdv_rom, quadratic=lazy), phi.T @ kdv_u0,
                                     avf._DenseMaps),
    }


def test_every_stepping_path_is_freed_without_the_cycle_collector():
    # nothing a stepper or its maps hold may refer back to them (a bound
    # method, or a Jacobian closure over the maps, stored on them would):
    # reference counting alone must free both, with the flow and
    # factorizations, as soon as the last reference goes
    paths = _stepping_paths()
    gc.collect()
    gc.disable()
    try:
        for name, (flow, u, maps) in paths.items():
            stepper = AvfStepper(flow, dt=0.01)
            assert type(stepper._maps) is maps, name
            for k in range(1, 6):
                u = stepper.step(u, step_index=k)
            released = weakref.ref(stepper), weakref.ref(stepper._maps)
            del stepper
            assert [ref() for ref in released] == [None, None], name
    finally:
        gc.enable()
