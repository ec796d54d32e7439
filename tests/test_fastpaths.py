"""The dense reduced fast paths against a plain AVF step.

A dense linear flow steps with its precomputed propagator and a dense
quadratic flow with Newton iteration; the reference is the AVF step solved by
Picard iteration, one ``np.linalg.solve`` per update.  ``integrate`` fills
blocks of a dense linear flow from stacked propagator powers, checked against
single propagator steps, and its block-wise energy series against per-state
``eval_energy`` calls.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from hamrom import avf
from hamrom.avf import AvfScheme, AvfStepper, StepFailure, integrate
from hamrom.linalg import SingularMatrixError
from hamrom.pod import collect_snapshots, compute_basis
from hamrom.rom import RomVariant, reduce_operators, run_rom
from hamrom.systems import (
    DiagonalQuadratic,
    Grid1D,
    PolyGradFlow,
    ProjectedQuadratic,
    TensorQuadratic,
    build_kdv_fom,
    eval_energy,
    kdv_initial,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
QUADRATICS = ("diagonal", "tensor", "projected")


def _symmetric_tensor(rng, dim):
    """A random tensor symmetric in all three indices: G2 is then a gradient."""
    T = rng.standard_normal((dim, dim, dim))
    return sum(T.transpose(p) for p in itertools.permutations(range(3))) / 6.0


def _quadratic(kind, rng, dim, coeff):
    if kind == "diagonal":
        return DiagonalQuadratic(coeff)
    if kind == "tensor":
        return TensorQuadratic(coeff * _symmetric_tensor(rng, dim) / dim)
    basis = np.linalg.qr(rng.standard_normal((2 * dim, dim)))[0]  # orthonormal, as POD
    return ProjectedQuadratic(left=basis.T, basis=basis, coeff=coeff)


def _skew_flow(seed, dim, quadratic=None, coeff=0.0, constant=True):
    """Dense skew flow with a positive definite G1, optional g0 and G2."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    B = rng.standard_normal((dim, dim))
    return PolyGradFlow(
        structure=0.5 * (A - A.T),
        linear=B @ B.T / dim + 0.5 * np.eye(dim),
        constant=0.1 * rng.standard_normal(dim) if constant else None,
        quadratic=None if quadratic is None else _quadratic(quadratic, rng, dim, coeff),
        structure_tag="skew",
    )


def _picard_march(flow, u, dt, steps):
    """Final state and per-step iteration counts of ``steps`` AVF steps of a
    dense flow by Picard iteration: each update solves ``(I - A) x = (I + A) u
    + dt S (g0 + (G2(u,u) + G2(u,x) + G2(x,x)) / 3)`` with ``np.linalg.solve``,
    starting from the cubic extrapolation of the last three steps (from u
    before), and stops as the stepper does.  A diverging or stalling step
    raises :class:`StepFailure` with its index."""
    S, quad = flow.structure, flow.quadratic
    half = 0.5 * dt * (S @ flow.linear)
    lhs, rhs = np.eye(flow.dim) - half, np.eye(flow.dim) + half
    g0 = np.zeros(flow.dim) if flow.constant is None else flow.constant
    deltas, iterations = [], []
    for k in range(1, steps + 1):
        x = u + 3.0 * deltas[-1] - 3.0 * deltas[-2] + deltas[-3] if len(deltas) >= 3 else u
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, avf.MAX_ITERATIONS + 1):
                q = 0.0 if quad is None else (quad.eval(u, u) + quad.eval(u, x) + quad.eval(x, x))
                new = np.linalg.solve(lhs, rhs @ u + dt * (S @ (g0 + q / 3.0)))
                increment = np.abs(new - x).max()
                if not np.isfinite(increment):
                    raise StepFailure("Picard iteration diverged", step_index=k, iterations=m)
                if increment <= 1e-12 * (1.0 + np.abs(x).max()):
                    break
                x = new
            else:
                raise StepFailure("Picard iteration stalled", step_index=k, iterations=m)
        deltas.append(new - u)
        iterations.append(m)
        u = new
    return u, iterations


def _march(flow, u, dt, steps):
    """Final state and per-step iteration counts of ``steps`` AVF steps."""
    stepper = AvfStepper(flow, dt)
    iterations = []
    for k in range(1, steps + 1):
        u = stepper.step(u, step_index=k)
        iterations.append(stepper.last_iterations)
    return u, iterations


class TestQuadraticTerms:
    @pytest.mark.parametrize("kind", QUADRATICS)
    def test_jacobian_is_the_matrix_of_the_second_slot(self, kind):
        rng = np.random.default_rng(11)
        quad = _quadratic(kind, rng, 7, 0.8)
        a, v = rng.standard_normal(7), rng.standard_normal(7)
        expected = quad.eval(a, v)
        assert np.abs(quad.jacobian(a) @ v - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("kind", QUADRATICS)
    def test_block_eval_is_columnwise(self, kind):
        rng = np.random.default_rng(12)
        quad = _quadratic(kind, rng, 7, 0.8)
        A, B = rng.standard_normal((7, 5)), rng.standard_normal((7, 5))
        expected = np.column_stack([quad.eval(a, b) for a, b in zip(A.T, B.T)])
        assert np.abs(quad.eval(A, B) - expected).max() <= 1e-13 * np.abs(expected).max()


class TestPropagator:
    @PROPERTY
    @given(
        dim=st.integers(1, 30),
        dt=st.floats(1e-3, 0.5),
        constant=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_lu_step(self, dim, dt, constant, seed):
        flow = _skew_flow(seed, dim, constant=constant)
        u0 = np.random.default_rng(seed + 1).standard_normal(dim)
        dense, _ = _march(flow, u0, dt, 40)
        picard, _ = _picard_march(flow, u0, dt, 40)
        assert np.abs(dense - picard).max() <= 1e-11 * np.abs(picard).max()


class TestNewton:
    @PROPERTY
    @given(
        dim=st.integers(2, 16),
        kind=st.sampled_from(QUADRATICS),
        coeff=st.floats(0.1, 1.0),
        dt=st.floats(0.01, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_picard(self, dim, kind, coeff, dt, seed):
        flow = _skew_flow(seed, dim, quadratic=kind, coeff=coeff)
        u0 = 0.2 * np.random.default_rng(seed + 1).standard_normal(dim)
        newton, newton_iters = _march(flow, u0, dt, 20)
        picard, picard_iters = _picard_march(flow, u0, dt, 20)
        assert np.abs(newton - picard).max() <= 1e-10 * np.abs(picard).max()
        # quadratic convergence: at most four iterations per step, where the
        # linearly converging Picard iteration takes up to about 20 here
        assert max(newton_iters) <= 4
        assert sum(newton_iters) <= sum(picard_iters)

    @PROPERTY
    @given(
        dim=st.integers(2, 16),
        kind=st.sampled_from(QUADRATICS),
        coeff=st.floats(0.1, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    # the flow itself blows up: |u| grows from about 0.2 to 18 by step 36 and
    # both iterations fail at step 37
    @example(dim=5, kind="diagonal", coeff=0.5, seed=4147)
    def test_conserves_the_energy(self, dim, kind, coeff, seed):
        flow = _skew_flow(seed, dim, quadratic=kind, coeff=coeff)
        u0 = 0.2 * np.random.default_rng(seed + 1).standard_normal(dim)
        scheme = AvfScheme(dt=0.05, t_end=2.5)
        try:
            h = integrate(flow, u0, scheme).energies
        except StepFailure as newton:
            # a blow-up of the flow, not of the Newton iteration, only if the
            # Picard iteration fails at the same step
            with pytest.raises(StepFailure) as picard:
                _picard_march(flow, u0, scheme.dt, scheme.steps())
            assert picard.value.step_index == newton.step_index
            reject()
        assert np.abs(h - h[0]).max() <= 1e-10 * (1.0 + abs(h[0]))

    def test_singular_jacobian_is_a_step_failure(self):
        # u_1 sits at the equilibrium G1_11 u_1 + u_1^2 = 0 (u_1 = 4, G1_11 = -4),
        # so every predictor keeps x_1 = 4 and the Jacobian entry
        # 1 - dt/2 G1_11 - dt (u_1 + 2 x_1) / 3 is exactly 0 at dt = 0.5
        flow = PolyGradFlow(
            structure=np.eye(2),
            linear=np.diag([1.0, -4.0]),
            quadratic=DiagonalQuadratic(1.0),
            structure_tag="none",
        )
        with pytest.raises(StepFailure, match="Newton.*singular") as info:
            AvfStepper(flow, dt=0.5).step(np.array([0.1, 4.0]), step_index=7)
        assert info.value.step_index == 7
        assert info.value.iterations == 1
        assert isinstance(info.value.__cause__, SingularMatrixError)


class TestBlockPropagation:
    """A dense linear flow is integrated from stacked propagator powers."""

    @staticmethod
    def _per_step(flow, u0, dt, steps, stride):
        """Recorded states of ``steps`` single propagator steps ``M u + c``."""
        stepper = AvfStepper(flow, dt)
        recorded, u = [u0], u0
        for k in range(1, steps + 1):
            u = stepper.step(u, step_index=k)
            if k % stride == 0:
                recorded.append(u)
        return np.column_stack(recorded)

    @PROPERTY
    @given(
        dim=st.integers(1, 12),
        steps=st.integers(1, 700),
        stride=st.integers(1, 9),
        constant=st.booleans(),
        entries=st.sampled_from([10, 1000, avf._ENERGY_BLOCK_ENTRIES]),
        seed=st.integers(0, 2**32 - 1),
    )
    # with the default block entries B = 256 steps per matvec at these dims
    @example(dim=5, steps=100, stride=1, constant=True, entries=32768, seed=0)  # below B
    @example(dim=5, steps=256, stride=3, constant=False, entries=32768, seed=1)  # equal to B
    @example(dim=5, steps=257, stride=1, constant=True, entries=32768, seed=2)  # B + 1
    @example(dim=10, steps=1000, stride=7, constant=True, entries=32768, seed=3)  # not a multiple
    @example(dim=10, steps=333, stride=2, constant=False, entries=1000, seed=4)  # B = 10 < block
    def test_matches_the_per_step_propagator(self, dim, steps, stride, constant, entries, seed):
        flow = _skew_flow(seed, dim, constant=constant)
        u0 = np.random.default_rng(seed + 1).standard_normal(dim)
        dt = 0.05
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(avf, "_ENERGY_BLOCK_ENTRIES", entries)
            traj = integrate(flow, u0, AvfScheme(dt=dt, t_end=dt * steps, snapshot_stride=stride))
        reference = self._per_step(flow, u0, dt, steps, stride)
        assert traj.states.shape == reference.shape
        assert np.array_equal(traj.states[:, 0], u0)
        assert np.abs(traj.states - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.array_equal(traj.times, dt * (stride * np.arange(reference.shape[1])))
        h = traj.energies
        assert h.size == steps + 1
        assert np.abs(h - h[0]).max() <= 1e-10 * (1.0 + abs(h[0]))
        assert traj.max_picard_iterations == 0

    def test_stacked_powers_are_the_step_maps(self):
        rng = np.random.default_rng(21)
        M, c, u = 0.5 * rng.standard_normal((4, 4)), rng.standard_normal(4), rng.standard_normal(4)
        powers, offsets = avf._stacked_powers(M, c, 5)
        later = (powers @ u + offsets).reshape(5, 4)  # row j: the state j + 1 steps on
        for j in range(5):
            u = M @ u + c
            assert np.allclose(later[j], u, rtol=1e-13, atol=1e-13)
        assert avf._stacked_powers(M, None, 3)[1] is None


class TestBlockEnergy:
    @PROPERTY
    @given(
        dim=st.integers(1, 300),
        steps=st.integers(1, 700),
        stride=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=10, steps=300, stride=7, seed=0)  # 301 states: one full block of 256
    @example(dim=200, steps=500, stride=3, seed=1)  # blocks of 163 columns
    def test_matches_per_state_energies(self, dim, steps, stride, seed):
        flow = replace(_skew_flow(seed, dim), energy_weight=0.7, energy_shift=0.3)
        u0 = np.random.default_rng(seed + 1).standard_normal(dim)
        scheme = AvfScheme(dt=0.01, t_end=0.01 * steps)
        every = integrate(flow, u0, scheme)
        per_state = np.array([eval_energy(flow, u) for u in every.states.T])
        tol = 1e-12 * np.abs(per_state).max()
        assert np.abs(every.energies - per_state).max() <= tol
        strided = integrate(flow, u0, replace(scheme, snapshot_stride=stride))
        assert np.abs(strided.energies - per_state).max() <= tol

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_state_wider_than_a_block(self, monkeypatch, steps):
        # a state with more entries than one block holds still takes 2 columns
        monkeypatch.setattr(avf, "_ENERGY_BLOCK_ENTRIES", 10)
        flow = _skew_flow(7, 20)
        u0 = np.random.default_rng(8).standard_normal(20)
        traj = integrate(flow, u0, AvfScheme(dt=0.01, t_end=0.01 * steps))
        per_state = np.array([eval_energy(flow, u) for u in traj.states.T])
        assert traj.energies[0] == eval_energy(flow, u0)
        assert np.abs(traj.energies - per_state).max() <= 1e-12 * np.abs(per_state).max()

    @pytest.mark.parametrize("kind", QUADRATICS)
    def test_quadratic_block_matches_per_state(self, kind):
        flow = _skew_flow(5, 12, quadratic=kind, coeff=0.5)
        rng = np.random.default_rng(6)
        U = rng.standard_normal((12, 9))
        per_state = np.array([eval_energy(flow, u) for u in U.T])
        assert np.abs(eval_energy(flow, U) - per_state).max() <= 1e-12 * np.abs(per_state).max()


def test_kdv_rom_takes_a_few_newton_iterations():
    # a silent fallback to Picard iteration takes up to 9 per step here
    grid = Grid1D(n=200, length=40.0, origin=-20.0)
    fom = build_kdv_fom(-6.0, 0.0, -1.0, grid)
    scheme = AvfScheme(dt=0.02, t_end=2.0, snapshot_stride=5)
    traj = integrate(fom, kdv_initial(grid), scheme)
    model = reduce_operators(fom, compute_basis(collect_snapshots(traj, fom), 10), RomVariant.SP0)
    rom = run_rom(model, scheme, initial_state=traj.states[:, 0])
    assert rom.max_picard_iterations <= 4
