"""Average-vector-field (AVF) time stepping for polynomial-gradient flows.

The one-step map replaces the gradient with its exact average along the
update segment.  For gradients of polynomial degree <= 2 that average has a
closed form: the linear part becomes a midpoint, the quadratic part the
three-term mean ``(G2(u_k,u_k) + G2(u_k,u_{k+1}) + G2(u_{k+1},u_{k+1})) / 3``.
As a discrete-gradient method the step conserves the energy of skew-structured
flows (and never increases it for negative-semidefinite ones) up to the
nonlinear-solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LuFactorization
from .systems import PolyGradFlow, _as_state, eval_energy

__all__ = ["AvfScheme", "AvfStepper", "StepFailure", "Trajectory", "integrate"]


@dataclass(frozen=True)
class AvfScheme:
    """Time-integration parameters: step size, horizon, nonlinear solve knobs.

    ``snapshot_stride`` controls recording: every ``stride``-th state (plus
    the initial one) is kept in the trajectory.
    """

    dt: float
    t_end: float
    picard_tol: float = 1e-12
    picard_max_iter: int = 100
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")

    def steps(self) -> int:
        """Number of time steps; rejects horizons that misalign with ``dt``."""
        ratio = self.t_end / self.dt
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
            raise ValueError(
                f"t_end/dt = {ratio!r} is not an integer step count; "
                "adjust dt or t_end"
            )
        return n


class StepFailure(RuntimeError):
    """Picard iteration did not converge within the allowed iterations."""

    def __init__(self, message: str, step_index: int = 0, iterations: int = 0,
                 increment: float = float("nan")):
        super().__init__(message)
        self.step_index = step_index
        self.iterations = iterations
        self.increment = increment


@dataclass
class Trajectory:
    """Recorded states plus the per-step energy series of one integration.

    ``states`` holds one recorded state per column, ``times`` the matching
    instants (first entry is t=0).  ``energies`` has one entry per time step
    plus the initial value, regardless of the recording stride.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    steps_total: int
    max_picard_iterations: int = 0

    def __post_init__(self):
        if self.states.shape[1] != self.times.size:
            raise ValueError("states column count must match times")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("recorded times must be strictly increasing")

    @property
    def dt(self) -> float:
        return (self.times[-1] - self.times[0]) / self.steps_total

    @property
    def energy_times(self) -> np.ndarray:
        """Time instants matching the per-step energy series."""
        return self.dt * np.arange(self.steps_total + 1)


class AvfStepper:
    """One-step AVF integrator with the constant linear solve factored once.

    The left matrix ``I - dt/2 S G1`` depends only on the flow and ``dt``, so
    it is LU-factored at construction and reused for every step; this is the
    dominant cost saving for constant-coefficient systems.

    The Picard iteration for quadratic flows starts from a cubic extrapolation
    of the step history (an explicit RK4 prediction while the history is
    short).  The predictor only changes the iteration count, never the
    converged step.
    """

    def __init__(self, flow: PolyGradFlow, dt: float, picard_tol: float = 1e-12,
                 picard_max_iter: int = 100):
        if dt == 0:
            raise ValueError("dt must be nonzero")
        self.flow = flow
        self.dt = dt
        self.picard_tol = picard_tol
        self.picard_max_iter = picard_max_iter
        half = 0.5 * dt * (flow.structure @ flow.linear)
        eye = np.eye(flow.dim)
        self._lhs = LuFactorization(eye - half)
        self._rhs_mat = eye + half
        self._dtS = dt * flow.structure
        self._const = self._dtS @ flow.constant if flow.constant is not None else None
        self._deltas: list[np.ndarray] = []  # last three step increments
        self.last_iterations = 0

    def _ode_rhs(self, u: np.ndarray) -> np.ndarray:
        g = self.flow.linear @ u
        if self.flow.constant is not None:
            g = g + self.flow.constant
        g = g + self.flow.quadratic.eval(u, u)
        return self.flow.structure @ g

    def _predict(self, u: np.ndarray) -> np.ndarray:
        if len(self._deltas) == 3:
            d1, d2, d3 = self._deltas
            return u + 3.0 * d3 - 3.0 * d2 + d1
        dt = self.dt
        k1 = self._ode_rhs(u)
        k2 = self._ode_rhs(u + 0.5 * dt * k1)
        k3 = self._ode_rhs(u + 0.5 * dt * k2)
        k4 = self._ode_rhs(u + dt * k3)
        guess = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return guess if np.all(np.isfinite(guess)) else u

    def step(self, u: np.ndarray, step_index: int = 0) -> np.ndarray:
        """Advance one step from ``u``; raises StepFailure on non-convergence.

        Overflow inside a diverging Picard iteration is expected and reported
        as StepFailure, hence the suppressed floating-point warnings.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._step(u, step_index)

    def _step(self, u: np.ndarray, step_index: int) -> np.ndarray:
        base = self._rhs_mat @ u
        if self._const is not None:
            base = base + self._const
        quad = self.flow.quadratic
        if quad is None:
            self.last_iterations = 0
            return self._lhs.solve(base)

        q_kk = quad.eval(u, u)
        guess = self._predict(u)
        increment = np.inf
        for m in range(1, self.picard_max_iter + 1):
            q_avg = (q_kk + quad.eval(u, guess) + quad.eval(guess, guess)) / 3.0
            new = self._lhs.solve(base + self._dtS @ q_avg)
            if not np.all(np.isfinite(new)):
                raise StepFailure(
                    f"Picard iteration diverged (overflow after {m} iterations)",
                    step_index=step_index,
                    iterations=m,
                    increment=float("inf"),
                )
            increment = np.abs(new - guess).max()
            if increment <= self.picard_tol * (1.0 + np.abs(guess).max()):
                self.last_iterations = m
                self._deltas = (self._deltas + [new - u])[-3:]
                return new
            guess = new
        raise StepFailure(
            f"Picard iteration stalled after {self.picard_max_iter} iterations "
            f"(last increment {increment:.3e})",
            step_index=step_index,
            iterations=self.picard_max_iter,
            increment=float(increment),
        )


def integrate(flow: PolyGradFlow, u0, scheme: AvfScheme) -> Trajectory:
    """March ``flow`` from ``u0`` to ``t_end``, recording every stride-th state.

    Column 0 of the result is the initial state.  The energy series carries
    one entry per step (plus the initial one) so conservation can be checked
    at full resolution even when states are recorded sparsely.
    """
    u = _as_state(u0, flow.dim)
    steps = scheme.steps()
    stepper = AvfStepper(flow, scheme.dt, scheme.picard_tol, scheme.picard_max_iter)
    n_rec = steps // scheme.snapshot_stride + 1
    states = np.empty((flow.dim, n_rec))
    times = np.empty(n_rec)
    energies = np.empty(steps + 1)
    states[:, 0] = u
    times[0] = 0.0
    energies[0] = eval_energy(flow, u)
    rec = 1
    max_iters = 0
    for k in range(1, steps + 1):
        u = stepper.step(u, step_index=k)
        energies[k] = eval_energy(flow, u)
        max_iters = max(max_iters, stepper.last_iterations)
        if k % scheme.snapshot_stride == 0:
            states[:, rec] = u
            times[rec] = k * scheme.dt
            rec += 1
    return Trajectory(
        times=times[:rec],
        states=states[:, :rec],
        energies=energies,
        steps_total=steps,
        max_picard_iterations=max_iters,
    )
