"""Average-vector-field (AVF) time stepping for polynomial-gradient flows.

The one-step map replaces the gradient with its exact average along the
update segment.  For gradients of polynomial degree <= 2 that average has a
closed form: the linear part becomes a midpoint, the quadratic part the
three-term mean ``(G2(u_k,u_k) + G2(u_k,u_{k+1}) + G2(u_{k+1},u_{k+1})) / 3``.
As a discrete-gradient method the step conserves the energy of skew-structured
flows (and never increases it for negative-semidefinite ones) up to the
nonlinear-solver tolerance.  Full-order flows, whose operators are periodic
stencils, step per Fourier mode; reduced ones by dense linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .linalg import LuFactorization, SingularMatrixError
from .systems import PeriodicStencil, PolyGradFlow, TensorQuadratic, _as_state, _grad, eval_energy

__all__ = ["AvfScheme", "AvfStepper", "StepFailure", "Trajectory", "integrate"]

# iteration cap of the nonlinear solve of one step (Picard or Newton)
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class AvfScheme:
    """Time-integration parameters: step size, horizon, nonlinear solve knobs.

    ``picard_tol`` is the stopping tolerance of whichever nonlinear solver
    the flow's storage selects (see :class:`AvfStepper`): Picard iteration
    on periodic-stencil full-order flows, Newton iteration on dense reduced
    ones.
    ``snapshot_stride`` controls recording: every ``stride``-th state (plus
    the initial one) is kept in the trajectory.
    """

    dt: float
    t_end: float
    picard_tol: float = 1e-12
    snapshot_stride: int = 1

    def __post_init__(self):
        for name in ("dt", "t_end", "picard_tol"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
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
    """The nonlinear solve of one step failed: Picard or Newton iteration
    did not converge, diverged, or (Newton) met a singular Jacobian."""

    def __init__(self, message: str, step_index: int = 0, iterations: int = 0):
        super().__init__(message)
        self.step_index = step_index
        self.iterations = iterations


@dataclass
class Trajectory:
    """Recorded states plus the per-step energy series of one integration.

    ``states`` holds one recorded state per column, ``times`` the matching
    instants (first entry is t=0).  ``energies`` has one entry per time step
    plus the initial value, regardless of the recording stride; ``dt`` is the
    step size, so the energy of step k belongs to time ``k * dt``.
    ``max_picard_iterations`` is the largest per-step iteration count of the
    nonlinear solver that ran (Picard or Newton; 0 for linear flows).

    ``basis`` and ``offset`` are the decode map of a reduced run: with a
    ``basis``, ``states`` holds reduced coefficients and the full state of
    column k is ``offset + basis @ states[:, k]`` (no offset when absent).
    :meth:`full_states` gives full states of a block of columns.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    steps_total: int
    dt: float
    max_picard_iterations: int = 0
    basis: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.states.shape[1] != self.times.size:
            raise ValueError("states column count must match times")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("recorded times must be strictly increasing")
        if self.basis is not None and self.basis.shape[1] != self.states.shape[0]:
            raise ValueError("decode basis must have one column per reduced coefficient")

    @property
    def dim(self) -> int:
        """Dimension of the full states (the decoded ones of a reduced run)."""
        return self.states.shape[0] if self.basis is None else self.basis.shape[0]

    @property
    def energy_times(self) -> np.ndarray:
        """Time instants matching the per-step energy series."""
        return self.dt * np.arange(self.steps_total + 1)

    def full_states(self, start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Full states of columns ``start:stop``: a view of the recorded
        states, or, for a reduced run, decoded into ``out`` (shape
        ``(dim, stop - start)``; a new array when None)."""
        if self.basis is None:
            return self.states[:, start:stop]
        out = np.matmul(self.basis, self.states[:, start:stop], out=out)
        if self.offset is not None:
            out += self.offset[:, None]
        return out


class AvfStepper:
    """One-step AVF integrator; the storage of the flow's operators picks the solver.

    With ``A = dt/2 S G1``, every step solves
    ``(I - A) x = (I + A) u + dt S g0 + dt S (G2(u,u) + G2(u,x) + G2(x,x)) / 3``.

    * Periodic stencils (full-order models, :class:`PeriodicStencil`): every
      block of S and G1 is diagonal in Fourier modes, so a step is one
      transform pair (:class:`_FourierMaps`), and a quadratic flow iterates
      on the average quadratic term by Picard iteration, one transform pair
      per iteration.  Such a flow may have no g0 (no command builds one).
    * Dense linear flows (reduced models): the step is the precomputed
      propagator ``x = M u + c`` with ``M = (I - A)^-1 (I + A)`` and
      ``c = (I - A)^-1 dt S g0``.
    * Dense quadratic flows (reduced models): Newton iteration with the
      r x r Jacobian ``I - A - dt S (J2(u) + 2 J2(x)) / 3``, where ``J2(a)``
      is the matrix of ``v -> G2(a, v)``, factored every iteration.  A
      tensor term folds ``dt S / 3`` into its tensor once, so ``dt S J2(x) / 3``
      is one contraction with ``x``.

    :func:`integrate` fills whole blocks of steps of a linear flow from the
    stacked powers of its propagator (per mode on block-circulant stencils).

    Both iterations stop when the increment drops to ``picard_tol`` relative
    to ``1 + max|x|`` and fail with :class:`StepFailure` after
    :data:`MAX_ITERATIONS` iterations; ``last_iterations`` is the count of the
    last step (0 for linear flows).  They start from a cubic extrapolation
    of the step history (an explicit RK4 prediction while the history is
    short).  The predictor only changes the iteration count, never the
    converged step.
    """

    def __init__(self, flow: PolyGradFlow, dt: float, picard_tol: float = 1e-12):
        if dt == 0:
            raise ValueError("dt must be nonzero")
        self.flow = flow
        self.dt = dt
        self.picard_tol = picard_tol
        self._deltas: list[np.ndarray] = []  # last three step increments
        self.last_iterations = 0
        stencil = isinstance(flow.structure, PeriodicStencil)
        if stencil:
            if flow.constant is not None:
                raise ValueError("a periodic-stencil flow cannot have a constant term g0")
            maps = _FourierMaps(flow.structure.columns, flow.linear.columns, dt)
        else:
            maps = _LuMaps(flow, dt)
            if flow.quadratic is None:
                maps = _PropagatorMaps(maps)
        self._maps = maps
        # dense quadratic flows iterate by Newton on the map x -> dt S J2(x) / 3
        # (a tensor term takes dt S / 3 in once); stencil ones by Picard
        self._jacobian = None
        quad = flow.quadratic
        if quad is not None and not stencil:
            dtS3 = maps.dtS / 3.0
            if isinstance(quad, TensorQuadratic):
                self._jacobian = partial(np.matmul, np.tensordot(dtS3, quad.tensor, axes=1))
            else:
                self._jacobian = lambda x: dtS3 @ quad.jacobian(x)

    def _ode_rhs(self, u: np.ndarray) -> np.ndarray:
        # unvalidated: a non-finite RK4 stage only makes _predict fall back to u
        return self.flow.structure @ _grad(self.flow, u)

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
        """Advance one step from ``u``; raises StepFailure when the nonlinear
        solve fails (``step_index`` is reported with it)."""
        if self.flow.quadratic is None:
            return self._maps.solve(self._maps.base(u))
        # overflow inside a diverging iteration is expected and reported as
        # StepFailure, hence the suppressed floating-point warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if self._jacobian is None:
                solver, update = self._picard(u)
            else:
                solver, update = self._newton(u, step_index)
            x = self._predict(u)
            increment = np.inf
            for m in range(1, MAX_ITERATIONS + 1):
                new = update(x, m)
                increment = np.inf if new is None else np.abs(new - x).max()
                if not np.isfinite(increment):  # the maximum propagates NaN and inf
                    raise StepFailure(
                        f"{solver} iteration diverged (overflow after {m} iterations)",
                        step_index=step_index,
                        iterations=m,
                    )
                if increment <= self.picard_tol * (1.0 + np.abs(x).max()):
                    self.last_iterations = m
                    self._deltas = (self._deltas + [new - u])[-3:]
                    return new
                x = new
        raise StepFailure(
            f"{solver} iteration stalled after {MAX_ITERATIONS} iterations "
            f"(last increment {increment:.3e})",
            step_index=step_index,
            iterations=MAX_ITERATIONS,
        )

    def _picard(self, u: np.ndarray):
        """``(solver, update)`` of Picard iteration: ``update(x, m)`` is the
        next iterate, one ``solve`` of the averaged quadratic term."""
        quad, maps = self.flow.quadratic, self._maps
        base = maps.base(u)
        q_uu = quad.eval(u, u)

        def update(x: np.ndarray, m: int) -> np.ndarray:
            return maps.solve(base, q_uu + quad.eval(u, x) + quad.eval(x, x))

        return "Picard", update

    def _newton(self, u: np.ndarray, step_index: int):
        """``(solver, update)`` of Newton iteration: ``update(x, m)`` is the
        residual, then one factor and one solve of the Jacobian, or None
        when the residual overflowed."""
        maps, jacobian = self._maps, self._jacobian
        k_u = jacobian(u)  # dt S J2(u) / 3
        base = maps.base(u) + k_u @ u  # (I + A) u + dt S (g0 + G2(u,u) / 3)
        fixed = maps.lhs_mat - k_u  # the Jacobian's part that x leaves fixed

        def update(x: np.ndarray, m: int) -> Optional[np.ndarray]:
            k_x = jacobian(x)
            # residual of (I - A) x = base + dt S (G2(u,x) + G2(x,x)) / 3;
            # an overflow in k_x leaves it non-finite too
            residual = (fixed - k_x) @ x - base
            if not np.isfinite(residual).all():
                return None
            try:
                maps.lhs.factor(fixed - 2.0 * k_x)
            except SingularMatrixError as exc:
                raise StepFailure(
                    f"Newton iteration met a singular Jacobian at iteration {m}: {exc}",
                    step_index=step_index,
                    iterations=m,
                ) from exc
            return x - maps.lhs.solve(residual)

        return "Newton", update


# The linear algebra of one step comes from maps with ``base(u)``, the part
# of the step that u fixes.  The Fourier and propagator maps also take the
# step, ``solve(base, q)`` for the quadratic term q (the sum of the three G2
# evaluations; a linear flow passes none), and fill whole blocks of a linear
# flow's steps, ``stacked(width)``.


class _LuMaps:
    """One LU factorization of the dense ``I - A``: the start of a propagator,
    or of a Newton iteration, which refactors ``lhs`` every iteration."""

    def __init__(self, flow: PolyGradFlow, dt: float):
        half = 0.5 * dt * (flow.structure @ flow.linear)
        eye = np.eye(flow.dim)
        self.lhs_mat = eye - half
        self.lhs = LuFactorization(self.lhs_mat)
        self.rhs_mat = eye + half
        self.dtS = dt * flow.structure
        self.const = self.dtS @ flow.constant if flow.constant is not None else None

    def base(self, u: np.ndarray) -> np.ndarray:
        """``(I + A) u + dt S g0``."""
        base = self.rhs_mat @ u
        return base if self.const is None else base + self.const


class _PropagatorMaps:
    """A dense linear step as its propagator: ``base(u) = M u + c`` is the step."""

    def __init__(self, lu: _LuMaps):
        # NumPy's LAPACK, not the SciPy one of the factorization: SciPy's
        # multi-column solve wakes SciPy's OpenBLAS threads, which keep
        # spinning afterwards and, on 2 cores, doubled the time of the
        # NumPy SVD that follows a short reduced run in a sweep
        self._M = np.linalg.solve(lu.lhs_mat, lu.rhs_mat)
        self._c = lu.lhs.solve(lu.const) if lu.const is not None else None

    def base(self, u: np.ndarray) -> np.ndarray:
        x = self._M @ u
        return x if self._c is None else x + self._c

    def solve(self, base: np.ndarray, q: Optional[np.ndarray] = None) -> np.ndarray:
        """``base``, already the step: a dense linear flow has no quadratic term."""
        return base

    def stacked(self, width: int):
        """``(run, count)``: ``run(u, k)`` gives the next ``k <= count`` states
        as rows, from one matvec of the stacked powers (at most
        ``_ENERGY_BLOCK_ENTRIES`` entries of them)."""
        dim = self._M.shape[0]
        count = max(1, min(width, _ENERGY_BLOCK_ENTRIES // (dim * dim)))
        powers, offsets = _stacked_powers(self._M, self._c, count)
        powers = powers.reshape(count * dim, dim)
        offsets = None if offsets is None else offsets.ravel()

        def run(u: np.ndarray, k: int) -> np.ndarray:
            x = powers[: k * dim] @ u
            if offsets is not None:
                x += offsets[: k * dim]
            return x.reshape(k, dim)

        return run, count


def _apply(symbols: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Per-mode products of (..., b, b, modes) symbols with (b, modes) spectra."""
    out = symbols[..., 0, :] * spectra[0]
    for c in range(1, spectra.shape[0]):
        out += symbols[..., c, :] * spectra[c]
    return out


class _FourierMaps:
    """The step of block-circulant operators, one b x b matrix per Fourier mode.

    A periodic stencil is diagonalized by the discrete Fourier transform, so
    on b fields whose every block is one (the ``columns`` of a
    :class:`PeriodicStencil`), ``I - A``, ``I + A`` and ``dt S`` are b x b
    symbols per mode of ``numpy.fft.rfft``.  ``P = (I - A)^-1 (I + A)``
    and ``K = (I - A)^-1 dt S / 3`` are formed once; ``base`` is the linear
    step and ``solve`` adds the quadratic term, one transform pair each.  A
    mode whose pivot is at or below 1e-14 of the largest symbol entry of
    ``I - A`` raises :class:`SingularMatrixError`, as :class:`LuFactorization`
    does.  Symbols are stored (b, b, modes) and spectra (b, modes), so every
    product runs along the contiguous mode axis.
    """

    def __init__(self, structure: np.ndarray, linear: np.ndarray, dt: float):
        fields, _, self._n = structure.shape
        # per-mode matrices (modes, b, b) while the symbols are formed
        S, G1 = (np.moveaxis(np.fft.rfft(c), -1, 0) for c in (structure, linear))
        half = 0.5 * dt * (S @ G1)
        eye = np.eye(fields)
        lhs = eye - half
        first = np.abs(lhs[:, :, 0]).max(axis=1)  # the first pivot of partial pivoting
        with np.errstate(divide="ignore", invalid="ignore"):
            pivots = first if fields == 1 else np.minimum(first, np.abs(np.linalg.det(lhs)) / first)
        if not np.all(pivots > 1e-14 * np.abs(lhs).max()):  # NaN fails too
            raise SingularMatrixError("Fourier-mode pivot below 1e-14 of the symbol scale")
        self._P_modes = np.linalg.solve(lhs, eye + half)
        self._P = _modes_last(self._P_modes)
        self._K = _modes_last(np.linalg.solve(lhs, (dt / 3.0) * S))

    def _modes(self, u: np.ndarray) -> np.ndarray:
        """The (b, modes) spectra of the b fields of a state."""
        return np.fft.rfft(u.reshape(-1, self._n))

    def _space(self, spectra: np.ndarray) -> np.ndarray:
        """The states (..., dim) of (..., b, modes) spectra."""
        x = np.fft.irfft(spectra, self._n)
        return x.reshape(x.shape[:-2] + (-1,))

    def base(self, u: np.ndarray) -> np.ndarray:
        """``P u``: the step without the quadratic term."""
        return self._space(_apply(self._P, self._modes(u)))

    def solve(self, base: np.ndarray, q: Optional[np.ndarray] = None) -> np.ndarray:
        """``base + K q``."""
        return base if q is None else base + self._space(_apply(self._K, self._modes(q)))

    def stacked(self, width: int):
        """``(run, count)``: ``run(u, k)`` gives the next ``k <= count`` states
        as rows, from the stacked per-mode powers of ``P`` (at most
        ``_ENERGY_BLOCK_ENTRIES`` entries of them) and one batched inverse
        transform."""
        count = max(1, min(width, _ENERGY_BLOCK_ENTRIES // self._P.size))
        powers = _modes_last(_stacked_powers(self._P_modes, None, count)[0])

        def run(u: np.ndarray, k: int) -> np.ndarray:
            return self._space(_apply(powers[:k], self._modes(u)))

        return run, count


def _modes_last(matrices: np.ndarray) -> np.ndarray:
    """(..., b, b, modes) contiguous symbols of (..., modes, b, b) matrices."""
    return np.ascontiguousarray(np.moveaxis(matrices, -3, -1))


# one eval_energy call in integrate covers up to 256 consecutive states and
# about 32k state entries (256 KB): a few hundred columns for reduced models,
# so the per-call overhead vanishes, and 16 for a 2000-entry full-order state,
# whose block and temporaries then stay far below the recorded trajectory;
# never fewer than 2 columns, or the initial state would be overwritten by
# the first step before its energy is evaluated.  The stacked propagator
# powers of a dense linear flow are held to the same 32k entries.
_ENERGY_BLOCK_COLUMNS = 256
_ENERGY_BLOCK_ENTRIES = 32768


def _stacked_powers(M: np.ndarray, c: Optional[np.ndarray], count: int):
    """``M, M^2, ..., M^count`` and the matching offsets, stacked on a new
    leading axis.

    Entry j (from 0) maps a state to the state ``j + 1`` steps of
    ``u -> M u + c`` later: ``M^(j+1) u + (M^j + ... + I) c``.  ``M`` may be
    a stack of matrices (one per Fourier mode), which has no ``c``.  The
    offsets are None without ``c``.
    """
    powers = np.empty((count,) + M.shape, dtype=M.dtype)
    offsets = None if c is None else np.empty((count,) + c.shape, dtype=c.dtype)
    powers[0] = M
    if offsets is not None:
        offsets[0] = c
    for j in range(1, count):
        np.matmul(M, powers[j - 1], out=powers[j])
        if offsets is not None:
            offsets[j] = M @ offsets[j - 1] + c
    return powers, offsets


def integrate(flow: PolyGradFlow, u0, scheme: AvfScheme,
              consumer: Optional[Callable[[np.ndarray], None]] = None) -> Trajectory:
    """March ``flow`` from ``u0`` to ``t_end``, recording every stride-th state.

    Column 0 of the result is the initial state; each recorded state is one
    contiguous column (column-major ``states``).  The energy series carries
    one entry per step (plus the initial one) so conservation can be checked
    at full resolution even when states are recorded sparsely.

    The steps fill blocks of consecutive states, and each block gives its
    energies in one evaluation and its recorded states in one copy.  Each
    filled block, steps ``k0`` to ``k0 + w - 1`` as a ``(dim, w)`` view, also
    goes to ``consumer`` when one is given (in order, starting at step 0),
    which must copy what it keeps: the next block overwrites it.  A
    linear flow with a propagator (a dense one, a linear reduced model, or a
    periodic-stencil one, the wave full-order model) fills a block
    without stepping: up to B states at a time come from the stacked
    propagator powers ``[M; M^2; ...; M^B]`` applied to the block's start
    state, for a circulant flow per Fourier mode with one batched inverse
    transform.  Every other flow takes :meth:`AvfStepper.step` once per step.
    """
    u = _as_state(u0, flow.dim)
    steps = scheme.steps()
    stride = scheme.snapshot_stride
    stepper = AvfStepper(flow, scheme.dt, scheme.picard_tol)
    dim = flow.dim
    states = np.empty((dim, steps // stride + 1), order="F")
    energies = np.empty(steps + 1)
    width = max(2, min(_ENERGY_BLOCK_COLUMNS, _ENERGY_BLOCK_ENTRIES // dim, steps + 1))
    block = np.empty((dim, width))  # column j holds step k0 + j
    block[:, 0] = u
    stacked = stepper._maps.stacked(width) if flow.quadratic is None else None
    max_iters = 0
    for k0 in range(0, steps + 1, width):
        w = min(width, steps + 1 - k0)
        start = 1 if k0 == 0 else 0  # column 0 of the first block is the initial state
        if stacked is None:
            for j in range(start, w):
                u = stepper.step(u, step_index=k0 + j)
                max_iters = max(max_iters, stepper.last_iterations)
                block[:, j] = u
        else:
            run, chunk = stacked
            for j in range(start, w, chunk):
                count = min(chunk, w - j)
                x = run(u, count)
                block[:, j : j + count] = x.T
                u = x[-1]
        energies[k0 : k0 + w] = eval_energy(flow, block[:, :w])
        if consumer is not None:
            consumer(block[:, :w])
        first = -(-k0 // stride)  # index of the first recorded state in the block
        last = (k0 + w - 1) // stride + 1
        states[:, first:last] = block[:, first * stride - k0 : w : stride]
    return Trajectory(
        times=scheme.dt * (stride * np.arange(states.shape[1])),  # step k at k * dt
        states=states,
        energies=energies,
        steps_total=steps,
        dt=scheme.dt,
        max_picard_iterations=max_iters,
    )
