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

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .linalg import PIVOT_TOL, LuFactorization, SingularMatrixError
from .systems import (
    DiagonalQuadratic,
    PeriodicStencil,
    PolyGradFlow,
    TensorQuadratic,
    _as_state,
    _grad,
    _integer,
    eval_energy,
)

__all__ = ["AvfScheme", "AvfStepper", "StepFailure", "Trajectory", "integrate"]

# iteration cap of the nonlinear solve of one step (Picard or Newton)
MAX_ITERATIONS = 100

# the Picard window of a quadratic flow on periodic stencils (the KdV
# full-order model) holds at most _WINDOW consecutive steps, and a step
# enters it once the step before it has had _ENTRY_UPDATES updates
_WINDOW = 4
_ENTRY_UPDATES = 2

_CUBIC = np.array([-1.0, 4.0, -6.0, 4.0])  # the next state from the last four, oldest first
# the same weights on a ring of four slots: row s when slot s holds the oldest
_CUBIC_RING = np.array([np.roll(_CUBIC, s) for s in range(4)])


@dataclass(frozen=True)
class AvfScheme:
    """Time-integration parameters: step size, horizon, nonlinear solve knobs.

    ``picard_tol`` is the stopping tolerance of the nonlinear iteration of
    the flow's maps, relative to ``1 + max|x|``: Picard in
    :class:`_FourierMaps` stops when an increment drops to it, chord Newton
    in :class:`_DenseMaps` also when its predicted remaining error does.
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
        object.__setattr__(self, "snapshot_stride",
                           _integer("snapshot_stride", self.snapshot_stride))
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
    plus the initial value, regardless of the recording stride (None for a
    run that evaluated none); ``dt`` is the step size, so the energy of step
    k belongs to time ``k * dt``.
    ``max_picard_iterations`` is the largest per-step iteration count of the
    nonlinear solver that ran (Picard or Newton; 0 for linear flows); a step
    iterated on a Picard window counts every update of its row.
    ``iteration_histogram`` counts in entry m the steps that took m iterations
    (None for a run read back from the cache, whose meta keeps the maximum).

    ``basis`` and ``offset`` are the decode map of a reduced run: with a
    ``basis``, ``states`` holds reduced coefficients and the full state of
    column k is ``offset + basis @ states[:, k]`` (no offset when absent).
    :meth:`full_states` gives full states of a block of columns.
    """

    times: np.ndarray
    states: np.ndarray
    energies: Optional[np.ndarray]
    steps_total: int
    dt: float
    max_picard_iterations: int = 0
    iteration_histogram: Optional[np.ndarray] = None
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
    """One-step AVF integrator; the storage of the flow's operators picks its maps.

    With ``A = dt/2 S G1``, every step solves
    ``(I - A) x = (I + A) u + dt S g0 + dt S (G2(u,u) + G2(u,x) + G2(x,x)) / 3``:
    by :class:`_FourierMaps` for periodic stencils (full-order models), by
    :class:`_DenseMaps` for dense operators (reduced models).  A linear
    flow's step is its maps' one-step propagator, a quadratic flow's the
    nonlinear iteration of its maps to ``picard_tol``, Picard on Fourier
    modes or chord Newton on dense operators.  An iteration fails with
    :class:`StepFailure` on overflow or after :data:`MAX_ITERATIONS`
    iterations; ``last_iterations`` is the count of the last step (0 for
    linear flows).  A state that is not finite or not of the flow's shape
    is a ValueError, checked once per chain.

    A quadratic flow's steps form chains, each one generator of its maps'
    ``chain``: a step continues the chain only when ``u`` is the very array
    the last step returned; any other ``u`` (an equal copy too) starts a new
    one, and so does a retry after a failed step.  The chain starts each
    step from the cubic extrapolation of its last four steps (of their
    states on Fourier maps, of their last evaluated iterates on dense maps;
    the RK4 step of the last state while it has fewer), which changes the
    iteration count, never the converged step.
    """

    def __init__(self, flow: PolyGradFlow, dt: float, picard_tol: float = 1e-12):
        if dt == 0:
            raise ValueError("dt must be nonzero")
        self.flow = flow
        self.dt = dt
        self.picard_tol = picard_tol
        self._last = None  # the array the last step returned
        self._chain = None  # the open chain of steps: a generator of (state, iterations)
        self.last_iterations = 0
        self._maps = _maps_for(flow, dt)
        self._linear = self._maps.stacked(1)[0] if flow.quadratic is None else None

    def step(self, u: np.ndarray, step_index: int = 0) -> np.ndarray:
        """Advance one step from ``u``; raises StepFailure when the nonlinear
        solve fails (``step_index`` is reported with it)."""
        if self._linear is not None:
            return self._linear(_as_state(u, self.flow.dim), 1)[0]
        if u is not self._last:  # a new chain starts at u
            self._chain = self._maps.chain(_as_state(u, self.flow.dim), self.picard_tol,
                                           step_index)
        try:
            self._last, self.last_iterations = next(self._chain)
        except BaseException:
            self._chain = self._last = None
            raise
        return self._last


# The maps of a flow's operator storage, built from ``(flow, dt)``, own the
# linear algebra of a step and its nonlinear solve: ``chain(u, tol, first)``,
# a generator of ``(state, iterations)`` of a quadratic flow's steps from
# ``u``, numbered from ``first``, each iterated to the tolerance ``tol`` or
# failed as a StepFailure; and ``stacked(width)``, whole blocks of a linear
# flow's steps.  ``_predict`` is the RK4 start guess of a chain's first steps.


def _rk4(flow: PolyGradFlow, dt: float, u: np.ndarray) -> np.ndarray:
    """The RK4 step of ``flow`` from ``u``, or ``u`` when a stage overflows."""
    def rhs(v):  # unvalidated: a non-finite stage only makes the guess u
        return flow.structure @ _grad(flow, v)

    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    guess = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return guess if np.all(np.isfinite(guess)) else u


def _max_abs(a: np.ndarray) -> float:
    """``max |a|``, NaN when ``a`` holds one."""
    return np.maximum.reduce(np.abs(a), axis=None)


def _diverged(solver: str, m: int, step_index: int) -> StepFailure:
    return StepFailure(f"{solver} iteration diverged (overflow after {m} iterations)",
                       step_index=step_index, iterations=m)


def _stalled(solver: str, increment: float, step_index: int) -> StepFailure:
    return StepFailure(
        f"{solver} iteration stalled after {MAX_ITERATIONS} iterations "
        f"(last increment {increment:.3e})",
        step_index=step_index,
        iterations=MAX_ITERATIONS,
    )


class _DenseMaps:
    """Dense operators (reduced models): one LU factorization of ``I - A``.

    A linear flow steps by the propagator ``x = M u + c`` (:meth:`stacked`),
    ``M = (I - A)^-1 (I + A)``, ``c = (I - A)^-1 dt S g0``.
    A quadratic flow iterates by chord Newton on the residual
    ``(I - A) x - b - K(x)(u + x)``, where ``K(a) = dt S J2(a) / 3``,
    ``J2(a)`` is the matrix of ``v -> G2(a, v)`` (symmetric ``G2``:
    ``K(a) b = K(b) a``) and ``b = (I + A) u + dt S g0 + K(y)(u - dx)``, with
    the Jacobian ``I - A - K(y) - 2 K(x)``.  ``y`` and ``dx`` are the last
    evaluated iterate and update of the chain's step that returned
    ``u = y - dx``, so ``K(y)(u - dx) = K(u) u + O(|dx|^2)``; a chain's
    first step has ``y = u``, ``dx = 0``.  ``K`` is linear, so a step that
    starts from the cubic extrapolation ``x_0`` of the chain's last four
    ``y`` takes ``K(x_0)`` as the same extrapolation of their ``K``
    (:meth:`chain`), and a step of two iterations evaluates ``K`` once, at
    its second iterate.  The Jacobian is built in a column-major buffer and
    factored there in place (into ``lhs``) at the first iteration, and
    again only after an increment that did not shrink by at least half, so
    a step that converges at once takes one factorization and a hard step
    still converges like Newton.
    Besides the increment rule, from the second update on the iteration
    stops when the predicted remaining error ``d_m^2 / (d_{m-1} - d_m)`` of
    the increments ``d`` drops to ``picard_tol`` relative to ``1 + max|x|``.
    A tensor term (every reduced model) folds ``dt S / 3`` into its tensor
    once, exactly symmetric and stored (r r, r) with rows ``(i, p)`` for
    entry ``[p, i, j]``, so ``K(x)`` is one matrix-vector product that comes
    out column-major; any other term gives ``J2(x)`` by its own block
    ``eval`` of ``x`` against the identity, column k being ``G2(x, e_k)``.
    """

    def __init__(self, flow: PolyGradFlow, dt: float):
        half = 0.5 * dt * (flow.structure @ flow.linear)
        eye = np.eye(flow.dim)
        self.lhs_mat = eye - half
        self.lhs = LuFactorization(self.lhs_mat)
        self.rhs_mat = eye + half
        dtS = dt * flow.structure
        self.const = dtS @ flow.constant if flow.constant is not None else None
        self._predict = partial(_rk4, flow, dt)
        # (x, out=None) -> K(x), a column-major (r, r) view of ``out`` (a
        # flat r r array, or a new one), closed over locals only: the maps
        # hold no cycle
        quad, dtS3, r = flow.quadratic, dtS / 3.0, flow.dim
        if isinstance(quad, TensorQuadratic):
            folded = np.tensordot(dtS3, quad.tensor, axes=1)
            # rows (i, p) of entry [p, i, j]: the product is K(x) transposed
            folded = (0.5 * (folded + folded.transpose(0, 2, 1))).transpose(1, 0, 2)
            folded = folded.reshape(r * r, r)
            self.jacobian = lambda x, out=None: folded.dot(x, out=out).reshape(r, r).T
        elif quad is not None:  # the column of x broadcasts against eye's
            self.jacobian = lambda x, out=None: np.matmul(
                quad.eval(x[:, None], eye).T, dtS3.T,
                out=None if out is None else out.reshape(r, r)).T

    def chain(self, u: np.ndarray, tol: float, first: int):
        """Chord Newton steps from ``u``: yields ``(state, iterations)`` of
        steps ``first``, ``first + 1``, ...

        Slot ``n % 4`` of the chain's ring holds its n-th evaluated iterate
        ``y`` (``u`` is the 0th) and ``K(y)``, always a fresh product: the
        last iterate each step evaluated, whose ``K`` the next step carries.
        While the ring has fewer than four entries a step starts from the RK4
        guess and evaluates ``K`` at it; then from the cubic extrapolation
        ``x_0`` of the ring, and since ``K`` is linear, ``K(x_0)`` is the same
        extrapolation of the ring's ``K``.  A step that stops at its first
        iteration evaluates ``K(x_0)`` afresh before ``x_0`` enters the ring.
        """
        r = u.size
        ring, k_ring = np.empty((4, r)), np.empty((4, r * r))
        k_cubic = np.empty(r * r)  # the extrapolated K(x_0)
        # the Jacobian's buffer, which LAPACK factors in place, and I - A,
        # column-major like it and like every K
        jac, lhs_f = np.empty((r, r), order="F"), np.asfortranarray(self.lhs_mat)
        ring[0], n, dx, k = u, 1, 0.0, first
        k_y = self.jacobian(u, k_ring[0])
        while True:
            jacobian, lhs, lhs_mat, slot = self.jacobian, self.lhs, self.lhs_mat, n % 4
            # overflow inside a diverging iteration is expected and reported
            # as StepFailure, hence the suppressed floating-point warnings
            with np.errstate(over="ignore", invalid="ignore"):
                fresh = n < 4
                if fresh:
                    x = self._predict(u)
                    k_x = jacobian(x, k_ring[slot])
                else:
                    weights = _CUBIC_RING[slot]
                    x = weights.dot(ring)
                    k_x = weights.dot(k_ring, out=k_cubic).reshape(r, r).T
                base = self.rhs_mat.dot(u)  # (I + A) u + dt S g0 + K(y)(u - dx)
                base = (base if self.const is None else base + self.const) + k_y.dot(u - dx)
                y, refactor, last = x, True, np.inf  # last: the previous increment
                for m in range(1, MAX_ITERATIONS + 1):
                    if m > 1:
                        y, k_x, fresh = x, jacobian(x, k_ring[slot]), True
                    residual = lhs_mat.dot(x) - base - k_x.dot(u + x)
                    if refactor:
                        np.subtract(lhs_f, k_y, out=jac)  # I - A - K(y) - 2 K(x)
                        jac -= k_x
                        jac -= k_x
                        try:
                            lhs.factor(jac)
                        except SingularMatrixError as exc:
                            raise StepFailure("Newton iteration met a singular Jacobian at "
                                              f"iteration {m}: {exc}", k, m) from exc
                        except ValueError:  # a non-finite Jacobian: K(x) overflowed
                            raise _diverged("Newton", m, k) from None
                    dx = lhs.solve(residual)
                    increment = _max_abs(dx)
                    if not math.isfinite(increment):  # the maximum propagates NaN and inf
                        raise _diverged("Newton", m, k)
                    bound = tol * (1.0 + _max_abs(x))
                    x = x - dx
                    if increment <= bound or (m > 1 and increment < last and
                                              increment * increment <= bound * (last - increment)):
                        break
                    refactor, last = increment > 0.5 * last, increment
                else:
                    raise _stalled("Newton", increment, k)
                if not fresh:  # stopped at x_0: its K enters the ring as a product
                    k_x = jacobian(y, k_ring[slot])
            ring[slot], k_y, u, n = y, k_x, x, n + 1
            yield x, m
            k += 1

    def stacked(self, width: int):
        """``(run, count)``: ``run(u, k)`` gives the next ``k <= count`` states
        as rows, from one matvec of the stacked propagator powers (at most
        ``_ENERGY_BLOCK_ENTRIES`` entries of them)."""
        # NumPy's LAPACK, not the SciPy one of the factorization: SciPy's
        # multi-column solve wakes SciPy's OpenBLAS threads, which keep
        # spinning afterwards and, on 2 cores, doubled the time of the
        # NumPy SVD that follows a short reduced run in a sweep
        M = np.linalg.solve(self.lhs_mat, self.rhs_mat)
        c = self.lhs.solve(self.const) if self.const is not None else None
        dim = M.shape[0]
        count = max(1, min(width, _ENERGY_BLOCK_ENTRIES // (dim * dim)))
        powers, offsets = _stacked_powers(M, c, count)
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
    """Periodic stencils (full-order models): one b x b matrix per Fourier mode.

    A periodic stencil is diagonalized by the discrete Fourier transform, so
    on b fields whose every block is one (the ``columns`` of a
    :class:`PeriodicStencil`), ``I - A``, ``I + A`` and ``dt S`` are b x b
    symbols per mode of ``numpy.fft.rfft``, and ``P = (I - A)^-1 (I + A)``
    is formed once: a linear flow steps by per-mode powers of ``P``
    (:meth:`stacked`).  A quadratic flow must be one field with an
    entrywise quadratic term (the KdV full-order model); it iterates by
    Picard on the averaged quadratic term,
    ``x <- P u + K (G2(u,u) + G2(u,x) + G2(x,x))`` with
    ``K = (I - A)^-1 dt S / 3``, and stops by the increment rule alone.
    :meth:`chain` is the one Picard loop: it iterates a window of
    consecutive steps with one batched transform pair per sweep.  A
    mode whose pivot is at or below :data:`~hamrom.linalg.PIVOT_TOL` of the
    largest symbol entry of ``I - A`` raises :class:`SingularMatrixError`,
    as :class:`LuFactorization` does: on one or two fields the pivots of
    partial pivoting are the largest entry of the first column and ``|det|``
    over it, so a flow on more fields raises ValueError, as a flow with a g0
    does (no command builds either).  Symbols are stored (b, b, modes) and
    spectra (b, modes), so every product runs along the contiguous mode axis.
    """

    def __init__(self, flow: PolyGradFlow, dt: float):
        if flow.constant is not None:
            raise ValueError("a periodic-stencil flow cannot have a constant term g0")
        quad = flow.quadratic
        structure, linear = flow.structure.columns, flow.linear.columns
        fields, _, self._n = structure.shape
        if fields > 2:
            raise ValueError(f"a periodic-stencil flow has one or two fields, got {fields}")
        if quad is not None and (fields != 1 or not isinstance(quad, DiagonalQuadratic)):
            raise ValueError("a quadratic periodic-stencil flow must be one field "
                             "with an entrywise quadratic term")
        # per-mode matrices (modes, b, b) while the symbols are formed
        S, G1 = (np.moveaxis(np.fft.rfft(c), -1, 0) for c in (structure, linear))
        half = 0.5 * dt * (S @ G1)
        eye = np.eye(fields)
        lhs = eye - half
        first = np.abs(lhs[:, :, 0]).max(axis=1)  # the first pivot of partial pivoting
        with np.errstate(divide="ignore", invalid="ignore"):
            pivots = first if fields == 1 else np.minimum(first, np.abs(np.linalg.det(lhs)) / first)
        if not np.all(pivots > PIVOT_TOL * np.abs(lhs).max()):  # NaN fails too
            raise SingularMatrixError(f"Fourier-mode pivot below {PIVOT_TOL:g} of the symbol scale")
        self._P_modes = np.linalg.solve(lhs, eye + half)
        self._P = _modes_last(self._P_modes)
        self._predict = partial(_rk4, flow, dt)
        if quad is not None:  # the (modes,) symbols of P and of K times the coefficient of G2
            self._symbol = self._P[0, 0]
            self._kernel = quad.coeff * np.linalg.solve(lhs, (dt / 3.0) * S)[:, 0, 0]

    def _modes(self, u: np.ndarray) -> np.ndarray:
        """The (b, modes) spectra of the b fields of a state."""
        return np.fft.rfft(u.reshape(-1, self._n))

    def _space(self, spectra: np.ndarray) -> np.ndarray:
        """The states (..., dim) of (..., b, modes) spectra."""
        x = np.fft.irfft(spectra, self._n)
        return x.reshape(x.shape[:-2] + (-1,))

    def chain(self, u: np.ndarray, tol: float, first: int):
        """Picard iteration of the steps from ``u`` on a window of
        consecutive steps: yields ``(state, updates)`` of steps ``first``,
        ``first + 1``, ... in order, the state an owned copy.

        Row j of the window holds the iterate of step ``k + j``; its
        predecessor is row j - 1, the front row's the last accepted state.
        A sweep updates every row from the rows as they stood before it: one
        batched ``rfft`` of ``U (U + X) + X X`` (``U`` the predecessors,
        ``X`` the rows) and one batched ``irfft`` of ``K q + P U``, where
        ``K`` holds the coefficient of G2 and each predecessor's spectrum is
        the one kept from its last update.  After a sweep the front row,
        whose predecessor is final, is accepted when its increment is at
        most ``tol (1 + max|x|)``, ``x`` the iterate the update started
        from; so at most one row is accepted per sweep.  A new row enters at
        the back, from the cubic extrapolation of the four states before
        it, once the row before it has had ``_ENTRY_UPDATES`` updates, up to
        ``_WINDOW`` rows.  While the chain has fewer than four states the
        window is the front row alone, entered from the RK4 guess of the
        last accepted state, whose spectrum is transformed afresh; so the
        first four steps are those of separate one-row windows.  A row
        whose update overflows fails the step as :class:`StepFailure` at
        the front (a non-finite increment); further back (a non-finite
        entry) it and the rows behind it leave the window and enter again.
        A front row that reaches :data:`MAX_ITERATIONS` updates stalls.
        """
        n, kernel, symbol = self._n, self._kernel, self._symbol
        rfft, irfft = np.fft.rfft, np.fft.irfft
        # the window slides down one row per accepted step and moves back to
        # the top, under the last four states, when it reaches the bottom
        rows = 2 * (4 + _WINDOW)
        states = np.empty((rows, n))
        spectra = np.empty((rows, n // 2 + 1), dtype=complex)
        q, work, new = (np.empty((_WINDOW, n)) for _ in range(3))
        linear = np.empty((_WINDOW, n // 2 + 1), dtype=complex)
        a = 3  # the row of the last accepted state; window row j is row a + 1 + j
        states[a], spectra[a] = u, rfft(u)
        known = 1  # the chain's states, up to four
        updates: list[int] = []  # per window row
        k = first  # the step of the front row
        while True:
            width = _WINDOW if known == 4 else 1
            # overflow inside a diverging iteration is expected and reported
            # as StepFailure, hence the suppressed floating-point warnings
            with np.errstate(over="ignore", invalid="ignore"):
                while True:  # the sweeps up to the front row's acceptance
                    w = len(updates)
                    if w < width and (not w or updates[-1] >= _ENTRY_UPDATES):
                        if known < 4:
                            states[a + 1] = self._predict(states[a])
                        else:
                            s0, s1, s2, s3 = states[a + w - 3 : a + w + 1]
                            states[a + 1 + w] = s3 + 3.0 * (s3 - s2) - 3.0 * (s2 - s1) + (s1 - s0)
                        updates.append(0)
                        w += 1
                    U, X = states[a : a + w], states[a + 1 : a + 1 + w]
                    np.multiply(symbol, spectra[a : a + w], out=linear[:w])
                    np.add(U, X, out=q[:w])
                    q[:w] *= U
                    q[:w] += np.multiply(X, X, out=work[:w])
                    spectrum = rfft(q[:w], out=spectra[a + 1 : a + 1 + w])
                    np.multiply(kernel, spectrum, out=spectrum)  # K the left operand, as in K q
                    spectrum += linear[:w]
                    x = irfft(spectrum, n, out=new[:w])
                    increment = _max_abs(np.subtract(x[0], X[0], out=work[0]))
                    if not math.isfinite(increment):
                        raise _diverged("Picard", updates[0] + 1, k)
                    finite = np.isfinite(x[1:]).all(axis=1)  # the rows behind
                    if not finite.all():
                        del updates[1 + int(np.flatnonzero(~finite)[0]):]
                    bound = tol * (1.0 + _max_abs(X[0]))
                    X[...] = x
                    updates = [m + 1 for m in updates]
                    if increment <= bound:
                        break
                    if updates[0] == MAX_ITERATIONS:
                        raise _stalled("Picard", increment, k)
            yield states[a + 1].copy(), updates.pop(0)
            a, k = a + 1, k + 1
            if known < 4:  # the first four states' spectra are transformed afresh
                known += 1
                spectra[a] = rfft(states[a])
            if a + _WINDOW >= rows:  # move the last four states and the window to the top
                live = slice(a - 3, a + 1 + len(updates))
                count = live.stop - live.start
                states[:count], spectra[:count] = states[live], spectra[live]
                a = 3

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


def _maps_for(flow: PolyGradFlow, dt: float):
    """The maps of a flow's steps: Fourier for periodic stencils, else dense."""
    maps = _FourierMaps if isinstance(flow.structure, PeriodicStencil) else _DenseMaps
    return maps(flow, dt)


def integrate(flow: PolyGradFlow, u0, scheme: AvfScheme,
              consumer: Optional[Callable[[np.ndarray], None]] = None,
              energies: bool = True) -> Trajectory:
    """March ``flow`` from ``u0`` to ``t_end``, recording every stride-th state.

    Column 0 of the result is the initial state; each recorded state is one
    contiguous column (column-major ``states``).  The energy series carries
    one entry per step (plus the initial one) so conservation can be checked
    at full resolution even when states are recorded sparsely; without
    ``energies`` none is evaluated and the result's ``energies`` is None.

    The steps fill blocks of consecutive states, and each block gives its
    energies in one evaluation and its recorded states in one copy.  Each
    filled block, steps ``k0`` to ``k0 + w - 1`` as a ``(dim, w)`` view, also
    goes to ``consumer`` when one is given (in order, starting at step 0),
    which must copy what it keeps: the next block overwrites it.  A
    linear flow (a linear reduced model, or the wave full-order model) fills
    a block from its maps, with no stepper: up to B states at a time come
    from the stacked propagator powers ``[M; M^2; ...; M^B]`` applied to the
    block's start state, for a circulant flow per Fourier mode with one
    batched inverse transform.  A quadratic flow is one chain of
    :meth:`AvfStepper.step` calls, each passed the state the one before
    returned; on periodic stencils (the KdV full-order model) the steps
    after the first three come from one Picard window, every row update
    counting toward the iteration histogram.
    """
    u = _as_state(u0, flow.dim)
    steps = scheme.steps()
    stride = scheme.snapshot_stride
    dim = flow.dim
    states = np.empty((dim, steps // stride + 1), order="F")
    series = np.empty(steps + 1) if energies else None
    width = max(2, min(_ENERGY_BLOCK_COLUMNS, _ENERGY_BLOCK_ENTRIES // dim, steps + 1))
    block = np.empty((dim, width))  # column j holds step k0 + j
    block[:, 0] = u
    counts = [0] * (MAX_ITERATIONS + 1)  # entry m: the steps that took m iterations
    if flow.quadratic is None:
        stacked, counts[0] = _maps_for(flow, scheme.dt).stacked(width), steps
    else:
        stepper = AvfStepper(flow, scheme.dt, scheme.picard_tol)
        stacked, step = None, stepper.step
    for k0 in range(0, steps + 1, width):
        w = min(width, steps + 1 - k0)
        start = 1 if k0 == 0 else 0  # column 0 of the first block is the initial state
        if stacked is None:
            for k in range(k0 + start, k0 + w):
                u = step(u, k)
                block[:, k - k0] = u
                counts[stepper.last_iterations] += 1
        else:
            run, chunk = stacked
            for j in range(start, w, chunk):
                count = min(chunk, w - j)
                x = run(u, count)
                block[:, j : j + count] = x.T
                u = x[-1]
        if series is not None:
            series[k0 : k0 + w] = eval_energy(flow, block[:, :w])
        if consumer is not None:
            consumer(block[:, :w])
        first = -(-k0 // stride)  # index of the first recorded state in the block
        last = (k0 + w - 1) // stride + 1
        states[:, first:last] = block[:, first * stride - k0 : w : stride]
    histogram = np.array(counts)
    histogram = histogram[: histogram.nonzero()[0][-1] + 1]
    return Trajectory(
        times=scheme.dt * (stride * np.arange(states.shape[1])),  # step k at k * dt
        states=states,
        energies=series,
        steps_total=steps,
        dt=scheme.dt,
        max_picard_iterations=len(histogram) - 1,
        iteration_histogram=histogram,
    )
