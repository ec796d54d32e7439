"""Snapshot assembly and POD basis extraction.

Supports three snapshot flavors: plain state columns, gradient-augmented
columns (state columns followed by ``mu``-weighted gradient columns), and
shifted columns (states minus the initial state, with the reduced ansatz
``u = u0 + Phi a``).  Bases can additionally be enriched with the normalized
projection residual of the initial state so the start configuration is
represented exactly.

Every set of one field lies in the range of its states ``U`` and, when
weighted, its gradients ``F``: the shifted states too, since their shift
``u0`` is ``U``'s first column.  A :class:`SnapshotFrame` holds an
orthonormal basis ``Q`` of that range (a QR of ``U``, or of ``[U, F]`` when
weighted sets are wanted) with ``R_U = Q^T U`` and ``R_F = Q^T F``; a set
collected through it (:meth:`SnapshotFrame.snapshot_set`) holds the
coordinates ``R_U``, ``R_U - R_U[:, :1]`` or ``[R_U, mu R_F]`` and carries
``Q``, and :func:`compute_basis` lifts the SVD of the coordinates back with
``Q``.  That gives the bases of the directly assembled set (no Gram
product) from SVDs of at most twice as many rows as snapshots whatever the
grid, and a sweep over weights builds ``F`` and the frame once.

A field whose gradients are an exact multiple of its states, ``F = c U`` bit
for bit (the wave's momentum field, ``c = 1``), needs no SVD past ``mu = 0``:
every unshifted ``Y(mu) = [U, mu c U]`` has ``Y Y^T = (1 + c^2 mu^2) U U^T``,
so its POD basis is ``U``'s own with the spectrum scaled by
``hypot(1, c mu)``.  The frame records ``c`` (:attr:`SnapshotFrame.multiple`)
and :func:`weighted_basis` gives such a basis from the ``mu = 0`` one.

A set is decomposed once whatever the basis size: :func:`decompose` gives
its :class:`SnapshotSvd`, from which :meth:`SnapshotSvd.basis` cuts the
basis of any size, exactly the basis :func:`compute_basis` gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .avf import Trajectory
from .linalg import RankError, thin_svd_snapshots
from .systems import PolyGradFlow, eval_grad

__all__ = [
    "PodBasis",
    "SnapshotFrame",
    "SnapshotSet",
    "SnapshotSvd",
    "collect_snapshots",
    "collect_wave_snapshots",
    "compute_basis",
    "decompose",
    "enrich_with_ic_residual",
    "projection_error",
    "sigma_tail",
    "snapshot_frames",
    "weighted_basis",
]


@dataclass(frozen=True)
class SnapshotSet:
    """Snapshot columns for one field, optionally gradient-augmented/shifted.

    The state columns come first; a gradient-augmented set appends as many
    ``mu``-weighted gradient columns, always evaluated at the unshifted
    states (see :func:`collect_snapshots`).  ``reference`` is set exactly
    when the state columns are shifted: it is the subtracted initial state.
    With a ``frame`` (orthonormal columns, see :class:`SnapshotFrame`)
    ``data`` holds the coordinates of the columns in it: the snapshots are
    ``frame @ data``.
    """

    data: np.ndarray
    reference: Optional[np.ndarray] = None
    frame: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.frame is not None and self.frame.shape[1] != self.data.shape[0]:
            raise ValueError(
                f"frame has {self.frame.shape[1]} columns for {self.data.shape[0]} coordinates"
            )


@dataclass(frozen=True)
class SnapshotFrame:
    """Orthonormal frame of one field's states ``U``, and gradients ``F`` when
    weighted sets are wanted.

    ``basis`` is the ``Q`` of a QR of ``U`` or of ``[U, F]``, not truncated
    at any rank: a cutoff relative to ``[U, F]`` would drop directions that a
    set with a small weight keeps.  ``states`` and ``grads`` are ``Q^T U``
    and ``Q^T F`` (``grads`` None for a frame of the states alone);
    ``reference`` is the field's initial state, the shift of shifted sets.
    ``multiple`` is ``c`` when ``F == c U`` holds exactly (see
    :func:`weighted_basis`), else None, and None without gradients.
    """

    basis: np.ndarray
    states: np.ndarray
    grads: Optional[np.ndarray]
    reference: np.ndarray
    multiple: Optional[float]

    def snapshot_set(self, mu: float = 0.0, shifted: bool = False) -> SnapshotSet:
        """The set of :func:`collect_snapshots` in this frame's coordinates:
        ``R_U``, shifted ``R_U - R_U[:, :1]`` (the initial state is
        ``Q R_U[:, 0]``), with ``mu > 0`` followed by ``mu R_F``."""
        if mu < 0:
            raise ValueError("mu must be non-negative")
        if mu > 0 and self.grads is None:
            raise ValueError("a gradient-weighted set needs a frame of the gradients too")
        states = self.states - self.states[:, :1] if shifted else self.states
        return SnapshotSet(
            data=np.hstack([states, mu * self.grads]) if mu > 0 else states,
            reference=self.reference if shifted else None,
            frame=self.basis,
        )


@dataclass(frozen=True)
class PodBasis:
    """Orthonormal basis columns plus the full spectrum of their source.

    ``sigma`` keeps every numerical-rank singular value (length d, not just
    the first r) so projection-error tails can be evaluated for any cutoff.
    ``shifted_reference`` is the state subtracted from the snapshots, when the
    basis came from a shifted set.  ``enriched`` records that the basis has
    been processed by :func:`enrich_with_ic_residual` and therefore represents
    the corresponding initial state exactly.  The basis size ``r`` is the
    number of columns of ``phi``, which is stored column-major for every
    basis because the reduced runs decode through it: a column block of the
    wave Table 1 r=5 model decoded in 2.6 ms so and in 4.5 ms row-major.
    """

    phi: np.ndarray
    sigma: np.ndarray
    shifted_reference: Optional[np.ndarray] = None
    enriched: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asfortranarray(self.phi, dtype=float))
        if self.phi.ndim != 2:
            raise ValueError(f"basis must be 2-D, got shape {self.phi.shape}")
        if np.any(self.sigma <= 0) or np.any(np.diff(self.sigma) > 0):
            raise ValueError("sigma must be positive and sorted descending")
        if not self.enriched and self.r > self.sigma.size:
            raise ValueError("r exceeds the spectrum length of the source set")
        defect = np.abs(self.phi.T @ self.phi - np.eye(self.r)).max()
        if defect > 1e-10:
            raise ValueError(f"basis columns are not orthonormal (defect {defect:.2e})")

    @property
    def r(self) -> int:
        return self.phi.shape[1]


def _assemble(traj: Trajectory, flow: PolyGradFlow, mu: float, shifted: bool):
    """Snapshot matrix (see :func:`collect_snapshots`) and the initial state."""
    states = traj.states
    if states.shape[1] == 0:
        raise ValueError("trajectory has no recorded states")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    ref = states[:, 0].copy()
    blocks = [states - ref[:, None] if shifted else states.copy()]
    if mu > 0:
        blocks.append(mu * eval_grad(flow, states))
    return np.hstack(blocks), ref


def _exact_multiple(F: np.ndarray, U: np.ndarray) -> Optional[float]:
    """``c`` with ``F == c * U`` entry for entry, or None.  The candidate is
    the ratio at the largest ``|U|``; an all-zero ``U`` has none."""
    k = np.argmax(np.abs(U))
    if U.flat[k] == 0:
        return None
    c = F.flat[k] / U.flat[k]
    return float(c) if np.array_equal(F, c * U) else None


def snapshot_frames(
    traj: Trajectory, flow: PolyGradFlow, fields: int = 1, gradients: bool = True
) -> tuple[SnapshotFrame, ...]:
    """One :class:`SnapshotFrame` per field row block of a recorded trajectory.

    Each field's states ``U`` are factored by a Householder QR (NumPy's,
    which shares its BLAS with the SVD that follows); with ``gradients``, the
    gradients are evaluated once at all recorded states and each field's
    ``[U, F]`` is factored instead.  A frame with gradients also records
    whether its field's gradients are an exact multiple of the states: no
    tolerance, since the reused basis is exact only for an exact multiple.
    """
    states = traj.states
    if states.shape[1] == 0:
        raise ValueError("trajectory has no recorded states")
    if flow.dim % fields:
        raise ValueError(f"flow dimension {flow.dim} does not split into {fields} fields")
    m = states.shape[1]
    grads = np.split(eval_grad(flow, states), fields) if gradients else [None] * fields
    frames = []
    for U, F in zip(np.split(states, fields), grads):
        q, r = np.linalg.qr(U if F is None else np.hstack([U, F]))
        frames.append(SnapshotFrame(
            basis=q, states=r[:, :m], grads=None if F is None else r[:, m:],
            reference=U[:, 0].copy(), multiple=None if F is None else _exact_multiple(F, U),
        ))
    return tuple(frames)


def collect_snapshots(
    traj: Trajectory, flow: PolyGradFlow, mu: float = 0.0, shifted: bool = False,
) -> SnapshotSet:
    """Assemble the snapshot matrix of a recorded trajectory.

    State columns are the recorded states (shifted by the initial one when
    ``shifted``); with ``mu > 0``, ``mu``-weighted gradient columns evaluated
    at the unshifted states are appended.  The same set in coordinates of a
    frame is :meth:`SnapshotFrame.snapshot_set`.
    """
    data, ref = _assemble(traj, flow, mu, shifted)
    return SnapshotSet(data=data, reference=ref if shifted else None)


def collect_wave_snapshots(
    traj: Trajectory, flow: PolyGradFlow, mu: float = 0.0, shifted: bool = False,
) -> tuple[SnapshotSet, SnapshotSet]:
    """Per-field snapshot sets for a stacked two-field (wave) trajectory.

    The two fields are collected and reduced separately: each set is the
    matching row block of the stacked snapshot matrix, so the first-field set
    gets the first-field gradient block and likewise for the second field.
    """
    if flow.dim % 2:
        raise ValueError("stacked two-field flow must have even dimension")
    data, ref = _assemble(traj, flow, mu, shifted)
    return tuple(
        SnapshotSet(data=rows, reference=field_ref if shifted else None)
        for rows, field_ref in zip(np.split(data, 2), np.split(ref, 2))
    )


@dataclass(frozen=True)
class SnapshotSvd:
    """The thin SVD of one snapshot set, from which bases of any size are cut.

    ``vectors`` are the left singular vectors of the numerical-rank spectrum
    ``sigma`` (in the coordinates of ``frame`` when the set has one), and
    ``reference`` is the set's shift.
    """

    vectors: np.ndarray
    sigma: np.ndarray
    frame: Optional[np.ndarray] = None
    reference: Optional[np.ndarray] = None

    def basis(self, r: int) -> PodBasis:
        """The first ``r`` vectors, lifted by the frame: what
        :func:`compute_basis` gives for ``r``.  :class:`RankError` past the
        numerical rank."""
        if not 1 <= r <= self.sigma.size:
            raise RankError(f"requested r={r}, but the snapshot set has rank {self.sigma.size}")
        w = self.vectors[:, :r]
        return PodBasis(phi=w if self.frame is None else self.frame @ w, sigma=self.sigma,
                        shifted_reference=self.reference)


def decompose(snaps: SnapshotSet) -> SnapshotSvd:
    """The thin SVD of a snapshot set, in its frame's coordinates when it has
    one, cut at the numerical rank (:func:`hamrom.linalg.thin_svd_snapshots`)."""
    w, sigma = thin_svd_snapshots(snaps.data)
    return SnapshotSvd(vectors=w, sigma=sigma, frame=snaps.frame, reference=snaps.reference)


def compute_basis(snaps: SnapshotSet, r: int) -> PodBasis:
    """First ``r`` left singular vectors of the snapshot matrix.

    The full numerical-rank spectrum is retained on the result for tail
    computations.  Requesting more vectors than the attained rank raises
    :class:`RankError`.  A set in frame coordinates is decomposed in them and
    its vectors are lifted by the frame.  Bases of several sizes of one set
    are cut from one :func:`decompose`.
    """
    return decompose(snaps).basis(r)


def weighted_basis(plain: PodBasis, multiple: float, mu: float) -> PodBasis:
    """The basis of the unshifted set ``[U, mu c U]`` (``c = multiple``) from
    ``plain``, the basis of ``U`` alone: the same columns (not copied) and
    the spectrum times ``hypot(1, c mu)``, at the same numerical rank."""
    if plain.shifted_reference is not None or plain.enriched:
        raise ValueError("only a plain basis of unshifted states can be weighted")
    return PodBasis(phi=plain.phi, sigma=plain.sigma * np.hypot(1.0, multiple * mu))


def projection_error(snaps: SnapshotSet, basis: PodBasis) -> float:
    """Total squared projection error ``sum_j |y_j - Phi Phi^T y_j|^2``.

    Evaluated directly from the residual columns; equals the squared
    singular-value tail of the source set (the identity the tests check).
    """
    Y = snaps.data if snaps.frame is None else snaps.frame @ snaps.data
    if Y.shape[0] != basis.phi.shape[0]:
        raise ValueError("snapshot and basis dimensions do not match")
    R = Y - basis.phi @ (basis.phi.T @ Y)
    return float(np.sum(R * R))


def sigma_tail(basis: PodBasis, r: int) -> float:
    """Squared singular-value tail ``sum_{j > r} sigma_j^2`` of the source set."""
    if not 0 <= r <= basis.sigma.size:
        raise ValueError(f"r must be in [0, {basis.sigma.size}], got {r}")
    return float(np.sum(basis.sigma[r:] ** 2))


# relative residual norm below which enrichment treats u0 as captured
RESIDUAL_TOL = 1e-10


def enrich_with_ic_residual(basis: PodBasis, u0) -> PodBasis:
    """Append the normalized projection residual of ``u0`` to the basis.

    When the residual norm is below :data:`RESIDUAL_TOL` times the norm of
    ``u0`` the state is already captured and the columns are left untouched;
    either way the returned basis is flagged ``enriched`` (the guarantee "u0
    is representable" holds in both branches).
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (basis.phi.shape[0],):
        raise ValueError("initial state dimension does not match the basis")
    res = u0 - basis.phi @ (basis.phi.T @ u0)
    if np.linalg.norm(res) <= RESIDUAL_TOL * np.linalg.norm(u0):
        return replace(basis, enriched=True)
    psi = res / np.linalg.norm(res)
    # one more projection sweep keeps the appended column orthogonal to 1e-10
    psi = psi - basis.phi @ (basis.phi.T @ psi)
    psi /= np.linalg.norm(psi)
    return PodBasis(
        phi=np.column_stack([basis.phi, psi]),
        sigma=basis.sigma,
        shifted_reference=basis.shifted_reference,
        enriched=True,
    )
