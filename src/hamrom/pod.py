"""Snapshot assembly and POD basis extraction.

Supports three snapshot flavors: plain state columns, gradient-augmented
columns (state columns followed by ``mu``-weighted gradient columns), and
shifted columns (states minus the initial state, with the reduced ansatz
``u = u0 + Phi a``).  Bases can additionally be enriched with the normalized
projection residual of the initial state so the start configuration is
represented exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .avf import Trajectory
from .linalg import thin_svd_snapshots
from .systems import PolyGradFlow, eval_grad

__all__ = [
    "PodBasis",
    "SnapshotSet",
    "collect_snapshots",
    "collect_wave_snapshots",
    "compute_basis",
    "enrich_with_ic_residual",
    "projection_error",
    "sigma_tail",
]


@dataclass(frozen=True)
class SnapshotSet:
    """Snapshot columns for one field, optionally gradient-augmented/shifted.

    The first ``n_state`` columns are (possibly shifted) states; when
    ``mu > 0`` another ``n_state`` columns of ``mu``-weighted gradients follow.
    Gradient columns are always evaluated at the unshifted states.
    """

    data: np.ndarray
    mu: float = 0.0
    shifted: bool = False
    reference: Optional[np.ndarray] = None
    n_state: int = 0

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if self.shifted and self.reference is None:
            raise ValueError("shifted snapshot sets must carry their reference state")
        expected = self.n_state * (2 if self.mu > 0 else 1)
        if self.data.shape[1] != expected:
            raise ValueError(
                f"snapshot set has {self.data.shape[1]} columns, expected {expected}"
            )


@dataclass(frozen=True)
class PodBasis:
    """Orthonormal basis columns plus the full spectrum of their source.

    ``sigma`` keeps every numerical-rank singular value (length d, not just
    the first r) so projection-error tails can be evaluated for any cutoff.
    ``shifted_reference`` is the state subtracted from the snapshots, when the
    basis came from a shifted set.  ``enriched`` records that the basis has
    been processed by :func:`enrich_with_ic_residual` and therefore represents
    the corresponding initial state exactly.
    """

    phi: np.ndarray
    sigma: np.ndarray
    r: int
    shifted_reference: Optional[np.ndarray] = None
    enriched: bool = False

    def __post_init__(self):
        if self.phi.ndim != 2 or self.phi.shape[1] != self.r:
            raise ValueError(f"basis must have r={self.r} columns, got {self.phi.shape}")
        if np.any(self.sigma <= 0) or np.any(np.diff(self.sigma) > 0):
            raise ValueError("sigma must be positive and sorted descending")
        if not self.enriched and self.r > self.sigma.size:
            raise ValueError("r exceeds the spectrum length of the source set")
        defect = np.abs(self.phi.T @ self.phi - np.eye(self.r)).max()
        if defect > 1e-10:
            raise ValueError(f"basis columns are not orthonormal (defect {defect:.2e})")


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


def collect_snapshots(
    traj: Trajectory, flow: PolyGradFlow, mu: float = 0.0, shifted: bool = False
) -> SnapshotSet:
    """Assemble the snapshot matrix of a recorded trajectory.

    State columns are the recorded states (shifted by the initial one when
    ``shifted``); with ``mu > 0``, ``mu``-weighted gradient columns evaluated
    at the unshifted states are appended.
    """
    data, ref = _assemble(traj, flow, mu, shifted)
    return SnapshotSet(
        data=data,
        mu=mu,
        shifted=shifted,
        reference=ref if shifted else None,
        n_state=traj.states.shape[1],
    )


def collect_wave_snapshots(
    traj: Trajectory, flow: PolyGradFlow, mu: float = 0.0, shifted: bool = False
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
        SnapshotSet(
            data=rows,
            mu=mu,
            shifted=shifted,
            reference=field_ref if shifted else None,
            n_state=traj.states.shape[1],
        )
        for rows, field_ref in zip(np.split(data, 2), np.split(ref, 2))
    )


def compute_basis(snaps: SnapshotSet, r: int) -> PodBasis:
    """First ``r`` left singular vectors of the snapshot matrix.

    The full numerical-rank spectrum is retained on the result for tail
    computations.  Requesting more vectors than the attained rank is an error.
    """
    phi_all, sigma = thin_svd_snapshots(snaps.data)
    d = sigma.size
    if not 1 <= r <= d:
        raise ValueError(f"requested r={r}, but the snapshot set has rank {d}")
    return PodBasis(
        phi=np.ascontiguousarray(phi_all[:, :r]),
        sigma=sigma,
        r=r,
        shifted_reference=snaps.reference,
        enriched=False,
    )


def projection_error(snaps: SnapshotSet, basis: PodBasis) -> float:
    """Total squared projection error ``sum_j |y_j - Phi Phi^T y_j|^2``.

    Evaluated directly from the residual columns; equals the squared
    singular-value tail of the source set (the identity the tests check).
    """
    Y = snaps.data
    if Y.shape[0] != basis.phi.shape[0]:
        raise ValueError("snapshot and basis dimensions do not match")
    R = Y - basis.phi @ (basis.phi.T @ Y)
    return float(np.sum(R * R))


def sigma_tail(basis: PodBasis, r: int) -> float:
    """Squared singular-value tail ``sum_{j > r} sigma_j^2`` of the source set."""
    if not 0 <= r <= basis.sigma.size:
        raise ValueError(f"r must be in [0, {basis.sigma.size}], got {r}")
    return float(np.sum(basis.sigma[r:] ** 2))


def enrich_with_ic_residual(
    basis: PodBasis, u0, residual_tol: float = 1e-10
) -> PodBasis:
    """Append the normalized projection residual of ``u0`` to the basis.

    When the residual norm is below ``residual_tol`` times the norm of ``u0``
    the state is already captured and the columns are left untouched; either
    way the returned basis is flagged ``enriched`` (the guarantee "u0 is
    representable" holds in both branches).
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (basis.phi.shape[0],):
        raise ValueError("initial state dimension does not match the basis")
    res = u0 - basis.phi @ (basis.phi.T @ u0)
    if np.linalg.norm(res) <= residual_tol * np.linalg.norm(u0):
        return replace(basis, enriched=True)
    psi = res / np.linalg.norm(res)
    # one more projection sweep keeps the appended column orthogonal to 1e-10
    psi = psi - basis.phi @ (basis.phi.T @ psi)
    psi /= np.linalg.norm(psi)
    return PodBasis(
        phi=np.column_stack([basis.phi, psi]),
        sigma=basis.sigma,
        r=basis.r + 1,
        shifted_reference=basis.shifted_reference,
        enriched=True,
    )
