"""Error and energy diagnostics comparing reduced runs against the benchmark.

Two maximum-error flavors: the stacked two-field error used by the wave tests
(per-point Euclidean norm over both fields, all recorded times including the
initial one) and the scalar-field error used by the KdV tests (absolute
entrywise difference, initial time excluded - exactly the conventions of the
reported values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .avf import Trajectory

__all__ = [
    "EnergyReport",
    "RomReport",
    "e_inf_scalar",
    "e_inf_wave",
    "energy_report",
    "squared_errors",
]


@dataclass
class RomReport:
    """One comparison row: error, energy behavior, and runtime of one ROM."""

    variant: str
    r: int
    mu: float
    e_inf: float
    energy_initial: float
    energy_final: float
    max_energy_drift: float
    energy_offset_vs_fom: float
    wall_ms: float
    failed: bool = False


def _check_compatible(fom: Trajectory, rom: Trajectory) -> None:
    if fom.dim != rom.dim:
        raise ValueError(
            f"trajectories live on different grids: {fom.dim} vs {rom.dim} unknowns"
        )
    if fom.times.size != rom.times.size or not np.allclose(
        fom.times, rom.times, rtol=0.0, atol=1e-10
    ):
        raise ValueError("trajectories were recorded at different times")


# the comparison holds one (dim, width) difference block and one block of the
# first trajectory at a time: up to 256 recorded times and 2^16 entries
# (512 KB) each, so it never forms a full-size array, whether the
# trajectories are full, reduced or read from a file.  Against the stored
# Table 1 reference (dim 1000, SP-ROM-0) one comparison took 20.7 ms at 2^15
# entries, 22.1 ms at 2^16 and 28-37 ms at 2^17-2^19; against Table 2 (dim
# 2000) 9.8 ms at 2^16 and 10.3-11.4 ms at 2^14-2^19 (medians of 15, 2 cores).
_BLOCK_COLUMNS = 256
_BLOCK_ENTRIES = 1 << 16


def _differences(fom: Trajectory, rom: Trajectory, first: int = 0):
    """Full-state differences ``rom - fom`` of the recorded columns from
    ``first`` on, one column block at a time (reduced trajectories are
    decoded block-wise, a stored reference is read block-wise).  Each block
    is overwritten by the next one; the caller checks compatibility first."""
    width = max(1, min(_BLOCK_COLUMNS, _BLOCK_ENTRIES // fom.dim))
    diff = np.empty((fom.dim, width), order="F")
    spare = np.empty_like(diff)  # the first trajectory's block, when it is not a view
    for start in range(first, fom.times.size, width):
        stop = min(start + width, fom.times.size)
        out = diff[:, : stop - start]
        b = fom.full_states(start, stop, spare[:, : stop - start])
        yield np.subtract(rom.full_states(start, stop, out), b, out=out)


def e_inf_wave(fom: Trajectory, rom: Trajectory) -> float:
    """Maximum two-field pointwise error over the recorded space-time grid.

    States must stack the two fields; the error at a grid point is the
    Euclidean norm of the per-field differences.  All recorded times count,
    including the initial one.
    """
    _check_compatible(fom, rom)
    if fom.dim % 2:
        raise ValueError("two-field error needs an even (stacked) state dimension")
    n = fom.dim // 2
    worst = []
    for diff in _differences(fom, rom):
        pairs = diff.reshape(n, 2, -1, order="F")  # pairs[i, f, j]: field f, point i, time j
        worst.append(np.einsum("ifj,ifj->ij", pairs, pairs).max())
    return float(np.sqrt(np.max(worst)))  # sqrt is monotone: the root of the max is the max root


def e_inf_scalar(fom: Trajectory, rom: Trajectory) -> float:
    """Maximum absolute entrywise error over recorded times after the start.

    The initial column is excluded (the scalar-field benchmark convention);
    identical initial data would otherwise always contribute a zero.
    """
    _check_compatible(fom, rom)
    if fom.times.size < 2:
        raise ValueError("need at least one recorded time after the start")
    blocks = _differences(fom, rom, first=1)
    return float(np.max([np.abs(diff, out=diff).max() for diff in blocks]))


def squared_errors(fom: Trajectory, rom: Trajectory) -> np.ndarray:
    """Squared Euclidean norm of the full-state error at each recorded time."""
    _check_compatible(fom, rom)
    return np.concatenate(
        [np.einsum("ij,ij->j", diff, diff) for diff in _differences(fom, rom)]
    )


@dataclass(frozen=True)
class EnergyReport:
    """Drift of the reduced energy plus its offset from the benchmark.

    ``drift`` is ``max_k |H_r(t_k) - H_r(t_0)|`` over every step; ``offset``
    is the initial discrepancy ``H_r(t_0) - H(t_0)``.
    """

    drift: float
    offset: float


def energy_report(rom_traj: Trajectory, fom_traj: Trajectory) -> EnergyReport:
    """Summarize the reduced energy series against the benchmark series."""
    hr = np.asarray(rom_traj.energies)
    h = np.asarray(fom_traj.energies)
    if hr.size == 0 or h.size == 0:
        raise ValueError("energy series are empty")
    if hr.size != h.size:
        raise ValueError("energy series have different lengths")
    return EnergyReport(drift=float(np.abs(hr - hr[0]).max()), offset=float(hr[0] - h[0]))
