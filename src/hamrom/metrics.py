"""Error and energy diagnostics comparing reduced runs against the benchmark.

Two maximum-error flavors: the stacked two-field error used by the wave tests
(per-point Euclidean norm over both fields, all recorded times including the
initial one) and the scalar-field error used by the KdV tests (absolute
entrywise difference, initial time excluded - exactly the conventions of the
reported values).  Each error takes the reference and a sequence of runs and
returns one value per run, reading the reference once for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .avf import Trajectory

__all__ = [
    "EnergyReport",
    "RomReport",
    "e_inf_scalar",
    "e_inf_wave",
    "energy_report",
    "side_by_side_passes",
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


def _check_compatible(fom: Trajectory, runs: Sequence[Trajectory]) -> None:
    for run in runs:
        if fom.dim != run.dim:
            raise ValueError(
                f"trajectories live on different grids: {fom.dim} vs {run.dim} unknowns"
            )
        if fom.times.size != run.times.size or not np.allclose(
            fom.times, run.times, rtol=0.0, atol=1e-10
        ):
            raise ValueError("trajectories were recorded at different times")


# the comparison holds one (dim, width) block of the first trajectory and one
# difference block at a time: up to 256 recorded times and 2^16 entries
# (512 KB) each, so it never forms a full-size array, whether the
# trajectories are full, reduced or read from a file, and every run meets a
# block of the reference while that block is in cache.  One call comparing
# every run against the stored reference (medians of 9, 2 cores): the
# 51-point Table 1 sweep took 377 ms at 2^16 entries, 408 ms at 2^15, 487 ms
# at 2^14 and 583-615 ms at 2^17-2^18; Table 1's four runs 36.7 ms at 2^16
# and 38.7-59.4 ms at the others; Table 2's four runs (dim 2000) 22.4-23.7 ms
# at 2^16-2^18 and 25.7-34.8 ms at 2^14-2^15.
_BLOCK_COLUMNS = 256
_BLOCK_ENTRIES = 1 << 16


def _block_width(dim: int) -> int:
    """Columns per block of a comparison over states of ``dim`` entries."""
    return max(1, min(_BLOCK_COLUMNS, _BLOCK_ENTRIES // dim))


def side_by_side_passes(fom: Trajectory) -> int:
    """How many comparisons may pass over ``fom`` side by side, each with its
    own runs: at least one, and so few that their blocks (two each) take at
    most a quarter of the recorded states together, one pass per eight
    blocks of ``fom``.  The block width is that of one pass, so a run's
    value does not depend on how many passes there are."""
    return max(1, fom.times.size // (8 * _block_width(fom.dim)))


def _blockwise(fom: Trajectory, runs: Sequence[Trajectory], reduce, first: int = 0) -> list[list]:
    """``reduce(run - fom)`` of every column block of the full states from
    column ``first`` on, in one pass over ``fom``: each of its blocks is read
    (or decoded) once, and every run is decoded and subtracted against it
    while it is in cache.  Returns one list of block results per run.  The
    difference block handed to ``reduce`` is overwritten by the next one;
    the caller checks compatibility first."""
    results = [[] for _ in runs]
    if not runs:
        return results
    width = _block_width(fom.dim)
    diff = np.empty((fom.dim, width), order="F")
    spare = np.empty_like(diff)  # the first trajectory's block, when it is not a view
    for start in range(first, fom.times.size, width):
        stop = min(start + width, fom.times.size)
        out = diff[:, : stop - start]
        b = fom.full_states(start, stop, spare[:, : stop - start])
        for run, blocks in zip(runs, results):
            blocks.append(reduce(np.subtract(run.full_states(start, stop, out), b, out=out)))
    return results


def e_inf_wave(fom: Trajectory, runs: Sequence[Trajectory]) -> np.ndarray:
    """Maximum two-field pointwise error of each run over the recorded
    space-time grid of ``fom``, all runs compared in one pass over it.

    States must stack the two fields; the error at a grid point is the
    Euclidean norm of the per-field differences.  All recorded times count,
    including the initial one.
    """
    _check_compatible(fom, runs)
    if fom.dim % 2:
        raise ValueError("two-field error needs an even (stacked) state dimension")
    n = fom.dim // 2

    def worst(diff):
        pairs = diff.reshape(n, 2, -1, order="F")  # pairs[i, f, j]: field f, point i, time j
        return np.einsum("ifj,ifj->ij", pairs, pairs).max()

    # sqrt is monotone: the root of the max is the max root
    return np.sqrt(np.array([np.max(w) for w in _blockwise(fom, runs, worst)]))


def e_inf_scalar(fom: Trajectory, runs: Sequence[Trajectory]) -> np.ndarray:
    """Maximum absolute entrywise error of each run over recorded times after
    the start, all runs compared in one pass over ``fom``.

    The initial column is excluded (the scalar-field benchmark convention);
    identical initial data would otherwise always contribute a zero.
    """
    _check_compatible(fom, runs)
    if fom.times.size < 2:
        raise ValueError("need at least one recorded time after the start")
    blocks = _blockwise(fom, runs, lambda diff: np.abs(diff, out=diff).max(), first=1)
    return np.array([np.max(w) for w in blocks])


def squared_errors(fom: Trajectory, runs: Sequence[Trajectory]) -> np.ndarray:
    """Squared Euclidean norm of the full-state error at each recorded time:
    one row per run, all runs compared in one pass over ``fom``."""
    _check_compatible(fom, runs)
    rows = np.empty((len(runs), fom.times.size))
    for row, blocks in zip(rows, _blockwise(fom, runs, lambda d: np.einsum("ij,ij->j", d, d))):
        np.concatenate(blocks, out=row)
    return rows


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
