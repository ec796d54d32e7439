"""Experiment orchestration: benchmark reproductions, sweeps, and caching.

Ties the pipeline together: build a full-order system from a configuration,
integrate it (with a disk cache keyed on every parameter that affects the
trajectory), extract bases, run the requested reduced models, and emit CSV
reports.  Named presets reproduce the two benchmark comparison tables.

A configuration has one full-order reference: the run recorded at every
step, which is all the cache stores.  The snapshot stride only selects a
strided view of it (:func:`_subsample`).
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .avf import AvfScheme, StepFailure, Trajectory, integrate
from .fileio import (
    FORMAT_VERSION,
    atomic_write_bytes,
    read_config,
    read_matrix,
    write_energy_csv,
    write_matrix,
    write_report_csv,
    write_sweep_csv,
    write_tail_csv,
)
from .linalg import NumericalError
from .metrics import RomReport, e_inf_scalar, e_inf_wave, energy_report, squared_errors
from .pod import (
    SnapshotFrame,
    SnapshotSet,
    collect_snapshots,
    collect_wave_snapshots,
    compute_basis,
    enrich_with_ic_residual,
    sigma_tail,
    snapshot_frames,
)
from .rom import ReducedModel, RomVariant, reduce_operators, run_rom
from .systems import Grid1D, PolyGradFlow, build_kdv_fom, build_wave_fom, kdv_initial, wave_initial

__all__ = [
    "ExperimentConfig",
    "RomSpec",
    "build_system",
    "default_mu_grid",
    "fom_trajectory",
    "mu_sweep",
    "run_experiment",
    "table_preset",
    "tail_bound_check",
]

log = logging.getLogger("hamrom")

SYSTEMS = ("wave", "kdv")

# Names the full-order stepper and its linear solver (AVF with a SuperLU
# factorization of the sparse stencil operators) and the energy evaluation
# (the polynomial, over blocks of states) in every cache key.  Change it
# whenever a change of the solver or the energy evaluation moves the cached
# trajectories or energies, so an old algorithm's cache is never served.
FOM_SOLVER = "avf-splu-polyenergy-blocks"


@dataclass(frozen=True)
class RomSpec:
    """One requested reduced run: variant, dimension, gradient weight."""

    variant: RomVariant
    r: int
    mu: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"gradient weight must be finite and non-negative, got {self.mu!r}")

    @classmethod
    def parse(cls, text: str) -> "RomSpec":
        """Parse ``VARIANT:r[:mu]``, e.g. ``SP0:5`` or ``GROM:40:0.5``."""
        parts = [p.strip() for p in text.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"ROM spec must be VARIANT:r[:mu], got {text!r}")
        variant = RomVariant.parse(parts[0])
        r = int(parts[1])
        mu = float(parts[2]) if len(parts) == 3 else 0.0
        return cls(variant=variant, r=r, mu=mu)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs: system, grid, scheme, ROM list."""

    system: str
    n: int
    length: float
    dt: float
    t_end: float
    stride: int
    origin: float = 0.0
    c: Optional[float] = None
    alpha: Optional[float] = None
    rho: Optional[float] = None
    nu: Optional[float] = None
    picard_tol: float = 1e-12
    roms: tuple[RomSpec, ...] = ()
    out_dir: str = "out"

    def __post_init__(self):
        # one value, one key: c=1 in code and "c = 1" in a file are both 1.0
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", "Optional[float]") and value is not None:
                object.__setattr__(self, f.name, float(value))
        if self.system not in SYSTEMS:
            raise ValueError(f"system must be one of {SYSTEMS}, got {self.system!r}")
        if self.system == "wave" and self.c is None:
            raise ValueError("wave runs require the wave speed 'c'")
        if self.system == "kdv" and None in (self.alpha, self.rho, self.nu):
            raise ValueError("kdv runs require 'alpha', 'rho' and 'nu'")
        for name in ("n", "stride", "dt", "t_end", "length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ExperimentConfig":
        unknown = set(mapping) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        if "system" not in mapping:
            raise ValueError("configuration must set 'system'")
        return cls(**{
            f.name: _PARSERS[f.type](mapping[f.name]) for f in fields(cls) if f.name in mapping
        })

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_mapping(read_config(path))

    def grid(self) -> Grid1D:
        return Grid1D(n=self.n, length=self.length, origin=self.origin)

    def scheme(self) -> AvfScheme:
        """The time stepping of the full-order run, recording every step."""
        return AvfScheme(dt=self.dt, t_end=self.t_end, picard_tol=self.picard_tol)

    def cache_key(self) -> str:
        """Canonical description of everything that determines the every-step
        trajectory: every field but the ROM list, the output directory and the
        snapshot stride, plus the format version and the solver tag."""
        values = ";".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self) if f.name not in _NOT_IN_CACHE_KEY
        )
        return f"format={FORMAT_VERSION};{values};solver={FOM_SOLVER}"


def _parse_roms(text: str) -> tuple[RomSpec, ...]:
    return tuple(RomSpec.parse(item) for item in text.split(",") if item.strip())


# fields that leave the full-order trajectory unchanged
_NOT_IN_CACHE_KEY = {"roms", "out_dir", "stride"}
# flat-text configuration keys, exactly the field names, and the parser of
# each field's annotation
_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}
_PARSERS = {"str": str, "int": int, "float": float, "Optional[float]": float,
            "tuple[RomSpec, ...]": _parse_roms}


def table_preset(table_id: int) -> ExperimentConfig:
    """The two benchmark comparison tables as ready-made configurations.

    Table 1: wave system, four variants at r=5.  Table 2: KdV, four variants
    at r=40 (SP-ROM-1 gains its extra enrichment column on top of that).
    """
    if table_id == 1:
        return ExperimentConfig(
            system="wave", c=0.1, n=500, length=1.0, origin=0.0,
            dt=0.01, t_end=50.0, stride=50,
            roms=tuple(RomSpec(v, 5) for v in RomVariant),
            out_dir="out/table1",
        )
    if table_id == 2:
        return ExperimentConfig(
            system="kdv", alpha=-6.0, rho=0.0, nu=-1.0, n=2000, length=40.0,
            origin=-20.0, dt=0.02, t_end=20.0, stride=5,
            roms=tuple(RomSpec(v, 40) for v in RomVariant),
            out_dir="out/table2",
        )
    raise ValueError(f"table_id must be 1 or 2, got {table_id}")


def build_system(cfg: ExperimentConfig) -> tuple[PolyGradFlow, np.ndarray, Grid1D]:
    """Full-order flow, initial state, and grid for a configuration."""
    grid = cfg.grid()
    if cfg.system == "wave":
        flow = build_wave_fom(cfg.c, grid)
        u0 = wave_initial(grid)
    else:
        flow = build_kdv_fom(cfg.alpha, cfg.rho, cfg.nu, grid)
        u0 = kdv_initial(grid)
    return flow, u0, grid


def _cache_paths(key: str, system: str, cache_dir: Path) -> dict[str, Path]:
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    stem = f"fom_{system}_{digest}"
    return {
        "meta": cache_dir / f"{stem}.meta",
        "states": cache_dir / f"{stem}.states.hrom",
        "energies": cache_dir / f"{stem}.energies.hrom",
    }


def _read_cache(cfg: ExperimentConfig, key: str, paths: dict[str, Path]) -> Optional[Trajectory]:
    """The cached every-step trajectory, or None (logged) when it cannot be served."""
    try:
        meta = paths["meta"].read_text(encoding="utf-8").splitlines()
        if meta[:1] != [key]:
            log.warning("cache key mismatch for %s: recomputing", paths["meta"].name)
            return None
        states = read_matrix(paths["states"])
        energies = read_matrix(paths["energies"])[:, 0]
        max_iters = int(meta[1]) if len(meta) > 1 else 0
    # undecodable meta text, a truncated file (FormatError), a bad count line
    except ValueError as exc:
        log.warning("unreadable cache for %s (%s): recomputing", paths["meta"].name, exc)
        return None
    return Trajectory(
        times=cfg.dt * np.arange(states.shape[1]),
        states=states,
        energies=energies,
        steps_total=energies.size - 1,
        dt=cfg.dt,
        max_picard_iterations=max_iters,
    )


def fom_trajectory(cfg: ExperimentConfig, stride: Optional[int] = None) -> Trajectory:
    """The full-order trajectory of a configuration, recorded every ``stride``
    steps (default: the configured snapshot stride).

    The run recorded at every step is loaded from the cache or integrated
    and cached; the result is its strided view.  The cache is keyed on
    :meth:`ExperimentConfig.cache_key`: every trajectory-determining field
    plus the on-disk format version and the solver tag :data:`FOM_SOLVER`.
    A mismatch or an unreadable cache file triggers a logged recompute.
    """
    cache_dir = Path(cfg.out_dir) / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = cfg.cache_key()
    paths = _cache_paths(key, cfg.system, cache_dir)
    dense = _read_cache(cfg, key, paths) if all(p.exists() for p in paths.values()) else None
    if dense is None:
        flow, u0, _ = build_system(cfg)
        dense = integrate(flow, u0, cfg.scheme())
        write_matrix(paths["states"], dense.states)
        write_matrix(paths["energies"], dense.energies)
        atomic_write_bytes(paths["meta"], f"{key}\n{dense.max_picard_iterations}\n".encode())
    return _subsample(dense, cfg.stride if stride is None else stride)


def _subsample(traj: Trajectory, stride: int) -> Trajectory:
    """Stride-sampled view of a densely recorded trajectory.

    Column k of the result is the state after ``k * stride`` steps, exactly
    what an integration recorded at that stride would have produced.
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if stride == 1:
        return traj
    return replace(traj, times=traj.times[::stride].copy(), states=traj.states[:, ::stride].copy())


@dataclass
class _Reference:
    """What run_experiment, mu_sweep and tail_bound_check start from: the
    full-order flow, the every-step reference trajectory, its snapshot view
    and the number of field row blocks (two for the wave, one for KdV)."""

    flow: PolyGradFlow
    dense: Trajectory
    snap: Trajectory
    fields: int
    frames: Optional[tuple[SnapshotFrame, ...]] = None

    def snapshot_sets(self, mu: float, shifted: bool) -> tuple[SnapshotSet, ...]:
        """One snapshot set per field.  Gradient-augmented sets (``mu > 0``)
        come in coordinates of the per-field frames of ``[U, F]``, built on
        the first such request and shared by every later weight; ``mu = 0``
        sets are assembled directly and never build the frames."""
        if mu > 0 and self.frames is None:
            self.frames = snapshot_frames(self.snap, self.flow, self.fields)
        if self.fields == 2:
            return collect_wave_snapshots(self.snap, self.flow, mu=mu, shifted=shifted,
                                          frames=self.frames)
        frame = self.frames[0] if self.frames else None
        return (collect_snapshots(self.snap, self.flow, mu=mu, shifted=shifted, frame=frame),)


def _references(cfg: ExperimentConfig) -> _Reference:
    """The shared prelude: the cached (or integrated) full-order reference."""
    dense = fom_trajectory(cfg, stride=1)
    flow, _, _ = build_system(cfg)
    return _Reference(flow=flow, dense=dense, snap=_subsample(dense, cfg.stride),
                      fields=2 if cfg.system == "wave" else 1)


def _build_rom(ref: _Reference, spec: RomSpec) -> ReducedModel:
    """Reduced model for one ROM spec, snapshots taken from the reference's
    snapshot view.  One basis per field row block: a single block for KdV,
    two for the wave."""
    sets = ref.snapshot_sets(spec.mu, shifted=spec.variant is RomVariant.SP2)
    bases = []
    for snaps, u0 in zip(sets, np.split(ref.snap.states[:, 0], len(sets))):
        basis = compute_basis(snaps, spec.r)
        if spec.variant is RomVariant.SP1:
            basis = enrich_with_ic_residual(basis, u0)
        bases.append(basis)
    return reduce_operators(ref.flow, tuple(bases), spec.variant)


def _run_one(cfg: ExperimentConfig, ref: _Reference,
             spec: RomSpec) -> tuple[RomReport, Optional[Trajectory]]:
    """Build and run one ROM; compare against the benchmark at every step.

    Snapshots come from the stride-sampled trajectory, the maximum error from
    the densely recorded one.  On the wave benchmark at r=5, stride-50
    sampling understates the maximum by 1.4-8.8% across the four variants;
    the Table 1 values reproduce to <= 0.02% only with dense recording.
    """
    dense_traj = ref.dense
    e_inf = e_inf_wave if cfg.system == "wave" else e_inf_scalar
    # only a solver or rank failure of the model build or the run fails the
    # row; any other error, there or in the comparison, is a programming error
    # and propagates
    try:
        model = _build_rom(ref, spec)
        start = time.perf_counter()
        rom_traj = run_rom(model, cfg.scheme(), initial_state=dense_traj.states[:, 0])
        wall_ms = 1e3 * (time.perf_counter() - start)
    except (StepFailure, NumericalError) as exc:
        log.warning("%s r=%d mu=%g failed: %s", spec.variant.value, spec.r, spec.mu, exc)
        nan = float("nan")
        return (
            RomReport(
                variant=spec.variant.value, r=spec.r, mu=spec.mu, e_inf=nan,
                energy_initial=nan, energy_final=nan, max_energy_drift=nan,
                energy_offset_vs_fom=nan, wall_ms=0.0, failed=True,
            ),
            None,
        )
    energy = energy_report(rom_traj, dense_traj)
    report = RomReport(
        variant=spec.variant.value,
        r=spec.r,
        mu=spec.mu,
        e_inf=e_inf(dense_traj, rom_traj),
        energy_initial=float(rom_traj.energies[0]),
        energy_final=float(rom_traj.energies[-1]),
        max_energy_drift=energy.drift,
        energy_offset_vs_fom=energy.offset,
        wall_ms=wall_ms,
    )
    return report, rom_traj


def run_experiment(cfg: ExperimentConfig) -> list[RomReport]:
    """Run the full-order benchmark and every requested reduced model.

    Emits ``report.csv``, the full-order energy series, and one energy series
    per ROM into ``cfg.out_dir``; each ROM's series is written as soon as it
    has run.  A solver failure marks that row failed and the remaining ROMs
    still run.  Deterministic: identical configurations produce identical
    numbers.
    """
    ref = _references(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_energy_csv(out / "fom_energy.csv", ref.dense.energy_times, ref.dense.energies)
    if not cfg.roms:
        return []
    reports = []
    for spec in cfg.roms:
        report, rom_traj = _run_one(cfg, ref, spec)
        if rom_traj is not None:
            name = f"energy_{spec.variant.name.lower()}_r{spec.r}_mu{spec.mu:g}.csv"
            write_energy_csv(out / name, rom_traj.energy_times, rom_traj.energies)
        reports.append(report)
    write_report_csv(out / "report.csv", reports)
    return reports


def default_mu_grid(system: str) -> np.ndarray:
    """Sweep grids bracketing the benchmark optima: wave 51 points on [0, 0.2],
    KdV 21 points on [0, 1]."""
    if system == "wave":
        return np.linspace(0.0, 0.2, 51)
    if system == "kdv":
        return np.linspace(0.0, 1.0, 21)
    raise ValueError(f"unknown system {system!r}")


def mu_sweep(
    cfg: ExperimentConfig,
    mu_grid: Optional[Sequence[float]] = None,
    variant: RomVariant = RomVariant.SP0,
    r: int = 5,
    write_outputs: bool = False,
) -> list[tuple[float, float]]:
    """Error of one ROM variant across gradient weights, FOM reused throughout.

    The snapshot gradients and each field's frame of ``[U, F]`` are built
    once; every weight then costs one small SVD per field (see
    :mod:`hamrom.pod`).  Per-point solver failures are recorded as NaN and
    the sweep continues.  Rows come back
    sorted by weight.  A negative or non-finite weight is rejected before
    anything runs.
    """
    grid = default_mu_grid(cfg.system) if mu_grid is None else np.asarray(mu_grid, float)
    specs = [RomSpec(variant=variant, r=r, mu=float(mu)) for mu in grid]
    ref = _references(cfg)
    rows = [(spec.mu, _run_one(cfg, ref, spec)[0].e_inf) for spec in specs]
    rows.sort(key=lambda row: row[0])
    if write_outputs:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(out / f"sweep_mu_{variant.name.lower()}_r{r}.csv", rows)
    return rows


def tail_bound_check(
    cfg: ExperimentConfig,
    r_list: Sequence[int],
    write_outputs: bool = False,
) -> list[tuple[int, float, float, float]]:
    """Empirical tail comparison: integrated squared SP0 error vs sigma-tail.

    For each basis size the time integral (trapezoid rule over the recorded
    times) of the squared decoded error is paired with the squared
    singular-value tail of the snapshot spectrum; the ratio column is reported
    without asserting any bound (the theoretical constant is not computable
    from the inputs).  For two-field systems the tail sums both per-field
    spectra.
    """
    ref = _references(cfg)
    rows = []
    for r in r_list:
        model = _build_rom(ref, RomSpec(variant=RomVariant.SP0, r=r))
        rom_traj = run_rom(model, cfg.scheme(), initial_state=ref.dense.states[:, 0])
        integrated = float(np.trapezoid(squared_errors(ref.dense, rom_traj), ref.dense.times))
        tail = sum(sigma_tail(basis, r) for basis in model.bases)
        ratio = integrated / tail if tail > 0 else float("inf")
        rows.append((int(r), integrated, float(tail), float(ratio)))
    if write_outputs:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_tail_csv(out / "tail_check.csv", rows)
    return rows
