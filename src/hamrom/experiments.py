"""Experiment orchestration: benchmark reproductions, sweeps, and caching.

Ties the pipeline together: build a full-order system from a configuration,
integrate it (with a disk cache keyed on every parameter that affects the
trajectory), extract bases, run the requested reduced models, and emit CSV
reports.  Named presets reproduce the two benchmark comparison tables.

A configuration has one full-order reference: the run recorded at every
step, which is all the cache stores.  It lives only in its cache file (or,
when the cache cannot be written, in an anonymous temporary file): runs read
its snapshot-strided columns, and the comparisons read it block by block.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy

from .avf import AvfScheme, StepFailure, Trajectory, integrate
from .fileio import (
    FORMAT_VERSION,
    MatrixReader,
    MatrixWriter,
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
    PodBasis,
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


def _solver_tag(directory: Path) -> str:
    """16 hex digits of the sha256 of the stepper, system and linear-algebra
    sources in ``directory`` and of the NumPy and SciPy versions."""
    digest = hashlib.sha256()
    for name in ("avf.py", "systems.py", "linalg.py"):
        digest.update((directory / name).read_bytes())
    digest.update(f"numpy={np.__version__};scipy={scipy.__version__}".encode())
    return digest.hexdigest()[:16]


# Names the code of the full-order run (the AVF stepper, its linear solver and
# the energy evaluation) and the NumPy and SciPy releases it ran on in every
# cache key, so a trajectory cached by other code is never served.  The BLAS
# build is not in the key.
FOM_SOLVER = _solver_tag(Path(__file__).parent)


@dataclass(frozen=True)
class RomSpec:
    """One requested reduced run: variant, dimension, gradient weight."""

    variant: RomVariant
    r: int
    mu: float = 0.0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"reduced dimension must be at least 1, got {self.r!r}")
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
                if not np.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value!r}")
                object.__setattr__(self, f.name, float(value))
        if self.system not in SYSTEMS:
            raise ValueError(f"system must be one of {SYSTEMS}, got {self.system!r}")
        if self.system == "wave" and self.c is None:
            raise ValueError("wave runs require the wave speed 'c'")
        if self.system == "kdv" and None in (self.alpha, self.rho, self.nu):
            raise ValueError("kdv runs require 'alpha', 'rho' and 'nu'")
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride!r}")
        # the grid and the time stepping check their own values
        self.grid()
        self.scheme().steps()

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


def _fields(cfg: ExperimentConfig) -> int:
    """Number of field row blocks of the state: two for the wave, one for KdV."""
    return 2 if cfg.system == "wave" else 1


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


class _StoredRun:
    """The full-order run recorded at every step, read from the open HROM file
    it was validated in or streamed into.

    It has the ``Trajectory`` fields the comparisons use (``times``,
    ``energies``, ``dim``, ``basis`` None) and a ``full_states`` that reads a
    column block into ``out``, so no every-step array is held.  Owning the
    file handle, it keeps reading that run when another process replaces the
    cache entry.  :meth:`close` releases the file.
    """

    basis = None

    def __init__(self, reader: MatrixReader, dt: float, energies: np.ndarray,
                 max_picard_iterations: int):
        self._reader = reader
        self.dt, self.energies = dt, energies
        self.max_picard_iterations = max_picard_iterations
        self.times = dt * np.arange(reader.cols)

    @property
    def dim(self) -> int:
        return self._reader.rows

    def full_states(self, start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self._reader.read(start, stop, out)

    def view(self, stride: int) -> Trajectory:
        """The run recorded every ``stride`` steps, read column by column:
        what an integration recorded at that stride gives."""
        reader = self._reader
        if stride == 1:
            states = reader.read(0, reader.cols)
        else:
            states = np.empty((reader.rows, -(-reader.cols // stride)), order="F")
            for j in range(states.shape[1]):
                reader.read(j * stride, j * stride + 1, states[:, j : j + 1])
        return Trajectory(
            times=self.dt * (stride * np.arange(states.shape[1])),
            states=states,
            energies=self.energies,
            steps_total=reader.cols - 1,
            dt=self.dt,
            max_picard_iterations=self.max_picard_iterations,
        )

    def close(self) -> None:
        self._reader.close()


def _cache_entry(cfg: ExperimentConfig) -> tuple[str, dict[str, Path]]:
    """The cache key of a configuration and the paths of its cache files."""
    cache_dir = Path(cfg.out_dir) / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = cfg.cache_key()
    return key, _cache_paths(key, cfg.system, cache_dir)


def _read_cache(cfg: ExperimentConfig, key: str, paths: dict[str, Path]) -> Optional[_StoredRun]:
    """The cached every-step run, or None (logged when a cache entry exists
    but cannot be served)."""
    if not all(p.exists() for p in paths.values()):
        return None
    columns = cfg.scheme().steps() + 1
    shape = (cfg.n * _fields(cfg), columns)
    reader = None
    try:
        meta = paths["meta"].read_text(encoding="utf-8").splitlines()
        if meta[:1] != [key]:
            log.warning("cache key mismatch for %s: recomputing", paths["meta"].name)
            return None
        energies = read_matrix(paths["energies"])
        max_iters = int(meta[1]) if len(meta) > 1 else 0
        reader = MatrixReader.open(paths["states"])
        if (reader.rows, reader.cols) != shape or energies.shape != (columns, 1):
            raise ValueError(
                f"states {(reader.rows, reader.cols)} and energies {energies.shape}, "
                f"expected {shape} and {(columns, 1)}"
            )
    # undecodable meta text, a truncated file (FormatError), a bad count line,
    # a well-formed file of the wrong shape, a file that cannot be read
    except (ValueError, OSError) as exc:
        if reader is not None:
            reader.close()
        log.warning("unreadable cache for %s (%s): recomputing", paths["meta"].name, exc)
        return None
    return _StoredRun(reader, cfg.dt, energies[:, 0], max_iters)


def _stream(flow: PolyGradFlow, u0: np.ndarray, scheme: AvfScheme,
            path: Optional[Path]) -> tuple[_StoredRun, Trajectory]:
    """Integrate ``flow``, streaming every step into the HROM file ``path``
    (published when complete) or, with ``path`` None, into an anonymous
    temporary file.  Returns the open every-step run and the integration."""
    with MatrixWriter(path, flow.dim, scheme.steps() + 1) as writer:
        traj = integrate(flow, u0, scheme, consumer=writer.write)
        if path is not None:
            writer.publish()
        reader = writer.reader()
    return _StoredRun(reader, scheme.dt, traj.energies, traj.max_picard_iterations), traj


# While _references looks its run up, fom_trajectory hands the open run over
# here instead of closing it.  The lookup goes through fom_trajectory because
# perfbench/tracer.py counts fom_trajectory calls as cache hits and misses.
_kept_runs: Optional[list[_StoredRun]] = None


def fom_trajectory(cfg: ExperimentConfig, stride: Optional[int] = None) -> Trajectory:
    """The full-order trajectory of a configuration, recorded every ``stride``
    steps (default: the configured snapshot stride).

    The run recorded at every step is loaded from the cache or integrated
    once, streaming into it; the result is its strided view (on a miss the
    integration's own record), and only the strided columns are read or
    kept.  The cache is keyed on :meth:`ExperimentConfig.cache_key`: every
    trajectory-determining field plus the on-disk format version and the
    solver tag :data:`FOM_SOLVER`.  A mismatch or an unreadable cache file
    triggers a logged recompute.  A cache that cannot be written is logged
    and the run streams into an anonymous temporary file instead; only a
    stream that fails midway integrates a second time.
    """
    stride = cfg.stride if stride is None else stride
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    key, paths = _cache_entry(cfg)
    stored = _read_cache(cfg, key, paths)
    if stored is not None:
        try:
            traj = stored.view(stride)
        except BaseException:
            stored.close()
            raise
    else:
        flow, u0, _ = build_system(cfg)
        scheme = replace(cfg.scheme(), snapshot_stride=stride)
        try:
            stored, traj = _stream(flow, u0, scheme, paths["states"])
            # the meta file last: it vouches for the two payloads
            write_matrix(paths["energies"], traj.energies)
            atomic_write_bytes(paths["meta"], f"{key}\n{traj.max_picard_iterations}\n".encode())
        except OSError as exc:
            log.warning("could not write cache for %s (%s): continuing uncached",
                        paths["meta"].name, exc)
            if stored is None:
                stored, traj = _stream(flow, u0, scheme, None)
    if _kept_runs is None:
        stored.close()
    else:
        _kept_runs.append(stored)
    return traj


@dataclass
class _Reference:
    """What run_experiment, mu_sweep and tail_bound_check start from: the
    full-order flow, the every-step reference run, its snapshot view and the
    number of field row blocks (two for the wave, one for KdV).  ``bases``
    memoizes the per-field POD bases by (mu, shifted, r).  As a context
    manager it closes the stored reference when the block ends."""

    flow: PolyGradFlow
    dense: _StoredRun
    snap: Trajectory
    fields: int
    frames: Optional[tuple[SnapshotFrame, ...]] = None
    bases: dict[tuple[float, bool, int], tuple[PodBasis, ...]] = field(default_factory=dict)

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

    def pod_bases(self, mu: float, shifted: bool, r: int) -> tuple[PodBasis, ...]:
        """One basis of ``r`` vectors per field, decomposed once per key:
        G-ROM, SP-ROM-0 and SP-ROM-1 share theirs."""
        key = (mu, shifted, r)
        if key not in self.bases:
            self.bases[key] = tuple(compute_basis(s, r) for s in self.snapshot_sets(mu, shifted))
        return self.bases[key]

    def __enter__(self) -> "_Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.dense.close()


def _references(cfg: ExperimentConfig) -> _Reference:
    """The shared prelude: the cached (or integrated) full-order reference.

    One :func:`fom_trajectory` lookup gives the snapshot view and keeps the
    every-step run it came from open for the comparisons."""
    global _kept_runs
    _kept_runs = []
    try:
        snap = fom_trajectory(cfg)
        (dense,) = _kept_runs
    finally:
        _kept_runs = None
    flow, _, _ = build_system(cfg)
    return _Reference(flow=flow, dense=dense, snap=snap, fields=_fields(cfg))


def _build_rom(ref: _Reference, spec: RomSpec) -> ReducedModel:
    """Reduced model for one ROM spec, snapshots taken from the reference's
    snapshot view.  One basis per field row block: a single block for KdV,
    two for the wave."""
    bases = ref.pod_bases(spec.mu, spec.variant is RomVariant.SP2, spec.r)
    if spec.variant is RomVariant.SP1:
        starts = np.split(ref.snap.states[:, 0], len(bases))
        bases = tuple(enrich_with_ic_residual(b, u0) for b, u0 in zip(bases, starts))
    return reduce_operators(ref.flow, bases, spec.variant)


def _attempt(cfg: ExperimentConfig, ref: _Reference,
             spec: RomSpec) -> Optional[tuple[ReducedModel, Trajectory, float]]:
    """Build and run one ROM: the model, its run and the run's wall time in ms,
    or None after a logged solver or rank failure.  Other errors propagate."""
    try:
        model = _build_rom(ref, spec)
        start = time.perf_counter()
        rom_traj = run_rom(model, cfg.scheme(), initial_state=ref.snap.states[:, 0])
        return model, rom_traj, 1e3 * (time.perf_counter() - start)
    except (StepFailure, NumericalError) as exc:
        log.warning("%s r=%d failed at mu=%g: %s", spec.variant.value, spec.r, spec.mu, exc)
        return None


def _run_one(cfg: ExperimentConfig, ref: _Reference,
             spec: RomSpec) -> tuple[RomReport, Optional[Trajectory]]:
    """Build and run one ROM; compare against the benchmark at every step.

    Snapshots come from the stride-sampled trajectory, the maximum error from
    the densely recorded one.  On the wave benchmark at r=5, stride-50
    sampling understates the maximum by 1.4-8.8% across the four variants;
    the Table 1 values reproduce to <= 0.02% only with dense recording.
    A failed attempt is a NaN row.
    """
    attempt = _attempt(cfg, ref, spec)
    if attempt is None:
        nan = float("nan")
        report = RomReport(variant=spec.variant.value, r=spec.r, mu=spec.mu, e_inf=nan,
                           energy_initial=nan, energy_final=nan, max_energy_drift=nan,
                           energy_offset_vs_fom=nan, wall_ms=0.0, failed=True)
        return report, None
    _, rom_traj, wall_ms = attempt
    e_inf = e_inf_wave if cfg.system == "wave" else e_inf_scalar
    energy = energy_report(rom_traj, ref.dense)
    report = RomReport(
        variant=spec.variant.value, r=spec.r, mu=spec.mu, e_inf=e_inf(ref.dense, rom_traj),
        energy_initial=float(rom_traj.energies[0]), energy_final=float(rom_traj.energies[-1]),
        max_energy_drift=energy.drift, energy_offset_vs_fom=energy.offset, wall_ms=wall_ms,
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
    out = Path(cfg.out_dir)
    reports = []
    with _references(cfg) as ref:
        out.mkdir(parents=True, exist_ok=True)
        write_energy_csv(out / "fom_energy.csv", ref.snap.energy_times, ref.snap.energies)
        if not cfg.roms:
            return []
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
) -> list[tuple[float, float]]:
    """Error of one ROM variant across gradient weights, FOM reused throughout.

    The snapshot gradients and each field's frame of ``[U, F]`` are built
    once; every weight then costs one small SVD per field (see
    :mod:`hamrom.pod`).  Per-point solver failures are recorded as NaN and
    the sweep continues.  Rows come back sorted by weight and are written to
    ``sweep_mu_<variant>_r<r>.csv`` in ``cfg.out_dir``.  A negative or
    non-finite weight is rejected before anything runs.
    """
    grid = default_mu_grid(cfg.system) if mu_grid is None else np.asarray(mu_grid, float)
    specs = [RomSpec(variant=variant, r=r, mu=float(mu)) for mu in grid]
    rows = []
    with _references(cfg) as ref:
        for spec in specs:
            rows.append((spec.mu, _run_one(cfg, ref, spec)[0].e_inf))
            ref.bases.clear()  # every weight is its own key: keep no basis past its point
    rows.sort(key=lambda row: row[0])
    write_sweep_csv(Path(cfg.out_dir) / f"sweep_mu_{variant.name.lower()}_r{r}.csv", rows)
    return rows


def tail_bound_check(
    cfg: ExperimentConfig,
    r_list: Sequence[int],
) -> list[tuple[int, float, float, float]]:
    """Empirical tail comparison: integrated squared SP0 error vs sigma-tail.

    For each basis size the time integral (trapezoid rule over the recorded
    times) of the squared decoded error is paired with the squared
    singular-value tail of the snapshot spectrum; the ratio column is reported
    without asserting any bound (the theoretical constant is not computable
    from the inputs).  For two-field systems the tail sums both per-field
    spectra.  As in :func:`mu_sweep`, a solver or rank failure at one basis
    size is logged and recorded as a NaN row, and the check continues.  The
    rows are written to ``tail_check.csv`` in ``cfg.out_dir``.
    """
    specs = [RomSpec(variant=RomVariant.SP0, r=r) for r in r_list]
    rows = []
    with _references(cfg) as ref:
        for spec in specs:
            attempt = _attempt(cfg, ref, spec)
            if attempt is None:
                nan = float("nan")
                rows.append((int(spec.r), nan, nan, nan))
                continue
            model, rom_traj, _ = attempt
            integrated = float(np.trapezoid(squared_errors(ref.dense, rom_traj), ref.dense.times))
            tail = sum(sigma_tail(basis, spec.r) for basis in model.bases)
            ratio = integrated / tail if tail > 0 else float("inf")
            rows.append((int(spec.r), integrated, float(tail), float(ratio)))
    write_tail_csv(Path(cfg.out_dir) / "tail_check.csv", rows)
    return rows
