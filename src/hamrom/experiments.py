"""Experiment orchestration: benchmark reproductions, sweeps, and caching.

Ties the pipeline together: build a full-order system from a configuration,
integrate it (with a disk cache keyed on every parameter that affects the
trajectory), extract bases, run the requested reduced models, and emit CSV
reports.  Named presets reproduce the two benchmark comparison tables.

A configuration has one full-order reference: the run recorded at every
step, which is all the cache stores.  It lives only in its cache file (or,
when the cache cannot be written, in an anonymous temporary file): runs read
its snapshot-strided columns, and the comparisons read it block by block.

A table, a sweep and a tail check work in three phases (:func:`_run_compared`):
the POD bases on a pool of workers, the reduced runs on the caller, the
comparisons on the workers, with every loaded OpenBLAS pinned to one thread
meanwhile.
"""

from __future__ import annotations

import hashlib
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

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
from .linalg import NumericalError, bind_lapack, one_blas_thread
from .metrics import (
    RomReport,
    e_inf_scalar,
    e_inf_wave,
    energy_report,
    side_by_side_passes,
    squared_errors,
)
from .pod import (
    PodBasis,
    SnapshotFrame,
    SnapshotSet,
    collect_snapshots,
    collect_wave_snapshots,
    decompose,
    enrich_with_ic_residual,
    sigma_tail,
    snapshot_frames,
    weighted_basis,
)
from .rom import ReducedModel, RomVariant, reduce_operators, run_rom
from .systems import (
    Grid1D,
    PolyGradFlow,
    _integer,
    build_kdv_fom,
    build_wave_fom,
    kdv_initial,
    wave_initial,
)

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


def _blas_build() -> str:
    """Name and version of the BLAS that NumPy was built against."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def _solver_tag(directory: Path) -> str:
    """16 hex digits of the sha256 of the stepper, system and linear-algebra
    sources in ``directory``, of the NumPy version and of NumPy's BLAS build."""
    digest = hashlib.sha256()
    for name in ("avf.py", "systems.py", "linalg.py"):
        digest.update((directory / name).read_bytes())
    digest.update(f"numpy={np.__version__};blas={_blas_build()}".encode())
    return digest.hexdigest()[:16]


# Names the code of the full-order run (the AVF stepper, its linear algebra and
# the energy evaluation), the NumPy release and NumPy's BLAS build it ran on in
# every cache key, so a trajectory cached by other code, or rounded by another
# BLAS, is never served.  No full-order step calls SciPy.
FOM_SOLVER = _solver_tag(Path(__file__).parent)


@dataclass(frozen=True)
class RomSpec:
    """One requested reduced run: variant, dimension, gradient weight."""

    variant: RomVariant
    r: int
    mu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", _integer("reduced dimension", self.r))
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
        # one value, one key: c=1 in code and "c = 1" in a file are both 1.0,
        # and n=np.int64(500) is n=500
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                object.__setattr__(self, f.name, _integer(f.name, value))
            elif f.type in ("float", "Optional[float]") and value is not None:
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
        if len(meta) != 2:
            raise ValueError(f"meta has {len(meta)} lines, expected the key and a count")
        max_iters = int(meta[1])
        energies = read_matrix(paths["energies"])
        reader = MatrixReader.open(paths["states"])
        if (reader.rows, reader.cols) != shape or energies.shape != (columns, 1):
            raise ValueError(
                f"states {(reader.rows, reader.cols)} and energies {energies.shape}, "
                f"expected {shape} and {(columns, 1)}"
            )
    # undecodable meta text, a missing or bad count line, a truncated file
    # (FormatError), a well-formed file of the wrong shape, a file that
    # cannot be read
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
    stride = cfg.stride if stride is None else _integer("stride", stride)
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


# one field's basis of one size, or the NumericalError that building it
# raised, memoized in its place
_Built = Union[PodBasis, NumericalError]


def _cut(snaps: SnapshotSet, sizes: Iterable[int]) -> dict[int, _Built]:
    """The basis of every size in ``sizes`` of one snapshot set, all cut from
    one SVD; the NumericalError of a size that failed in its place."""
    try:
        svd = decompose(snaps)
    except NumericalError as exc:
        return dict.fromkeys(sizes, exc)
    out = {}
    for r in sizes:
        try:
            out[r] = svd.basis(r)
        except NumericalError as exc:
            out[r] = exc
    return out


@dataclass
class _Reference:
    """What run_experiment, mu_sweep and tail_bound_check start from: the
    full-order flow, the every-step reference run, its snapshot view and the
    number of field row blocks (two for the wave, one for KdV).

    ``bases`` memoizes the POD basis of each field by (field, mu, shifted,
    r); a size that failed memoizes its NumericalError.  While the phases
    of :func:`_run_compared` run, ``pool`` holds their ``workers``;
    otherwise everything runs on the caller.  As a context manager it
    closes the stored reference when the block ends."""

    flow: PolyGradFlow
    dense: _StoredRun
    snap: Trajectory
    fields: int
    frames: Optional[tuple[SnapshotFrame, ...]] = None
    bases: dict[tuple[int, float, bool, int], _Built] = field(default_factory=dict)
    pool: Optional[ThreadPoolExecutor] = None
    workers: int = 1

    def map(self, fn, items: Sequence) -> list:
        """``fn`` of every item: on the workers when there is a pool and more
        than one item, else on the caller."""
        if self.pool is None or len(items) < 2:
            return [fn(item) for item in items]
        return list(self.pool.map(fn, items))

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

    def _reuses(self, i: int, shifted: bool) -> bool:
        """Whether field ``i`` takes its unshifted bases from its mu = 0 ones:
        its gradients are an exact multiple of its states
        (:attr:`SnapshotFrame.multiple`), so that every unshifted weight's
        basis is the mu = 0 one, weighted (:func:`hamrom.pod.weighted_basis`)."""
        return not shifted and self.frames is not None and self.frames[i].multiple is not None

    def build_bases(self, keys: Iterable[tuple[float, bool, int]]) -> None:
        """Memoize the basis of every field for every ``(mu, shifted, r)`` key:
        one SVD per field and distinct ``(mu, shifted)`` with a size not
        memoized yet.  A field that reuses its mu = 0 bases (:meth:`_reuses`)
        takes every other weight's by weighting them.

        The mu = 0 sets, assembled on the grid's rows, are decomposed first,
        on the caller, one after another: two of Table 2's 2000x201 SVDs
        side by side raised its peak memory by up to 13%.  Each weight's
        sets, in frame coordinates of at most twice as many rows as
        snapshots whatever the grid, are decomposed on a worker.  Only the
        caller writes the memo."""
        wanted = dict.fromkeys((i, *key) for key in keys for i in range(self.fields))
        missing = [key for key in wanted if key not in self.bases]
        if self.frames is None and any(mu > 0 for _, mu, _, _ in missing):
            self.frames = snapshot_frames(self.snap, self.flow, self.fields)
        weighted = {key for key in missing if key[1] > 0 and self._reuses(key[0], key[2])}
        # the sizes to cut by (mu, shifted) and field; a weighted key needs its mu = 0 basis
        sizes: dict[tuple[float, bool], dict[int, list[int]]] = {}
        for i, mu, shifted, r in dict.fromkeys(
            (key[0], 0.0, False, key[3]) if key in weighted else key for key in missing
        ):
            if (i, mu, shifted, r) not in self.bases:
                sizes.setdefault((mu, shifted), {}).setdefault(i, []).append(r)
        tall = [item for item in sizes.items() if item[0][0] == 0]
        framed = [item for item in sizes.items() if item[0][0] > 0]
        for built in [self._cut_sets(item) for item in tall] + self.map(self._cut_sets, framed):
            self.bases.update(built)
        for i, mu, shifted, r in weighted:
            basis = self.bases[i, 0.0, False, r]
            if not isinstance(basis, NumericalError):
                basis = weighted_basis(basis, self.frames[i].multiple, mu)
            self.bases[i, mu, shifted, r] = basis

    def _cut_sets(self, item: tuple[tuple[float, bool], dict[int, list[int]]]) -> dict:
        """The bases of one ``((mu, shifted), sizes by field)`` item by memo
        key, one SVD per field.  Reads the memo and writes none of it."""
        (mu, shifted), sizes = item
        sets = self.snapshot_sets(mu, shifted)
        return {(i, mu, shifted, r): basis
                for i, rs in sizes.items() for r, basis in _cut(sets[i], rs).items()}

    def pod_bases(self, mu: float, shifted: bool, r: int) -> tuple[PodBasis, ...]:
        """One basis of ``r`` vectors per field, decomposed once per key
        (:meth:`build_bases`): G-ROM, SP-ROM-0 and SP-ROM-1 share theirs.
        Raises the first NumericalError of a field whose size failed."""
        self.build_bases([(mu, shifted, r)])
        bases = tuple(self.bases[i, mu, shifted, r] for i in range(self.fields))
        for basis in bases:
            if isinstance(basis, NumericalError):
                raise basis
        return bases

    def forget_bases(self) -> None:
        """Drop the frames and every memoized basis."""
        self.frames = None
        self.bases.clear()

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


def _basis_key(spec: RomSpec) -> tuple[float, bool, int]:
    """The (mu, shifted, r) of the bases a spec's model is reduced on."""
    return spec.mu, spec.variant is RomVariant.SP2, spec.r


def _build_rom(ref: _Reference, spec: RomSpec) -> ReducedModel:
    """Reduced model for one ROM spec, snapshots taken from the reference's
    snapshot view.  One basis per field row block: a single block for KdV,
    two for the wave."""
    bases = ref.pod_bases(*_basis_key(spec))
    if spec.variant is RomVariant.SP1:
        starts = np.split(ref.snap.states[:, 0], len(bases))
        bases = tuple(enrich_with_ic_residual(b, u0) for b, u0 in zip(bases, starts))
    return reduce_operators(ref.flow, bases, spec.variant)


# what a table, sweep or tail check keeps of one model that ran: the per-field bases it was
# reduced on, its run and the run's wall time in ms
_Attempt = tuple[tuple[PodBasis, ...], Trajectory, float]


def _attempt(cfg: ExperimentConfig, ref: _Reference, spec: RomSpec) -> Optional[_Attempt]:
    """Build and run one ROM: its bases, its run and the run's wall time in
    ms, or None after a logged solver or rank failure.  Other errors
    propagate."""
    try:
        model = _build_rom(ref, spec)
        start = time.perf_counter()
        rom_traj = run_rom(model, cfg.scheme(), initial_state=ref.snap.states[:, 0])
        return model.bases, rom_traj, 1e3 * (time.perf_counter() - start)
    except (StepFailure, NumericalError) as exc:
        log.warning("%s r=%d failed at mu=%g: %s", spec.variant.value, spec.r, spec.mu, exc)
        return None


def _compare(ref: _Reference, runs: Sequence[Optional[Trajectory]], compare) -> list:
    """``compare`` (:mod:`hamrom.metrics`) of each run against the every-step
    reference; None for a failed run.  The runs that ran are split into one
    group per worker, as far as the reference allows passes side by side
    (:func:`hamrom.metrics.side_by_side_passes`), and each group is compared
    in one pass over the reference: a run's value does not depend on the
    group it is in."""
    ran = [run for run in runs if run is not None]
    k = min(ref.workers, len(ran), side_by_side_passes(ref.dense))
    groups = [ran[len(ran) * j // k : len(ran) * (j + 1) // k] for j in range(k)]
    values = iter([v for group in ref.map(partial(compare, ref.dense), groups) for v in group])
    return [None if run is None else next(values) for run in runs]


def _run_compared(cfg: ExperimentConfig, ref: _Reference, specs: Sequence[RomSpec], compare,
                  hold: bool = False) -> tuple[list[Optional[_Attempt]], list]:
    """Build, run and compare the model of every spec in three phases:

    1. the bases of every distinct ``(mu, shifted)`` on the workers
       (:meth:`_Reference.build_bases`);
    2. every model reduced and run on the caller, in spec order, one after
       another, so that each run's wall time is its own;
    3. ``compare`` of every run against the every-step reference on the
       workers (:func:`_compare`).

    The workers are one per usable CPU, with every loaded OpenBLAS pinned to
    one thread while the phases run (:func:`hamrom.linalg.one_blas_thread`);
    no result depends on their number.  SciPy's LAPACK is bound first, so
    that its OpenBLAS is pinned too and no run's wall time holds its import.
    Returns each spec's attempt (None after a logged failure) and compared
    value (None for a failed spec).  With ``hold`` (a sweep or a tail check,
    which reads no energy series) each run is kept without its energies, and
    the frames and memoized bases are dropped once every model ran.
    """
    bind_lapack()
    with one_blas_thread() as workers, ThreadPoolExecutor(workers) as pool:
        ref.pool, ref.workers = pool, workers
        try:
            ref.build_bases([_basis_key(spec) for spec in specs])
            attempts = []
            for spec in specs:
                attempt = _attempt(cfg, ref, spec)
                if hold and attempt is not None:
                    bases, run, wall_ms = attempt
                    attempt = bases, replace(run, energies=None), wall_ms
                attempts.append(attempt)
            if hold:
                ref.forget_bases()
            values = _compare(ref, [None if a is None else a[1] for a in attempts], compare)
        finally:
            ref.pool, ref.workers = None, 1
    return attempts, values


def _e_inf_metric(cfg: ExperimentConfig):
    """The maximum error of the configuration's system (:mod:`hamrom.metrics`)."""
    return e_inf_wave if cfg.system == "wave" else e_inf_scalar


def _run_all(cfg: ExperimentConfig, ref: _Reference,
             specs: Sequence[RomSpec]) -> list[tuple[RomReport, Optional[Trajectory]]]:
    """Build and run every ROM, then compare all of them against the benchmark
    at every step (:func:`_run_compared`).

    Snapshots come from the stride-sampled trajectory, the maximum error from
    the densely recorded one.  On the wave benchmark at r=5, stride-50
    sampling understates the maximum by 1.4-8.8% across the four variants;
    the Table 1 values reproduce to <= 0.02% only with dense recording.
    A failed attempt is a NaN row without a run.
    """
    attempts, errors = _run_compared(cfg, ref, specs, _e_inf_metric(cfg))
    out = []
    for spec, attempt, e_inf in zip(specs, attempts, errors):
        if attempt is None:
            nan = float("nan")
            out.append((RomReport(variant=spec.variant.value, r=spec.r, mu=spec.mu, e_inf=nan,
                                  energy_initial=nan, energy_final=nan, max_energy_drift=nan,
                                  energy_offset_vs_fom=nan, wall_ms=0.0, failed=True), None))
            continue
        _, rom_traj, wall_ms = attempt
        energy = energy_report(rom_traj, ref.dense)
        report = RomReport(
            variant=spec.variant.value, r=spec.r, mu=spec.mu, e_inf=float(e_inf),
            energy_initial=float(rom_traj.energies[0]),
            energy_final=float(rom_traj.energies[-1]),
            max_energy_drift=energy.drift, energy_offset_vs_fom=energy.offset, wall_ms=wall_ms,
        )
        out.append((report, rom_traj))
    return out


def run_experiment(cfg: ExperimentConfig) -> list[RomReport]:
    """Run the full-order benchmark and every requested reduced model.

    Emits ``report.csv``, the full-order energy series, and one energy series
    per ROM into ``cfg.out_dir``.  Every ROM runs first; then all of them are
    compared against the reference in one pass over it.  A solver failure
    marks that row failed and the remaining ROMs still run.  Deterministic:
    identical configurations produce identical numbers.
    """
    out = Path(cfg.out_dir)
    reports = []
    with _references(cfg) as ref:
        out.mkdir(parents=True, exist_ok=True)
        write_energy_csv(out / "fom_energy.csv", ref.snap.energy_times, ref.snap.energies)
        if not cfg.roms:
            return []
        for spec, (report, rom_traj) in zip(cfg.roms, _run_all(cfg, ref, cfg.roms)):
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
    :mod:`hamrom.pod`), taken on the workers with the other weights'.
    Every point then runs, keeping its reduced run, and the runs are
    compared against the reference on the workers (:func:`_run_compared`).
    Per-point solver failures are recorded as NaN and the sweep continues.
    Rows come back sorted by weight and are written to
    ``sweep_mu_<variant>_r<r>.csv`` in ``cfg.out_dir``.  A negative or
    non-finite weight is rejected before anything runs.
    """
    grid = default_mu_grid(cfg.system) if mu_grid is None else np.asarray(mu_grid, float)
    specs = [RomSpec(variant=variant, r=r, mu=float(mu)) for mu in grid]
    with _references(cfg) as ref:
        _, errors = _run_compared(cfg, ref, specs, _e_inf_metric(cfg), hold=True)
    errors = [float("nan") if e is None else float(e) for e in errors]
    rows = sorted(zip([spec.mu for spec in specs], errors), key=lambda row: row[0])
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
    spectra.  The sizes share one SVD per field; every size runs, and the
    runs are compared against the reference on the workers
    (:func:`_run_compared`).  As in :func:`mu_sweep`, a solver or rank
    failure at one basis size is logged and recorded as a NaN row, and the
    check continues.  The rows are written to ``tail_check.csv`` in ``cfg.out_dir``.
    """
    specs = [RomSpec(variant=RomVariant.SP0, r=r) for r in r_list]
    with _references(cfg) as ref:
        attempts, errors = _run_compared(cfg, ref, specs, squared_errors, hold=True)
        times = ref.dense.times
    rows = []
    for spec, attempt, error in zip(specs, attempts, errors):
        if attempt is None:
            nan = float("nan")
            rows.append((int(spec.r), nan, nan, nan))
            continue
        tail = sum(sigma_tail(basis, spec.r) for basis in attempt[0])
        integrated = float(np.trapezoid(error, times))
        ratio = integrated / tail if tail > 0 else float("inf")
        rows.append((int(spec.r), integrated, float(tail), float(ratio)))
    write_tail_csv(Path(cfg.out_dir) / "tail_check.csv", rows)
    return rows
