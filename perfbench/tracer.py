"""Span recorder and the instrumentation that feeds it from outside hamrom.

Nothing here edits the package: :func:`instrument` rebinds public functions
and methods of the ``hamrom`` modules to timing wrappers for the duration of
a ``with`` block and restores the originals afterwards.

Two kinds of timed regions share one frame stack:

* spans, recorded one by one (name, start, end, parent, self time), at the
  coarse boundaries: the workload call, full-order integration, each basis,
  each projection, each reduced run, each error evaluation, each cache read
  or write;
* hot calls (AVF step, LU solve, energy, quadratic term), aggregated per
  enclosing span and call path as count, total and self time, because the
  wave sweep makes about 255k of each.

Self time is a region's duration minus what its directly nested regions
cover.  Durations are integer nanoseconds, so the self times of a root's
subtree sum exactly to the root's duration.  The recorder is single-threaded;
the workloads run their reduced models sequentially.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "experiments", "fileio", "systems", "avf", "linalg", "pod", "rom", "metrics")

# frame fields
_NAME, _START, _CHILD, _SPAN, _PATH, _HOT = range(6)


class Recorder:
    """In-memory spans, hot-call aggregates, histograms and counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[dict] = []
        self.hot: dict[tuple[int, str], list[int]] = {}  # (span, path) -> [count, total, self]
        self.histograms: dict[str, dict[int, int]] = {}
        self.counters: Counter = Counter()
        self.phase = "fom"  # "rom" while a reduced model integrates
        self._frames: list[list] = []

    def enter(self, name: str, hot: bool = False) -> None:
        parent = self._frames[-1] if self._frames else None
        parent_span = parent[_SPAN] if parent else -1
        if hot:
            path = f"{parent[_PATH]}>{name}" if parent and parent[_HOT] else name
            self._frames.append([name, self.clock(), 0, parent_span, path, True])
            return
        index = len(self.spans)
        self.spans.append({"name": name, "parent": parent_span, "start": 0, "end": 0, "self": 0})
        start = self.clock()
        self.spans[index]["start"] = start
        self._frames.append([name, start, 0, index, name, False])

    def exit(self) -> None:
        frame = self._frames.pop()
        end = self.clock()
        duration = end - frame[_START]
        own = duration - frame[_CHILD]
        if self._frames:
            self._frames[-1][_CHILD] += duration
        if frame[_HOT]:
            agg = self.hot.get((frame[_SPAN], frame[_PATH]))
            if agg is None:
                agg = self.hot[(frame[_SPAN], frame[_PATH])] = [0, 0, 0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
        else:
            span = self.spans[frame[_SPAN]]
            span["end"] = end
            span["self"] = own

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def observe(self, histogram: str, value: int) -> None:
        hist = self.histograms.setdefault(histogram, {})
        hist[value] = hist.get(value, 0) + 1

    # -- queries over one root's subtree ------------------------------------

    def subtree(self, root: int) -> set[int]:
        """Indices of ``root`` and every span below it."""
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index]["parent"] in inside:
                inside.add(index)
        return inside

    def root(self, name: str) -> int:
        for index, span in enumerate(self.spans):
            if span["parent"] == -1 and span["name"] == name:
                return index
        raise KeyError(f"no root span named {name!r}")

    def self_times(self, root: int) -> dict[str, int]:
        """Self time (ns) per region name over the subtree of ``root``.

        Hot aggregates are keyed by their own name, the last element of the
        call path.
        """
        inside = self.subtree(root)
        out: Counter = Counter()
        for index in inside:
            out[self.spans[index]["name"]] += self.spans[index]["self"]
        for (span, path), (_, _, own) in self.hot.items():
            if span in inside:
                out[path.rsplit(">", 1)[-1]] += own
        return dict(out)

    def dump(self) -> dict:
        """Plain-data form of everything recorded, for the trace file."""
        return {
            "clock": "perf_counter_ns",
            "spans": self.spans,
            "hot": [
                {"span": span, "path": path, "count": c, "total_ns": t, "self_ns": s}
                for (span, path), (c, t, s) in sorted(self.hot.items())
            ],
            "histograms": {
                name: {str(k): v for k, v in sorted(hist.items())}
                for name, hist in self.histograms.items()
            },
            "counters": dict(self.counters),
        }


def layer_of(name: str) -> str:
    """The package module a region belongs to, or '' for the benchmark's own."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else ""


# -- rebinding ---------------------------------------------------------------


def _hamrom_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hamrom" or n.startswith("hamrom."))]


def _rebind(undo: list, module: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` and every alias of it in the hamrom modules.

    ``from .x import f`` copies the binding, so each importing module's name
    is rebound too; methods are replaced on their class.
    """
    owner_name, _, member = attr.partition(".")
    owner = getattr(importlib.import_module(module), owner_name)
    if member:
        original = owner.__dict__[member]
        setattr(owner, member, functools.wraps(original)(make_wrapper(original)))
        undo.append((owner, member, original))
        return
    wrapper = functools.wraps(owner)(make_wrapper(owner))
    for mod in _hamrom_modules():
        for key, value in list(vars(mod).items()):
            if value is owner:
                setattr(mod, key, wrapper)
                undo.append((mod, key, owner))


@contextmanager
def _rebound(bindings):
    """Apply ``(module, attr, make_wrapper)`` bindings; restore on exit."""
    undo: list = []
    try:
        for module, attr, make_wrapper in bindings:
            _rebind(undo, module, attr, make_wrapper)
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


@contextmanager
def time_run_rom(samples: list):
    """Untraced probe: one timer per ``run_rom`` call, in µs per step."""

    def make(fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            traj = fn(*args, **kwargs)
            samples.append(1e6 * (time.perf_counter() - start) / traj.steps_total)
            return traj
        return timed

    with _rebound([("hamrom.rom", "run_rom", make)]):
        yield


def _timed(rec: Recorder, name: str, hot: bool = False, after=None):
    """Wrapper factory: time each call as a span or hot call, then run ``after(args)``."""
    enter, exit_ = rec.enter, rec.exit

    def make(fn):
        def wrapper(*args, **kwargs):
            enter(name, hot)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args)
            return out
        return wrapper
    return make


def _integrate(rec: Recorder):
    """Integration span named by its caller: inside ``run_rom`` it is the ROM's."""
    def make(fn):
        def wrapper(*args, **kwargs):
            outer = rec.phase
            rec.phase = "rom" if any(
                not f[_HOT] and f[_NAME] == "rom.run_rom" for f in rec._frames) else "fom"
            rec.enter(f"avf.{rec.phase}_integrate")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit()
                rec.phase = outer
        return wrapper
    return make


def _file_io(rec: Recorder, name: str, counter: str):
    def make(fn):
        def wrapper(path, *args, **kwargs):
            rec.enter(name)
            try:
                return fn(path, *args, **kwargs)
            finally:
                rec.exit()
                if os.path.exists(path):
                    rec.counters[counter] += os.path.getsize(path)
        return wrapper
    return make


@contextmanager
def instrument(rec: Recorder):
    """Time every public layer call of hamrom into ``rec`` inside the block."""

    def after_step(args):
        rec.observe(f"{rec.phase}_picard_iterations", args[0].last_iterations)

    def after_factor(args):
        rec.counters[f"{rec.phase}_lu_dim"] = args[0].shape[0]

    bindings = [
        ("hamrom.cli", "main", _timed(rec, "cli.main")),
        ("hamrom.experiments", "run_experiment", _timed(rec, "experiments.run_experiment")),
        ("hamrom.experiments", "mu_sweep", _timed(rec, "experiments.mu_sweep")),
        ("hamrom.experiments", "fom_trajectory", _timed(rec, "experiments.fom_trajectory")),
        ("hamrom.systems", "build_wave_fom", _timed(rec, "systems.build")),
        ("hamrom.systems", "build_kdv_fom", _timed(rec, "systems.build")),
        ("hamrom.systems", "wave_initial", _timed(rec, "systems.build")),
        ("hamrom.systems", "kdv_initial", _timed(rec, "systems.build")),
        ("hamrom.avf", "integrate", _integrate(rec)),
        ("hamrom.avf", "AvfStepper.step", _timed(rec, "avf.step", True, after_step)),
        ("hamrom.linalg", "LuFactorization.__init__",
         _timed(rec, "linalg.lu_factor", after=after_factor)),
        ("hamrom.linalg", "LuFactorization.solve", _timed(rec, "linalg.lu_solve", True)),
        ("hamrom.linalg", "thin_svd_snapshots", _timed(rec, "linalg.svd")),
        ("hamrom.systems", "eval_energy", _timed(rec, "systems.eval_energy", True)),
        ("hamrom.systems", "DiagonalQuadratic.eval", _timed(rec, "systems.quad_eval", True)),
        ("hamrom.systems", "TensorQuadratic.eval", _timed(rec, "systems.quad_eval", True)),
        ("hamrom.systems", "ProjectedQuadratic.eval", _timed(rec, "systems.quad_eval", True)),
        ("hamrom.pod", "collect_snapshots", _timed(rec, "pod.snapshots")),
        ("hamrom.pod", "collect_wave_snapshots", _timed(rec, "pod.snapshots")),
        ("hamrom.pod", "compute_basis", _timed(rec, "pod.basis")),
        ("hamrom.pod", "enrich_with_ic_residual", _timed(rec, "pod.enrich")),
        ("hamrom.rom", "reduce_operators", _timed(rec, "rom.reduce")),
        ("hamrom.rom", "run_rom", _timed(rec, "rom.run_rom")),
        ("hamrom.metrics", "e_inf_wave", _timed(rec, "metrics.e_inf")),
        ("hamrom.metrics", "e_inf_scalar", _timed(rec, "metrics.e_inf")),
        ("hamrom.metrics", "energy_report", _timed(rec, "metrics.energy_report")),
        ("hamrom.fileio", "write_matrix", _file_io(rec, "fileio.write_matrix", "write_bytes")),
        ("hamrom.fileio", "read_matrix", _file_io(rec, "fileio.read_matrix", "read_bytes")),
        ("hamrom.fileio", "write_energy_csv", _timed(rec, "fileio.csv")),
        ("hamrom.fileio", "write_report_csv", _timed(rec, "fileio.csv")),
        ("hamrom.fileio", "write_sweep_csv", _timed(rec, "fileio.csv")),
        ("hamrom.fileio", "write_tail_csv", _timed(rec, "fileio.csv")),
    ]
    with _rebound(bindings):
        yield


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(rec: Recorder, root_name: str = "workload") -> dict[str, float]:
    """The per-layer numbers of one traced workload call.

    Spans and hot calls come from the subtree of the root span ``root_name``;
    byte counters cover the whole instrumented block.
    ``linalg.fom_lu_solve_bytes`` is computed from the factor size, not
    measured.
    """
    root = rec.root(root_name)
    inside = rec.subtree(root)
    by_name: dict[str, list[dict]] = {}
    for index in sorted(inside):
        by_name.setdefault(rec.spans[index]["name"], []).append(rec.spans[index])

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ())) * 1e-9

    def own(name):
        return sum(s["self"] for s in by_name.get(name, ())) * 1e-9

    def hot(name, under=None, field=1):
        """Sum of a hot-call field; ``under`` filters by enclosing span name."""
        out = 0
        for (span, path), agg in rec.hot.items():
            if span in inside and path.rsplit(">", 1)[-1] == name and (
                    under is None or rec.spans[span]["name"] == under):
                out += agg[field]
        return out if field == 0 else out * 1e-9

    def hist(name):
        h = rec.histograms.get(name, {})
        n = sum(h.values())
        return (sum(k * v for k, v in h.items()) / n if n else 0.0), max(h, default=0)

    fom, rom = "avf.fom_integrate", "avf.rom_integrate"
    fom_solves = hot("linalg.lu_solve", fom, 0)
    n = rec.counters["fom_lu_dim"]
    fom_steps, rom_steps = hot("avf.step", fom, 0), hot("avf.step", rom, 0)
    fom_step_us = 1e6 * hot("avf.step", fom) / fom_steps if fom_steps else 0.0
    rom_step_us = 1e6 * hot("avf.step", rom) / rom_steps if rom_steps else 0.0
    fom_mean, fom_max = hist("fom_picard_iterations")
    rom_mean, _ = hist("rom_picard_iterations")

    # a cache lookup that integrated the full-order model was a miss
    misses = sum(
        1 for i in inside if rec.spans[i]["name"] == "experiments.fom_trajectory"
        and any(rec.spans[j]["name"] == fom for j in rec.subtree(i))
    )
    lookups = len(by_name.get("experiments.fom_trajectory", ()))

    layer_self = layer_self_times(rec, root_name)
    return {
        "avf.fom_integrate_calls": len(by_name.get(fom, ())),
        "avf.fom_integrate_s": total(fom),
        "avf.fom_step_us": fom_step_us,
        "avf.fom_picard_iters_mean": fom_mean,
        "avf.fom_picard_iters_max": fom_max,
        "avf.rom_step_us": rom_step_us,
        "avf.rom_picard_iters_mean": rom_mean,
        "avf.rom_integrate_self_s": own(rom) + hot("avf.step", rom, 2),
        "avf.rom_speedup": fom_step_us / rom_step_us if fom_step_us and rom_step_us else 0.0,
        "linalg.fom_lu_solve_calls": fom_solves,
        "linalg.fom_lu_solve_s": hot("linalg.lu_solve", fom),
        # triangular solves read the whole factor plus the rhs and the solution
        "linalg.fom_lu_solve_bytes": 8 * fom_solves * (n * n + 2 * n),
        "linalg.lu_factor_s": total("linalg.lu_factor"),
        "linalg.rom_lu_solve_s": hot("linalg.lu_solve", rom),
        "linalg.svd_calls": len(by_name.get("linalg.svd", ())),
        "linalg.svd_s": total("linalg.svd"),
        "systems.build_s": total("systems.build"),
        "systems.fom_energy_calls": hot("systems.eval_energy", fom, 0),
        "systems.fom_energy_s": hot("systems.eval_energy", fom),
        "systems.rom_energy_calls": hot("systems.eval_energy", rom, 0),
        "systems.rom_energy_s": hot("systems.eval_energy", rom),
        "systems.quad_eval_calls": hot("systems.quad_eval", None, 0),
        "systems.quad_eval_s": hot("systems.quad_eval"),
        "pod.snapshots_s": total("pod.snapshots"),
        "pod.basis_calls": len(by_name.get("pod.basis", ())),
        "pod.basis_s": total("pod.basis"),
        "pod.enrich_s": total("pod.enrich"),
        "rom.reduce_s": total("rom.reduce"),
        "rom.run_self_s": own("rom.run_rom"),
        "metrics.error_s": total("metrics.e_inf"),
        "fileio.write_s": total("fileio.write_matrix"),
        "fileio.write_bytes": rec.counters["write_bytes"],
        "fileio.read_s": total("fileio.read_matrix"),
        "fileio.read_bytes": rec.counters["read_bytes"],
        "fileio.csv_s": total("fileio.csv"),
        "experiments.cache_hits": lookups - misses,
        "experiments.cache_misses": misses,
        "experiments.self_s": layer_self.get("experiments", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "unattributed_s": layer_self.get("unattributed", 0.0),
    }


def layer_self_times(rec: Recorder, root_name: str = "workload") -> dict[str, float]:
    """Self time in seconds per layer; the benchmark's own frames are 'unattributed'."""
    out: Counter = Counter()
    for name, ns in rec.self_times(rec.root(root_name)).items():
        out[layer_of(name) or "unattributed"] += ns
    return {layer: ns * 1e-9 for layer, ns in out.items()}
