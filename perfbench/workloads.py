"""The three benchmark workloads: inputs from a seed, the public call, checks.

Each workload runs in a fresh process (see ``child.py``).  ``prepare`` is
set-up, timed into ``setup_s``; ``call`` is the one public entry-point call
timed into ``wall_s``; ``check`` inspects the program's outputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Values of the seed commit (2 OpenBLAS threads) for Table 1 and Table 2:
# variant -> (E_inf, H(0)).  The tables take no seed; these never change with it.
SEED_TABLE_VALUES = {
    1: {
        "G-ROM": (0.45905874303040312, 0.067865507372906378),
        "SP-ROM-0": (0.26061752293779838, 0.067865507372906378),
        "SP-ROM-1": (0.41378451960635454, 0.074990001999999972),
        "SP-ROM-2": (0.1525709845344424, 0.074990001999999972),
    },
    2: {
        "G-ROM": (0.032891993312681334, -1.130998736900906),
        "SP-ROM-0": (0.057424366526895976, -1.130998736900906),
        "SP-ROM-1": (0.049175464099702415, -1.1313888074955167),
        "SP-ROM-2": (0.034530331545243875, -1.1313888074955147),
    },
}
# Switching BLAS thread counts moves KdV E_inf by up to 1e-7 relative and a
# LAPACK thin SVD in place of the method of snapshots by 1e-11; 1e-4 leaves
# room for solver and ordering changes while catching a wrong model.
E_INF_RTOL = 1e-4
H0_RTOL = 1e-8
SP_DRIFT_MAX = 1e-10
FOM_DRIFT_MAX = {1: 1e-9, 2: 1e-8}

# The paper's Table 2 (KdV, r=40) E_inf targets, printed for information only:
# the G-ROM miss of acceptance criterion 10 stays visible, not gated.
PAPER_TABLE2_E_INF = {"G-ROM": 0.02964, "SP-ROM-0": 0.0564, "SP-ROM-1": 0.050168,
                      "SP-ROM-2": 0.036574}

SWEEP_POINTS = 51
SWEEP_ARGMIN_RANGE = (0.04, 0.12)
SWEEP_MIN_TARGET = 0.2480
SWEEP_MIN_RTOL = 0.10


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)  # numpy comparisons give numpy booleans


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def _cache_listing(cache: Path) -> dict[str, tuple[int, int]]:
    if not cache.is_dir():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in sorted(cache.iterdir())}


class TableWorkload:
    """``hamrom table --table-id N`` into an empty output directory (cold cache)."""

    def __init__(self, name: str, table_id: int):
        self.name, self.table_id = name, table_id

    def prepare(self, work: Path, seed: int) -> dict:
        # the tables are the paper's fixed inputs: the seed has no effect here
        out = work / "out"
        return {"out": out, "cache_before": _cache_listing(out / "cache")}

    def call(self, state: dict):
        from hamrom.cli import main

        return main(["table", "--table-id", str(self.table_id), "--out", str(state["out"])])

    def rows(self, state: dict, result) -> list[dict]:
        return _read_csv(state["out"] / "report.csv")

    def check(self, state: dict, result) -> list[Check]:
        out = state["out"]
        checks = [
            Check("cold cache at start", not state["cache_before"],
                  f"{len(state['cache_before'])} cache files before the call"),
            Check("exit code 0", result == 0, f"cli returned {result}"),
            Check("cache written", bool(_cache_listing(out / "cache"))),
        ]
        fom = _read_csv(out / "fom_energy.csv")
        h = np.array([float(row["H"]) for row in fom])
        drift = float(np.abs(h - h[0]).max())
        limit = FOM_DRIFT_MAX[self.table_id]
        checks.append(Check("FOM energy drift", drift <= limit, f"{drift:.3e} <= {limit:g}"))
        reference = SEED_TABLE_VALUES[self.table_id]
        rows = {row["variant"]: row for row in self.rows(state, result)}
        checks.append(Check("one row per variant", sorted(rows) == sorted(reference),
                            f"rows {sorted(rows)}"))
        for variant, (e_ref, h_ref) in reference.items():
            if variant not in rows:
                continue
            row = rows[variant]
            e_inf, h0, drift = float(row["e_inf"]), float(row["H0"]), float(row["max_drift"])
            checks.append(Check(f"{variant} E_inf", _close(e_inf, e_ref, E_INF_RTOL),
                                f"{e_inf:.10g} vs seed {e_ref:.10g} (rtol {E_INF_RTOL:g})"))
            checks.append(Check(f"{variant} H(0)", _close(h0, h_ref, H0_RTOL),
                                f"{h0:.12g} vs seed {h_ref:.12g} (rtol {H0_RTOL:g})"))
            if variant != "G-ROM":
                checks.append(Check(f"{variant} energy drift", drift <= SP_DRIFT_MAX,
                                    f"{drift:.3e} <= {SP_DRIFT_MAX:g}"))
        return checks

    def info(self, state: dict, result) -> list[str]:
        if self.table_id != 2:
            return []
        lines = []
        for row in self.rows(state, result):
            target = PAPER_TABLE2_E_INF.get(row["variant"])
            if target is not None:
                e_inf = float(row["e_inf"])
                lines.append(f"paper Table 2 {row['variant']}: E_inf {e_inf:.6f} vs {target} "
                             f"({(e_inf - target) / target:+.2%}, not gated)")
        return lines


class SweepWorkload:
    """``mu_sweep(SP0, r=5)`` on the wave benchmark with the FOM cache primed."""

    name = "wave-musweep-warm"

    @staticmethod
    def mu_grid(seed: int) -> np.ndarray:
        """Seed 0 is the paper grid; other seeds draw sorted uniform weights."""
        if seed == 0:
            return np.linspace(0.0, 0.2, SWEEP_POINTS)
        return np.sort(np.random.default_rng(seed).uniform(0.0, 0.2, SWEEP_POINTS))

    def prepare(self, work: Path, seed: int) -> dict:
        from hamrom.experiments import ExperimentConfig, fom_trajectory, table_preset

        preset = table_preset(1)
        config = work / "sweep.cfg"
        keys = ("system", "c", "n", "length", "origin", "dt", "t_end", "stride", "picard_tol")
        lines = [f"{key} = {getattr(preset, key)}" for key in keys]
        config.write_text("\n".join(lines + [f"out_dir = {work / 'out'}"]) + "\n",
                          encoding="utf-8")
        cfg = ExperimentConfig.from_file(config)
        fom_trajectory(cfg, stride=1)  # prime the cache: this workload is warm
        return {"cfg": cfg, "grid": self.mu_grid(seed),
                "cache_before": _cache_listing(work / "out" / "cache")}

    def call(self, state: dict):
        from hamrom.experiments import mu_sweep
        from hamrom.rom import RomVariant

        return mu_sweep(state["cfg"], mu_grid=state["grid"], variant=RomVariant.SP0, r=5)

    def rows(self, state: dict, result) -> list[dict]:
        return [{"mu": mu, "e_inf": e} for mu, e in result]

    def check(self, state: dict, result) -> list[Check]:
        cache_after = _cache_listing(Path(state["cfg"].out_dir) / "cache")
        checks = [
            Check("warm cache primed", bool(state["cache_before"])),
            Check("no cache miss (cache untouched)", cache_after == state["cache_before"]),
            Check("one row per weight", len(result) == len(state["grid"]),
                  f"{len(result)} rows for {len(state['grid'])} weights"),
        ]
        mus = np.array([mu for mu, _ in result])
        errs = np.array([e for _, e in result])
        checks.append(Check("every point finite", bool(np.all(np.isfinite(errs)))))
        if np.any(np.isfinite(errs)):
            best = int(np.nanargmin(errs))
            lo, hi = SWEEP_ARGMIN_RANGE
            checks.append(Check("argmin mu", lo <= mus[best] <= hi,
                                f"{mus[best]:.4f} in [{lo}, {hi}]"))
            checks.append(Check("min E_inf", _close(errs[best], SWEEP_MIN_TARGET, SWEEP_MIN_RTOL),
                                f"{errs[best]:.5f} within {SWEEP_MIN_RTOL:.0%} of "
                                f"{SWEEP_MIN_TARGET}"))
        return checks

    def info(self, state: dict, result) -> list[str]:
        return []


WORKLOADS = {
    w.name: w for w in (
        # The KdV FOM (n=2000, Picard, dense LU) is ~84% of the run: the only
        # workload with full-order Picard iterations and r^3-tensor ROMs.
        TableWorkload("kdv-table2-cold", 2),
        # The linear branch of the same stepper (no Picard) plus r=5 linear
        # ROMs: a Picard-only change should leave it flat, a sparse FOM not.
        TableWorkload("wave-table1-cold", 1),
        # Never integrates the FOM (it reads the cache): ROM runs, SVDs and
        # error evaluation; a FOM-only change should leave its wall_s flat.
        SweepWorkload(),
    )
}
