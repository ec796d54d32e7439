"""Command-line entry point.

Subcommands: ``fom`` (full-order run), ``rom`` (reduced runs + report),
``sweep-mu`` (gradient-weight sweep), ``table`` (benchmark table presets),
``tail-check`` (error vs singular-value tail).  See the README for the
configuration-file format.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .experiments import (
    ExperimentConfig,
    RomSpec,
    build_system,
    fom_trajectory,
    mu_sweep,
    run_experiment,
    table_preset,
    tail_bound_check,
)
from .fileio import write_energy_csv, write_matrix
from .rom import RomVariant

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="configuration file path")
    parser.add_argument("--out", default=None, help="output directory (overrides the configuration)")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    build_system(cfg)  # the system's own rules (wave speed, unit interval), about 2 ms
    return cfg


def _run_reports(cfg: ExperimentConfig, title: str = "") -> int:
    """Run the configured ROMs and print one row each; 1 if any row failed."""
    reports = run_experiment(cfg)
    if title:
        print(title)
    print(f"{'variant':10s} {'r':>4s} {'mu':>8s} {'E_inf':>12s} {'H(0)':>12s} {'drift':>10s} {'offset':>12s}")
    for rep in reports:
        status = "  FAILED" if rep.failed else ""
        print(
            f"{rep.variant:10s} {rep.r:4d} {rep.mu:8.4f} {rep.e_inf:12.6g} "
            f"{rep.energy_initial:12.6g} {rep.max_energy_drift:10.3g} "
            f"{rep.energy_offset_vs_fom:12.5g}{status}"
        )
    print(f"wrote {Path(cfg.out_dir) / 'report.csv'}")
    return 1 if any(rep.failed for rep in reports) else 0


def _run_fom(cfg: ExperimentConfig) -> int:
    traj = fom_trajectory(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "fom_states.hrom", traj.states)
    write_energy_csv(out / "fom_energy.csv", traj.energy_times, traj.energies)
    drift = float(np.abs(traj.energies - traj.energies[0]).max())
    print(
        f"{cfg.system} full-order run: {traj.steps_total} steps, "
        f"{traj.times.size} recorded states, H(0) = {traj.energies[0]:.6g}, "
        f"max energy drift = {drift:.3e}"
    )
    print(f"wrote {out / 'fom_states.hrom'} and {out / 'fom_energy.csv'}")
    return 0


def _run_sweep(cfg: ExperimentConfig, spec: RomSpec) -> int:
    rows = mu_sweep(cfg, variant=spec.variant, r=spec.r)
    finite = [row for row in rows if np.isfinite(row[1])]
    if finite:
        best = min(finite, key=lambda row: row[1])
        print(f"{len(rows)} sweep points; min E_inf = {best[1]:.6g} at mu = {best[0]:g}")
    print(f"wrote {Path(cfg.out_dir) / f'sweep_mu_{spec.variant.name.lower()}_r{spec.r}.csv'}")
    return 0 if len(finite) == len(rows) else 1


def _run_tail(cfg: ExperimentConfig, r_list: list[int]) -> int:
    rows = tail_bound_check(cfg, r_list)
    print(f"{'r':>4s} {'integrated_error':>18s} {'sigma_tail':>14s} {'ratio':>10s}")
    for r, err, tail, ratio in rows:
        print(f"{r:4d} {err:18.6e} {tail:14.6e} {ratio:10.4g}")
    print(f"wrote {Path(cfg.out_dir) / 'tail_check.csv'}")
    return 0 if all(np.isfinite(row[1]) for row in rows) else 1


# Each command reads its options and configuration into the run it returns;
# a ValueError or OSError there is a usage error (see main).


def _cmd_fom(args):
    return partial(_run_fom, _load_config(args))


def _cmd_rom(args):
    cfg = _load_config(args)
    if args.variant is not None or args.r is not None or args.mu is not None:
        if args.variant is None or args.r is None:
            raise ValueError("--variant and --r must be given together (and with --mu)")
        spec = RomSpec(variant=RomVariant.parse(args.variant), r=args.r, mu=args.mu or 0.0)
        cfg = replace(cfg, roms=(spec,))
    if not cfg.roms:
        raise ValueError("no ROMs requested: set 'roms' in the configuration or pass --variant/--r")
    return partial(_run_reports, cfg)


def _cmd_sweep_mu(args):
    spec = RomSpec(variant=RomVariant.parse(args.variant), r=args.r)
    return partial(_run_sweep, _load_config(args), spec)


def _cmd_table(args):
    cfg = table_preset(args.table_id)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    return partial(_run_reports, cfg, f"benchmark table {args.table_id} ({cfg.system}):")


def _cmd_tail_check(args):
    cfg = _load_config(args)
    r_list = [RomSpec(RomVariant.SP0, int(part)).r for part in args.r.split(",")]
    return partial(_run_tail, cfg, r_list)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamrom",
        description="Structure-preserving reduced-order models for Hamiltonian PDE benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fom = sub.add_parser("fom", help="run the full-order model and store its trajectory")
    _add_common(p_fom)
    p_fom.set_defaults(func=_cmd_fom)

    p_rom = sub.add_parser("rom", help="run reduced models and write the comparison report")
    _add_common(p_rom)
    p_rom.add_argument("--variant", default=None, help="ROM variant (GROM, SP0, SP1, SP2)")
    p_rom.add_argument("--r", type=int, default=None, help="reduced dimension")
    p_rom.add_argument("--mu", type=float, default=None, help="gradient snapshot weight")
    p_rom.set_defaults(func=_cmd_rom)

    p_sweep = sub.add_parser("sweep-mu", help="sweep the gradient snapshot weight")
    _add_common(p_sweep)
    p_sweep.add_argument("--variant", default="SP0", help="ROM variant to sweep (default SP0)")
    p_sweep.add_argument("--r", type=int, required=True, help="reduced dimension")
    p_sweep.set_defaults(func=_cmd_sweep_mu)

    p_table = sub.add_parser("table", help="reproduce a benchmark comparison table")
    p_table.add_argument("--table-id", type=int, choices=(1, 2), required=True)
    p_table.add_argument("--out", default=None, help="output directory")
    p_table.set_defaults(func=_cmd_table)

    p_tail = sub.add_parser("tail-check", help="integrated error vs singular-value tail")
    _add_common(p_tail)
    p_tail.add_argument("--r", default="5,10,15,20",
                        help="comma-separated basis sizes (default 5,10,15,20)")
    p_tail.set_defaults(func=_cmd_tail_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = args.func(args)
    except (ValueError, OSError) as exc:  # a bad option, config value or config file
        parser.error(str(exc))
    return run()


if __name__ == "__main__":
    sys.exit(main())
