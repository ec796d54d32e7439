import logging
from dataclasses import replace

import numpy as np
import pytest

from hamrom.cli import main
from hamrom.experiments import (
    ExperimentConfig,
    RomSpec,
    default_mu_grid,
    fom_trajectory,
    mu_sweep,
    run_experiment,
    table_preset,
    tail_bound_check,
)
from hamrom.rom import RomVariant


def tiny_wave_cfg(out_dir, roms=("SP0:2", "GROM:2")):
    return ExperimentConfig(
        system="wave",
        c=0.1,
        n=16,
        length=1.0,
        dt=0.05,
        t_end=1.0,
        stride=5,
        roms=tuple(RomSpec.parse(r) for r in roms),
        out_dir=str(out_dir),
    )


CONFIG_TEXT = """\
# tiny wave benchmark
system = wave
c = 0.1
n = 16
length = 1.0
origin = 0.0
dt = 0.05
t_end = 1.0
stride = 5
roms = SP0:2, GROM:2:0.0
out_dir = {out}
"""


class TestConfig:
    def test_from_mapping_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {
                "system": "kdv",
                "alpha": "-6",
                "rho": "0",
                "nu": "-1",
                "n": "64",
                "length": "40",
                "origin": "-20",
                "dt": "0.02",
                "t_end": "1.0",
                "stride": "5",
                "roms": "SP2:3:0.5",
            }
        )
        assert cfg.system == "kdv"
        assert cfg.roms == (RomSpec(RomVariant.SP2, 3, 0.5),)

    def test_unknown_key_rejected(self):
        for key in ("bogus", "seed"):
            with pytest.raises(ValueError, match="unknown"):
                ExperimentConfig.from_mapping({"system": "wave", "c": "1", key: "1"})

    def test_system_required(self):
        with pytest.raises(ValueError, match="system"):
            ExperimentConfig.from_mapping({"n": "4"})

    def test_wave_requires_speed(self):
        with pytest.raises(ValueError, match="'c'"):
            ExperimentConfig(system="wave", n=16, length=1.0, dt=0.1, t_end=1.0, stride=1)

    def test_kdv_requires_coefficients(self):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(system="kdv", n=16, length=1.0, dt=0.1, t_end=1.0, stride=1)

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.n == 16
        assert len(cfg.roms) == 2

    def test_rom_spec_parse_errors(self):
        with pytest.raises(ValueError):
            RomSpec.parse("SP0")
        with pytest.raises(ValueError):
            RomSpec.parse("SP0:1:2:3")

    def test_table_presets(self):
        assert table_preset(1).system == "wave"
        assert table_preset(2).system == "kdv"
        with pytest.raises(ValueError):
            table_preset(3)

    def test_default_mu_grids(self):
        assert default_mu_grid("wave").size == 51
        assert default_mu_grid("kdv").size == 21


def _comparable(report):
    return (
        report.variant,
        report.r,
        report.mu,
        report.e_inf,
        report.energy_initial,
        report.max_energy_drift,
        report.energy_offset_vs_fom,
        report.failed,
    )


class TestRunExperiment:
    def test_deterministic(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "a")
        first = run_experiment(cfg)
        second = run_experiment(replace(cfg, out_dir=str(tmp_path / "b")))
        assert [_comparable(r) for r in first] == [_comparable(r) for r in second]

    def test_cache_transparency(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out")
        fresh = run_experiment(cfg)
        cached = run_experiment(cfg)  # second run loads the cached benchmark
        assert [_comparable(r) for r in fresh] == [_comparable(r) for r in cached]

    def test_cache_mismatch_recomputes(self, tmp_path, caplog):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        traj = fom_trajectory(cfg, stride=1)
        cache_dir = tmp_path / "out" / "cache"
        for meta in cache_dir.glob("*.meta"):
            meta.write_text("format=0;stale\n0\n")
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            again = fom_trajectory(cfg, stride=1)
        assert "recomputing" in caplog.text
        assert np.array_equal(traj.states, again.states)

    def test_corrupt_cache_recomputes(self, tmp_path, caplog):
        cfg = tiny_wave_cfg(tmp_path / "out")
        fresh = run_experiment(replace(cfg, out_dir=str(tmp_path / "fresh")))
        run_experiment(cfg)
        cache_dir = tmp_path / "out" / "cache"
        (states,) = cache_dir.glob("*.states.hrom")
        states.write_bytes(states.read_bytes()[:-8])
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            again = run_experiment(cfg)
        assert "unreadable cache" in caplog.text
        assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]
        # the recompute rewrote the cache; now break the iteration-count line
        (meta,) = cache_dir.glob("*.meta")
        meta.write_text(meta.read_text().splitlines()[0] + "\nnot-a-count\n")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            again = run_experiment(cfg)
        assert "unreadable cache" in caplog.text
        assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]

    def test_outputs_written(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out")
        run_experiment(cfg)
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "fom_energy.csv").exists()
        assert (tmp_path / "out" / "energy_sp0_r2_mu0.csv").exists()

    def test_fom_only_config(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        assert run_experiment(cfg) == []
        assert (tmp_path / "out" / "fom_energy.csv").exists()
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_failure_isolation(self, tmp_path):
        # r beyond the snapshot rank fails that row; the rest still run
        cfg = tiny_wave_cfg(tmp_path / "out", roms=("SP0:50", "SP0:2"))
        reports = run_experiment(cfg)
        assert reports[0].failed and np.isnan(reports[0].e_inf)
        assert not reports[1].failed and np.isfinite(reports[1].e_inf)

    def test_all_variants_run_on_tiny_kdv(self, tmp_path):
        cfg = ExperimentConfig(
            system="kdv", alpha=-6.0, rho=0.0, nu=-1.0, n=32, length=40.0,
            origin=-20.0, dt=0.05, t_end=1.0, stride=4,
            roms=tuple(RomSpec.parse(s) for s in ("GROM:3", "SP0:3", "SP1:3", "SP2:3")),
            out_dir=str(tmp_path / "out"),
        )
        reports = run_experiment(cfg)
        assert all(not r.failed for r in reports)
        sp_rows = [r for r in reports if r.variant != "G-ROM"]
        assert all(r.max_energy_drift <= 1e-9 for r in sp_rows)


class TestSweep:
    def test_singleton_matches_direct_run(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=("SP0:2:0.3",))
        direct = run_experiment(cfg)[0]
        rows = mu_sweep(cfg, mu_grid=[0.3], variant=RomVariant.SP0, r=2)
        assert rows[0][0] == 0.3
        assert rows[0][1] == direct.e_inf

    def test_rows_sorted_and_reused_fom(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        rows = mu_sweep(cfg, mu_grid=[0.2, 0.0, 0.1], variant=RomVariant.SP0, r=2)
        assert [m for m, _ in rows] == [0.0, 0.1, 0.2]

    def test_negative_mu_rejected(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        with pytest.raises(ValueError):
            mu_sweep(cfg, mu_grid=[-0.1], variant=RomVariant.SP0, r=2)

    def test_sweep_csv(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        mu_sweep(cfg, mu_grid=[0.0, 0.1], variant=RomVariant.SP0, r=2, write_outputs=True)
        assert (tmp_path / "out" / "sweep_mu_sp0_r2.csv").exists()


class TestTailCheck:
    def test_columns_and_csv(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        rows = tail_bound_check(cfg, [1, 2, 3], write_outputs=True)
        assert [r for r, *_ in rows] == [1, 2, 3]
        errs = [row[1] for row in rows]
        tails = [row[2] for row in rows]
        assert all(np.isfinite(row[3]) for row in rows)
        assert np.all(np.diff(errs) < 0)
        assert np.all(np.diff(tails) < 0)
        assert (tmp_path / "out" / "tail_check.csv").exists()


class TestCli:
    def write_cfg(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        return path

    def test_fom_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["fom", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "fom_states.hrom").exists()
        assert (tmp_path / "out" / "fom_energy.csv").exists()
        assert "full-order run" in capsys.readouterr().out

    def test_rom_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["rom", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "SP-ROM-0" in out and "G-ROM" in out
        assert (tmp_path / "out" / "report.csv").exists()

    def test_rom_override(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["rom", "--config", str(cfg), "--variant", "SP2", "--r", "2"]) == 0
        assert "SP-ROM-2" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out_dir = tmp_path / "sweep"
        code = main(
            ["sweep-mu", "--config", str(cfg), "--variant", "SP0", "--r", "2",
             "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "sweep_mu_sp0_r2.csv").exists()
        assert "min E_inf" in capsys.readouterr().out

    def test_tail_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["tail-check", "--config", str(cfg), "--r", "1,2"]) == 0
        assert (tmp_path / "out" / "tail_check.csv").exists()

    def test_table_command(self, tmp_path, capsys, monkeypatch):
        # patch the preset to the tiny system so the smoke test stays fast
        import hamrom.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "table_preset", lambda table_id: tiny_wave_cfg(tmp_path / "t")
        )
        assert main(["table", "--table-id", "1"]) == 0
        assert "benchmark table 1" in capsys.readouterr().out

    def test_rom_requires_specs(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "system = wave\nc = 0.1\nn = 16\nlength = 1\ndt = 0.05\n"
            f"t_end = 1.0\nstride = 5\nout_dir = {tmp_path/'out'}\n"
        )
        with pytest.raises(SystemExit):
            main(["rom", "--config", str(path)])
