import logging
from dataclasses import fields, replace

import numpy as np
import pytest

import hamrom.experiments as experiments
from hamrom.avf import integrate
from hamrom.cli import main
from hamrom.experiments import (
    ExperimentConfig,
    RomSpec,
    build_system,
    default_mu_grid,
    fom_trajectory,
    mu_sweep,
    run_experiment,
    table_preset,
    tail_bound_check,
)
from hamrom.linalg import NumericalError, RankError
from hamrom.rom import RomVariant, run_rom


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

    def test_every_field_parses(self):
        # a field the flat-text parser cannot read fails here, not silently
        for cfg in (table_preset(1), table_preset(2)):
            mapping = {f.name: str(getattr(cfg, f.name)) for f in fields(cfg)
                       if getattr(cfg, f.name) is not None}
            mapping["roms"] = ", ".join(f"{s.variant.name}:{s.r}:{s.mu}" for s in cfg.roms)
            assert ExperimentConfig.from_mapping(mapping) == cfg

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

    def test_cache_key_names_every_trajectory_field(self):
        cfg = tiny_wave_cfg("out")
        key = cfg.cache_key()
        for name in ("system", "n", "length", "dt", "t_end", "origin", "c", "alpha",
                     "rho", "nu", "picard_tol"):
            assert f";{name}=" in key
        # the ROM list, the output directory and the snapshot stride leave
        # the every-step trajectory unchanged
        assert "stride" not in key and "roms" not in key and "out_dir" not in key
        assert replace(cfg, stride=2, roms=(), out_dir="elsewhere").cache_key() == key
        assert replace(cfg, picard_tol=1e-10).cache_key() != key

    def test_cache_key_canonical_in_float_fields(self, tmp_path):
        # integers in code and numerals in a config file are one run, one entry
        out = str(tmp_path / "out")
        in_code = ExperimentConfig(system="wave", c=1, n=16, length=1, dt=0.05, t_end=1,
                                   stride=5, out_dir=out)
        from_text = ExperimentConfig.from_mapping(
            {"system": "wave", "c": "1", "n": "16", "length": "1", "dt": "0.05",
             "t_end": "1", "stride": "5", "out_dir": out})
        assert in_code.cache_key() == from_text.cache_key()
        assert isinstance(in_code.c, float) and in_code.alpha is None
        fom_trajectory(in_code)
        fom_trajectory(from_text)
        assert len(list((tmp_path / "out" / "cache").iterdir())) == 3

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

    def test_cache_not_served_across_solvers(self, tmp_path, monkeypatch):
        calls = []

        def counting_integrate(*args, **kwargs):
            calls.append(experiments.FOM_SOLVER)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(experiments, "integrate", counting_integrate)
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        with monkeypatch.context() as patched:
            patched.setattr(experiments, "FOM_SOLVER", "avf-other")
            assert "solver=avf-other" in cfg.cache_key()
            fom_trajectory(cfg, stride=1)
        fom_trajectory(cfg, stride=1)  # the other solver's cache is not read
        fom_trajectory(cfg, stride=1)  # this solver's cache is
        assert calls == ["avf-other", experiments.FOM_SOLVER]
        assert not list((tmp_path / "out" / "cache").glob("*.tmp"))

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
        # a meta file that is not UTF-8 text
        meta.write_bytes(b"\xff\xfe\x00bad")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            again = run_experiment(cfg)
        assert "unreadable cache" in caplog.text
        assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]

    @pytest.mark.parametrize("stride", [1, 3, 10, 20])
    def test_stride_views(self, tmp_path, stride):
        # 10 steps; strides 3 and 20 do not divide the step count
        cfg = replace(tiny_wave_cfg(tmp_path / "out", roms=()), dt=0.02, t_end=0.2)
        view = fom_trajectory(cfg, stride=stride)
        flow, u0, _ = build_system(cfg)
        recorded = integrate(flow, u0, replace(cfg.scheme(), snapshot_stride=stride))
        for traj in (view, recorded):
            assert traj.steps_total == 10
            assert traj.energy_times[-1] == cfg.t_end
            assert np.array_equal(traj.energy_times, cfg.dt * np.arange(11))
        # the view is what an integration recorded at that stride gives
        assert np.array_equal(view.times, recorded.times)
        assert np.array_equal(view.states, recorded.states)
        assert np.array_equal(view.energies, recorded.energies)
        with pytest.raises(ValueError, match="stride"):
            fom_trajectory(cfg, stride=0)

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

    def test_comparison_errors_propagate(self, tmp_path, monkeypatch):
        # a ROM run recorded at other times than the benchmark is a programming
        # error of the comparison, not a failed row
        def misrecorded(model, scheme, initial_state=None):
            traj = run_rom(model, scheme, initial_state=initial_state)
            return replace(traj, times=traj.times[:-1], states=traj.states[:, :-1])

        monkeypatch.setattr(experiments, "run_rom", misrecorded)
        cfg = tiny_wave_cfg(tmp_path / "out", roms=("SP0:2",))
        with pytest.raises(ValueError, match="different times"):
            run_experiment(cfg)
        with pytest.raises(ValueError, match="different times"):
            mu_sweep(cfg, mu_grid=[0.0, 0.1], variant=RomVariant.SP0, r=2)
        kdv = replace(cfg, system="kdv", alpha=-6.0, rho=0.0, nu=-1.0, length=40.0,
                      origin=-20.0, n=32, roms=(RomSpec.parse("SP0:3"),))
        with pytest.raises(ValueError, match="different times"):
            run_experiment(kdv)

    def test_build_errors_propagate(self, tmp_path, monkeypatch):
        # a ValueError in the model build is a programming error, not a failed row
        def broken(flow, bases, variant):
            raise ValueError("broken reduction")

        monkeypatch.setattr(experiments, "reduce_operators", broken)
        cfg = tiny_wave_cfg(tmp_path / "out", roms=("SP0:2",))
        with pytest.raises(ValueError, match="broken reduction"):
            run_experiment(cfg)
        with pytest.raises(ValueError, match="broken reduction"):
            mu_sweep(cfg, mu_grid=[0.0, 0.1], variant=RomVariant.SP0, r=2)

    def test_rank_failure_is_numerical(self, tmp_path):
        assert issubclass(RankError, NumericalError)
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        rows = mu_sweep(cfg, mu_grid=[0.0, 0.1], variant=RomVariant.SP0, r=50)
        assert all(np.isnan(e) for _, e in rows)

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

    def test_non_finite_mu_rejected(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                mu_sweep(cfg, mu_grid=[bad, 0.0], variant=RomVariant.SP0, r=2)
        assert not (tmp_path / "out").exists()  # rejected before the full-order run

    def test_non_finite_spec_rejected(self):
        for text in ("SP0:2:nan", "SP0:2:inf", "SP0:2:-inf", "SP0:2:-0.1"):
            with pytest.raises(ValueError, match="finite"):
                RomSpec.parse(text)

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

    def test_sweep_command_fails_on_a_failed_point(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        # r=50 exceeds the rank of the tiny snapshot sets: every point fails
        code = main(["sweep-mu", "--config", str(cfg), "--r", "50"])
        assert code == 1
        assert (tmp_path / "out" / "sweep_mu_sp0_r50.csv").exists()

    def test_fom_then_rom_integrate_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_integrate(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        # the full-order integration; the reduced runs integrate through hamrom.rom
        monkeypatch.setattr(experiments, "integrate", counting_integrate)
        cfg = self.write_cfg(tmp_path)
        assert main(["fom", "--config", str(cfg)]) == 0
        assert main(["rom", "--config", str(cfg)]) == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "out" / "cache").iterdir())) == 3

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
