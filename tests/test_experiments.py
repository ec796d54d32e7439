import logging
import os
import shutil
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import hamrom.avf as avf
import hamrom.experiments as experiments
import hamrom.linalg as linalg
import hamrom.metrics as metrics
from hamrom.avf import StepFailure, integrate
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
from hamrom.fileio import read_matrix, write_matrix
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


def tiny_kdv_cfg(out_dir, roms=("GROM:3", "SP0:3", "SP1:3", "SP2:3")):
    return ExperimentConfig(
        system="kdv", alpha=-6.0, rho=0.0, nu=-1.0, n=32, length=40.0,
        origin=-20.0, dt=0.05, t_end=1.0, stride=4,
        roms=tuple(RomSpec.parse(s) for s in roms),
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


def _count_integrations(monkeypatch) -> list:
    """The full-order integrations from here on (the reduced runs integrate
    through hamrom.rom)."""
    calls = []

    def counting_integrate(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", counting_integrate)
    return calls


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

    def test_cache_key_canonical_in_integer_fields(self):
        # a NumPy integer is the same run as the Python int of its value
        preset = table_preset(1)
        cfg = replace(preset, n=np.int64(500), stride=np.int32(50))
        assert cfg.cache_key() == preset.cache_key()
        assert type(cfg.n) is int and type(cfg.stride) is int
        spec = RomSpec(RomVariant.SP0, np.int64(5))
        assert type(spec.r) is int and spec == RomSpec(RomVariant.SP0, 5)

    def test_non_integer_count_rejected(self):
        # n=500.0 used to pass here and fail with a TypeError in build_system
        preset = table_preset(1)
        for name in ("n", "stride"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                replace(preset, **{name: float(getattr(preset, name))})
        with pytest.raises(ValueError, match="dimension must be an integer"):
            RomSpec(RomVariant.SP0, 5.0)

    def test_bool_count_rejected(self):
        # a bool passes operator.index: stride=True used to give stride 1
        with pytest.raises(ValueError, match="stride must be an integer"):
            replace(table_preset(1), stride=True)

    def test_bool_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            RomSpec(RomVariant.SP0, True)

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

    def test_solver_tag_is_a_digest_of_the_solver_code(self, tmp_path, monkeypatch):
        names = ("avf.py", "systems.py", "linalg.py")
        for name in names:
            shutil.copy(Path(experiments.__file__).with_name(name), tmp_path / name)
        assert experiments._solver_tag(tmp_path) == experiments.FOM_SOLVER
        assert len(experiments.FOM_SOLVER) == 16
        int(experiments.FOM_SOLVER, 16)
        for name in names:
            path = tmp_path / name
            data = path.read_bytes()
            path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))  # one byte changed
            assert experiments._solver_tag(tmp_path) != experiments.FOM_SOLVER
            path.write_bytes(data)
        with monkeypatch.context() as patched:
            patched.setattr(experiments.np, "__version__", experiments.np.__version__ + "+other")
            assert experiments._solver_tag(tmp_path) != experiments.FOM_SOLVER
        # no full-order step calls SciPy: its release does not name the run
        import scipy

        with monkeypatch.context() as patched:
            patched.setattr(scipy, "__version__", scipy.__version__ + "+other")
            assert experiments._solver_tag(tmp_path) == experiments.FOM_SOLVER
        assert experiments._solver_tag(tmp_path) == experiments.FOM_SOLVER

    def test_solver_tag_names_the_blas_build(self, tmp_path, monkeypatch):
        for name in ("avf.py", "systems.py", "linalg.py"):
            shutil.copy(Path(experiments.__file__).with_name(name), tmp_path / name)
        config = experiments.np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        assert blas["name"] in experiments._blas_build()
        for key in ("name", "version"):
            other = {**config, "Build Dependencies": {
                **config["Build Dependencies"], "blas": {**blas, key: f"{blas[key]}+other"}}}
            with monkeypatch.context() as patched:
                patched.setattr(experiments.np, "show_config", lambda mode: other)
                assert experiments._solver_tag(tmp_path) != experiments.FOM_SOLVER
        assert experiments._solver_tag(tmp_path) == experiments.FOM_SOLVER

    def test_cache_entry_that_cannot_be_read_or_written(self, tmp_path, caplog):
        # a directory in place of the states file: the read fails and the
        # rewrite fails; both are logged and the run goes on uncached
        cfg = tiny_wave_cfg(tmp_path / "out")
        fresh = run_experiment(replace(cfg, out_dir=str(tmp_path / "fresh")))
        run_experiment(cfg)
        (states,) = (tmp_path / "out" / "cache").glob("*.states.hrom")
        states.unlink()
        states.mkdir()
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            again = run_experiment(cfg)
        assert "unreadable cache" in caplog.text and "could not write cache" in caplog.text
        assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]
        assert not list(states.parent.glob("*.tmp"))  # the streamed file went with the run
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        assert main(["fom", "--config", str(path)]) == 0
        assert states.is_dir()

    def test_cache_that_cannot_be_written_streams_to_a_temporary_file(self, tmp_path, caplog,
                                                                       monkeypatch):
        cfg = tiny_wave_cfg(tmp_path / "out")
        fresh = run_experiment(replace(cfg, out_dir=str(tmp_path / "fresh")))
        integrations = _count_integrations(monkeypatch)
        calls = []

        class Unwritable(experiments.MatrixWriter):
            """No file beside the cache entry can be made; the anonymous one can."""

            def __init__(self, path, rows, cols):
                calls.append(path)
                if path is not None:
                    raise PermissionError("read-only cache")
                super().__init__(path, rows, cols)

        monkeypatch.setattr(experiments, "MatrixWriter", Unwritable)
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            again = run_experiment(cfg)
        assert "could not write cache" in caplog.text and "read-only cache" in caplog.text
        assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]
        assert calls[1] is None and len(calls) == 2
        assert len(integrations) == 1  # the full-order model, straight into the temporary file
        assert list((tmp_path / "out" / "cache").iterdir()) == []

    def test_cache_directory_that_cannot_be_made_streams_to_a_temporary_file(
            self, tmp_path, caplog, monkeypatch):
        # a regular file where the cache directory belongs
        cfg = tiny_wave_cfg(tmp_path / "out")
        fresh = fom_trajectory(replace(cfg, out_dir=str(tmp_path / "fresh")))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "cache").write_bytes(b"not a directory")
        integrations = _count_integrations(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            traj = fom_trajectory(cfg)
        assert "could not write cache" in caplog.text
        assert len(integrations) == 1
        assert np.array_equal(traj.states, fresh.states)
        assert np.array_equal(traj.energies, fresh.energies)
        assert (tmp_path / "out" / "cache").read_bytes() == b"not a directory"

    def test_warm_run_opens_the_cache_once(self, tmp_path, monkeypatch):
        # one lookup validates the entry and serves both the snapshot view and
        # the every-step reference from one open file
        cfg = tiny_wave_cfg(tmp_path / "out")
        fresh = run_experiment(cfg)
        integrations = _count_integrations(monkeypatch)
        opened = []

        class Counted(experiments.MatrixReader):
            @classmethod
            def open(cls, path):
                opened.append(path)
                return super().open(path)

        monkeypatch.setattr(experiments, "MatrixReader", Counted)
        again = run_experiment(cfg)
        assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]
        assert integrations == [] and len(opened) == 1

    def test_stream_that_fails_midway_runs_again_into_a_temporary_file(self, tmp_path, caplog,
                                                                       monkeypatch):
        monkeypatch.setattr(avf, "_ENERGY_BLOCK_ENTRIES", 64)  # several blocks
        cfg = tiny_wave_cfg(tmp_path / "out")
        fresh = run_experiment(replace(cfg, out_dir=str(tmp_path / "fresh")))

        class DiskFull(experiments.MatrixWriter):
            def write(self, block):
                if self.path is not None and self.written:
                    raise OSError("disk full")
                super().write(block)

        monkeypatch.setattr(experiments, "MatrixWriter", DiskFull)
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            again = run_experiment(cfg)
        assert "could not write cache" in caplog.text and "disk full" in caplog.text
        assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]
        fresh_view = fom_trajectory(replace(cfg, out_dir=str(tmp_path / "fresh")))
        assert np.array_equal(fom_trajectory(cfg).states, fresh_view.states)
        assert list((tmp_path / "out" / "cache").iterdir()) == []

    def test_reference_outlives_a_replaced_cache_entry(self, tmp_path):
        # another process may replace the cache entry while a run reads it
        cfg = tiny_wave_cfg(tmp_path / "out")
        fresh = run_experiment(replace(cfg, out_dir=str(tmp_path / "fresh")))
        run_experiment(cfg)
        (states,) = (tmp_path / "out" / "cache").glob("*.states.hrom")
        with experiments._references(cfg) as ref:
            other = tmp_path / "other.hrom"
            write_matrix(other, 2.0 * read_matrix(states))
            os.replace(other, states)
            again = [report for report, _ in experiments._run_all(cfg, ref, cfg.roms)]
        assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]

    @pytest.mark.parametrize("system", ["wave", "kdv"])
    def test_stored_reference_compares_as_the_in_memory_run(self, tmp_path, system):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=("SP0:3",))
        if system == "kdv":
            cfg = replace(cfg, system="kdv", alpha=-6.0, rho=0.0, nu=-1.0, length=40.0,
                          origin=-20.0, n=32)
        dense = fom_trajectory(cfg, stride=1)
        with experiments._references(cfg) as ref:
            _, rom, _ = experiments._attempt(cfg, ref, cfg.roms[0])
            assert isinstance(ref.dense, experiments._StoredRun)
            assert np.array_equal(ref.dense.times, dense.times)
            assert np.array_equal(ref.dense.energies, dense.energies)
            compare = metrics.e_inf_wave if system == "wave" else metrics.e_inf_scalar
            assert compare(ref.dense, [rom]) == compare(dense, [rom])
            assert np.array_equal(metrics.squared_errors(ref.dense, [rom]),
                                  metrics.squared_errors(dense, [rom]))

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_no_run_holds_the_every_step_reference(self, tmp_path, cache):
        # 5000 steps of 256 unknowns: a 10.2 MB every-step reference
        cfg = replace(tiny_wave_cfg(tmp_path / "out", roms=("SP0:4", "GROM:4", "SP2:4")),
                      n=128, dt=0.001, t_end=5.0, stride=50)
        every_step = 8 * 2 * cfg.n * (cfg.scheme().steps() + 1)
        if cache == "warm":
            fom_trajectory(cfg)
        # SciPy's first import allocates more than the bound; run alone, this
        # test would otherwise trace it
        linalg.bind_lapack()
        tracemalloc.start()
        try:
            reports = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(r.failed for r in reports)
        assert peak < every_step / 2, f"peak {peak} B for a {every_step} B reference"

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
        # well-formed files of the wrong shape: states, then energies
        (energies,) = cache_dir.glob("*.energies.hrom")
        for path, wrong in ((states, np.ones((7, 3))), (energies, np.ones(5))):
            write_matrix(path, wrong)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hamrom"):
                again = run_experiment(cfg)
            assert "unreadable cache" in caplog.text
            assert [_comparable(r) for r in again] == [_comparable(r) for r in fresh]

    def test_meta_without_its_count_line_recomputes(self, tmp_path, caplog, monkeypatch):
        # a KdV reference, whose Picard iteration count is not 0
        cfg = replace(tiny_wave_cfg(tmp_path / "out", roms=()), system="kdv", alpha=-6.0,
                      rho=0.0, nu=-1.0, n=64, length=40.0, origin=-20.0, dt=0.02, t_end=0.4)
        fresh = fom_trajectory(cfg)
        assert fresh.max_picard_iterations > 0
        (meta,) = (tmp_path / "out" / "cache").glob("*.meta")
        meta.write_text(meta.read_text().splitlines()[0] + "\n")
        calls = _count_integrations(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            again = fom_trajectory(cfg)
        assert "unreadable cache" in caplog.text
        assert len(calls) == 1
        assert again.max_picard_iterations == fresh.max_picard_iterations

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
        for bad in (0, 2.5, True):  # a cache hit: 2.5 used to raise TypeError here
            with pytest.raises(ValueError, match="stride"):
                fom_trajectory(cfg, stride=bad)

    def test_outputs_written(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out")
        run_experiment(cfg)
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "fom_energy.csv").exists()
        assert (tmp_path / "out" / "energy_sp0_r2_mu0.csv").exists()

    def test_fom_only_config(self, tmp_path, monkeypatch):
        # the report of no ROMs is its header; nothing binds LAPACK or
        # starts the workers
        def unexpected(*args):
            raise AssertionError("a configuration without ROMs ran the drivers' phases")

        monkeypatch.setattr(experiments, "bind_lapack", unexpected)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", unexpected)
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        assert run_experiment(cfg) == []
        assert (tmp_path / "out" / "fom_energy.csv").exists()
        report = (tmp_path / "out" / "report.csv").read_text()
        assert report.splitlines() == ["variant,r,mu,e_inf,H0,Hfinal,max_drift,offset,wall_ms"]

    def test_fom_only_config_replaces_a_stale_report(self, tmp_path):
        report = tmp_path / "out" / "report.csv"
        run_experiment(tiny_wave_cfg(tmp_path / "out", roms=("SP0:2",)))
        header, row = report.read_text().splitlines()
        assert row.startswith("SP-ROM-0,2,")
        run_experiment(tiny_wave_cfg(tmp_path / "out", roms=()))
        assert report.read_text().splitlines() == [header]

    def test_failure_isolation(self, tmp_path):
        # r beyond the snapshot rank fails that row; the rest still run
        cfg = tiny_wave_cfg(tmp_path / "out", roms=("SP0:50", "SP0:2"))
        reports = run_experiment(cfg)
        assert reports[0].failed and np.isnan(reports[0].e_inf)
        assert not reports[1].failed and np.isfinite(reports[1].e_inf)

    def test_comparison_errors_propagate(self, tmp_path, monkeypatch):
        # a ROM run recorded at other times than the benchmark is a programming
        # error of the comparison, not a failed row
        def misrecorded(model, scheme, initial_state=None, energies=True):
            traj = run_rom(model, scheme, initial_state=initial_state, energies=energies)
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
        reports = run_experiment(tiny_kdv_cfg(tmp_path / "out"))
        assert all(not r.failed for r in reports)
        sp_rows = [r for r in reports if r.variant != "G-ROM"]
        assert all(r.max_energy_drift <= 1e-9 for r in sp_rows)

    def test_runs_decode_through_the_memoized_bases(self, tmp_path):
        # one column-major array per basis: G-ROM and SP-ROM-0 share the
        # memoized POD basis and decode through its phi, not through copies
        cfg = tiny_kdv_cfg(tmp_path / "kdv")
        with experiments._references(cfg) as ref:
            runs = [run for _, run in experiments._run_all(cfg, ref, cfg.roms)]
            plain, shifted = ref.bases[0, 0.0, False, 3], ref.bases[0, 0.0, True, 3]
        assert runs[0].basis is plain.phi and runs[1].basis is plain.phi
        assert runs[3].basis is shifted.phi
        wave = tiny_wave_cfg(tmp_path / "wave", roms=("GROM:2", "SP0:2", "SP1:2", "SP2:2"))
        with experiments._references(wave) as ref:
            runs += [run for _, run in experiments._run_all(wave, ref, wave.roms)]
        assert len(runs) == 8 and all(run.basis.flags.f_contiguous for run in runs)


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

    def test_non_positive_r_rejected(self, tmp_path):
        for text in ("SP0:0", "SP0:-3"):
            with pytest.raises(ValueError, match="at least 1"):
                RomSpec.parse(text)
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        with pytest.raises(ValueError, match="at least 1"):
            mu_sweep(cfg, mu_grid=[0.0], variant=RomVariant.SP0, r=0)
        with pytest.raises(ValueError, match="at least 1"):
            tail_bound_check(cfg, [2, 0])
        assert not (tmp_path / "out").exists()  # rejected before the full-order run

    def test_sweep_csv(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        mu_sweep(cfg, mu_grid=[0.0, 0.1], variant=RomVariant.SP0, r=2)
        assert (tmp_path / "out" / "sweep_mu_sp0_r2.csv").exists()

    def test_failed_point_is_a_nan_row(self, tmp_path, caplog, monkeypatch):
        grid = [0.2, 0.0, 0.1, 0.05]
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        clean = mu_sweep(replace(cfg, out_dir=str(tmp_path / "clean")), mu_grid=grid,
                         variant=RomVariant.SP0, r=2)
        calls = []

        def third_point_fails(model, scheme, initial_state=None, energies=True):
            calls.append(model)
            if len(calls) == 3:  # the points run in grid order: mu = 0.1
                raise StepFailure("forced failure", step_index=7, iterations=3)
            return run_rom(model, scheme, initial_state=initial_state, energies=energies)

        monkeypatch.setattr(experiments, "run_rom", third_point_fails)
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            rows = mu_sweep(cfg, mu_grid=grid, variant=RomVariant.SP0, r=2)
        assert "SP-ROM-0 r=2 failed at mu=0.1: forced failure" in caplog.text
        assert len(calls) == len(grid)
        assert [mu for mu, _ in rows] == [mu for mu, _ in clean] == [0.0, 0.05, 0.1, 0.2]
        assert np.isnan(rows[2][1]) and np.isfinite(clean[2][1])
        assert rows[:2] + rows[3:] == clean[:2] + clean[3:]
        assert (tmp_path / "out" / "sweep_mu_sp0_r2.csv").read_text().count("nan") == 1

    def test_held_runs_carry_no_energies(self, tmp_path, monkeypatch):
        # the comparison reads states and times only
        compared, compare = [], experiments._compare

        def recording(ref, runs, metric):
            compared.extend(runs)
            return compare(ref, runs, metric)

        monkeypatch.setattr(experiments, "_compare", recording)
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        rows = mu_sweep(cfg, mu_grid=[0.0, 0.1], variant=RomVariant.SP0, r=2)
        rows += tail_bound_check(cfg, [1, 2])
        assert len(compared) == 4 and all(run.energies is None for run in compared)
        assert all(np.isfinite(row[1]) for row in rows)

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_sweep_holds_no_every_step_reference(self, tmp_path, cache):
        # 5000 steps of 256 unknowns: a 10.2 MB every-step reference; each of
        # the five points keeps its 8 x 5001 reduced run (0.3 MB) for the one
        # comparison at the end
        cfg = replace(tiny_wave_cfg(tmp_path / "out", roms=()),
                      n=128, dt=0.001, t_end=5.0, stride=50)
        every_step = 8 * 2 * cfg.n * (cfg.scheme().steps() + 1)
        if cache == "warm":
            fom_trajectory(cfg)
        # SciPy's first import allocates more than the bound; run alone, this
        # test would otherwise trace it
        linalg.bind_lapack()
        tracemalloc.start()
        try:
            rows = mu_sweep(cfg, mu_grid=[0.0, 0.05, 0.1, 0.15, 0.2], variant=RomVariant.SP0, r=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.isfinite(e) for _, e in rows)
        assert peak < every_step / 2, f"peak {peak} B for a {every_step} B reference"


class TestTailCheck:
    def test_columns_and_csv(self, tmp_path):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        rows = tail_bound_check(cfg, [1, 2, 3])
        assert [r for r, *_ in rows] == [1, 2, 3]
        errs = [row[1] for row in rows]
        tails = [row[2] for row in rows]
        assert all(np.isfinite(row[3]) for row in rows)
        assert np.all(np.diff(errs) < 0)
        assert np.all(np.diff(tails) < 0)
        assert (tmp_path / "out" / "tail_check.csv").exists()

    def test_failed_size_is_a_nan_row(self, tmp_path, caplog):
        cfg = tiny_wave_cfg(tmp_path / "out", roms=())
        # r=50 exceeds the rank of the tiny snapshot sets
        with caplog.at_level(logging.WARNING, logger="hamrom"):
            rows = tail_bound_check(cfg, [2, 50])
        assert "r=50 failed" in caplog.text
        assert rows[0][0] == 2 and all(np.isfinite(rows[0][1:]))
        assert rows[1][0] == 50 and all(np.isnan(rows[1][1:]))
        assert (tmp_path / "out" / "tail_check.csv").read_text().count("nan") == 3

    def test_other_errors_propagate(self, tmp_path, monkeypatch):
        def broken(flow, bases, variant):
            raise ValueError("broken reduction")

        monkeypatch.setattr(experiments, "reduce_operators", broken)
        with pytest.raises(ValueError, match="broken reduction"):
            tail_bound_check(tiny_wave_cfg(tmp_path / "out", roms=()), [2])


def _csv_outputs(directory: Path) -> dict[str, list[str]]:
    """The lines of every CSV under ``directory`` by relative path; those of
    report.csv without their last column, the wall time."""
    out = {}
    for path in sorted(directory.rglob("*.csv")):
        lines = path.read_text().splitlines()
        if path.name == "report.csv":
            lines = [line.rsplit(",", 1)[0] for line in lines]
        out[str(path.relative_to(directory))] = lines
    return out


class TestWorkers:
    """The bases and comparisons of a table, sweep or tail check run on one
    worker per usable CPU, with every loaded OpenBLAS pinned to one thread
    meanwhile."""

    @pytest.mark.parametrize("make_cfg, passes", [
        # 5001 recorded times of 256 unknowns: the reference allows two
        # comparison passes side by side
        (lambda out, roms: replace(tiny_wave_cfg(out, roms), n=128, dt=0.001, t_end=5.0,
                                   stride=50), 2),
        (tiny_kdv_cfg, 1),
    ], ids=["wave", "kdv"])
    def test_outputs_do_not_depend_on_the_workers(self, tmp_path, monkeypatch, make_cfg,
                                                  passes):
        roms = ("GROM:3", "SP0:3", "SP1:3", "SP2:3", "SP0:2:0.1", "SP2:3:0.1")
        pools, pool = [], experiments.ThreadPoolExecutor
        groups = []  # the runs each comparison pass compared

        def recorded(workers):
            pools.append(workers)
            return pool(workers)

        def counted(metric):
            def compare(fom, runs):
                groups.append(len(runs))
                return metric(fom, runs)
            return compare

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", recorded)
        for name in ("e_inf_wave", "e_inf_scalar", "squared_errors"):
            monkeypatch.setattr(experiments, name, counted(getattr(metrics, name)))
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            cfg = make_cfg(tmp_path / f"cpus{cpus}", roms)
            assert not any(report.failed for report in run_experiment(cfg))
            mu_sweep(cfg, mu_grid=[0.2, 0.0, 0.05, 0.1], variant=RomVariant.SP0, r=2)
            tail_bound_check(cfg, [1, 2, 3])
            outputs.append(_csv_outputs(tmp_path / f"cpus{cpus}"))
        two = 2 if linalg._loaded_openblas() else 1  # no pinned BLAS, one worker
        assert pools == [1, 1, 1, two, two, two]
        split = [[6], [4], [3]] if min(two, passes) == 1 else [[3, 3], [2, 2], [1, 2]]
        assert groups == [6, 4, 3] + [n for call in split for n in call]
        # the full-order and six reduced energy series, the report, the sweep, the tail check
        assert len(outputs[0]) == 1 + len(roms) + 3
        assert outputs[0] == outputs[1]

    def test_blas_threads_are_restored(self, tmp_path, monkeypatch):
        linalg.bind_lapack()  # SciPy's OpenBLAS is pinned too
        pins = linalg._loaded_openblas()
        if not pins:
            pytest.skip("neither NumPy nor SciPy loaded an OpenBLAS that can be pinned")
        counts = lambda: [get() for get, _ in pins]  # noqa: E731
        before, during = counts(), []

        def counting(model, scheme, initial_state=None, energies=True):
            during.append(counts())
            return run_rom(model, scheme, initial_state=initial_state, energies=energies)

        def broken(flow, bases, variant):
            raise ValueError("broken reduction")

        monkeypatch.setattr(experiments, "run_rom", counting)
        try:
            for _, set_ in pins:
                set_(2)
            run_experiment(tiny_wave_cfg(tmp_path / "out"))
            assert counts() == [2] * len(pins)
            assert during == [[1] * len(pins)] * 2
            monkeypatch.setattr(experiments, "reduce_operators", broken)
            with pytest.raises(ValueError, match="broken reduction"):
                mu_sweep(tiny_wave_cfg(tmp_path / "out"), mu_grid=[0.1], r=2)
            assert counts() == [2] * len(pins)
        finally:
            for (_, set_), count in zip(pins, before):
                set_(count)

    def test_one_worker_without_a_pinned_blas(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(linalg, "_loaded_openblas", lambda: [])
        with linalg.one_blas_thread() as workers:
            assert workers == 1
        counts = [3, 2]
        pins = [(lambda i=i: counts[i], lambda n, i=i: counts.__setitem__(i, n)) for i in (0, 1)]
        monkeypatch.setattr(linalg, "_loaded_openblas", lambda: pins)
        with pytest.raises(KeyError):
            with linalg.one_blas_thread() as workers:
                assert (workers, counts) == (3, [1, 1])
                raise KeyError("inside")
        assert counts == [3, 2]


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

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_fom_export_holds_only_the_strided_columns(self, tmp_path, capsys, cache):
        # 5000 steps of 256 unknowns: a 10.2 MB every-step reference, exported
        # at stride 10
        path = tmp_path / "cfg.txt"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "out").replace("n = 16", "n = 128")
                        .replace("dt = 0.05", "dt = 0.001").replace("t_end = 1.0", "t_end = 5.0")
                        .replace("stride = 5", "stride = 10"))
        every_step = 8 * 256 * 5001
        if cache == "warm":
            assert main(["fom", "--config", str(path)]) == 0
        tracemalloc.start()
        try:
            assert main(["fom", "--config", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_matrix(tmp_path / "out" / "fom_states.hrom").shape == (256, 501)
        assert peak < every_step / 2, f"peak {peak} B for a {every_step} B reference"

    def test_fom_then_rom_integrate_once(self, tmp_path, monkeypatch):
        calls = _count_integrations(monkeypatch)
        cfg = self.write_cfg(tmp_path)
        assert main(["fom", "--config", str(cfg)]) == 0
        assert main(["rom", "--config", str(cfg)]) == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "out" / "cache").iterdir())) == 3

    def test_tail_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["tail-check", "--config", str(cfg), "--r", "1,2"]) == 0
        assert (tmp_path / "out" / "tail_check.csv").exists()

    def test_tail_command_fails_on_a_failed_size(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["tail-check", "--config", str(cfg), "--r", "1,50"]) == 1
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

    @pytest.mark.parametrize("argv, line, message", [
        (["rom", "--variant", "SP0", "--r", "0"], "", "at least 1"),
        (["rom", "--variant", "SP0", "--r", "2", "--mu", "-1"], "", "non-negative"),
        (["rom", "--variant", "XX", "--r", "2"], "", "unknown ROM variant"),
        (["rom", "--variant", "SP0"], "", "given together"),
        (["sweep-mu", "--variant", "XX", "--r", "2"], "", "unknown ROM variant"),
        (["sweep-mu"], "", "required: --r"),
        (["tail-check", "--r", "2,x"], "", "invalid literal"),
        (["tail-check", "--r", "2,0"], "", "at least 1"),
        (["fom"], None, "No such file"),
        (["rom"], "roms = SP0:0", "at least 1"),
        (["fom"], "colour = red", "unknown configuration keys"),
        (["fom"], "dt = nan", "dt must be finite"),
        (["fom"], "c = inf", "c must be finite"),
        (["fom"], "picard_tol = nan", "picard_tol must be finite"),
        (["fom"], "c = -1", "wave speed must be positive"),
        (["fom"], "dt = 0.03", "not an integer step count"),
        (["fom"], "n = 2", "at least 3 points"),
        (["fom"], "origin = 0.5", "unit interval"),
        (["rom", "--mu", "0.5"], "", "given together"),
        (["rom", "--r", "2", "--mu", "0.5"], "", "given together"),
    ])
    def test_input_errors_are_usage_errors(self, tmp_path, capsys, argv, line, message):
        # ``line`` replaces the configuration's line of its key, or the roms
        # line for a key the configuration does not set; None writes no file
        path = tmp_path / "cfg.txt"
        if line is not None:
            lines = CONFIG_TEXT.format(out=tmp_path / "out").splitlines()
            if line:
                key = line.split("=")[0].strip()
                match = [i for i, old in enumerate(lines) if old.startswith(f"{key} =")]
                lines[match[0] if match else lines.index("roms = SP0:2, GROM:2:0.0")] = line
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as info:
            main(argv + ["--config", str(path)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_errors_propagate(self, tmp_path, monkeypatch):
        # an error inside the run is a programming error, not a usage error
        def broken(flow, bases, variant):
            raise ValueError("broken reduction")

        monkeypatch.setattr(experiments, "reduce_operators", broken)
        with pytest.raises(ValueError, match="broken reduction"):
            main(["rom", "--config", str(self.write_cfg(tmp_path))])
