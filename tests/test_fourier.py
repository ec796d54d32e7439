"""The Fourier-mode path of periodic-stencil flows and the basis memo.

Flows whose S and G1 are periodic stencils step per Fourier mode; such a flow
with a constant term g0 is rejected.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import densified
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamrom import avf, experiments, pod
from hamrom.avf import AvfScheme, AvfStepper, integrate
from hamrom.experiments import ExperimentConfig, RomSpec, mu_sweep, run_experiment
from hamrom.linalg import SingularMatrixError
from hamrom.rom import RomVariant
from hamrom.systems import (
    Grid1D,
    PeriodicStencil,
    PolyGradFlow,
    build_kdv_fom,
    build_wave_fom,
    laplacian_matrix,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def _circulant_flow(fields, n, seed, constant=False):
    """A linear flow on ``fields`` periodic fields: the KdV stencils on one,
    the wave's on two, with a random g0 if ``constant``."""
    rng = np.random.default_rng(seed)
    if fields == 1:
        flow = build_kdv_fom(0.0, rng.uniform(-1, 1), rng.uniform(-1.5, 1.5),
                             Grid1D(n=n, length=40.0, origin=-20.0))
    else:
        flow = build_wave_fom(rng.uniform(0.05, 2.0), Grid1D(n=n, length=1.0))
    g0 = rng.standard_normal(flow.dim) if constant else None
    return replace(flow, constant=g0)


def _steps(flow, u, dt, count):
    stepper = AvfStepper(flow, dt)
    for k in range(1, count + 1):
        u = stepper.step(u, step_index=k)
    return u


class TestDetection:
    """Which periodic-stencil flows step in Fourier modes."""

    @pytest.mark.parametrize("n", [8, 9, 40])
    def test_benchmark_flows_step_in_modes(self, n):
        kdv = build_kdv_fom(-6.0, 0.0, -1.0, Grid1D(n=n, length=40.0, origin=-20.0))
        wave = build_wave_fom(0.1, Grid1D(n=n, length=1.0))
        for flow in (kdv, wave):
            assert isinstance(AvfStepper(flow, 0.01)._maps, avf._FourierMaps)

    @pytest.mark.parametrize("fields", [1, 2])
    def test_circulant_flow_with_g0_is_rejected(self, fields):
        # no command builds one; its dense copy steps
        flow = _circulant_flow(fields, 11, seed=fields, constant=True)
        with pytest.raises(ValueError, match="constant term"):
            AvfStepper(flow, 0.01)
        AvfStepper(densified(flow), 0.01)


class TestModeSteps:
    @PROPERTY
    @given(
        fields=st.sampled_from([1, 2]),
        n=st.integers(3, 48),
        dt=st.floats(1e-3, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(fields=1, n=9, dt=0.01, seed=0)  # odd n
    @example(fields=2, n=11, dt=0.01, seed=1)
    def test_linear_steps_match_dense_copies(self, fields, n, dt, seed):
        flow = _circulant_flow(fields, n, seed)
        assert isinstance(AvfStepper(flow, dt)._maps, avf._FourierMaps)
        u0 = np.random.default_rng(seed + 1).standard_normal(flow.dim)
        modes, dense = _steps(flow, u0, dt, 10), _steps(densified(flow), u0, dt, 10)
        assert np.abs(modes - dense).max() <= 1e-11 * np.abs(dense).max()

    @PROPERTY
    @given(
        fields=st.sampled_from([1, 2]),
        n=st.integers(3, 40),
        steps=st.integers(1, 700),
        stride=st.integers(1, 9),
        entries=st.sampled_from([100, 1000, avf._ENERGY_BLOCK_ENTRIES]),
        seed=st.integers(0, 2**32 - 1),
    )
    # with the default block entries, 20 or 40 state entries give blocks of
    # B = 256 columns, each filled in one batch of stacked powers
    @example(fields=1, n=20, steps=100, stride=1, entries=32768, seed=0)  # below B
    @example(fields=2, n=20, steps=255, stride=3, entries=32768, seed=1)  # B columns
    @example(fields=1, n=20, steps=256, stride=9, entries=32768, seed=2)  # B + 1 columns
    @example(fields=2, n=21, steps=700, stride=7, entries=32768, seed=3)  # odd n, 3 blocks
    @example(fields=2, n=40, steps=333, stride=2, entries=1000, seed=4)  # batches of 11 < 12
    def test_block_fill_matches_per_step(self, fields, n, steps, stride, entries, seed):
        flow = _circulant_flow(fields, n, seed)
        u0 = np.random.default_rng(seed + 1).standard_normal(flow.dim)
        dt = 0.01
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(avf, "_ENERGY_BLOCK_ENTRIES", entries)
            traj = integrate(flow, u0, AvfScheme(dt=dt, t_end=dt * steps, snapshot_stride=stride))
        stepper, u, recorded = AvfStepper(flow, dt), u0, [u0]
        for k in range(1, steps + 1):
            u = stepper.step(u, step_index=k)
            if k % stride == 0:
                recorded.append(u)
        reference = np.column_stack(recorded)
        assert traj.states.shape == reference.shape
        assert np.array_equal(traj.states[:, 0], u0)
        assert np.abs(traj.states - reference).max() <= 1e-12 * np.abs(reference).max()
        assert traj.max_picard_iterations == 0

    def test_zero_pivot_mode_raises(self):
        # I - dt/2 S G1 with S the Laplacian and G1 = -I is 1 - dt L / 2 per
        # mode; L's Nyquist symbol is -4/h^2, so dt = h^2/2 zeroes that mode
        grid = Grid1D(n=16, length=1.0)
        flow = PolyGradFlow(structure=laplacian_matrix(grid),
                            linear=PeriodicStencil(-np.eye(1, 16)[None]))
        with pytest.raises(SingularMatrixError, match="Fourier"):
            AvfStepper(flow, dt=0.5 * grid.dx**2)
        AvfStepper(flow, dt=0.4 * grid.dx**2)  # no mode is singular


def _tiny(system, out_dir, roms=()):
    if system == "wave":
        return ExperimentConfig(system="wave", c=0.1, n=40, length=1.0, dt=0.01, t_end=0.5,
                                stride=5, roms=roms, out_dir=str(out_dir))
    return ExperimentConfig(system="kdv", alpha=-6.0, rho=0.0, nu=-1.0, n=60, length=40.0,
                            origin=-20.0, dt=0.02, t_end=0.6, stride=2, roms=roms,
                            out_dir=str(out_dir))


@pytest.fixture
def svd_count(monkeypatch):
    calls = []
    original = pod.thin_svd_snapshots

    def counted(Y):
        calls.append(Y.shape)
        return original(Y)

    monkeypatch.setattr(pod, "thin_svd_snapshots", counted)
    return calls


class TestBasisMemo:
    @pytest.mark.parametrize("system, fields", [("wave", 2), ("kdv", 1)])
    def test_four_variants_decompose_two_sets_per_field(self, tmp_path, svd_count, system,
                                                        fields):
        cfg = _tiny(system, tmp_path, tuple(RomSpec(v, 4) for v in RomVariant))
        reports = run_experiment(cfg)
        assert not any(r.failed for r in reports)
        assert len(svd_count) == 2 * fields

    def test_memoized_bases_give_the_same_rows(self, tmp_path, svd_count):
        # keys (0, unshifted, 3), (0, unshifted, 4) and (0, shifted, 4)
        roms = ("GROM:3", "SP0:4", "SP1:3", "SP2:4", "SP0:3", "SP1:4")
        cfg = _tiny("kdv", tmp_path, tuple(RomSpec.parse(text) for text in roms))
        memo = [r.e_inf for r in run_experiment(cfg)]
        assert len(svd_count) == 3
        fresh = []
        for spec in cfg.roms:
            with experiments._references(cfg) as ref:  # a new memo per spec
                fresh.append(experiments._run_one(cfg, ref, spec)[0].e_inf)
        assert memo == fresh

    @pytest.mark.parametrize("system, fields", [("wave", 2), ("kdv", 1)])
    def test_sweep_keeps_no_basis_per_point(self, tmp_path, svd_count, monkeypatch, system,
                                            fields):
        refs = []
        original = experiments._references

        def kept(cfg):
            refs.append(original(cfg))
            return refs[-1]

        monkeypatch.setattr(experiments, "_references", kept)
        grid = [0.0, 0.02, 0.05, 0.1]
        rows = mu_sweep(_tiny(system, tmp_path), mu_grid=grid, variant=RomVariant.SP0, r=3)
        assert all(np.isfinite(e) for _, e in rows)
        assert len(svd_count) == len(grid) * fields
        assert refs[0].bases == {}
