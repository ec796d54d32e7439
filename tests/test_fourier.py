"""The Fourier-mode path of periodic-stencil flows and the basis memo.

Flows whose S and G1 are periodic stencils step per Fourier mode, checked
against the steps of dense copies of the same operators; such a flow with a
constant term g0, or on more than two fields, is rejected.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import densified, march
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamrom import avf, experiments, pod
from hamrom.avf import AvfScheme, AvfStepper, integrate
from hamrom.experiments import ExperimentConfig, RomSpec, mu_sweep, run_experiment
from hamrom.linalg import PIVOT_TOL, LuFactorization, SingularMatrixError
from hamrom.rom import RomVariant
from hamrom.systems import (
    Grid1D,
    PeriodicStencil,
    PolyGradFlow,
    TensorQuadratic,
    build_kdv_fom,
    build_wave_fom,
    kdv_initial,
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


def _constant_stencil(matrix, n):
    """The periodic stencil on b fields of ``n`` points whose every block is a
    multiple of the identity: its symbol is the b x b ``matrix`` on every mode."""
    columns = np.zeros(np.shape(matrix) + (n,))
    columns[..., 0] = matrix
    return PeriodicStencil(columns)


def _accepts(flow, dt):
    """Whether the flow's maps take its ``I - A`` as nonsingular."""
    try:
        AvfStepper(flow, dt)
    except SingularMatrixError:
        return False
    return True


def _assert_paths_agree(flow, u0, dt):
    modes = march(flow, u0, dt, 5)[0][-1]
    reference = march(densified(flow), u0, dt, 5)[0][-1]
    assert np.abs(modes - reference).max() <= 1e-11 * np.abs(reference).max()


class TestStepperPaths:
    @PROPERTY
    @given(
        n=st.integers(8, 64),
        alpha=st.floats(-6.0, 6.0),
        rho=st.floats(-1.0, 1.0),
        nu=st.floats(-1.5, 1.5),
        dt=st.floats(1e-3, 0.05),
    )
    def test_kdv_stencil_matches_dense(self, n, alpha, rho, nu, dt):
        grid = Grid1D(n=n, length=40.0, origin=-20.0)
        _assert_paths_agree(build_kdv_fom(alpha, rho, nu, grid), kdv_initial(grid), dt)

    @PROPERTY
    @given(
        n=st.integers(8, 64),
        c=st.floats(0.05, 2.0),
        dt=st.floats(1e-3, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wave_stencil_matches_dense(self, n, c, dt, seed):
        u0 = np.random.default_rng(seed).standard_normal(2 * n)
        _assert_paths_agree(build_wave_fom(c, Grid1D(n=n, length=1.0)), u0, dt)


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

    def test_flow_on_three_fields_is_rejected(self):
        # S = (2/dt) I and G1 = I - A make every mode's I - A the matrix A,
        # whose pivots of partial pivoting are 1, 8.4e-15 and 3.93 against a
        # threshold of 3.05e-14: the LU rejects it, while the two-field
        # closed form min(first, |det| / first) = 3.3e-14 would pass it
        A = np.array([[1.0, 1.0, 0.88], [1.0, 1.0 + 8.5e-15, 0.88], [-1.0, -1.0, 3.05]])
        dt = 0.1
        flow = PolyGradFlow(structure=_constant_stencil((2.0 / dt) * np.eye(3), 8),
                            linear=_constant_stencil(np.eye(3) - A, 8))
        with pytest.raises(ValueError, match="one or two fields"):
            AvfStepper(flow, dt)
        with pytest.raises(SingularMatrixError):
            LuFactorization(A)
        assert not _accepts(densified(flow), dt)

    def test_quadratic_flow_must_be_one_entrywise_field(self):
        # the Picard loop transforms one field and forms coeff u once per step
        kdv = build_kdv_fom(-6.0, 0.0, -1.0, Grid1D(n=8, length=40.0, origin=-20.0))
        wave = _circulant_flow(2, 8, seed=0)
        tensor = TensorQuadratic(np.zeros((8, 8, 8)))
        for flow in (replace(wave, quadratic=kdv.quadratic), replace(kdv, quadratic=tensor)):
            with pytest.raises(ValueError, match="one field with an entrywise quadratic"):
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
        modes, dense = march(flow, u0, dt, 10)[0][-1], march(densified(flow), u0, dt, 10)[0][-1]
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
        reference = np.vstack([u0, march(flow, u0, dt, steps)[0][stride - 1 :: stride]]).T
        assert traj.states.shape == reference.shape
        assert np.array_equal(traj.states[:, 0], u0)
        assert np.abs(traj.states - reference).max() <= 1e-12 * np.abs(reference).max()
        assert traj.max_picard_iterations == 0

    @pytest.mark.parametrize("factor", [0.95, 1.05])
    @pytest.mark.parametrize("case", ["one field", "two fields", "two fields, rows swapped"])
    def test_pivot_rule_is_the_lu_rule(self, case, factor):
        # at dt = 2 with S = I a mode's I - A is I - G1's symbol; each case's
        # smallest pivot of partial pivoting is about factor * PIVOT_TOL of
        # its largest entry (rounded to the grid of doubles near 1)
        t = factor * PIVOT_TOL
        if case == "one field":
            # a constant one-field symbol is its own scale, so the two modes
            # of n = 2 differ: symbols g0 + g1 and g0 - g1 of G1 = [g0, g1]
            g = np.full(2, (1.0 - t) / 2.0)
            structure, linear = PeriodicStencil([[[1.0, 0.0]]]), PeriodicStencil(g[None, None])
            modes = np.diag([1.0 - (g[0] + g[1]), 1.0 - (g[0] - g[1])])
        else:  # the same symbol on every mode; pivots 1 and t, or 1 and -2t
            modes = (np.array([[1.0, 1.0], [1.0, 1.0 + t]]) if case == "two fields"
                     else np.array([[0.5, 1.0], [1.0, 2.0 + 4.0 * t]]))
            structure = _constant_stencil(np.eye(2), 4)
            linear = _constant_stencil(np.eye(2) - modes, 4)
        flow = PolyGradFlow(structure=structure, linear=linear)
        try:
            LuFactorization(modes)  # the modes' matrices, block-diagonally (one if equal)
            lu_accepts = True
        except SingularMatrixError:
            lu_accepts = False
        assert _accepts(flow, 2.0) == lu_accepts == (factor > 1.0)
        if case != "one field":  # the dense copy has the pivots of the one symbol
            assert _accepts(densified(flow), 2.0) == lu_accepts

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
        # keys (0, unshifted, 3), (0, unshifted, 4) and (0, shifted, 4): the
        # two unshifted sizes are cut from one SVD
        roms = ("GROM:3", "SP0:4", "SP1:3", "SP2:4", "SP0:3", "SP1:4")
        cfg = _tiny("kdv", tmp_path, tuple(RomSpec.parse(text) for text in roms))
        memo = [r.e_inf for r in run_experiment(cfg)]
        assert len(svd_count) == 2
        fresh = []
        for spec in cfg.roms:
            with experiments._references(cfg) as ref:  # a new memo per spec
                ((report, _),) = experiments._run_all(cfg, ref, [spec])
                fresh.append(report.e_inf)
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
        # one per weight for each field, but the wave's momentum field: its
        # gradients are its states, and it takes only its mu = 0 basis
        assert len(svd_count) == len(grid) + fields - 1
        assert refs[0].bases == {} and refs[0].stacks == {}
