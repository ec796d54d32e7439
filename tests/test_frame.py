"""The shared sweep frame against direct SVDs of the assembled snapshot sets."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamrom.experiments as experiments
import hamrom.pod as pod
from hamrom.avf import Trajectory
from hamrom.experiments import (
    ExperimentConfig,
    RomSpec,
    build_system,
    fom_trajectory,
    mu_sweep,
    run_experiment,
)
from hamrom.metrics import e_inf_scalar, e_inf_wave
from hamrom.pod import (
    collect_snapshots,
    collect_wave_snapshots,
    compute_basis,
    projection_error,
    snapshot_frames,
)
from hamrom.rom import RomVariant, reduce_operators, run_rom
from hamrom.systems import PolyGradFlow

PROPERTY = settings(max_examples=60, deadline=None)


def _orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, k)))[0]


def _graded(rng, n, m, decades):
    k = min(n, m)
    sigma = 10.0 ** -np.linspace(0.0, decades, k)
    return _orthonormal(rng, n, k) @ np.diag(sigma) @ _orthonormal(rng, m, k).T


def _random_case(seed, fields, rows, m, decades, f_scale):
    """States with a graded spectrum and a linear flow whose gradients
    ``F = G U`` are ``f_scale`` times the states in norm."""
    rng = np.random.default_rng(seed)
    n = fields * rows
    states = 10.0 ** rng.uniform(-3, 3) * _graded(rng, n, m, decades)
    G = _graded(rng, n, n, 1.0)
    G *= f_scale * np.linalg.norm(states, 2) / np.linalg.norm(G @ states, 2)
    flow = PolyGradFlow(structure=np.eye(n), linear=G)
    traj = Trajectory(times=np.arange(m, dtype=float), states=states,
                      energies=np.zeros(m), steps_total=m - 1, dt=1.0)
    return traj, flow


def _sets(traj, flow, fields, mu, shifted, frames=None):
    if fields == 2:
        return collect_wave_snapshots(traj, flow, mu, shifted, frames=frames)
    return (collect_snapshots(traj, flow, mu, shifted, frame=frames and frames[0]),)


def _subspace_gap(a, b):
    """Sine of the largest principal angle between two orthonormal column sets."""
    return np.linalg.norm(b - a @ (a.T @ b), 2)


class TestFrameMatchesDirectSvd:
    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        fields=st.sampled_from([1, 2]),
        rows=st.integers(6, 40),
        m=st.integers(2, 12),
        decades=st.floats(0.0, 4.0),
        f_scale=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        mu=st.floats(0.0, 10.0),
        shifted=st.booleans(),
    )
    def test_rank_spectrum_and_subspaces(self, seed, fields, rows, m, decades, f_scale,
                                         mu, shifted):
        traj, flow = _random_case(seed, fields, rows, m, decades, f_scale)
        frames = snapshot_frames(traj, flow, fields)
        for direct, framed in zip(_sets(traj, flow, fields, mu, shifted),
                                  _sets(traj, flow, fields, mu, shifted, frames)):
            d = compute_basis(direct, 1).sigma.size
            a, b = compute_basis(direct, d), compute_basis(framed, d)
            assert b.sigma.size == d
            sigma = a.sigma
            assert np.abs(b.sigma - sigma).max() <= 1e-13 * sigma[0]
            assert projection_error(framed, b) <= 1e-20 + 1e-24 * np.sum(sigma**2)
            for r in range(1, d):
                if sigma[r - 1] / sigma[r] < 1.01:
                    continue
                # a backward-stable SVD fixes the r-subspace only to about
                # eps * sigma_1 / (sigma_r - sigma_{r+1}): 1e-12 where that
                # condition is at most 10, the bound with 450 eps beyond
                condition = sigma[0] / (sigma[r - 1] - sigma[r])
                gap = _subspace_gap(a.phi[:, :r], b.phi[:, :r])
                assert gap <= 1e-12 * max(1.0, condition / 10.0)

    def test_rank_deficient_pair_keeps_every_column(self):
        # gradients exactly -2x the states (the KdV sets are so to 1e-4):
        # [U, F] has rank m, yet the frame is not truncated and each set
        # keeps the rank of its direct assembly
        traj, _ = _random_case(0, 1, 30, 8, 3.0, 1.0)
        flow = PolyGradFlow(structure=np.eye(30), linear=-2.0 * np.eye(30))
        (frame,) = snapshot_frames(traj, flow)
        assert frame.basis.shape == (30, 16)
        for mu in (1e-3, 1.0, 10.0):
            direct, framed = _sets(traj, flow, 1, mu, False), _sets(traj, flow, 1, mu, False, (frame,))
            assert compute_basis(framed[0], 1).sigma.size == compute_basis(direct[0], 1).sigma.size

    def test_shifted_set_carries_the_reference(self):
        traj, flow = _random_case(1, 2, 10, 4, 1.0, 2.0)
        frames = snapshot_frames(traj, flow, 2)
        for snaps, u0 in zip(_sets(traj, flow, 2, 0.5, True, frames),
                             np.split(traj.states[:, 0], 2)):
            assert np.array_equal(snaps.reference, u0)
            assert not np.any(snaps.data[:, 0])  # u0 - u0 is exactly zero

    def test_zero_weight_is_assembled_directly(self):
        traj, flow = _random_case(2, 1, 10, 4, 1.0, 2.0)
        frames = snapshot_frames(traj, flow)
        (snaps,) = _sets(traj, flow, 1, 0.0, False, frames)
        assert snaps.frame is None and np.array_equal(snaps.data, traj.states)

    def test_fields_must_split_the_flow(self):
        traj, flow = _random_case(3, 1, 9, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="split"):
            snapshot_frames(traj, flow, 2)


# -- end to end: mu_sweep on the frame against direct point-by-point bases ------


def tiny_wave(out_dir):
    return ExperimentConfig(system="wave", c=0.1, n=16, length=1.0, dt=0.05, t_end=1.0,
                            stride=5, out_dir=str(out_dir))


def tiny_kdv(out_dir):
    return ExperimentConfig(system="kdv", alpha=-6.0, rho=0.0, nu=-1.0, n=32, length=40.0,
                            origin=-20.0, dt=0.05, t_end=1.0, stride=4, out_dir=str(out_dir))


def _direct_row(cfg, mu, r):
    """E_inf of SP-ROM-0 with bases from the directly assembled sets."""
    flow, _, _ = build_system(cfg)
    dense, snap = fom_trajectory(cfg, stride=1), fom_trajectory(cfg)
    if cfg.system == "wave":
        sets, e_inf = collect_wave_snapshots(snap, flow, mu=mu), e_inf_wave
    else:
        sets, e_inf = (collect_snapshots(snap, flow, mu=mu),), e_inf_scalar
    model = reduce_operators(flow, tuple(compute_basis(s, r) for s in sets), RomVariant.SP0)
    return e_inf(dense, run_rom(model, cfg.scheme(), initial_state=dense.states[:, 0]))


@pytest.fixture
def counted(monkeypatch):
    """Counts of gradient evaluations in snapshot assembly and of frame builds."""
    counts = {"eval_grad": 0, "snapshot_frames": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(pod, "eval_grad")
    counting(experiments, "snapshot_frames")
    return counts


class TestSweepOnTheFrame:
    @pytest.mark.parametrize("make_cfg, r", [(tiny_wave, 2), (tiny_kdv, 3)])
    def test_rows_match_direct_bases(self, tmp_path, make_cfg, r):
        cfg = make_cfg(tmp_path / "out")
        grid = [0.0, 0.05, 0.1, 0.5, 2.0]
        rows = mu_sweep(cfg, mu_grid=grid, variant=RomVariant.SP0, r=r)
        for mu, e_inf in rows:
            direct = _direct_row(cfg, mu, r)
            assert abs(e_inf - direct) <= 1e-10 * abs(direct)

    def test_frame_built_once_per_sweep(self, tmp_path, counted):
        cfg = tiny_wave(tmp_path / "out")
        mu_sweep(cfg, mu_grid=[0.0, 0.05, 0.1, 0.2], variant=RomVariant.SP0, r=2)
        assert counted == {"eval_grad": 1, "snapshot_frames": 1}

    def test_zero_weight_run_never_builds_the_frame(self, tmp_path, counted):
        roms = tuple(RomSpec(v, 2) for v in RomVariant)
        cfg = replace(tiny_wave(tmp_path / "out"), roms=roms)
        assert not any(report.failed for report in run_experiment(cfg))
        assert counted == {"eval_grad": 0, "snapshot_frames": 0}
