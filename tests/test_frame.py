"""The shared sweep frame against direct SVDs of the assembled snapshot sets."""

import gc
import weakref
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
    tail_bound_check,
)
from hamrom.linalg import thin_svd_snapshots
from hamrom.metrics import e_inf_scalar, e_inf_wave
from hamrom.pod import (
    collect_snapshots,
    collect_wave_snapshots,
    compute_basis,
    projection_error,
    snapshot_frames,
    weighted_basis,
)
from hamrom.rom import RomVariant, reduce_operators, run_rom
from hamrom.systems import PolyGradFlow

PROPERTY = settings(max_examples=60, deadline=None)
# the same examples on every run
DERANDOMIZED = settings(PROPERTY, derandomize=True)


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
    """The directly assembled sets, or with ``frames`` the sets in their
    coordinates."""
    if frames is not None:
        return tuple(frame.snapshot_set(mu, shifted) for frame in frames)
    if fields == 2:
        return collect_wave_snapshots(traj, flow, mu, shifted)
    return (collect_snapshots(traj, flow, mu, shifted),)


def _multiple_case(seed, fields, rows, m, decades, c):
    """States as in :func:`_random_case` and gradients exactly ``c`` times them."""
    traj, _ = _random_case(seed, fields, rows, m, decades, 1.0)
    n = fields * rows
    return traj, PolyGradFlow(structure=np.eye(n), linear=c * np.eye(n))


def _mixed_case(seed, rows, m, decades, c):
    """Two fields as in :func:`_random_case`, the first one's gradients
    exactly ``c`` times its states and the second one's not: the wave's
    fields the other way round."""
    traj, flow = _random_case(seed, 2, rows, m, decades, 1.0)
    linear = np.zeros_like(flow.linear)
    linear[:rows, :rows] = c * np.eye(rows)
    linear[rows:, rows:] = flow.linear[rows:, rows:]
    return traj, PolyGradFlow(structure=flow.structure, linear=linear)


def _subspace_gap(a, b):
    """Sine of the largest principal angle between two orthonormal column sets."""
    return np.linalg.norm(b - a @ (a.T @ b), 2)


def _assert_same_basis(a, b):
    """``b`` has the retained rank of the direct basis ``a``, its spectrum to
    1e-13 sigma_1 and, between well-separated singular values, its leading
    subspaces."""
    assert b.sigma.size == a.sigma.size
    sigma = a.sigma
    assert np.abs(b.sigma - sigma).max() <= 1e-13 * sigma[0]
    for r in range(1, a.r):
        if sigma[r - 1] / sigma[r] < 1.01:
            continue
        # a backward-stable SVD fixes the r-subspace only to about
        # eps * sigma_1 / (sigma_r - sigma_{r+1}): 1e-12 where that
        # condition is at most 10, the bound with 450 eps beyond
        condition = sigma[0] / (sigma[r - 1] - sigma[r])
        gap = _subspace_gap(a.phi[:, :r], b.phi[:, :r])
        assert gap <= 1e-12 * max(1.0, condition / 10.0)


@pytest.fixture
def svd_calls(monkeypatch):
    """The snapshot SVDs taken from here on, one entry per call."""
    calls = []

    def counting(Y):
        calls.append(Y.shape)
        return thin_svd_snapshots(Y)

    monkeypatch.setattr(pod, "thin_svd_snapshots", counting)
    return calls


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
            _assert_same_basis(a, b)
            assert projection_error(framed, b) <= 1e-20 + 1e-24 * np.sum(a.sigma**2)

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

    @DERANDOMIZED
    @given(
        seed=st.integers(0, 2**32 - 1),
        fields=st.sampled_from([1, 2]),
        rows=st.integers(6, 40),
        m=st.integers(2, 12),
        decades=st.floats(0.0, 4.0),
        shifted=st.booleans(),
    )
    def test_zero_weight_sets_through_the_state_frame(self, seed, fields, rows, m, decades,
                                                      shifted):
        # mu = 0 sets in coordinates of the QR of U alone: the plain set is
        # R, the shifted one R - R[:, :1]; the rank, the spectrum to
        # 1e-13 sigma_1 and the subspaces of the direct set
        traj, flow = _random_case(seed, fields, rows, m, decades, 1.0)
        frames = snapshot_frames(traj, flow, fields, gradients=False)
        for direct, framed in zip(_sets(traj, flow, fields, 0.0, shifted),
                                  _sets(traj, flow, fields, 0.0, shifted, frames)):
            assert framed.data.shape[0] <= m
            d = compute_basis(direct, 1).sigma.size
            a, b = compute_basis(direct, d), compute_basis(framed, d)
            _assert_same_basis(a, b)
            assert projection_error(framed, b) <= 1e-20 + 1e-24 * np.sum(a.sigma**2)

    def test_zero_weight_set_in_the_state_frame(self):
        traj, flow = _random_case(2, 1, 10, 4, 1.0, 2.0)
        (snaps,) = _sets(traj, flow, 1, 0.0, False)  # no frame: assembled directly
        assert snaps.frame is None and np.array_equal(snaps.data, traj.states)
        (frame,) = snapshot_frames(traj, flow, gradients=False)
        assert frame.grads is None and frame.multiple is None
        assert frame.basis.shape == (10, 4)
        (snaps,) = _sets(traj, flow, 1, 0.0, False, (frame,))
        assert snaps.frame is frame.basis and snaps.data is frame.states
        assert np.allclose(snaps.frame @ snaps.data, traj.states, rtol=0, atol=1e-14)
        (shifted,) = _sets(traj, flow, 1, 0.0, True, (frame,))
        assert not np.any(shifted.data[:, 0])
        assert np.array_equal(shifted.reference, traj.states[:, 0])
        with pytest.raises(ValueError, match="gradients"):
            frame.snapshot_set(0.5)

    def test_fields_must_split_the_flow(self):
        traj, flow = _random_case(3, 1, 9, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="split"):
            snapshot_frames(traj, flow, 2)


def _reference(traj, flow, fields):
    """The prelude's object on a recorded trajectory, without a stored run."""
    return experiments._Reference(flow=flow, dense=None, snap=traj, fields=fields)


class TestMultipleGradients:
    """Gradients exactly ``c`` times the states: every unshifted weighted
    basis is the mu = 0 one, its spectrum scaled by ``hypot(1, c mu)``."""

    @DERANDOMIZED
    @given(
        seed=st.integers(0, 2**32 - 1),
        fields=st.sampled_from([1, 2]),
        rows=st.integers(6, 40),
        m=st.integers(2, 12),
        decades=st.floats(0.0, 4.0),
        c=st.sampled_from([1.0, -2.0, 0.5]),
        mu=st.floats(0.0, 10.0),
    )
    def test_reused_basis_matches_direct_svd(self, seed, fields, rows, m, decades, c, mu):
        traj, flow = _multiple_case(seed, fields, rows, m, decades, c)
        direct = _sets(traj, flow, fields, mu, False)
        d = min(compute_basis(s, 1).sigma.size for s in direct)
        ref = _reference(traj, flow, fields)
        reused = ref.pod_bases(mu, False, d)
        if mu > 0:
            assert [frame.multiple for frame in snapshot_frames(traj, flow, fields)] == [c] * fields
            assert all(b.phi is ref.bases[i, 0.0, False, d].phi for i, b in enumerate(reused))
        for snaps, b in zip(direct, reused):
            _assert_same_basis(compute_basis(snaps, d), b)

    def test_multiple_is_exact(self):
        traj, flow = _multiple_case(5, 1, 12, 5, 1.0, -2.0)
        assert snapshot_frames(traj, flow)[0].multiple == -2.0
        linear = flow.linear.copy()
        linear[3, 3] = np.nextafter(-2.0, 0.0)  # one entry one ulp off
        off = PolyGradFlow(structure=flow.structure, linear=linear)
        assert snapshot_frames(traj, off)[0].multiple is None
        assert snapshot_frames(*_random_case(5, 1, 12, 5, 1.0, 1.0))[0].multiple is None

    @pytest.mark.parametrize("case, shifted", [
        (lambda: _multiple_case(4, 2, 10, 5, 1.0, 1.0), True),
        (lambda: _random_case(4, 2, 10, 5, 1.0, 1.0), False),
        (lambda: _random_case(4, 2, 10, 5, 1.0, 1.0), True),
    ], ids=["multiple-shifted", "other-unshifted", "other-shifted"])
    def test_other_sets_keep_the_frame(self, case, shifted, svd_calls):
        traj, flow = case()
        ref = _reference(traj, flow, 2)
        bases = ref.pod_bases(0.5, shifted, 3)
        assert len(svd_calls) == 2 and all(mu == 0.5 for _, mu, _, _ in ref.bases)
        frames = snapshot_frames(traj, flow, 2)  # the frames the call built and released
        for snaps, basis in zip(_sets(traj, flow, 2, 0.5, shifted, frames), bases):
            assert snaps.frame is not None
            assert np.array_equal(basis.phi, compute_basis(snaps, 3).phi)

    @DERANDOMIZED
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(6, 40),
        m=st.integers(2, 12),
        decades=st.floats(0.0, 4.0),
        c=st.sampled_from([1.0, -2.0, 0.5]),
        mu=st.floats(0.0, 10.0),
    )
    def test_only_the_multiple_field_is_weighted(self, seed, rows, m, decades, c, mu):
        traj, flow = _mixed_case(seed, rows, m, decades, c)
        direct = _sets(traj, flow, 2, mu, False)
        d = min(compute_basis(s, 1).sigma.size for s in direct)
        ref = _reference(traj, flow, 2)
        bases = ref.pod_bases(mu, False, d)
        if mu > 0:
            assert [frame.multiple for frame in snapshot_frames(traj, flow, 2)] == [c, None]
            assert bases[0].phi is ref.bases[0, 0.0, False, d].phi
            assert (1, 0.0, False, d) not in ref.bases
        for snaps, b in zip(direct, bases):
            _assert_same_basis(compute_basis(snaps, d), b)


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
    (err,) = e_inf(dense, [run_rom(model, cfg.scheme(), initial_state=dense.states[:, 0])])
    return err


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

    def test_zero_weight_run_evaluates_no_gradient(self, tmp_path, counted):
        # one call builds the frames of the states alone
        roms = tuple(RomSpec(v, 2) for v in RomVariant)
        cfg = replace(tiny_wave(tmp_path / "out"), roms=roms)
        assert not any(report.failed for report in run_experiment(cfg))
        assert counted == {"eval_grad": 0, "snapshot_frames": 1}


class TestSweepSvdCount:
    @pytest.mark.parametrize("make_cfg, r, extra", [
        (tiny_wave, 2, 1),  # the momentum field: its mu = 0 basis only
        (tiny_kdv, 3, 0),
    ], ids=["wave", "kdv"])
    def test_svds_per_sweep(self, tmp_path, svd_calls, make_cfg, r, extra):
        # no mu = 0 point: the first weight decomposes the momentum field's
        # unweighted set (a grid with mu = 0 is TestBasisMemo's in test_fourier.py)
        grid = [0.05, 0.1, 0.2]
        cfg = make_cfg(tmp_path / "out")
        rows = mu_sweep(cfg, mu_grid=grid, variant=RomVariant.SP0, r=r)
        assert all(np.isfinite(e) for _, e in rows)
        assert len(svd_calls) == len(grid) + extra

    @pytest.mark.parametrize("make_cfg, multiples", [
        (tiny_wave, [None, 1.0]),  # displacement, momentum
        (tiny_kdv, [None]),
    ], ids=["wave", "kdv"])
    def test_only_the_momentum_field_is_a_multiple(self, tmp_path, make_cfg, multiples):
        cfg = make_cfg(tmp_path / "out")
        flow, _, _ = build_system(cfg)
        frames = snapshot_frames(fom_trajectory(cfg), flow, len(multiples))
        assert [frame.multiple for frame in frames] == multiples


class TestOneSvdPerSet:
    """The bases of every size of one snapshot set are cut from one SVD, each
    bit for bit the basis that compute_basis gives for its size."""

    @pytest.mark.parametrize("make_cfg, fields", [(tiny_wave, 2), (tiny_kdv, 1)],
                             ids=["wave", "kdv"])
    def test_tail_check_decomposes_each_field_once(self, tmp_path, svd_calls, make_cfg,
                                                   fields):
        rows = tail_bound_check(make_cfg(tmp_path / "out"), [1, 2, 3])
        assert all(np.all(np.isfinite(row)) for row in rows)
        assert len(svd_calls) == fields

    @pytest.mark.parametrize("make_cfg", [tiny_wave, tiny_kdv], ids=["wave", "kdv"])
    @pytest.mark.parametrize("mu, shifted", [(0.0, False), (0.0, True), (0.1, False),
                                             (0.1, True)])
    def test_cut_bases_are_those_of_compute_basis(self, tmp_path, svd_calls, make_cfg, mu,
                                                  shifted):
        sizes = [3, 1, 2]
        with experiments._references(make_cfg(tmp_path / "out")) as ref:
            ref.build_bases([(mu, shifted, r) for r in sizes])
            assert len(svd_calls) == ref.fields
            # the frames the call built and released
            frames = snapshot_frames(ref.snap, ref.flow, ref.fields, gradients=mu > 0)
            sets = [frame.snapshot_set(mu, shifted) for frame in frames]
            unweighted = [frame.snapshot_set() for frame in frames]
            for r in sizes:
                for i, basis in enumerate(ref.pod_bases(mu, shifted, r)):
                    if mu > 0 and not shifted and frames[i].multiple is not None:
                        # the wave's momentum field
                        direct = weighted_basis(compute_basis(unweighted[i], r),
                                                frames[i].multiple, mu)
                    else:
                        direct = compute_basis(sets[i], r)
                    assert np.array_equal(basis.phi, direct.phi)
                    assert np.array_equal(basis.sigma, direct.sigma)
                    if shifted:
                        assert np.array_equal(basis.shifted_reference, sets[i].reference)
                    else:
                        assert basis.shifted_reference is None


class TestSetsInFrameCoordinates:
    """Every set a driver decomposes is in coordinates of its field's frame,
    so no SVD sees the grid's rows, and no call keeps its frames."""

    @pytest.mark.parametrize("make_cfg", [tiny_wave, tiny_kdv], ids=["wave", "kdv"])
    def test_no_set_has_more_rows_than_twice_its_snapshots(self, tmp_path, svd_calls,
                                                          make_cfg):
        roms = tuple(RomSpec.parse(text) for text in ("GROM:2", "SP0:2", "SP1:2", "SP2:2",
                                                      "SP0:2:0.1", "SP2:2:0.1"))
        cfg = replace(make_cfg(tmp_path / "out"), roms=roms)
        snapshots = cfg.scheme().steps() // cfg.stride + 1
        assert cfg.n > 2 * snapshots  # the grid's rows would fail the check
        assert not any(report.failed for report in run_experiment(cfg))
        mu_sweep(cfg, mu_grid=[0.0, 0.05, 0.1], variant=RomVariant.SP2, r=2)
        tail_bound_check(cfg, [1, 2])
        assert len(svd_calls) > 0
        assert all(rows <= 2 * snapshots for rows, _ in svd_calls), svd_calls

    @pytest.mark.parametrize("hold", [False, True], ids=["table", "sweep"])
    def test_frames_are_released_after_the_call(self, tmp_path, monkeypatch, hold):
        built = []
        original = experiments.snapshot_frames

        def recording(*args, **kwargs):
            frames = original(*args, **kwargs)
            built.extend(weakref.ref(obj) for frame in frames for obj in (frame, frame.basis))
            return frames

        monkeypatch.setattr(experiments, "snapshot_frames", recording)
        cfg = tiny_wave(tmp_path / "out")
        specs = [RomSpec(RomVariant.SP0, 2, mu) for mu in (0.0, 0.1)] + [RomSpec(RomVariant.SP2, 2)]
        with experiments._references(cfg) as ref:
            attempts, _ = experiments._run_compared(cfg, ref, specs,
                                                    experiments._e_inf_metric(cfg), hold=hold)
            assert all(attempt is not None for attempt in attempts)
            gc.collect()
            assert len(built) == 4 and all(alive() is None for alive in built)


class TestMemoizedBasesTakeNoSvd:
    def test_second_request_of_a_key(self, tmp_path, svd_calls):
        with experiments._references(tiny_wave(tmp_path / "out")) as ref:
            first = ref.pod_bases(0.1, False, 2)
            assert len(svd_calls) == 2  # displacement at 0.1, momentum at 0
            again = ref.pod_bases(0.1, False, 2)
            assert len(svd_calls) == 2
            assert all(a is b for a, b in zip(first, again))

    @pytest.mark.parametrize("make_cfg, svds", [(tiny_wave, 5), (tiny_kdv, 3)],
                             ids=["wave", "kdv"])
    def test_sweep_after_a_table(self, tmp_path, svd_calls, make_cfg, svds):
        roms = tuple(RomSpec.parse(text) for text in ("GROM:2", "SP0:2", "SP0:2:0.1", "SP2:2"))
        cfg = replace(make_cfg(tmp_path / "out"), roms=roms)
        with experiments._references(cfg) as ref:
            reports = [report for report, _ in experiments._run_all(cfg, ref, cfg.roms)]
            assert len(svd_calls) == svds
            specs = [RomSpec(RomVariant.SP0, 2, mu) for mu in (0.0, 0.1)]
            _, errors = experiments._run_compared(cfg, ref, specs,
                                                  experiments._e_inf_metric(cfg), hold=True)
        assert len(svd_calls) == svds
        assert errors == [reports[1].e_inf, reports[2].e_inf]
