import numpy as np
import pytest
import scipy.linalg

from hamrom.avf import AvfScheme, Trajectory, integrate
from hamrom.pod import (
    PodBasis,
    SnapshotSet,
    collect_snapshots,
    collect_wave_snapshots,
    compute_basis,
    enrich_with_ic_residual,
    projection_error,
    sigma_tail,
)
from hamrom.systems import (
    Grid1D,
    build_kdv_fom,
    build_wave_fom,
    eval_grad,
    kdv_initial,
    wave_initial,
)


def toy_trajectory(dim=6, cols=5, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    states = scale * rng.standard_normal((dim, cols))
    return Trajectory(
        times=np.arange(cols, dtype=float),
        states=states,
        energies=np.zeros(cols),
        steps_total=cols - 1,
        dt=1.0,
    )


def kdv_toy():
    grid = Grid1D(n=24, length=12.0, origin=-6.0)
    flow = build_kdv_fom(-6.0, 0.1, -1.0, grid)
    scheme = AvfScheme(dt=0.01, t_end=0.2, snapshot_stride=5)
    traj = integrate(flow, kdv_initial(grid), scheme)
    return flow, traj


class TestCollect:
    def test_plain_column_count(self):
        flow, traj = kdv_toy()
        snaps = collect_snapshots(traj, flow)
        assert snaps.data.shape == traj.states.shape
        assert snaps.reference is None

    def test_augmented_column_count(self):
        flow, traj = kdv_toy()
        snaps = collect_snapshots(traj, flow, mu=0.5)
        assert snaps.data.shape[1] == 2 * traj.times.size

    def test_gradient_columns_match_eval_grad(self):
        flow, traj = kdv_toy()
        mu = 0.7
        snaps = collect_snapshots(traj, flow, mu=mu)
        m = traj.times.size
        for j in range(m):
            expected = mu * eval_grad(flow, traj.states[:, j])
            assert np.array_equal(snaps.data[:, m + j], expected)

    def test_shifted_columns(self):
        flow, traj = kdv_toy()
        snaps = collect_snapshots(traj, flow, shifted=True)
        assert np.abs(snaps.data[:, 0]).max() == 0.0
        assert np.array_equal(snaps.reference, traj.states[:, 0])
        assert np.array_equal(snaps.data[:, 1], traj.states[:, 1] - traj.states[:, 0])

    def test_shifted_gradients_use_unshifted_states(self):
        flow, traj = kdv_toy()
        mu = 0.3
        snaps = collect_snapshots(traj, flow, mu=mu, shifted=True)
        m = traj.times.size
        expected = mu * eval_grad(flow, traj.states[:, 1])
        assert np.array_equal(snaps.data[:, m + 1], expected)

    def test_frozen_trajectory_shifts_to_zero(self):
        flow, _ = kdv_toy()
        frozen = Trajectory(
            times=np.arange(3.0),
            states=np.tile(kdv_initial(Grid1D(n=24, length=12.0, origin=-6.0)), (3, 1)).T,
            energies=np.zeros(3),
            steps_total=2,
            dt=1.0,
        )
        snaps = collect_snapshots(frozen, flow, shifted=True)
        assert np.abs(snaps.data).max() == 0.0

    def test_wave_split(self):
        grid = Grid1D(n=12, length=1.0)
        flow = build_wave_fom(0.2, grid)
        traj = integrate(flow, wave_initial(grid), AvfScheme(dt=0.02, t_end=0.2, snapshot_stride=2))
        mu = 0.4
        set_u, set_v = collect_wave_snapshots(traj, flow, mu=mu)
        m = traj.times.size
        assert set_u.data.shape == (12, 2 * m)
        assert np.array_equal(set_u.data[:, :m], traj.states[:12])
        assert np.array_equal(set_v.data[:, :m], traj.states[12:])
        g = eval_grad(flow, traj.states[:, 3])
        assert np.array_equal(set_u.data[:, m + 3], mu * g[:12])
        assert np.array_equal(set_v.data[:, m + 3], mu * g[12:])
        assert set_u.reference is None and set_v.reference is None

        shift_u, shift_v = collect_wave_snapshots(traj, flow, mu=mu, shifted=True)
        assert np.array_equal(shift_u.reference, traj.states[:12, 0])
        assert np.array_equal(shift_v.reference, traj.states[12:, 0])
        assert np.array_equal(shift_u.data[:, :m], traj.states[:12] - traj.states[:12, :1])
        assert np.array_equal(shift_v.data[:, :m], traj.states[12:] - traj.states[12:, :1])
        # gradient columns are evaluated at the unshifted states
        assert np.array_equal(shift_u.data[:, m:], set_u.data[:, m:])
        assert np.array_equal(shift_v.data[:, m:], set_v.data[:, m:])

    def test_rejects_negative_mu(self):
        flow, traj = kdv_toy()
        with pytest.raises(ValueError):
            collect_snapshots(traj, flow, mu=-0.1)


class TestComputeBasis:
    def test_single_snapshot(self):
        snaps = SnapshotSet(data=np.array([[3.0], [4.0]]))
        basis = compute_basis(snaps, 1)
        assert np.allclose(np.abs(basis.phi[:, 0]), [0.6, 0.8])
        assert basis.sigma[0] == pytest.approx(5.0)

    def test_full_rank_zero_projection_error(self):
        rng = np.random.default_rng(1)
        snaps = SnapshotSet(data=rng.standard_normal((4, 3)))
        basis = compute_basis(snaps, 3)
        assert projection_error(snaps, basis) <= 1e-18

    def test_matches_direct_svd(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((4, 3))
        basis = compute_basis(SnapshotSet(data=Y), 2)
        U = scipy.linalg.svd(Y, full_matrices=False)[0]
        for j in range(2):
            assert min(
                np.abs(basis.phi[:, j] - U[:, j]).max(),
                np.abs(basis.phi[:, j] + U[:, j]).max(),
            ) <= 1e-10

    def test_rank_overflow_reports_attained_rank(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((6, 4))
        with pytest.raises(ValueError, match="rank 4"):
            compute_basis(SnapshotSet(data=Y), 5)

    def test_carries_shift_reference(self):
        flow, traj = kdv_toy()
        snaps = collect_snapshots(traj, flow, shifted=True)
        basis = compute_basis(snaps, 2)
        assert np.array_equal(basis.shifted_reference, traj.states[:, 0])

    def test_frozen_shifted_set_has_no_basis(self):
        # shifting a frozen trajectory leaves only zero columns: rank 0
        flow, _ = kdv_toy()
        u0 = kdv_initial(Grid1D(n=24, length=12.0, origin=-6.0))
        frozen = Trajectory(
            times=np.arange(3.0),
            states=np.tile(u0, (3, 1)).T,
            energies=np.zeros(3),
            steps_total=2,
            dt=1.0,
        )
        snaps = collect_snapshots(frozen, flow, shifted=True)
        with pytest.warns(UserWarning, match="all-zero"):
            with pytest.raises(ValueError, match="rank 0"):
                compute_basis(snaps, 1)


class TestProjectionError:
    def test_discarded_column_energy(self):
        Y = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        snaps = SnapshotSet(data=Y)
        basis = compute_basis(snaps, 1)
        assert projection_error(snaps, basis) == pytest.approx(1.0, rel=1e-12)

    def test_tail_identity_random(self):
        # the projection-error/spectral-tail identity, checked directly
        for seed in range(20):
            rng = np.random.default_rng(seed)
            Y = rng.standard_normal((10, 6))
            snaps = SnapshotSet(data=Y)
            basis = compute_basis(snaps, 3)
            err = projection_error(snaps, basis)
            tail = sigma_tail(basis, 3)
            assert abs(err - tail) <= 1e-9 * (1.0 + sigma_tail(basis, 0))

    def test_augmented_split_identity(self):
        # state error + mu^2 * gradient error equals the combined tail
        flow, traj = kdv_toy()
        mu = 0.6
        snaps = collect_snapshots(traj, flow, mu=mu)
        m = traj.times.size
        r = 3
        basis = compute_basis(snaps, r)
        P = basis.phi @ basis.phi.T
        states = snaps.data[:, :m]
        grads = snaps.data[:, m:] / mu
        state_err = np.sum((states - P @ states) ** 2)
        grad_err = np.sum((grads - P @ grads) ** 2)
        tail = sigma_tail(basis, r)
        assert abs(state_err + mu**2 * grad_err - tail) <= 1e-9 * (1.0 + sigma_tail(basis, 0))


class TestSigmaTail:
    def test_zero_at_full_rank(self):
        basis = PodBasis(phi=np.eye(2), sigma=np.array([2.0, 1.0]))
        assert sigma_tail(basis, 2) == 0.0

    def test_two_values(self):
        basis = PodBasis(phi=np.eye(2), sigma=np.array([2.0, 1.0]))
        assert sigma_tail(basis, 1) == pytest.approx(1.0)

    def test_monotone_in_r(self):
        rng = np.random.default_rng(4)
        sigma = np.sort(rng.uniform(0.1, 3.0, size=8))[::-1]
        basis = PodBasis(phi=np.eye(8), sigma=sigma)
        tails = [sigma_tail(basis, r) for r in range(9)]
        assert np.all(np.diff(tails) <= 0)

    def test_range_validation(self):
        basis = PodBasis(phi=np.eye(2), sigma=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            sigma_tail(basis, 3)


class TestEnrichment:
    def test_captured_state_leaves_columns_unchanged(self):
        basis = PodBasis(phi=np.eye(3)[:, :2], sigma=np.array([1.0, 1.0]))
        out = enrich_with_ic_residual(basis, np.array([0.5, -0.25, 0.0]))
        assert out.r == 2
        assert np.array_equal(out.phi, basis.phi)
        assert out.enriched

    def test_zero_state_is_captured(self):
        basis = PodBasis(phi=np.eye(3)[:, :1], sigma=np.array([1.0]))
        out = enrich_with_ic_residual(basis, np.zeros(3))
        assert out.r == 1 and out.enriched

    def test_orthogonal_complement(self):
        basis = PodBasis(phi=np.eye(3)[:, :1], sigma=np.array([1.0]))
        out = enrich_with_ic_residual(basis, np.array([1.0, 1.0, 0.0]))
        assert out.r == 2
        assert np.allclose(np.abs(out.phi[:, 1]), [0.0, 1.0, 0.0], atol=1e-14)

    def test_completeness_and_orthonormality(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((20, 6))
        basis = compute_basis(SnapshotSet(data=Y), 3)
        u0 = rng.standard_normal(20)
        out = enrich_with_ic_residual(basis, u0)
        assert np.abs(out.phi.T @ out.phi - np.eye(out.r)).max() <= 1e-10
        residual = u0 - out.phi @ (out.phi.T @ u0)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(u0)

    def test_never_degrades_projection(self):
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((15, 5))
        snaps = SnapshotSet(data=Y)
        basis = compute_basis(snaps, 2)
        out = enrich_with_ic_residual(basis, rng.standard_normal(15))
        assert projection_error(snaps, out) <= projection_error(snaps, basis) + 1e-12


class TestValidation:
    def test_basis_requires_orthonormal_columns(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PodBasis(phi=np.ones((3, 2)), sigma=np.array([1.0, 0.5]))

    def test_basis_is_stored_column_major(self):
        phi = np.ascontiguousarray(np.eye(6)[:, :3])
        assert not phi.flags.f_contiguous
        basis = PodBasis(phi=phi, sigma=np.ones(3))
        assert basis.phi.flags.f_contiguous
        assert np.array_equal(basis.phi, phi)
        assert PodBasis(phi=basis.phi, sigma=np.ones(3)).phi is basis.phi  # no second copy

    def test_basis_rank_bound(self):
        with pytest.raises(ValueError, match="spectrum"):
            PodBasis(phi=np.eye(3), sigma=np.array([1.0]))

    def test_snapshot_set_frame_matches_coordinates(self):
        with pytest.raises(ValueError, match="frame"):
            SnapshotSet(data=np.ones((4, 3)), frame=np.eye(5)[:, :3])
