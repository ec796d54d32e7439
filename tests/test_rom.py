import dataclasses

import numpy as np
import pytest
from conftest import dense

from hamrom.avf import AvfScheme, integrate
from hamrom.pod import PodBasis, collect_snapshots, compute_basis, enrich_with_ic_residual
from hamrom.rom import RomVariant, encode, reduce_operators, run_rom
from hamrom.systems import (
    DiagonalQuadratic,
    Grid1D,
    PolyGradFlow,
    ProjectedQuadratic,
    build_kdv_fom,
    build_wave_fom,
    eval_grad,
    kdv_initial,
    laplacian_matrix,
    wave_initial,
)


def identity_basis(n):
    return PodBasis(phi=np.eye(n), sigma=np.ones(n))


def random_orthonormal(n, r, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return PodBasis(phi=Q, sigma=np.ones(r))


def on_the_fly(model, fom):
    """The SP model of ``fom`` with its reduced tensor replaced by the
    on-the-fly term."""
    phi = model.basis_matrix
    quad = ProjectedQuadratic(left=phi.T, basis=phi, coeff=fom.quadratic.coeff)
    return dataclasses.replace(model, flow=dataclasses.replace(model.flow, quadratic=quad))


def small_kdv():
    grid = Grid1D(n=20, length=10.0, origin=-5.0)
    return build_kdv_fom(-6.0, 0.2, -1.0, grid), kdv_initial(grid)


class TestVariantParsing:
    def test_names_and_values(self):
        assert RomVariant.parse("SP0") is RomVariant.SP0
        assert RomVariant.parse("grom") is RomVariant.GROM
        assert RomVariant.parse("SP-ROM-2") is RomVariant.SP2

    def test_unknown(self):
        with pytest.raises(ValueError):
            RomVariant.parse("SP9")


class TestReduceAlgebra:
    def test_full_identity_basis_recovers_structure(self):
        flow, _ = small_kdv()
        model = reduce_operators(flow, identity_basis(20), RomVariant.SP0)
        assert np.allclose(model.flow.structure, dense(flow.structure), atol=1e-14)
        assert np.allclose(model.flow.linear, dense(flow.linear), atol=1e-14)

    def test_coordinate_projection_takes_leading_block(self):
        flow, _ = small_kdv()
        r = 4
        basis = PodBasis(phi=np.eye(20)[:, :r], sigma=np.ones(r))
        model = reduce_operators(flow, basis, RomVariant.SP0)
        assert np.allclose(model.flow.structure, dense(flow.structure)[:r, :r], atol=1e-14)

    def test_reduced_rhs_matches_full_arithmetic(self):
        # SP0 right-hand side == Phi^T S Phi Phi^T grad(Phi a) done in full space
        flow, _ = small_kdv()
        basis = random_orthonormal(20, 3, seed=1)
        model = reduce_operators(flow, basis, RomVariant.SP0)
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal(3)
            rhs = model.flow.structure @ eval_grad(model.flow, a)
            phi = basis.phi
            oracle = phi.T @ dense(flow.structure) @ phi @ (phi.T @ eval_grad(flow, phi @ a))
            assert np.abs(rhs - oracle).max() <= 1e-10 * (1 + np.abs(oracle).max())

    def test_grom_rhs_matches_full_arithmetic(self):
        flow, _ = small_kdv()
        basis = random_orthonormal(20, 4, seed=3)
        model = reduce_operators(flow, basis, RomVariant.GROM)
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = rng.standard_normal(4)
            rhs = model.flow.structure @ eval_grad(model.flow, a)
            oracle = basis.phi.T @ dense(flow.structure) @ eval_grad(flow, basis.phi @ a)
            assert np.abs(rhs - oracle).max() <= 1e-10 * (1 + np.abs(oracle).max())

    def test_sp2_rhs_matches_full_arithmetic(self):
        # the shifted reduction folds the offset into constant and linear parts
        flow, u0 = small_kdv()
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 3)))
        basis = PodBasis(phi=Q, sigma=np.ones(3), shifted_reference=u0)
        model = reduce_operators(flow, basis, RomVariant.SP2)
        for _ in range(5):
            a = rng.standard_normal(3)
            rhs = model.flow.structure @ eval_grad(model.flow, a)
            oracle = Q.T @ dense(flow.structure) @ Q @ (Q.T @ eval_grad(flow, u0 + Q @ a))
            assert np.abs(rhs - oracle).max() <= 1e-10 * (1 + np.abs(oracle).max())

    def test_skew_preserved_exactly(self):
        flow, _ = small_kdv()
        for seed in range(5):
            basis = random_orthonormal(20, 5, seed=seed)
            model = reduce_operators(flow, basis, RomVariant.SP0)
            S_r = model.flow.structure
            assert np.abs(S_r + S_r.T).max() == 0.0

    def test_tensor_matches_on_the_fly(self):
        flow, _ = small_kdv()
        basis = random_orthonormal(20, 4, seed=6)
        dense = reduce_operators(flow, basis, RomVariant.SP0)
        lazy = on_the_fly(dense, flow)
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            t_dense = dense.flow.quadratic.eval(a, b)
            t_lazy = lazy.flow.quadratic.eval(a, b)
            oracle = basis.phi.T @ flow.quadratic.eval(basis.phi @ a, basis.phi @ b)
            assert np.abs(t_dense - oracle).max() <= 1e-10 * (1 + np.abs(oracle).max())
            assert np.abs(t_lazy - oracle).max() <= 1e-12 * (1 + np.abs(oracle).max())

    def test_wave_block_structure(self):
        grid = Grid1D(n=10, length=1.0)
        c = 0.3
        flow = build_wave_fom(c, grid)
        bu = random_orthonormal(10, 3, seed=8)
        bv = random_orthonormal(10, 2, seed=9)
        model = reduce_operators(flow, (bu, bv), RomVariant.SP0)
        S_r = model.flow.structure
        P = bu.phi.T @ bv.phi
        assert np.allclose(S_r[:3, 3:], P, atol=1e-13)
        assert np.allclose(S_r[3:, :3], -P.T, atol=1e-13)
        assert np.abs(S_r[:3, :3]).max() == 0.0
        lap = dense(laplacian_matrix(grid, c * c))
        G1_r = model.flow.linear
        assert np.allclose(G1_r[:3, :3], -bu.phi.T @ lap @ bu.phi, atol=1e-13)
        assert np.allclose(G1_r[3:, 3:], np.eye(2), atol=1e-13)
        assert np.abs(G1_r[:3, 3:]).max() <= 1e-14

    def test_grom_wave_matches_two_field_form(self):
        # da/dt = (Phi_u^T Phi_v) b ; db/dt = (Phi_v^T A Phi_u) a
        grid = Grid1D(n=10, length=1.0)
        c = 0.3
        flow = build_wave_fom(c, grid)
        bu = random_orthonormal(10, 3, seed=10)
        bv = random_orthonormal(10, 3, seed=11)
        model = reduce_operators(flow, (bu, bv), RomVariant.GROM)
        lap = dense(laplacian_matrix(grid, c * c))
        L = model.flow.linear
        assert np.allclose(L[:3, 3:], bu.phi.T @ bv.phi, atol=1e-13)
        assert np.allclose(L[3:, :3], bv.phi.T @ lap @ bu.phi, atol=1e-13)
        assert np.abs(L[:3, :3]).max() <= 1e-14
        assert np.abs(L[3:, 3:]).max() <= 1e-14


class TestEncodeDecode:
    def test_projector_identity(self):
        flow, _ = small_kdv()
        basis = random_orthonormal(20, 4, seed=12)
        model = reduce_operators(flow, basis, RomVariant.SP0)
        rng = np.random.default_rng(13)
        u = rng.standard_normal(20)
        roundtrip = model.basis_matrix @ encode(model, u)
        proj = basis.phi @ (basis.phi.T @ u)
        assert np.allclose(roundtrip, proj, atol=1e-13)

    def test_shifted_maps(self):
        flow, u0 = small_kdv()
        rng = np.random.default_rng(14)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 3)))
        basis = PodBasis(phi=Q, sigma=np.ones(3), shifted_reference=u0)
        model = reduce_operators(flow, basis, RomVariant.SP2)
        assert np.abs(encode(model, u0)).max() <= 1e-14
        assert np.array_equal(model.decode_offset, u0)

    def test_enriched_basis_captures_initial_state(self):
        flow, u0 = small_kdv()
        traj = integrate(flow, u0, AvfScheme(dt=0.01, t_end=0.1, snapshot_stride=2))
        basis = enrich_with_ic_residual(compute_basis(collect_snapshots(traj, flow), 2), u0)
        model = reduce_operators(flow, basis, RomVariant.SP1)
        roundtrip = model.basis_matrix @ encode(model, u0)
        assert np.linalg.norm(roundtrip - u0) <= 1e-10 * np.linalg.norm(u0)


class TestRunRom:
    def test_full_basis_reproduces_fom(self):
        grid = Grid1D(n=8, length=1.0)
        flow = build_wave_fom(0.1, grid)
        u0 = wave_initial(grid)
        scheme = AvfScheme(dt=0.01, t_end=1.0, snapshot_stride=10)
        fom_traj = integrate(flow, u0, scheme)
        for variant in (RomVariant.SP0, RomVariant.GROM):
            model = reduce_operators(flow, (identity_basis(8), identity_basis(8)), variant)
            rom_traj = run_rom(model, scheme, initial_state=u0)
            decoded = rom_traj.full_states(0, rom_traj.states.shape[1])
            assert np.abs(decoded - fom_traj.states).max() <= 1e-9

    def test_trajectory_stays_reduced(self):
        flow, u0 = small_kdv()
        scheme = AvfScheme(dt=0.02, t_end=0.2, snapshot_stride=2)
        traj = integrate(flow, u0, scheme)
        basis = compute_basis(collect_snapshots(traj, flow, shifted=True), 3)
        model = reduce_operators(flow, basis, RomVariant.SP2)
        rom_traj = run_rom(model, scheme, initial_state=u0)
        assert rom_traj.states.shape == (3, traj.times.size)
        assert np.array_equal(rom_traj.basis, model.basis_matrix)
        assert rom_traj.basis.flags.f_contiguous
        assert rom_traj.offset is model.decode_offset
        assert rom_traj.dim == 20
        block = np.empty((20, 2), order="F")
        expected = np.column_stack(
            [model.decode_offset + model.basis_matrix @ a for a in rom_traj.states[:, 1:3].T]
        )
        assert np.allclose(rom_traj.full_states(1, 3, block), expected, rtol=0, atol=1e-14)

    def test_sp_variants_conserve_energy(self):
        flow, u0 = small_kdv()
        scheme = AvfScheme(dt=0.02, t_end=2.0, snapshot_stride=10)
        traj = integrate(flow, u0, scheme)
        basis = compute_basis(collect_snapshots(traj, flow), 4)
        model = reduce_operators(flow, basis, RomVariant.SP0)
        rom_traj = run_rom(model, scheme, initial_state=u0)
        h = rom_traj.energies
        assert np.abs(h - h[0]).max() <= 1e-9 * (1 + abs(h[0]))

    def test_dissipative_reduction_never_increases(self):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((8, 8))
        S = -(M @ M.T) / 8.0
        B = rng.standard_normal((8, 8))
        G1 = B @ B.T / 8.0 + 0.5 * np.eye(8)
        flow = PolyGradFlow(
            structure=S,
            linear=G1,
            quadratic=DiagonalQuadratic(0.3),
            structure_tag="negative-semidefinite",
        )
        basis = random_orthonormal(8, 3, seed=16)
        model = reduce_operators(flow, basis, RomVariant.SP0)
        assert model.flow.structure_tag == "negative-semidefinite"
        rom_traj = run_rom(model, AvfScheme(dt=0.02, t_end=2.0), initial_state=0.3 * rng.standard_normal(8))
        h = rom_traj.energies
        assert np.all(np.diff(h) <= 10 * 1e-12 * (1 + np.abs(h[:-1])))

    def test_lazy_quadratic_path_matches_dense(self):
        flow, u0 = small_kdv()
        scheme = AvfScheme(dt=0.02, t_end=1.0, snapshot_stride=10)
        traj = integrate(flow, u0, scheme)
        basis = compute_basis(collect_snapshots(traj, flow), 4)
        dense = reduce_operators(flow, basis, RomVariant.SP0)
        lazy = on_the_fly(dense, flow)
        t_dense = run_rom(dense, scheme, initial_state=u0)
        t_lazy = run_rom(lazy, scheme, initial_state=u0)
        m = t_dense.states.shape[1]
        assert np.abs(t_dense.full_states(0, m) - t_lazy.full_states(0, m)).max() <= 1e-10

    def test_decoded_states_carry_offset(self):
        flow, u0 = small_kdv()
        scheme = AvfScheme(dt=0.02, t_end=0.2, snapshot_stride=2)
        traj = integrate(flow, u0, scheme)
        basis = compute_basis(collect_snapshots(traj, flow, shifted=True), 3)
        model = reduce_operators(flow, basis, RomVariant.SP2)
        rom_traj = run_rom(model, scheme, initial_state=u0)
        assert not rom_traj.states[:, 0].any()  # the offset start encodes to exactly 0
        assert np.allclose(rom_traj.full_states(0, 1)[:, 0], u0, atol=1e-12)


class TestVariantGuards:
    def test_sp1_requires_enrichment(self):
        flow, _ = small_kdv()
        basis = random_orthonormal(20, 3, seed=18)
        with pytest.raises(ValueError, match="enrich"):
            reduce_operators(flow, basis, RomVariant.SP1)

    def test_sp2_requires_shifted(self):
        flow, _ = small_kdv()
        basis = random_orthonormal(20, 3, seed=19)
        with pytest.raises(ValueError, match="shifted"):
            reduce_operators(flow, basis, RomVariant.SP2)

    def test_shifted_basis_rejected_elsewhere(self):
        flow, u0 = small_kdv()
        rng = np.random.default_rng(20)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 3)))
        basis = PodBasis(phi=Q, sigma=np.ones(3), shifted_reference=u0)
        with pytest.raises(ValueError, match="shifted"):
            reduce_operators(flow, basis, RomVariant.SP0)

    def test_dimension_mismatch(self):
        flow, _ = small_kdv()
        with pytest.raises(ValueError, match="dimension"):
            reduce_operators(flow, random_orthonormal(14, 3, seed=21), RomVariant.SP0)


class TestBenchmarkRuns:
    def test_sp0_energy_flat_with_reported_offset(self, wave_table1):
        report, traj = wave_table1[RomVariant.SP0]
        assert report.max_energy_drift <= 1e-10
        assert report.energy_offset_vs_fom == pytest.approx(-7.1245e-3, rel=0.10)

    def test_sp2_energy_error_tiny(self, wave_table1):
        report, _ = wave_table1[RomVariant.SP2]
        assert report.max_energy_drift <= 1e-12
        assert abs(report.energy_offset_vs_fom) <= 1e-12

    def test_grom_energy_wanders(self, wave_table1):
        report, _ = wave_table1[RomVariant.GROM]
        assert report.max_energy_drift >= 1e-3
