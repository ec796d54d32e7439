"""The energy is the flow's own polynomial, for full and reduced models alike."""

import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamrom.avf import AvfScheme, integrate
from hamrom.pod import PodBasis, enrich_with_ic_residual
from hamrom.rom import RomVariant, reduce_operators, run_rom
from hamrom.systems import (
    DiagonalQuadratic,
    Grid1D,
    PolyGradFlow,
    build_kdv_fom,
    build_wave_fom,
    eval_energy,
    kdv_initial,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def _forward_diff(u, dx):
    return (np.roll(u, -1) - u) / dx


def wave_energy_terms(x, c, dx):
    """Terms of ``dx * (v^2/2 + c^2 (D+ u)^2 / 2)`` summed over the grid."""
    n = x.size // 2
    u, v = x[:n], x[n:]
    du = _forward_diff(u, dx)
    return dx * 0.5 * (v @ v), dx * 0.5 * c * c * (du @ du)


def kdv_energy_terms(u, alpha, rho, nu, dx):
    """Terms of ``dx * (alpha/6 u^3 + rho/2 u^2 - nu/2 (D+ u)^2)`` summed over the grid."""
    du = _forward_diff(u, dx)
    return dx * alpha / 6.0 * np.sum(u**3), dx * rho / 2.0 * (u @ u), -dx * nu / 2.0 * (du @ du)


def _magnitude(fom, u):
    """Sum of the absolute values of the energy's terms at ``u``: the scale
    its rounding errors are relative to."""
    au = np.abs(u)
    m = 0.5 * (au @ (abs(fom.linear) @ au))
    if fom.quadratic is not None:
        m += abs(fom.quadratic.coeff) / 3.0 * np.sum(au**3)
    return abs(fom.energy_weight) * m


class TestFullOrderEnergy:
    @PROPERTY
    @given(
        n=st.integers(3, 64),
        length=st.floats(0.5, 50.0),
        c=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wave_matches_forward_difference_energy(self, n, length, c, seed):
        grid = Grid1D(n=n, length=length)
        x = np.random.default_rng(seed).standard_normal(2 * n)
        terms = wave_energy_terms(x, c, grid.dx)
        h = eval_energy(build_wave_fom(c, grid), x)
        assert abs(h - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)

    @PROPERTY
    @given(
        n=st.integers(3, 64),
        length=st.floats(0.5, 50.0),
        alpha=st.floats(-6.0, 6.0),
        rho=st.floats(-1.0, 1.0),
        nu=st.floats(-1.5, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kdv_matches_forward_difference_energy(self, n, length, alpha, rho, nu, seed):
        grid = Grid1D(n=n, length=length)
        u = np.random.default_rng(seed).standard_normal(n)
        terms = kdv_energy_terms(u, alpha, rho, nu, grid.dx)
        h = eval_energy(build_kdv_fom(alpha, rho, nu, grid), u)
        assert abs(h - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)


def _field_basis(rng, n, r, variant, u0):
    """Random orthonormal basis of one field, prepared for ``variant``."""
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    shifted = u0 if variant is RomVariant.SP2 else None
    basis = PodBasis(phi=q, sigma=np.ones(r), shifted_reference=shifted)
    return enrich_with_ic_residual(basis, u0) if variant is RomVariant.SP1 else basis


def _random_model(system, n, r, variant, seed):
    rng = np.random.default_rng(seed)
    if system == "kdv":
        grid = Grid1D(n=n, length=10.0, origin=-5.0)
        fom = build_kdv_fom(rng.uniform(-6, 6), rng.uniform(-1, 1), rng.uniform(-1.5, 1.5), grid)
        fields = [rng.standard_normal(n)]
    else:
        fom = build_wave_fom(rng.uniform(0.05, 2.0), Grid1D(n=n, length=1.0))
        fields = [rng.standard_normal(n), rng.standard_normal(n)]
    bases = [_field_basis(rng, n, r, variant, u0) for u0 in fields]
    return fom, reduce_operators(fom, bases, variant), rng


class TestReducedEnergy:
    @PROPERTY
    @given(
        system=st.sampled_from(["kdv", "wave"]),
        variant=st.sampled_from(list(RomVariant)),
        n=st.integers(8, 32),
        r=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    # SP-ROM-2 on KdV: the only case whose energy needs the linearization of
    # the quadratic term at the offset
    @example(system="kdv", variant=RomVariant.SP2, n=16, r=3, seed=0)
    def test_reduced_polynomial_is_energy_of_decoded_state(self, system, variant, n, r, seed):
        fom, model, rng = _random_model(system, n, r, variant, seed)
        for _ in range(3):
            a = rng.standard_normal(model.basis_matrix.shape[1])
            u = model.basis_matrix @ a
            scale = 0.0
            if model.decode_offset is not None:
                u = u + model.decode_offset
                scale = _magnitude(fom, model.decode_offset)
            scale += _magnitude(fom, u)
            assert abs(eval_energy(model.flow, a) - eval_energy(fom, u)) <= 1e-12 * scale

    @PROPERTY
    @given(
        variant=st.sampled_from([RomVariant.SP0, RomVariant.SP1, RomVariant.SP2]),
        dim=st.integers(4, 16),
        r=st.integers(1, 3),
        weight=st.floats(0.01, 2.0),
        dt=st.floats(0.005, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sp_drift_on_random_skew_quadratic_flows(self, variant, dim, r, weight, dt, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((dim, dim))
        B = rng.standard_normal((dim, dim))
        fom = PolyGradFlow(
            structure=0.5 * (A - A.T),
            linear=B @ B.T / dim + 0.5 * np.eye(dim),
            constant=0.1 * rng.standard_normal(dim),
            quadratic=DiagonalQuadratic(0.3),
            structure_tag="skew",
            energy_weight=weight,
        )
        u0 = 0.3 * rng.standard_normal(dim)
        model = reduce_operators(fom, _field_basis(rng, dim, r, variant, u0), variant)
        scheme = AvfScheme(dt=dt, t_end=50 * dt)
        h = run_rom(model, scheme, initial_state=u0).energies
        assert h.size == 51
        assert np.abs(h - h[0]).max() <= 1e-10


class TestPickle:
    def test_models_survive_a_pickle_round_trip(self):
        grid = Grid1D(n=24, length=10.0, origin=-5.0)
        fom = build_kdv_fom(-6.0, 0.2, -1.0, grid)
        u0 = kdv_initial(grid)
        scheme = AvfScheme(dt=0.02, t_end=0.2, snapshot_stride=2)
        copy = pickle.loads(pickle.dumps(fom))
        assert np.array_equal(integrate(copy, u0, scheme).states, integrate(fom, u0, scheme).states)
        rng = np.random.default_rng(3)
        for variant in RomVariant:
            model = reduce_operators(fom, _field_basis(rng, 24, 4, variant, u0), variant)
            copy = pickle.loads(pickle.dumps(model))
            before = run_rom(model, scheme, initial_state=u0)
            after = run_rom(copy, scheme, initial_state=u0)
            assert np.array_equal(after.states, before.states)
            assert np.array_equal(after.energies, before.energies)
