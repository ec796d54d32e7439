import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamrom import metrics
from hamrom.avf import Trajectory
from hamrom.metrics import e_inf_scalar, e_inf_wave, energy_report, squared_errors


def make_traj(states, energies=None):
    states = np.asarray(states, dtype=float)
    k = states.shape[1]
    return Trajectory(
        times=np.arange(k, dtype=float),
        states=states,
        energies=np.zeros(3) if energies is None else np.asarray(energies, float),
        steps_total=k - 1,
        dt=1.0,
    )


class TestWaveError:
    def test_identical(self):
        rng = np.random.default_rng(0)
        t = make_traj(rng.standard_normal((8, 4)))
        assert e_inf_wave(t, t) == 0.0

    def test_constant_offset_on_one_field(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((8, 4))
        shifted = base.copy()
        shifted[:4] += 0.1  # first field only
        assert e_inf_wave(make_traj(base), make_traj(shifted)) == pytest.approx(0.1)

    def test_two_field_euclidean_combination(self):
        base = np.zeros((4, 2))
        other = np.zeros((4, 2))
        other[0, 1] = 3.0  # field one, point 0
        other[2, 1] = 4.0  # field two, same point
        assert e_inf_wave(make_traj(base), make_traj(other)) == pytest.approx(5.0)

    def test_includes_initial_time(self):
        base = np.zeros((4, 3))
        other = np.zeros((4, 3))
        other[1, 0] = 0.7  # only the first recorded column differs
        assert e_inf_wave(make_traj(base), make_traj(other)) == pytest.approx(0.7)

    def test_requires_even_dimension(self):
        t = make_traj(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="even"):
            e_inf_wave(t, t)


class TestScalarError:
    def test_identical(self):
        rng = np.random.default_rng(2)
        t = make_traj(rng.standard_normal((6, 4)))
        assert e_inf_scalar(t, t) == 0.0

    def test_single_perturbed_entry(self):
        base = np.zeros((6, 4))
        other = base.copy()
        other[3, 2] = 0.2
        assert e_inf_scalar(make_traj(base), make_traj(other)) == pytest.approx(0.2)

    def test_excludes_initial_time(self):
        base = np.zeros((6, 4))
        other = base.copy()
        other[3, 0] = 5.0  # difference only at the initial column
        assert e_inf_scalar(make_traj(base), make_traj(other)) == 0.0


class TestMetricProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = make_traj(rng.standard_normal((8, 5)))
        b = make_traj(rng.standard_normal((8, 5)))
        assert e_inf_wave(a, b) == e_inf_wave(b, a)
        assert e_inf_scalar(a, b) == e_inf_scalar(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        a = make_traj(rng.standard_normal((8, 5)))
        b = make_traj(rng.standard_normal((8, 5)))
        c = make_traj(rng.standard_normal((8, 5)))
        for metric in (e_inf_wave, e_inf_scalar):
            assert metric(a, c) <= metric(a, b) + metric(b, c) + 1e-12

    def test_mismatched_grids(self):
        a = make_traj(np.zeros((8, 4)))
        b = make_traj(np.zeros((6, 4)))
        with pytest.raises(ValueError, match="grids"):
            e_inf_scalar(a, b)

    def test_mismatched_times(self):
        a = make_traj(np.zeros((6, 4)))
        b = Trajectory(
            times=np.array([0.0, 2.0, 4.0, 6.0]),
            states=np.zeros((6, 4)),
            energies=np.zeros(3),
            steps_total=3,
            dt=2.0,
        )
        with pytest.raises(ValueError, match="times"):
            e_inf_scalar(a, b)


B = metrics._BLOCK_COLUMNS  # columns per difference block at these dimensions


class TestBlockwiseMatchesDecoded:
    """The block-wise errors of a reduced trajectory equal the formulas on
    the fully decoded state matrix."""

    @settings(max_examples=60, deadline=None)
    @given(
        half=st.integers(1, 12),
        r_share=st.floats(0.0, 1.0),
        cols=st.one_of(st.sampled_from([1, 2, B, B + 1, 2 * B, 3 * B - 7]), st.integers(1, 700)),
        with_offset=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(half=3, r_share=0.5, cols=1, with_offset=True, seed=0)
    @example(half=3, r_share=0.5, cols=2, with_offset=False, seed=1)
    @example(half=8, r_share=1.0, cols=B, with_offset=True, seed=2)
    @example(half=8, r_share=0.0, cols=B + 1, with_offset=False, seed=3)
    @example(half=5, r_share=0.3, cols=2 * B + 100, with_offset=True, seed=4)
    def test_random_bases(self, half, r_share, cols, with_offset, seed):
        rng = np.random.default_rng(seed)
        dim = 2 * half
        r = 1 + int(r_share * (dim - 1))
        basis = np.linalg.qr(rng.standard_normal((dim, r)))[0]
        coeffs = rng.standard_normal((r, cols))
        offset = rng.standard_normal(dim) if with_offset else None
        times = 0.1 * np.arange(cols)
        fom_states = rng.standard_normal((dim, cols))
        decoded = basis @ coeffs + (0.0 if offset is None else offset[:, None])

        def traj(states, **decode_map):
            return Trajectory(times=times, states=states, energies=np.zeros(cols),
                              steps_total=max(cols - 1, 1), dt=0.1, **decode_map)

        fom = traj(fom_states)
        rom = traj(coeffs, basis=basis, offset=offset)
        full = traj(decoded)
        diff = decoded - fom_states

        def close(value, expected):
            return abs(value - expected) <= 1e-14 * abs(expected)

        wave = np.sqrt(diff[:half] ** 2 + diff[half:] ** 2).max()
        for a, b in ((fom, rom), (rom, fom), (fom, full)):
            assert close(e_inf_wave(a, b), wave)
        err2 = np.sum(diff**2, axis=0)
        got = squared_errors(fom, rom)
        assert got.shape == (cols,)
        assert np.all(np.abs(got - err2) <= 1e-14 * err2)
        assert close(np.trapezoid(got, times), np.trapezoid(err2, times))
        if cols == 1:
            with pytest.raises(ValueError, match="recorded time after the start"):
                e_inf_scalar(fom, rom)
        else:
            scalar = np.abs(diff[:, 1:]).max()
            for a, b in ((fom, rom), (rom, fom), (fom, full)):
                assert close(e_inf_scalar(a, b), scalar)

    def test_reduced_against_reduced(self):
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        times = np.arange(300.0)
        a, b = rng.standard_normal((3, 300)), rng.standard_normal((3, 300))
        first = Trajectory(times=times, states=a, energies=np.zeros(2), steps_total=299,
                           dt=1.0, basis=basis)
        second = Trajectory(times=times, states=b, energies=np.zeros(2), steps_total=299,
                            dt=1.0, basis=basis, offset=np.ones(6))
        diff = basis @ (b - a) + 1.0
        assert e_inf_scalar(first, second) == pytest.approx(np.abs(diff[:, 1:]).max(), rel=1e-14)

    def test_decode_basis_must_match_the_coefficients(self):
        with pytest.raises(ValueError, match="decode basis"):
            Trajectory(times=np.arange(2.0), states=np.zeros((3, 2)), energies=np.zeros(2),
                       steps_total=1, dt=1.0, basis=np.zeros((6, 4)))


class TestEnergyReport:
    def test_flat_series(self):
        rom = make_traj(np.zeros((4, 2)), energies=[1.5, 1.5, 1.5])
        fom = make_traj(np.zeros((4, 2)), energies=[1.2, 1.2, 1.2])
        rep = energy_report(rom, fom)
        assert rep.drift == 0.0
        assert rep.offset == pytest.approx(0.3)

    def test_drift_is_max_excursion(self):
        rom = make_traj(np.zeros((4, 2)), energies=[1.0, 1.4, 0.9])
        fom = make_traj(np.zeros((4, 2)), energies=[1.0, 1.0, 1.0])
        rep = energy_report(rom, fom)
        assert rep.drift == pytest.approx(0.4)

    def test_length_mismatch(self):
        rom = make_traj(np.zeros((4, 2)), energies=[1.0, 1.0])
        fom = make_traj(np.zeros((4, 2)), energies=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="length"):
            energy_report(rom, fom)
