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
        assert e_inf_wave(t, [t]).tolist() == [0.0]

    def test_constant_offset_on_one_field(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((8, 4))
        shifted = base.copy()
        shifted[:4] += 0.1  # first field only
        assert e_inf_wave(make_traj(base), [make_traj(shifted)]) == pytest.approx([0.1])

    def test_two_field_euclidean_combination(self):
        base = np.zeros((4, 2))
        other = np.zeros((4, 2))
        other[0, 1] = 3.0  # field one, point 0
        other[2, 1] = 4.0  # field two, same point
        assert e_inf_wave(make_traj(base), [make_traj(other)]) == pytest.approx([5.0])

    def test_includes_initial_time(self):
        base = np.zeros((4, 3))
        other = np.zeros((4, 3))
        other[1, 0] = 0.7  # only the first recorded column differs
        assert e_inf_wave(make_traj(base), [make_traj(other)]) == pytest.approx([0.7])

    def test_requires_even_dimension(self):
        t = make_traj(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="even"):
            e_inf_wave(t, [t])


class TestScalarError:
    def test_identical(self):
        rng = np.random.default_rng(2)
        t = make_traj(rng.standard_normal((6, 4)))
        assert e_inf_scalar(t, [t]).tolist() == [0.0]

    def test_single_perturbed_entry(self):
        base = np.zeros((6, 4))
        other = base.copy()
        other[3, 2] = 0.2
        assert e_inf_scalar(make_traj(base), [make_traj(other)]) == pytest.approx([0.2])

    def test_excludes_initial_time(self):
        base = np.zeros((6, 4))
        other = base.copy()
        other[3, 0] = 5.0  # difference only at the initial column
        assert e_inf_scalar(make_traj(base), [make_traj(other)]).tolist() == [0.0]


class TestMetricProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = make_traj(rng.standard_normal((8, 5)))
        b = make_traj(rng.standard_normal((8, 5)))
        assert e_inf_wave(a, [b]) == e_inf_wave(b, [a])
        assert e_inf_scalar(a, [b]) == e_inf_scalar(b, [a])

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        a = make_traj(rng.standard_normal((8, 5)))
        b = make_traj(rng.standard_normal((8, 5)))
        c = make_traj(rng.standard_normal((8, 5)))
        for metric in (e_inf_wave, e_inf_scalar):
            ac, ab = metric(a, [c, b])
            (bc,) = metric(b, [c])
            assert ac <= ab + bc + 1e-12

    def test_mismatched_grids(self):
        a = make_traj(np.zeros((8, 4)))
        b = make_traj(np.zeros((6, 4)))
        with pytest.raises(ValueError, match="grids"):
            e_inf_scalar(a, [b])

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
            e_inf_scalar(a, [b])


B = metrics._BLOCK_COLUMNS  # columns per difference block at these dimensions


class TestBlockwiseMatchesDecoded:
    """One comparison of several reduced and full runs equals, run by run,
    the formulas on the fully decoded state matrices and a one-run call."""

    @settings(max_examples=60, deadline=None)
    @given(
        half=st.integers(1, 12),
        reduced=st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=4),
        cols=st.one_of(st.sampled_from([1, 2, B, B + 1, 2 * B, 3 * B - 7]), st.integers(1, 700)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(half=3, reduced=[(0.5, True)], cols=1, seed=0)
    @example(half=3, reduced=[(0.5, False), (0.0, True)], cols=2, seed=1)
    @example(half=8, reduced=[(1.0, True), (0.3, False)], cols=B, seed=2)
    @example(half=8, reduced=[(0.0, False)], cols=B + 1, seed=3)
    @example(half=5, reduced=[(0.3, True), (1.0, False), (0.6, True)], cols=2 * B + 100, seed=4)
    def test_random_bases(self, half, reduced, cols, seed):
        # ``reduced`` holds (share of the dimension in the basis, with offset) per reduced run
        rng = np.random.default_rng(seed)
        dim = 2 * half
        times = 0.1 * np.arange(cols)

        def traj(states, at=times, **decode_map):
            return Trajectory(times=at, states=states, energies=np.zeros(cols),
                              steps_total=max(cols - 1, 1), dt=0.1, **decode_map)

        fom_states = rng.standard_normal((dim, cols))
        fom = traj(fom_states)
        runs, decoded = [], []
        for r_share, with_offset in reduced:
            r = 1 + int(r_share * (dim - 1))
            basis = np.linalg.qr(rng.standard_normal((dim, r)))[0]
            coeffs = rng.standard_normal((r, cols))
            offset = rng.standard_normal(dim) if with_offset else None
            runs.append(traj(coeffs, basis=basis, offset=offset))
            decoded.append(basis @ coeffs + (0.0 if offset is None else offset[:, None]))
        decoded.append(rng.standard_normal((dim, cols)))
        runs.append(traj(decoded[-1]))  # a full-state run among the reduced ones
        diffs = [states - fom_states for states in decoded]

        def close(values, expected):
            return np.all(np.abs(values - expected) <= 1e-14 * np.abs(expected))

        def one_by_one(metric, reference=fom):
            return np.concatenate([metric(reference, [run]) for run in runs])

        wave = np.array([np.sqrt(d[:half] ** 2 + d[half:] ** 2).max() for d in diffs])
        got = e_inf_wave(fom, runs)
        assert got.shape == (len(runs),) and close(got, wave)
        assert np.array_equal(got, one_by_one(e_inf_wave))
        assert close(e_inf_wave(runs[0], [fom]), wave[0])  # a reduced run as the reference
        err2 = np.array([np.sum(d**2, axis=0) for d in diffs])
        rows = squared_errors(fom, runs)
        assert rows.shape == (len(runs), cols) and close(rows, err2)
        assert np.array_equal(rows, one_by_one(squared_errors))
        assert close(np.trapezoid(rows, times), np.trapezoid(err2, times))
        if cols == 1:
            with pytest.raises(ValueError, match="recorded time after the start"):
                e_inf_scalar(fom, runs)
        else:
            scalar = np.array([np.abs(d[:, 1:]).max() for d in diffs])
            got = e_inf_scalar(fom, runs)
            assert got.shape == (len(runs),) and close(got, scalar)
            assert np.array_equal(got, one_by_one(e_inf_scalar))
            assert close(e_inf_scalar(runs[0], [fom]), scalar[0])
        # one run on another grid or time axis spoils the whole call
        for bad, match in ((traj(np.zeros((dim + 2, cols))), "grids"),
                           (traj(fom_states, at=times + 1.0), "times")):
            mixed = runs[:1] + [bad] + runs[1:]
            for metric in (e_inf_wave, e_inf_scalar, squared_errors):
                with pytest.raises(ValueError, match=match):
                    metric(fom, mixed)

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
        assert e_inf_scalar(first, [second]) == pytest.approx([np.abs(diff[:, 1:]).max()],
                                                             rel=1e-14)

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
