import numpy as np
import pytest

from epsmodes.errors import BandCoverageError, ProfileError
from epsmodes.lattice import Grid
from epsmodes.medium import Homogeneous, Sphere, build_profile
from epsmodes.modes import QOperator, degenerate_clusters, dense_transverse_spectrum, solve_modes
from epsmodes.emission import (
    AtomSpec,
    coupling_strengths,
    default_broadening,
    distinct_levels,
    edge_stencil,
    emission_rate,
    free_space_rate,
    ldos_spectrum,
    lorentzian,
    local_field_corrected_rate,
    sample_mode_fields,
    sample_permittivity,
    two_level_atom,
)


@pytest.fixture(scope="module")
def vacuum8():
    grid = Grid((8, 8, 8), 1.0)
    medium = build_profile(Homogeneous(1.0), grid)
    return dense_transverse_spectrum(QOperator(medium), include_zero_modes=False)


class TestAtomSpec:
    def test_symmetry_enforced(self):
        dip = np.zeros((2, 2, 3))
        dip[0, 1] = (1.0, 0, 0)
        with pytest.raises(ValueError):
            AtomSpec((1, 1, 1), (0.0, 1.0), dip)

    def test_two_level_helper(self):
        atom = two_level_atom((1, 2, 3), 0.9, (0, 0, 0.5), cavity_radius=2.0)
        assert atom.transition_frequency(1, 0) == pytest.approx(0.9)
        assert np.array_equal(atom.dipoles[1, 0], atom.dipoles[0, 1])


def _corner_loop(values, grid, position):
    """Reference trilinear edge sample of values[..., comp, i, j, k], corner by corner."""
    out = np.zeros(values.shape[:-4] + (3,))
    for a in range(3):
        u = [position[b] / grid.spacing - (0.5 if b == a else 0.0) for b in range(3)]
        lo = [int(np.floor(x)) for x in u]
        frac = [x - i for x, i in zip(u, lo)]
        for di in (0, 1):
            for dj in (0, 1):
                for dk in (0, 1):
                    w = 1.0
                    for b, d in enumerate((di, dj, dk)):
                        w = w * (frac[b] if d else 1.0 - frac[b])
                    i, j, k = ((lo[b] + d) % grid.dims[b] for b, d in enumerate((di, dj, dk)))
                    out[..., a] += w * values[..., a, i, j, k]
    return out


class TestSampling:
    @pytest.mark.parametrize("pos", [(3.7, 1.9, 6.2), (0.0, 7.99, 4.5), (2.0, 5.0, 3.0)])
    def test_stencil_matches_corner_loop(self, vacuum8, pos):
        # same products summed in the same order: equal to the last bit
        assert np.array_equal(sample_mode_fields(vacuum8, pos),
                              _corner_loop(vacuum8.modes_g, vacuum8.grid, pos))
        medium = build_profile(Sphere((4.0, 4.0, 4.0), 2.5, 1.0, 3.0), vacuum8.grid)
        expected = float(_corner_loop(medium.eps, medium.grid, pos).mean())
        assert sample_permittivity(medium, pos) == expected


class TestDipoleCoupling:
    def test_zero_dipole(self, vacuum8):
        atom = two_level_atom((3.3, 2.2, 4.4), 1.0, (0, 0, 0))
        gsq = coupling_strengths(vacuum8, atom, 1, 0)
        assert all(gsq == 0)
        assert len(gsq) == len(vacuum8)

    def test_orthogonal_dipole_mode_pair(self, vacuum8):
        # pick a mode, place the atom on a lattice point and aim the dipole
        # orthogonal to the sampled mode vector
        pos = (2.0, 5.0, 3.0)
        h_at = sample_mode_fields(vacuum8, pos)
        mode = 4
        v = h_at[mode]
        mu = np.cross(v, (0.0, 0.0, 1.0))
        if np.linalg.norm(mu) < 1e-12:
            mu = np.cross(v, (0.0, 1.0, 0.0))
        atom = two_level_atom(pos, 1.0, mu)
        gsq = coupling_strengths(vacuum8, atom, 1, 0)
        scale = np.sqrt(vacuum8.frequencies[mode] / 2) * np.linalg.norm(mu) * max(
            np.linalg.norm(v), 1e-30
        )
        assert np.sqrt(gsq[mode]) <= 1e-12 * max(scale, 1e-30)

    def test_coupling_formula(self, vacuum8):
        pos = (3.7, 1.9, 6.2)
        mu = np.array([0.2, -0.4, 0.7])
        atom = two_level_atom(pos, 1.0, mu)
        gsq = coupling_strengths(vacuum8, atom, 1, 0)
        h_at = sample_mode_fields(vacuum8, pos)
        for i in (0, 17, 101):
            expected = abs(np.sqrt(vacuum8.frequencies[i] / 2) * (h_at[i] @ mu))
            assert np.sqrt(gsq[i]) == pytest.approx(expected, abs=1e-14)

    def test_shell_sum_matches_plane_wave_analytics(self, vacuum8):
        # lowest degenerate shell: six axis wavevectors, polarization factor
        # 2/3 after averaging; per unit volume
        pos = (3.0, 3.0, 3.0)
        mu = np.array([0.4, 0.5, 0.3])
        atom = two_level_atom(pos, 1.0, mu)
        gsq = coupling_strengths(vacuum8, atom, 1, 0)
        w = vacuum8.frequencies
        cluster = np.abs(w - w[0]) <= 1e-8 * w.max()
        multiplicity = 6  # wavevectors in the shell
        volume = vacuum8.grid.volume
        expected = float(mu @ mu) * w[0] / 2 * (multiplicity * 2 / 3) / volume
        assert gsq[cluster].sum() == pytest.approx(expected, rel=1e-6)

    def test_position_outside_grid(self, vacuum8):
        atom = two_level_atom((9.5, 1.0, 1.0), 1.0, (1, 0, 0))
        with pytest.raises(ProfileError):
            coupling_strengths(vacuum8, atom, 1, 0)


class TestEmissionRate:
    def test_zero_dipole_zero_rate(self, vacuum8):
        atom = two_level_atom((3.3, 2.2, 4.4), 1.2, (0, 0, 0))
        report = emission_rate(vacuum8, atom, eta=0.1)
        assert report.rate == 0.0
        assert report.ratio == 0.0

    def test_vacuum_self_consistency(self, vacuum8):
        # complete small-box spectrum reproduces the analytic free-space rate
        atom = two_level_atom((3.37, 2.91, 3.22), 1.2, (0.4, 0.5, 0.3))
        report = emission_rate(vacuum8, atom, eta=0.2)
        assert abs(report.ratio - 1.0) <= 0.15

    def test_linear_in_dipole_squared(self, vacuum8):
        pos = (3.1, 4.2, 2.6)
        base = two_level_atom(pos, 1.2, (0.2, 0.3, -0.4))
        scaled = two_level_atom(pos, 1.2, (0.6, 0.9, -1.2))
        r1 = emission_rate(vacuum8, base, eta=0.15)
        r2 = emission_rate(vacuum8, scaled, eta=0.15)
        assert r2.rate == pytest.approx(9 * r1.rate, rel=1e-12)

    def test_band_coverage_enforced(self, vacuum8):
        atom = two_level_atom((3.3, 2.2, 4.4), 0.5, (1, 0, 0))
        with pytest.raises(BandCoverageError):
            emission_rate(vacuum8, atom, eta=0.1)
        with pytest.raises(ValueError):
            emission_rate(vacuum8, two_level_atom((1, 1, 1), -1.0, (1, 0, 0)))

    def test_cluster_sum_gauge_invariance(self, vacuum8, rng):
        # individual couplings change under orthogonal remixing of a
        # degenerate cluster; their sum does not
        pos = (2.6, 5.3, 1.8)
        mu = np.array([0.3, -0.7, 0.6])
        atom = two_level_atom(pos, 1.0, mu)
        gsq = coupling_strengths(vacuum8, atom, 1, 0)
        w = vacuum8.frequencies
        cluster = np.where(np.abs(w - w[0]) <= 1e-8 * w.max())[0]
        h_cluster = np.stack([vacuum8.mode_h(i).values for i in cluster])
        q, _ = np.linalg.qr(rng.standard_normal((len(cluster), len(cluster))))
        mixed = np.tensordot(q.T, h_cluster, axes=(1, 0))
        index, weights = edge_stencil(vacuum8.grid, pos)
        mixed_at = (weights * mixed[(slice(None),) + index]).sum(axis=1)
        mixed_gsq = 0.5 * w[cluster] * (mixed_at @ mu) ** 2
        assert mixed_gsq.sum() == pytest.approx(gsq[cluster].sum(), rel=1e-10)

    def test_rate_independent_of_solver_seed(self):
        grid = Grid((8, 8, 8), 1.0)
        op = QOperator(build_profile(Homogeneous(1.0), grid))
        atom = two_level_atom((3.37, 2.91, 3.22), 0.92, (0.4, 0.5, 0.3))
        rates = []
        for seed in (0, 987654):
            bank = solve_modes(op, 36, tol=1e-11, seed=seed)
            rates.append(emission_rate(bank, atom, eta=0.05).rate)
        assert abs(rates[0] - rates[1]) <= 1e-10 * rates[0]


class TestDefaultBroadening:
    def test_scales_with_spectrum(self, vacuum8):
        eta = default_broadening(vacuum8, 1.2)
        assert eta > 0
        # a uniformly scaled spectrum scales the default linearly
        import dataclasses

        shrunk = dataclasses.replace(
            vacuum8,
            frequencies=vacuum8.frequencies / 2,
            modes_g=vacuum8.modes_g,
        )
        assert default_broadening(shrunk, 0.6) == pytest.approx(eta / 2, rel=1e-12)

    def test_degenerate_cluster_not_fooled(self, vacuum8):
        # omega right on a highly degenerate shell still yields a finite width
        eta = default_broadening(vacuum8, float(vacuum8.frequencies[0]))
        assert eta > 1e-3

    @pytest.mark.parametrize("edge, offset", [(0, -1.4e-15), (-1, 1.4e-15)],
                             ids=["lowest", "highest"])
    def test_probe_a_rounding_step_off_an_edge_resonance(self, vacuum8, edge, offset):
        # the edge resonance sits a few ulps from the probe at 1.0, inside the
        # band: the margin is rounding noise, not a distance to clamp to, so
        # the width is the one an exact hit gets (it once came out ~1e-16)
        import dataclasses

        lv = distinct_levels(vacuum8.frequencies)
        bank = dataclasses.replace(
            vacuum8, frequencies=vacuum8.frequencies * ((1.0 + offset) / lv[edge]))
        level = distinct_levels(bank.frequencies)[edge]
        assert 0 < (1.0 - level) * np.sign(-offset) < 1e-14
        eta = default_broadening(bank, 1.0)
        assert eta == default_broadening(bank, float(level))
        assert eta > 1e-3

    def test_levels_merge_clusters_as_the_bank_does(self):
        # gaps of 0.8e-8 chain three frequencies into one cluster, though
        # its ends lie 1.6e-8 apart, above the 1e-8 tolerance
        w = np.array([0.5, 0.5 + 0.8e-8, 0.5 + 1.6e-8])
        assert degenerate_clusters(w) == [slice(0, 3)]
        assert distinct_levels(w).tolist() == [0.5]


class TestLocalFieldRate:
    def test_unit_host_keeps_free_space_rate(self):
        atom = two_level_atom((4, 4, 4), 1.0, (0, 0, 0.8), cavity_radius=3.0)
        report = local_field_corrected_rate(1.0, atom, factor_grid=Grid((32, 32, 32)))
        assert report.local_field_factor == pytest.approx(1.0)
        assert report.ratio == pytest.approx(1.0)

    def test_composition_against_quasi_static_arithmetic(self):
        atom = two_level_atom((4, 4, 4), 1.0, (0, 0, 0.8), cavity_radius=4.0)
        report = local_field_corrected_rate(4.0, atom, factor_grid=Grid((48, 48, 48)))
        target = (12 / 9) ** 2 * 2.0
        assert abs(report.ratio - target) <= 0.05 * target
        assert report.local_field_factor == pytest.approx(12 / 9, rel=0.03)

    def test_requires_cavity_radius(self):
        atom = two_level_atom((4, 4, 4), 1.0, (0, 0, 0.8))
        with pytest.raises(ValueError):
            local_field_corrected_rate(4.0, atom)


class TestLorentzian:
    @pytest.mark.parametrize("x, eta, expect", [
        (1e300, 0.1, 0.0),                      # x*x overflows; the exact value underflows
        (1.0, 1e200, 3.1830988618379067e-201),  # eta*eta overflows
        (1e-170, 1e-200, 3.183098861837907e139),  # x*x + eta*eta underflows to zero
    ])
    def test_extreme_arguments(self, x, eta, expect):
        # RuntimeWarnings are errors in this suite, so each case is also warning-free
        got = lorentzian(np.array([x, -x]), eta)
        assert np.all(np.isfinite(got))
        assert got[0] == got[1]
        assert abs(got[0] - expect) <= 4 * np.spacing(expect)

    def test_normal_denominators_keep_the_plain_formula(self, rng):
        x = rng.standard_normal(200) * 10.0 ** rng.integers(-100, 100, 200)
        for eta in (1e-3, 0.06, 2.5, 1e50):
            assert np.array_equal(lorentzian(x, eta), (eta / np.pi) / (x * x + eta * eta))


class TestLdos:
    def test_orientation_flip_invariant(self, vacuum8):
        omegas = np.linspace(0.9, 2.0, 50)
        _, up = ldos_spectrum(vacuum8, (3.3, 2.4, 5.1), (0, 0, 1), omegas, 0.1)
        _, down = ldos_spectrum(vacuum8, (3.3, 2.4, 5.1), (0, 0, -1), omegas, 0.1)
        assert np.abs(up - down).max() <= 1e-13

    def test_integrates_to_projector_diagonal(self, vacuum8):
        pos = (3.37, 2.91, 3.22)
        u = np.array([0.3, -0.5, 0.81])
        u /= np.linalg.norm(u)
        proj = sample_mode_fields(vacuum8, pos) @ u
        target = float((proj**2).sum() * sample_permittivity(vacuum8.medium, pos))
        omegas = np.linspace(1e-3, 9.0, 4000)
        _, vals = ldos_spectrum(vacuum8, pos, u, omegas, 0.05)
        integral = np.trapezoid(vals, omegas)
        assert abs(integral - target) <= 0.05 * target

    def test_vacuum_power_law(self, vacuum8):
        # averaged over positions and orientations the low-band trend follows
        # the free-space omega^2 density of states
        omegas = np.linspace(0.8, 1.9, 160)
        acc = np.zeros_like(omegas)
        for pos in ((3.37, 2.91, 3.22), (1.2, 5.7, 2.4), (6.1, 0.8, 4.5), (2.9, 3.3, 6.6)):
            for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                _, vals = ldos_spectrum(vacuum8, pos, u, omegas, 0.05)
                acc += vals
        slope = np.polyfit(np.log(omegas), np.log(acc), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_input_validation(self, vacuum8):
        with pytest.raises(ValueError):
            ldos_spectrum(vacuum8, (1, 1, 1), (0, 0, 1), np.array([2.0, 1.0]), 0.1)
        with pytest.raises(ValueError):
            ldos_spectrum(vacuum8, (1, 1, 1), (0, 0, 0), np.array([1.0, 2.0]), 0.1)
        with pytest.raises(ValueError):
            ldos_spectrum(vacuum8, (1, 1, 1), (0, 0, 1), np.array([1.0, 2.0]), -0.1)


def test_free_space_rate_value():
    # natural units: rate = w^3 mu^2 / (3 pi)
    assert free_space_rate(2.0, np.array([0.0, 0.0, 0.5])) == pytest.approx(
        8 * 0.25 / (3 * np.pi)
    )
