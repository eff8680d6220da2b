import numpy as np
import pytest

from epsmodes.errors import IncompleteBankError
from epsmodes.lattice import EDGE, Grid, VectorField, curl_t_raw, div, grad_raw
from epsmodes.medium import Homogeneous, build_profile, eps_inner
from epsmodes.modes import QOperator, dense_transverse_spectrum, solve_modes
from epsmodes.quantization import (
    ModeCoefficients,
    TransverseProjector,
    analyze_field,
    commutator_dyadic,
    evolve,
    hamiltonian_energy,
    projector_matrix,
    synthesize_fields,
)

from conftest import smooth_medium


@pytest.fixture(scope="module")
def small_bank():
    grid = Grid((4, 4, 4), 1.0)
    medium = smooth_medium(grid, seed=2)
    return dense_transverse_spectrum(QOperator(medium))


@pytest.fixture(scope="module")
def vacuum_bank():
    grid = Grid((4, 4, 4), 1.0)
    medium = build_profile(Homogeneous(1.0), grid)
    return dense_transverse_spectrum(QOperator(medium))


class TestModeCoefficients:
    def test_amplitude_round_trip(self, rng):
        om = np.array([0.5, 1.0, 2.5])
        coeffs = ModeCoefficients(rng.standard_normal(3), rng.standard_normal(3))
        a = coeffs.amplitudes(om)
        back = ModeCoefficients.from_amplitudes(a, om)
        assert np.abs(back.q - coeffs.q).max() < 1e-12
        assert np.abs(back.p - coeffs.p).max() < 1e-12

    def test_zero_frequency_rejected(self):
        coeffs = ModeCoefficients([1.0], [0.0])
        with pytest.raises(ValueError):
            coeffs.amplitudes(np.array([0.0]))


class TestSynthesis:
    def test_zero_coefficients(self, small_bank):
        coeffs = ModeCoefficients(np.zeros(len(small_bank)), np.zeros(len(small_bank)))
        snap = synthesize_fields(small_bank, coeffs)
        assert np.all(snap.vector_potential.values == 0.0)
        assert np.all(snap.conjugate_momentum.values == 0.0)

    def test_single_mode_reproduces_basis(self, small_bank):
        q = np.zeros(len(small_bank))
        q[5] = 1.0
        snap = synthesize_fields(small_bank, ModeCoefficients(q, np.zeros_like(q)))
        assert np.array_equal(snap.vector_potential.values, small_bank.mode_h(5).values)

    def test_analysis_round_trip(self, small_bank, rng):
        n = len(small_bank)
        coeffs = ModeCoefficients(rng.standard_normal(n), rng.standard_normal(n))
        snap = synthesize_fields(small_bank, coeffs)
        recovered = analyze_field(small_bank, snap.vector_potential)
        assert np.abs(recovered - coeffs.q).max() < 1e-10
        # single-mode inner products agree with the eps-weighted metric
        probe = small_bank.mode_h(7)
        assert eps_inner(snap.vector_potential, probe, small_bank.medium) == pytest.approx(
            coeffs.q[7], abs=1e-10
        )

    def test_free_field_momentum_is_transverse(self, small_bank, rng):
        n = len(small_bank)
        coeffs = ModeCoefficients(rng.standard_normal(n), rng.standard_normal(n))
        snap = synthesize_fields(small_bank, coeffs)
        d = div(snap.conjugate_momentum).values
        assert np.abs(d).max() <= 1e-8 * np.abs(snap.conjugate_momentum.values).max()

    def test_size_mismatch(self, small_bank):
        with pytest.raises(ValueError):
            synthesize_fields(small_bank, ModeCoefficients([1.0], [0.0]))


class TestHamiltonian:
    def test_zero_state(self, small_bank):
        coeffs = ModeCoefficients(np.zeros(len(small_bank)), np.zeros(len(small_bank)))
        e = hamiltonian_energy(small_bank, coeffs)
        assert e.integral_form == 0.0 and e.spectral_form == 0.0

    def test_single_oscillator(self, small_bank):
        q = np.zeros(len(small_bank))
        q[10] = 1.0
        e = hamiltonian_energy(small_bank, ModeCoefficients(q, np.zeros_like(q)))
        target = 0.5 * small_bank.frequencies[10] ** 2
        assert e.spectral_form == pytest.approx(target, rel=1e-12)
        assert e.integral_form == pytest.approx(target, rel=1e-8)

    def test_integral_equals_spectral(self, small_bank, rng):
        n = len(small_bank)
        for _ in range(10):
            coeffs = ModeCoefficients(rng.standard_normal(n), rng.standard_normal(n))
            e = hamiltonian_energy(small_bank, coeffs)
            assert abs(e.integral_form - e.spectral_form) <= 1e-7 * e.spectral_form

    def test_harmonic_evolution_conserves_energy(self, small_bank, rng):
        n = len(small_bank)
        coeffs = ModeCoefficients(rng.standard_normal(n), rng.standard_normal(n))
        e0 = hamiltonian_energy(small_bank, coeffs)
        nonzero = small_bank.frequencies[small_bank.frequencies > 1e-6]
        period = 2 * np.pi / nonzero.min()
        for t in np.linspace(0, 10 * period, 7):
            # zero modes drift linearly, so freeze their coefficients
            moved = evolve(coeffs, small_bank.frequencies, t)
            q = np.where(small_bank.frequencies > 1e-6, moved.q, coeffs.q)
            p = np.where(small_bank.frequencies > 1e-6, moved.p, coeffs.p)
            e = hamiltonian_energy(small_bank, ModeCoefficients(q, p))
            assert abs(e.spectral_form - e0.spectral_form) <= 1e-9 * e0.spectral_form
            assert abs(e.integral_form - e0.integral_form) <= 1e-9 * e0.integral_form


class TestProjector:
    def test_identity_on_transverse(self, small_bank, rng):
        g = small_bank.grid
        x = VectorField(g, EDGE, curl_t_raw(rng.standard_normal((3,) + g.dims), 1.0))
        out = TransverseProjector(small_bank).apply(x)
        assert np.abs(out.values - x.values).max() <= 1e-8 * np.abs(x.values).max()

    def test_annihilates_weighted_gradients(self, small_bank, rng):
        g = small_bank.grid
        m = small_bank.medium
        x = VectorField(g, EDGE, m.eps * grad_raw(rng.standard_normal(g.dims), 1.0))
        out = TransverseProjector(small_bank).apply(x)
        assert np.abs(out.values).max() <= 1e-8 * np.abs(x.values).max()

    def test_truncated_projector_idempotent(self, rng):
        g = Grid((5, 5, 5), 1.0)
        m = smooth_medium(g, seed=4)
        bank = solve_modes(QOperator(m), 10, tol=1e-10)
        proj = TransverseProjector(bank)
        x = VectorField(g, EDGE, rng.standard_normal((3,) + g.dims))
        once = proj.apply(x)
        twice = proj.apply(once)
        assert np.abs(twice.values - once.values).max() <= 1e-10 * np.abs(once.values).max()

    def test_weighted_contraction_self_adjoint_in_eps_metric(self, small_bank, rng):
        g = small_bank.grid
        m = small_bank.medium
        proj = TransverseProjector(small_bank)
        x = VectorField(g, EDGE, rng.standard_normal((3,) + g.dims))
        y = VectorField(g, EDGE, rng.standard_normal((3,) + g.dims))
        lhs = eps_inner(proj.apply_weighted(x), y, m)
        rhs = eps_inner(x, proj.apply_weighted(y), m)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_matrix_idempotent_and_generalized_transverse(self, small_bank, rng):
        m = small_bank.medium
        k = projector_matrix(small_bank)
        assert np.abs(k @ k - k).max() <= 1e-8
        x = rng.standard_normal(k.shape[1])
        out = (k @ x).reshape((3,) + small_bank.grid.dims)
        from epsmodes.lattice import div_raw

        d = div_raw(m.eps * out, 1.0)
        assert np.abs(d).max() <= 1e-8 * np.abs(out).max()


class TestCommutator:
    def test_vacuum_symbol_is_discrete_transverse_projector(self, vacuum_bank):
        # Fourier symbol per wavevector: identity minus the outer product of
        # the discrete unit wavevector (forward-difference phase factors);
        # at k = 0 the three uniform modes give the identity
        g = vacuum_bank.grid
        n = g.dims[0]
        k_full = projector_matrix(vacuum_bank)
        freqs = np.fft.fftfreq(n)
        worst = 0.0
        for kidx in np.ndindex((n, n, n)):
            kvec = 2 * np.pi * np.array([freqs[i] for i in kidx])
            phase_x = np.exp(1j * kvec[0] * np.arange(n))
            pw = (
                phase_x[:, None, None]
                * np.exp(1j * kvec[1] * np.arange(n))[None, :, None]
                * np.exp(1j * kvec[2] * np.arange(n))[None, None, :]
            )
            sym = np.zeros((3, 3), complex)
            for b in range(3):
                vb = np.zeros((3,) + g.dims, complex)
                vb[b] = pw
                out = (k_full @ vb.ravel()).reshape((3,) + g.dims)
                for a in range(3):
                    sym[a, b] = np.vdot(pw, out[a]) / np.vdot(pw, pw)
            m = (np.exp(1j * kvec) - 1.0) / g.spacing
            if np.linalg.norm(m) < 1e-12:
                ref = np.eye(3)
            else:
                mh = m / np.linalg.norm(m)
                ref = np.eye(3) - np.outer(mh, mh.conj())
            worst = max(worst, np.abs(sym - ref).max())
        assert worst <= 1e-8

    def test_trace_counts_modes(self, vacuum_bank):
        g = vacuum_bank.grid
        total = sum(
            np.trace(commutator_dyadic(vacuum_bank, idx, idx))
            for idx in np.ndindex(g.dims)
        ) * g.cell_volume
        assert total == pytest.approx(len(vacuum_bank), abs=1e-6)

    def test_matches_independent_helmholtz_projector(self, small_bank):
        # oblique-projector oracle: identity minus the eps-orthogonal
        # projector onto gradients, built without any eigendecomposition
        m = small_bank.medium
        g = small_bank.grid
        ncells = g.ncells
        basis = np.eye(ncells).reshape(g.dims + (ncells,))
        grads = grad_raw(basis, g.spacing).reshape(3 * ncells, ncells)
        gw = grads * m.eps.reshape(3 * ncells)[:, None]
        gram = grads.T @ gw
        proj = gw @ np.linalg.pinv(gram, rcond=1e-12) @ grads.T
        oracle = np.eye(3 * ncells) - proj.T
        k_full = projector_matrix(small_bank)
        assert np.abs(k_full - oracle).max() <= 1e-8

    def test_far_entries_match_dense_oracle(self, small_bank):
        dyadic = commutator_dyadic(small_bank, (0, 1, 2), (3, 2, 0))
        k_full = projector_matrix(small_bank)
        n = small_bank.grid.dims[0]
        flat_r = np.ravel_multi_index((0, 1, 2), small_bank.grid.dims)
        flat_rp = np.ravel_multi_index((3, 2, 0), small_bank.grid.dims)
        ncells = small_bank.grid.ncells
        block = np.array(
            [[k_full[a * ncells + flat_r, b * ncells + flat_rp] for b in range(3)]
             for a in range(3)]
        ) / small_bank.grid.cell_volume
        assert np.abs(dyadic - block).max() <= 1e-12

    def test_far_entries_6cubed_against_helmholtz_oracle(self):
        # inhomogeneous medium, well-separated cells: the spectral dyadic
        # equals the eps-orthogonal complement of the gradient projector,
        # an oracle with no eigendecomposition in it
        g = Grid((6, 6, 6), 1.0)
        m = smooth_medium(g, seed=12, lo=1.0, hi=4.0)
        bank = dense_transverse_spectrum(QOperator(m))
        ncells = g.ncells
        basis = np.eye(ncells).reshape(g.dims + (ncells,))
        grads = grad_raw(basis, g.spacing).reshape(3 * ncells, ncells)
        gw = grads * m.eps.reshape(3 * ncells)[:, None]
        gram = grads.T @ gw
        proj = gw @ np.linalg.pinv(gram, rcond=1e-12) @ grads.T
        oracle = np.eye(3 * ncells) - proj.T
        r_idx, rp_idx = (0, 1, 2), (3, 4, 0)
        flat_r = np.ravel_multi_index(r_idx, g.dims)
        flat_rp = np.ravel_multi_index(rp_idx, g.dims)
        expected = np.array(
            [[oracle[a * ncells + flat_r, b * ncells + flat_rp] for b in range(3)]
             for a in range(3)]
        ) / g.cell_volume
        dyadic = commutator_dyadic(bank, r_idx, rp_idx)
        assert np.abs(dyadic - expected).max() <= 1e-8

    def test_incomplete_bank_rejected(self):
        g = Grid((4, 4, 4))
        bank = solve_modes(QOperator(build_profile(Homogeneous(1.0), g)), 6, tol=1e-9)
        with pytest.raises(IncompleteBankError):
            commutator_dyadic(bank, (0, 0, 0), (1, 1, 1))
