"""Quantized-field assembly on top of a mode bank.

Mode coefficients play the role of the canonical (q, p) pairs of the
harmonic oscillators behind each mode; classical coefficient arrays
stand in for the operators, so commutators are checked as dyadic kernel
identities rather than through an operator algebra.  Natural units
(hbar = eps0 = mu0 = 1) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, GridMismatchError, IncompleteBankError, PlacementError
from .lattice import EDGE, VectorField, curl_raw
from .modes import DENSE_DOF_LIMIT, ModeBank


@dataclass(frozen=True)
class ModeCoefficients:
    """Generalized coordinates and momenta, one pair per mode."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return len(self.q)

    def amplitudes(self, frequencies: np.ndarray) -> np.ndarray:
        """Annihilation amplitudes a = sqrt(w/2) q + i sqrt(1/2w) p."""
        om = np.asarray(frequencies)
        if om.shape != self.q.shape:
            raise ValueError("frequency count does not match coefficients")
        if np.any(om <= 0):
            raise ValueError("amplitudes are undefined for zero-frequency modes")
        return np.sqrt(om / 2) * self.q + 1j * np.sqrt(1.0 / (2 * om)) * self.p

    @classmethod
    def from_amplitudes(cls, a: np.ndarray, frequencies: np.ndarray) -> "ModeCoefficients":
        om = np.asarray(frequencies)
        q = np.sqrt(2 / om) * np.real(a)
        p = np.sqrt(2 * om) * np.imag(a)
        return cls(q, p)


def evolve(coeffs: ModeCoefficients, frequencies: np.ndarray, t: float) -> ModeCoefficients:
    """Harmonic time evolution of every (q, p) pair."""
    om = np.asarray(frequencies)
    c, s = np.cos(om * t), np.sin(om * t)
    # zero-frequency modes drift linearly: q + p t, p const
    rate = np.where(om > 0, s / np.where(om > 0, om, 1.0), t)
    q = coeffs.q * c + coeffs.p * rate
    p = coeffs.p * c - om * coeffs.q * s
    return ModeCoefficients(q, p)


@dataclass
class FieldSnapshot:
    """Vector potential and its conjugate momentum on the grid.

    The conjugate field equals minus the displacement field; for the
    free field it is divergence-free.
    """

    vector_potential: VectorField
    conjugate_momentum: VectorField


def synthesize_fields(bank: ModeBank, coeffs: ModeCoefficients) -> FieldSnapshot:
    """Normal-mode synthesis A = sum q_l h_l, Pi = sum p_l eps h_l.

    With ``h = g / sqrt(eps)`` these are ``(sum q_l g_l) / sqrt(eps)`` and
    ``sqrt(eps) * sum p_l g_l``.
    """
    if len(coeffs) != len(bank):
        raise ValueError(f"{len(coeffs)} coefficients for {len(bank)} modes")
    sqrt_eps = np.sqrt(bank.medium.eps)
    a = np.tensordot(coeffs.q, bank.modes_g, axes=(0, 0)) / sqrt_eps
    pi = sqrt_eps * np.tensordot(coeffs.p, bank.modes_g, axes=(0, 0))
    return FieldSnapshot(
        vector_potential=VectorField(bank.grid, EDGE, a),
        conjugate_momentum=VectorField(bank.grid, EDGE, pi),
    )


def _overlaps(bank: ModeBank, x: VectorField, weight: np.ndarray) -> np.ndarray:
    """``sum g_l . (weight * x) dV`` for every mode of the bank."""
    if x.grid != bank.grid:
        raise GridMismatchError("field and bank grids differ")
    if x.placement != EDGE:
        raise PlacementError("mode analysis expects edge fields")
    return np.tensordot(bank.modes_g, weight * x.values, axes=([1, 2, 3, 4], [0, 1, 2, 3])) \
        * bank.grid.cell_volume


def analyze_field(bank: ModeBank, field: VectorField) -> np.ndarray:
    """Coefficients ``<field, h_l>_eps`` of an edge field in the mode basis."""
    return _overlaps(bank, field, np.sqrt(bank.medium.eps))


@dataclass
class EnergySplit:
    integral_form: float
    spectral_form: float


def hamiltonian_energy(bank: ModeBank, coeffs: ModeCoefficients) -> EnergySplit:
    """Field energy two ways: grid integral versus oscillator sum.

    Integral form: (1/2) integral of Pi^2/eps + (curl A)^2 / mu over the
    box, evaluated from the synthesized fields.  Spectral form:
    (1/2) sum of p^2 + w^2 q^2.  Equality up to mode residuals is the
    numerical content of the generalized orthonormality of the bank.
    """
    m = bank.medium
    snap = synthesize_fields(bank, coeffs)
    vol = m.grid.cell_volume
    pi = snap.conjugate_momentum.values
    electric = float(np.sum(pi * pi / m.eps)) * vol
    b = curl_raw(snap.vector_potential.values, m.grid.spacing)
    magnetic = float(np.sum(b * b if m.mu is None else b * b / m.mu)) * vol
    integral = 0.5 * (electric + magnetic)
    spectral = 0.5 * float(np.sum(coeffs.p**2 + bank.frequencies**2 * coeffs.q**2))
    return EnergySplit(integral_form=integral, spectral_form=spectral)


class TransverseProjector:
    """Projector defined by the mode-bank dyadic kernel.

    The kernel ``sum_l h_l(r) h_l(r') eps(r')`` is generalized
    transverse in its first slot and transverse (divergence-free) in its
    second.  Contracting a field against the first slot therefore
    returns a transverse field (identity on transverse inputs for a
    complete bank, zero on eps-weighted gradients); contracting against
    the second slot returns a generalized-transverse field and is
    self-adjoint under the eps-weighted inner product.
    """

    def __init__(self, bank: ModeBank):
        self.bank = bank

    def apply(self, x: VectorField) -> VectorField:
        """First-slot contraction: eps * sum_l <x, h_l> h_l (transverse out)."""
        sqrt_eps = np.sqrt(self.bank.medium.eps)
        coef = _overlaps(self.bank, x, 1.0 / sqrt_eps)
        out = sqrt_eps * np.tensordot(coef, self.bank.modes_g, axes=(0, 0))
        return VectorField(self.bank.grid, EDGE, out)

    def apply_weighted(self, x: VectorField) -> VectorField:
        """Second-slot contraction: sum_l <x, h_l>_eps h_l (gen.-transverse out)."""
        coef = analyze_field(self.bank, x)
        out = np.tensordot(coef, self.bank.modes_g, axes=(0, 0))
        out /= np.sqrt(self.bank.medium.eps)
        return VectorField(self.bank.grid, EDGE, out)


def projector_matrix(bank: ModeBank) -> np.ndarray:
    """Dense kernel matrix K[(a,r), (b,r')] = sum_l h_a(r) h_b(r') eps_b(r') dV.

    Acting on flattened edge fields this is the second-slot contraction;
    idempotent for any bank, and for a complete bank the identity on the
    generalized-transverse subspace.  Small grids only.
    """
    n = len(bank)
    dof = 3 * bank.grid.ncells
    if dof > DENSE_DOF_LIMIT:
        raise FeasibilityError(f"dense projector refused for {dof} degrees of freedom")
    sqrt_eps = np.sqrt(bank.medium.eps)
    h = (bank.modes_g / sqrt_eps).reshape(n, dof)
    eps_h = (bank.modes_g * sqrt_eps).reshape(n, dof)
    return h.T @ eps_h * bank.grid.cell_volume


def commutator_dyadic(bank: ModeBank, r_index, rp_index) -> np.ndarray:
    """3x3 dyadic kernel of [A, Pi]/(i hbar) between two grid cells.

    ``r_index``/``rp_index`` are (i, j, k) cell multi-indices; component
    a refers to the edge-a sample of that cell.  Requires a complete
    bank so the kernel equals the generalized transverse delta.
    """
    if not bank.complete:
        raise IncompleteBankError("commutator dyadic needs a complete bank")
    i, j, k = r_index
    ip, jp, kp = rp_index
    eps = bank.medium.eps
    h_r = bank.modes_g[:, :, i, j, k] / np.sqrt(eps[:, i, j, k])              # (n, 3)
    eps_h_rp = bank.modes_g[:, :, ip, jp, kp] * np.sqrt(eps[:, ip, jp, kp])  # (n, 3)
    return h_r.T @ eps_h_rp
