"""Dipole couplings, spontaneous-emission rates and LDOS spectra.

A guest atom enters as given data: position, level energies and
transition dipole moments.  Inside the medium the dipole couples to the
displacement field divided by the local permittivity, which in mode form
means the coupling samples the eps-orthonormal mode functions h at the
atom position.  Rates follow from the golden rule with a normalized
Lorentzian standing in for the delta function on the finite grid; the
free-space reference rate is evaluated analytically so that medium
effects are isolated from discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electrostatics import cavity_field_factor
from .errors import BandCoverageError, FeasibilityError, ProfileError
from .lattice import EDGE, Grid
from .medium import Homogeneous, MediumProfile
from .modes import DEGENERACY_RTOL, ModeBank, degenerate_clusters


@dataclass(frozen=True)
class AtomSpec:
    """Guest atom: position, level energies, dipole matrix, cavity size."""

    position: tuple[float, float, float]
    levels: tuple[float, ...]
    dipoles: np.ndarray                  # (nlev, nlev, 3), symmetric in (k, k')
    cavity_radius: float | None = None

    def __post_init__(self):
        pos = tuple(float(x) for x in self.position)
        object.__setattr__(self, "position", pos)
        levels = tuple(float(e) for e in self.levels)
        object.__setattr__(self, "levels", levels)
        nlev = len(levels)
        dip = np.asarray(self.dipoles, dtype=np.float64)
        if dip.shape != (nlev, nlev, 3):
            raise ValueError(f"dipoles must have shape {(nlev, nlev, 3)}, got {dip.shape}")
        if not np.allclose(dip, np.swapaxes(dip, 0, 1), atol=0.0):
            raise ValueError("dipole matrix must be symmetric: mu_kk' = mu_k'k")
        dip = dip.copy()
        dip.setflags(write=False)
        object.__setattr__(self, "dipoles", dip)

    @classmethod
    def from_dipoles(cls, position, levels, dipoles, cavity_radius=None) -> "AtomSpec":
        """An atom whose dipole matrix holds each ``{"levels": (k, k'), "moment": mu}``
        of ``dipoles`` at ``[k, k']`` and ``[k', k]``, and zero elsewhere."""
        dip = np.zeros((len(levels), len(levels), 3))
        for d in dipoles:
            k, kp = level_pair(levels, d["levels"])
            dip[k, kp] = dip[kp, k] = d["moment"]
        return cls(position, levels, dip, cavity_radius)

    def transition_frequency(self, k: int, kp: int) -> float:
        """``levels[k] - levels[k']``, which must be positive."""
        k, kp = level_pair(self.levels, (k, kp))
        omega = self.levels[k] - self.levels[kp]
        if not omega > 0:
            raise ValueError(f"transition {k}->{kp} has nonpositive frequency {omega!r}")
        return omega


def level_pair(levels, pair) -> tuple[int, int]:
    """``pair`` as the indices ``(k, k')`` of two existing ``levels``."""
    k, kp = pair
    if not (0 <= k < len(levels) and 0 <= kp < len(levels)):
        raise ValueError(f"level pair {list(pair)} names a level outside the {len(levels)} levels")
    return k, kp


def two_level_atom(position, omega0: float, dipole, cavity_radius=None) -> AtomSpec:
    """Convenience constructor for a ground/excited pair."""
    dipoles = [{"levels": (0, 1), "moment": dipole}]
    return AtomSpec.from_dipoles(position, (0.0, float(omega0)), dipoles, cavity_radius)


@dataclass
class EmissionReport:
    rate: float
    rate_free_space: float
    ratio: float
    eta: float
    local_field_factor: float = 1.0


def check_position(position, grid: Grid):
    """A point where fields are sampled must lie in the periodic box ``[0, L)``."""
    for x, length in zip(position, grid.lengths):
        if not (0.0 <= x < length):
            raise ProfileError(
                f"position {tuple(position)} is outside the box [0, L), L = {grid.lengths}"
            )


#: Corner offsets (di, dj, dk) of a trilinear stencil, C order.
_CORNERS = np.array([(di, dj, dk) for di in (0, 1) for dj in (0, 1) for dk in (0, 1)])


def edge_stencil(grid: Grid, position):
    """Periodic trilinear stencil of the three edge components at a point.

    Returns ``(index, weights)``, both (8, 3) with a row per corner and a
    column per component: ``index`` is the (component, i, j, k) tuple of
    integer arrays that picks an edge array's corner samples.  Each
    staggered component is interpolated on its own sub-lattice;
    nearest-sample lookup would bias against the offset directions.
    """
    check_position(position, grid)
    # (component, axis): the point in units of each component's sub-lattice
    u = np.asarray(position, dtype=np.float64) / grid.spacing - grid.component_offsets(EDGE)
    base = np.floor(u)
    frac = u - base
    upper = _CORNERS[:, None, :] == 1
    f = np.where(upper, frac, 1.0 - frac)
    ijk = (base.astype(np.int64) + upper) % np.asarray(grid.dims)
    comp = np.broadcast_to(np.arange(3), (8, 3))
    return (comp, ijk[..., 0], ijk[..., 1], ijk[..., 2]), f[..., 0] * f[..., 1] * f[..., 2]


def sample_mode_fields(bank: ModeBank, position) -> np.ndarray:
    """Trilinear sample of every h mode at a position, shape (n, 3).

    The corner samples of h are those of g over the local sqrt(eps);
    only the (n, 8, 3) corner samples are gathered.
    """
    index, weights = edge_stencil(bank.grid, position)
    h = bank.modes_g[(slice(None),) + index] / np.sqrt(bank.medium.eps[index])
    # the gather lays the mode axis innermost in memory, and the order in
    # which BLAS sums a caller's ``h @ mu`` follows the layout: return C order
    return np.ascontiguousarray((weights * h).sum(axis=1))


def sample_permittivity(m: MediumProfile, position) -> float:
    """Scalar eps at a point: mean of the three component interpolations."""
    index, weights = edge_stencil(m.grid, position)
    return float((weights * m.eps[index]).sum(axis=0).mean())


def _lattice_couplings(bank: ModeBank, atom: AtomSpec, k: int, kp: int) -> np.ndarray:
    """:func:`coupling_strengths` in lattice units, ``|g_l|^2 s^4``, from ``w_l s``
    and ``h_l s^(3/2)``.

    ``|g_l|^2`` itself carries ``s^-4``, past the float range at spacings
    a grid accepts, while each factor stays inside it.
    """
    s = bank.grid.spacing
    proj = (sample_mode_fields(bank, atom.position) @ atom.dipoles[k, kp]) * s**1.5
    return 0.5 * (bank.frequencies * s) * proj**2


def coupling_strengths(bank: ModeBank, atom: AtomSpec, k: int, kp: int) -> np.ndarray:
    """|g_l|^2 per mode, g_l = -i sqrt(w_l/2) mu . h_l(R) in natural units.

    This is the quantity entering the golden rule.  The coupled field is
    the displacement field over the local permittivity (in mode form the
    eps factor cancels, leaving the mode functions h at the atom), not
    the electric or bare displacement field.
    """
    s = bank.grid.spacing
    return _lattice_couplings(bank, atom, k, kp) * s**-3 / s


_FLOAT = np.finfo(np.float64)


def lorentzian(x: np.ndarray, eta: float) -> np.ndarray:
    """Unit-area Lorentzian of half-width eta, which must be positive.

    The value is ``(eta / pi) / (x*x + eta*eta)`` wherever that denominator
    and ``eta / pi`` are normal floats.  Elsewhere (arguments past 1e154,
    or widths and offsets below 1e-154) it is formed on arguments scaled by
    a power of two, so it raises no floating-point warning, keeps a few ulps
    wherever the exact value is a normal float, and stays finite (the
    largest float stands for a value past the range).
    """
    if not eta > 0:
        raise ValueError(f"broadening {eta!r} must be positive")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        den = x * x + eta * eta
        out = (eta / np.pi) / den
    odd = ~((den >= _FLOAT.tiny) & (den <= _FLOAT.max)) | (eta / np.pi < _FLOAT.tiny)
    if odd.any():
        # on x / k and eta / k, k = 2^e just above max(|x|, eta), the denominator
        # lies in [1/4, 2); with eta = m 2^f the value is m / (pi den) 2^(f - 2e),
        # and only that last scaling can leave the normal range
        m, f = np.frexp(eta)
        _, e = np.frexp(np.maximum(np.abs(x[odd]), eta))
        with np.errstate(over="ignore", under="ignore"):
            xs, es = np.ldexp(x[odd], -e), np.ldexp(eta, -e)
            value = np.ldexp(m / (np.pi * (xs * xs + es * es)), f - 2 * e)
        out[odd] = np.minimum(value, _FLOAT.max)
    return out


#: Distinct resonances nearest the transition whose mean spacing sets the
#: default broadening.
BROADENING_LEVELS = 6


def distinct_levels(frequencies: np.ndarray) -> np.ndarray:
    """Resonance frequencies, the first of each degenerate cluster as the bank
    groups them (:func:`epsmodes.modes.degenerate_clusters`, which takes
    lattice-unit frequencies)."""
    om = np.sort(np.asarray(frequencies))
    om = om[om > 0]
    if len(om) == 0:
        return om
    return om[[cluster.start for cluster in degenerate_clusters(om)]]


def default_broadening(bank: ModeBank, omega0: float) -> float:
    """Three times the local mean spacing of distinct resonances.

    Degenerate clusters count as one resonance (their members carry no
    independent spectral information).  On coarse grids the estimate is
    clamped to a quarter of the distance to either spectral edge so the
    Lorentzian stays inside the band the bank resolves; a distance within
    the clusters' tolerance puts the probe on the edge resonance, which
    takes the unclamped width.  It is formed in lattice units, where
    clusters are judged.
    """
    s = bank.grid.spacing
    om = bank.frequencies * s
    lv = distinct_levels(om)
    if len(lv) < 2:
        raise FeasibilityError("bank too small to estimate a mode spacing")
    omega = omega0 * s
    nearest = np.sort(lv[np.argsort(np.abs(lv - omega))[:BROADENING_LEVELS]])
    eta = 3.0 * float(np.mean(np.diff(nearest)))
    margin = min(omega - lv[0], lv[-1] - omega)
    if margin > DEGENERACY_RTOL * max(float(om.max()), 1.0):
        eta = min(eta, margin / 4.0)
    if eta <= 0:
        raise FeasibilityError(
            f"cannot pick a broadening for omega0={omega0:g} at the band edge"
        )
    return eta / s


def free_space_rate(omega0: float, mu: np.ndarray) -> float:
    """Analytic vacuum emission rate w^3 mu^2 / (3 pi), natural units."""
    mu2 = float(np.dot(mu, mu))
    return omega0**3 * mu2 / (3 * np.pi)


def emission_rate(
    bank: ModeBank,
    atom: AtomSpec,
    transition: tuple[int, int] = (1, 0),
    eta: float | None = None,
) -> EmissionReport:
    """Golden-rule rate 2 pi sum_l |g_l|^2 L_eta(w0 - w_l).

    The transition frequency must sit inside the band the bank resolves
    (two broadening widths away from either spectral end); otherwise the
    estimate would silently depend on missing modes and the call fails.
    The sum is formed in lattice units (frequencies and eta times ``s``)
    and scaled by ``s^-3`` once, so it stays finite at every spacing a grid
    accepts; at ``s = 1`` the bits are those of the physical sum.
    """
    k, kp = transition
    omega0 = atom.transition_frequency(k, kp)
    if eta is None:
        eta = default_broadening(bank, omega0)
    om = bank.frequencies
    lo, hi = om.min(), om.max()
    if omega0 - 2 * eta < lo or omega0 + 2 * eta > hi:
        raise BandCoverageError(
            f"transition frequency {omega0:g} (eta={eta:g}) is outside the "
            f"reliable band [{lo:g}, {hi:g}] of the bank"
        )
    s = bank.grid.spacing
    weights = _lattice_couplings(bank, atom, k, kp)
    rate = float(2 * np.pi * np.sum(weights * lorentzian(omega0 * s - om * s, eta * s))) * s**-3
    gamma0 = free_space_rate(omega0, atom.dipoles[k, kp])
    return EmissionReport(
        rate=rate,
        rate_free_space=gamma0,
        ratio=rate / gamma0 if gamma0 > 0 else 0.0,
        eta=float(eta),
    )


#: Cells per side of the default cavity-factor grid of a local-field rate.
LOCAL_FIELD_CELLS = 48


def local_field_grid(radius: float, n: int = LOCAL_FIELD_CELLS) -> Grid:
    """The n^3 cavity-factor grid of a cavity: n // 8 cells per radius, at least 4.

    Below n = 16 the box (n radius / 4) is under four radii, which
    ``cavity_field_factor`` rejects.
    """
    return Grid((n, n, n), spacing=radius / max(4, n // 8))


def local_field_host_eps(atom: AtomSpec, host) -> float:
    """The eps of ``host``, the descriptor of a local-field rate's homogeneous
    host; the atom must carry a cavity radius."""
    if atom.cavity_radius is None:
        raise ValueError("the atom's cavity_radius is None")
    if not (isinstance(host, Homogeneous) and host.eps > 0):
        raise ProfileError(f"the host must be homogeneous with a positive eps, not {host!r}")
    return host.eps


def local_field_corrected_rate(
    bank_or_bulk_eps,
    atom: AtomSpec,
    transition: tuple[int, int] = (1, 0),
    eta: float | None = None,
    factor_grid: Grid | None = None,
    factor_tol: float = 1e-10,
) -> EmissionReport:
    """Empty-cavity rate: squared local-field factor times the bulk rate.

    The atom sits in a vacuum cavity of ``atom.cavity_radius`` inside a
    homogeneous host.  The factor is computed electrostatically (never
    hardcoded); the bulk rate comes from the homogeneous bank when one
    is supplied, or from the analytic sqrt(eps) enhancement when only
    the bulk permittivity is given.
    """
    is_bank = isinstance(bank_or_bulk_eps, ModeBank)
    host = bank_or_bulk_eps.medium.descriptor if is_bank else Homogeneous(float(bank_or_bulk_eps))
    eps_bulk = local_field_host_eps(atom, host)
    k, kp = transition
    omega0 = atom.transition_frequency(k, kp)
    gamma0 = free_space_rate(omega0, atom.dipoles[k, kp])

    if is_bank:
        bulk = emission_rate(bank_or_bulk_eps, atom, transition, eta)
        bulk_rate = bulk.rate
        eta_used = bulk.eta
    else:
        bulk_rate = np.sqrt(eps_bulk) * gamma0
        eta_used = eta if eta is not None else 0.0

    if factor_grid is None:
        factor_grid = local_field_grid(atom.cavity_radius)
    factor = cavity_field_factor(
        eps_bulk, factor_grid, atom.cavity_radius, tol=factor_tol
    )
    rate = factor**2 * bulk_rate
    return EmissionReport(
        rate=rate,
        rate_free_space=gamma0,
        ratio=rate / gamma0 if gamma0 > 0 else 0.0,
        eta=float(eta_used),
        local_field_factor=float(factor),
    )


def spectrum_probe(omega_grid, orientation) -> tuple[np.ndarray, np.ndarray]:
    """An LDOS spectrum's omega grid, which must be nonempty, 1-d and strictly
    ascending, and its orientation over a norm that must be finite and nonzero."""
    omegas = np.asarray(omega_grid, dtype=np.float64)
    if omegas.ndim != 1 or len(omegas) == 0:
        raise ValueError("omega grid must be a nonempty 1-d array")
    if not np.all(np.diff(omegas) > 0):
        raise ValueError("omega grid must be strictly ascending")
    u = np.asarray(orientation, dtype=np.float64)
    with np.errstate(over="ignore"):
        un = float(np.linalg.norm(u))
    if not 0 < un < np.inf:
        raise ValueError(f"orientation norm {un!r} is not finite and nonzero")
    return omegas, u / un


def ldos_spectrum(
    bank: ModeBank,
    position,
    orientation,
    omega_grid: np.ndarray,
    eta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected local density of states on a frequency grid.

    rho(w) = sum_l |u . h_l(r)|^2 eps(r) L_eta(w - w_l); integrated over
    the resolved band this approaches the eps-weighted diagonal of the
    transverse projector kernel.
    """
    omegas, u = spectrum_probe(omega_grid, orientation)
    proj = sample_mode_fields(bank, position) @ u
    eps_r = sample_permittivity(bank.medium, position)
    weights = proj**2 * eps_r
    values = lorentzian(omegas[:, None] - bank.frequencies[None, :], eta) @ weights
    return omegas, values
