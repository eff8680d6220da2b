"""Generalized Poisson solver and the eps-weighted field decomposition.

The central linear problem is ``div(eps * grad(chi)) = -sigma`` on the
periodic lattice.  The operator ``L = -div(eps grad .)`` is symmetric
positive semidefinite with the constants as null space; the gauge is
fixed by keeping chi zero-mean, the periodic analogue of a potential
vanishing at infinity.  Solutions come from conjugate gradients
preconditioned by the exact inverse of ``mean(eps)`` times the periodic
7-point Laplacian, applied with one FFT (Concus & Golub, SIAM J. Numer.
Anal. 10, 1103 (1973)); the iteration count then depends on the eps
contrast, not on the grid size.

On top of the solver sits the unique decomposition of an arbitrary edge
field X into a divergence-free part X1 and a part X2 = eps * grad(chi),
which also realizes the constrained functional derivative restricted to
generalized-transverse variations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    PlacementError,
    ProfileError,
    SolverError,
    SourceCompatibilityError,
)
from .lattice import (
    EDGE,
    Grid,
    ScalarField,
    VectorField,
    div_raw,
    dminus,
    dplus,
    fourier_symbol,
    grad_raw,
)
from .medium import MediumProfile, Sphere, _min_image, build_profile

DEFAULT_TOL = 1e-10


@dataclass
class PoissonSolution:
    chi: ScalarField
    residual_norm: float
    iterations: int


@dataclass
class DecompositionResult:
    x1: VectorField     # divergence-free part
    x2: VectorField     # eps * grad(chi)
    chi: ScalarField
    residual_norm: float
    iterations: int     # Poisson CG iterations


def apply_weighted_laplacian(chi: np.ndarray, eps: np.ndarray, spacing: float) -> np.ndarray:
    """L chi = -div(eps * grad chi); batch axes trail the grid axes."""
    out = np.zeros_like(chi)
    for a in range(3):
        flux = eps[a] if chi.ndim == 3 else eps[a][..., None]
        out -= dminus(flux * dplus(chi, a, spacing), a, spacing)
    return out


def _demean(arr: np.ndarray) -> np.ndarray:
    return arr - arr.mean(axis=(0, 1, 2), keepdims=True)


def solve_poisson_block(
    rhs: np.ndarray,
    m: MediumProfile,
    tol: float = DEFAULT_TOL,
    maxiter: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """CG on ``L chi = rhs`` for a batch of right-hand sides.

    ``rhs`` has shape (nx, ny, nz) or (nx, ny, nz, B); each column is
    demeaned (periodic compatibility) and solved to relative residual
    ``tol``.  The preconditioner inverts ``mean(eps) * (-div grad)`` in
    Fourier space with the k = 0 term set to zero, so its output is
    zero-mean.  Returns (chi, relative residuals, iterations); raises
    :class:`SolverError` on stagnation.
    """
    if maxiter is None:
        maxiter = max(1000, 40 * max(m.grid.dims))
    single = rhs.ndim == 3
    b = rhs[..., None] if single else rhs
    b = _demean(np.asarray(b, dtype=np.float64))
    spacing = m.grid.spacing

    bnorm = np.sqrt(np.sum(b * b, axis=(0, 1, 2)))
    scale = np.where(bnorm > 0, bnorm, 1.0)
    sym = fourier_symbol(m.grid)[1] * m.eps.mean()
    inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)[..., None]

    def precondition(r):
        rk = np.fft.rfftn(r, axes=(0, 1, 2))
        rk *= inv_sym
        return np.fft.irfftn(rk, s=m.grid.dims, axes=(0, 1, 2))

    x = np.zeros_like(b)
    total_iters = 0
    res = bnorm / scale
    for _restart in range(3):
        r = _demean(b - apply_weighted_laplacian(x, m.eps, spacing))
        z = precondition(r)
        p = z.copy()
        rz = np.sum(r * z, axis=(0, 1, 2))
        while total_iters < maxiter:
            rnorm = np.sqrt(np.sum(r * r, axis=(0, 1, 2)))
            active = rnorm > 0.5 * tol * scale
            if not active.any():
                break
            total_iters += 1
            ap = apply_weighted_laplacian(p, m.eps, spacing)
            pap = np.sum(p * ap, axis=(0, 1, 2))
            alpha = np.where(active & (pap > 0), rz / np.where(pap > 0, pap, 1.0), 0.0)
            x += alpha * p
            r -= alpha * ap
            r = _demean(r)
            z = precondition(r)
            rz_new = np.sum(r * z, axis=(0, 1, 2))
            beta = np.where(active, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
            rz = rz_new
            p = z + beta * p
        x = _demean(x)
        r_true = b - apply_weighted_laplacian(x, m.eps, spacing)
        res = np.sqrt(np.sum(r_true * r_true, axis=(0, 1, 2))) / scale
        if np.all(res <= tol):
            break
        if total_iters >= maxiter:
            break
    if not np.all(res <= tol):
        raise SolverError(
            f"Poisson CG did not reach tol={tol:g} in {total_iters} iterations "
            f"(worst residual {res.max():.3e})",
            residual=float(res.max()),
            iterations=total_iters,
        )

    if single:
        return x[..., 0], res[0], total_iters
    return x, res, total_iters


def _check_compatible(sigma: np.ndarray, neutralize: bool) -> np.ndarray:
    mean = sigma.mean()
    rms = float(np.sqrt(np.mean(sigma * sigma)))
    if rms == 0.0:
        return sigma
    if abs(mean) > 1e-12 * rms:
        if not neutralize:
            raise SourceCompatibilityError(
                f"source mean {mean:.3e} is incompatible with periodic boundaries "
                f"(|mean| > 1e-12 * rms = {1e-12 * rms:.3e})"
            )
    return sigma - mean


def solve_poisson(
    sigma: ScalarField,
    m: MediumProfile,
    tol: float = DEFAULT_TOL,
    maxiter: int | None = None,
    neutralize: bool = False,
) -> PoissonSolution:
    """Solve ``div(eps grad chi) = -sigma`` with zero-mean gauge.

    The source must be neutral up to rounding (mean below 1e-12 of its
    rms) unless ``neutralize`` is set, in which case the mean is
    subtracted regardless.
    """
    if sigma.grid != m.grid:
        raise ProfileError("source and medium grids differ")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = _check_compatible(sigma.values, neutralize)
    chi, res, iters = solve_poisson_block(rhs, m, tol=tol, maxiter=maxiter)
    return PoissonSolution(ScalarField(m.grid, chi), float(res), iters)


def helmholtz_decompose(
    x: VectorField, m: MediumProfile, tol: float = DEFAULT_TOL
) -> DecompositionResult:
    """Split an edge field into divergence-free and eps*gradient parts.

    ``x = x1 + x2`` with ``div(x1) ~ 0`` and ``x2 = eps * grad(chi)``
    exactly by construction, where chi solves the generalized Poisson
    problem with source ``-div(x)``.  ``x1`` is also the constrained
    functional derivative of ``integral(X . Y)`` in Y under
    generalized-transverse variations: transverse inputs pass through
    unchanged and eps-weighted gradients map to zero.
    """
    if x.placement != EDGE:
        raise PlacementError("decomposition expects an edge field")
    if x.grid != m.grid:
        raise ProfileError("field and medium grids differ")
    sigma = -div_raw(x.values, m.grid.spacing)
    chi, res, iterations = solve_poisson_block(sigma, m, tol=tol)
    x2 = m.eps * grad_raw(chi, m.grid.spacing)
    x1 = x.values - x2
    return DecompositionResult(
        x1=VectorField(m.grid, EDGE, x1),
        x2=VectorField(m.grid, EDGE, x2),
        chi=ScalarField(m.grid, chi),
        residual_norm=float(res),
        iterations=iterations,
    )


def cavity_field_factor(
    eps_out: float,
    grid: Grid,
    radius: float,
    tol: float = DEFAULT_TOL,
    interior_margin: float = 1.5,
) -> float:
    """Mean field inside a spherical vacuum cavity per unit applied field.

    A unit mean field along x is imposed across the periodic cell; the
    periodic potential correction chi solves ``div(eps grad chi) =
    div(eps * xhat)`` and the total field is ``xhat - grad chi``.  The
    return value is the average x-component over edge samples at least
    ``interior_margin`` cells inside the cavity; for a sphere in a
    uniform host the quasi-static answer is ``3 eps / (2 eps + 1)``.
    """
    if eps_out <= 0:
        raise ProfileError(f"eps_out must be positive, got {eps_out}")
    if radius < 2 * grid.spacing:
        raise ProfileError(f"cavity radius {radius} below two cells")
    if radius > min(grid.lengths) / 4:
        raise ProfileError(f"cavity radius {radius} above a quarter box")

    center = tuple(l / 2 for l in grid.lengths)
    m = build_profile(Sphere(center, radius, 1.0, float(eps_out)), grid)

    applied = np.zeros((3,) + grid.dims)
    applied[0] = 1.0
    rhs = -div_raw(m.eps * applied, grid.spacing)
    chi, _, _ = solve_poisson_block(rhs, m, tol=tol)
    total = applied - grad_raw(chi, grid.spacing)

    delta = _min_image(grid.component_positions(EDGE, 0) - np.asarray(center), grid.lengths)
    inside = np.linalg.norm(delta, axis=-1) <= radius - interior_margin * grid.spacing
    if not inside.any():
        raise ProfileError("interior margin leaves no cavity samples")
    return float(total[0][inside].mean())
