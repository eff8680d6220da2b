"""Generalized Poisson solver and the eps-weighted field decomposition.

The central linear problem is ``div(eps * grad(chi)) = -sigma`` on the
periodic lattice, solved for one right-hand side at a time by
:func:`solve_poisson_block`, the one solver entry point.  The
operator ``L = -div(eps grad .)`` is symmetric positive semidefinite
with the constants as null space; the gauge is fixed by keeping chi
zero-mean, the periodic analogue of a potential vanishing at infinity.
Solutions come from conjugate gradients preconditioned by the exact
inverse of ``mean(eps)`` times the periodic 7-point Laplacian, applied
with a real FFT pair through a spectrum and an output buffer held for the
solve (Concus & Golub, SIAM J. Numer. Anal. 10, 1103 (1973)); the
iteration count then depends on the eps contrast, not on the grid size.

On top of the solver sits the unique decomposition of an arbitrary edge
field X into a divergence-free part X1 and a part X2 = eps * grad(chi),
which also realizes the constrained functional derivative restricted to
generalized-transverse variations.  The split is written once, in
:func:`helmholtz_decompose`.  The mode solver does not use it: MPB's
preconditioner maps into its space in Fourier space, with no Poisson solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, PlacementError, ProfileError, SolverError
from .lattice import (
    EDGE,
    Grid,
    ScalarField,
    VectorField,
    div_raw,
    dminus,
    dplus,
    grad_raw,
    laplacian_symbol,
)
from .medium import MediumProfile, Sphere, build_profile, in_balls

DEFAULT_TOL = 1e-10

#: Cells between the cavity surface and the samples the cavity factor averages.
CAVITY_INTERIOR_MARGIN = 1.5


@dataclass
class DecompositionResult:
    x1: VectorField     # divergence-free part
    x2: VectorField     # eps * grad(chi)
    chi: ScalarField
    residual_norm: float
    iterations: int     # Poisson CG iterations


def apply_weighted_laplacian(
    chi: np.ndarray,
    eps: np.ndarray,
    spacing: float,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """L chi = -div(eps * grad chi) for one (nx, ny, nz) field.

    ``out`` and the two ``work`` arrays, each of chi's shape and none
    overlapping it, let repeated applies run without allocating.
    """
    if out is None:
        out = np.empty_like(chi)
    flux, term = work if work is not None else (np.empty_like(chi), np.empty_like(chi))
    out.fill(0.0)
    for a in range(3):
        np.multiply(eps[a], dplus(chi, a, spacing, out=flux), out=flux)
        out -= dminus(flux, a, spacing, out=term)
    return out


def fourier_multiplier(symbol: np.ndarray, dims: tuple[int, int, int]):
    """The map ``r -> irfftn(rfftn(r) * symbol, s=dims)``, bit for bit.

    ``symbol`` lives on the rfftn half grid of ``dims``.  The map runs
    numpy's own per-axis passes in their order (``rfftn`` writing into one
    complex spectrum buffer, then ``ifft`` on axes 0 and 1 in place and
    ``irfft`` on axis 2 into one real buffer), so a call allocates no
    grid-sized array.  Each call overwrites and returns the same real array.
    """
    spec = np.empty(symbol.shape, dtype=np.complex128)
    out = np.empty(dims)

    def apply(r: np.ndarray) -> np.ndarray:
        np.fft.rfftn(r, axes=(0, 1, 2), out=spec)
        np.multiply(spec, symbol, out=spec)
        np.fft.ifft(spec, axis=0, out=spec)
        np.fft.ifft(spec, axis=1, out=spec)
        return np.fft.irfft(spec, n=dims[2], axis=2, out=out)

    return apply


def solve_poisson_block(
    rhs: np.ndarray,
    m: MediumProfile,
    tol: float = DEFAULT_TOL,
    maxiter: int | None = None,
) -> tuple[np.ndarray, float, int]:
    """Preconditioned CG on ``L chi = rhs`` for one right-hand side.

    ``rhs`` has the grid's shape (nx, ny, nz).  Its mean is removed, since
    a periodic source must be neutral, so ``rhs`` and ``rhs + c`` give the
    same chi; it is solved to relative residual ``tol``, judged on the
    true residual after the CG run.  The preconditioner inverts ``mean(eps)
    * (-div grad)`` in Fourier space with the k = 0 term set to zero, so its
    output is zero-mean; it is an FFT pair through two buffers held for the
    solve (:func:`fourier_multiplier`), and no iteration allocates.  Returns
    (chi, relative residual, iterations); raises :class:`SolverError` on
    stagnation and ``ValueError`` for any other rhs shape.
    """
    if rhs.shape != m.grid.dims:
        raise ValueError(f"rhs shape {rhs.shape} differs from the grid dims {m.grid.dims}")
    if maxiter is None:
        maxiter = max(1000, 40 * max(m.grid.dims))
    b = np.asarray(rhs, dtype=np.float64)
    b = b - b.mean()
    spacing = m.grid.spacing

    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    sym = laplacian_symbol(m.grid) * m.eps.mean()
    inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)
    precondition = fourier_multiplier(inv_sym, m.grid.dims)

    # x starts at zero, so the first residual is b, demeaned as every later one is
    x = np.zeros_like(b)
    r = b - b.mean()
    # z is the preconditioner's output buffer, rewritten every iteration
    z = precondition(r)
    p = z.copy()
    rz = np.vdot(r, z)
    # L p, the Laplacian's two work arrays and the scaled step live through the solve
    ap, step = np.empty_like(b), np.empty_like(b)
    work = (np.empty_like(b), np.empty_like(b))
    iterations = 0
    while iterations < maxiter and np.linalg.norm(r) > 0.5 * tol * scale:
        iterations += 1
        apply_weighted_laplacian(p, m.eps, spacing, out=ap, work=work)
        pap = np.vdot(p, ap)
        if pap <= 0:
            break
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        r -= r.mean()
        z = precondition(r)
        rz_new = np.vdot(r, z)
        # p <- z + beta p in place
        p *= rz_new / rz
        p += z
        rz = rz_new
    x -= x.mean()
    r_true = b - apply_weighted_laplacian(x, m.eps, spacing, out=ap, work=work)
    res = float(np.linalg.norm(r_true)) / scale
    if not res <= tol:
        raise SolverError(
            f"Poisson CG did not reach tol={tol:g} in {iterations} iterations "
            f"(worst residual {res:.3e})",
            residual=res,
            iterations=iterations,
        )
    return x, res, iterations


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
        raise GridMismatchError("field and medium grids differ")
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


def check_cavity_radius(grid: Grid, radius: float):
    """``cavity_field_factor``'s rule for ``radius`` on ``grid``.

    The cavity needs at least two cells of radius, and at most a quarter of
    the shortest box side, so that its periodic images stay apart.
    """
    quarter = min(grid.lengths) / 4
    if not radius >= 2 * grid.spacing:
        raise ProfileError(f"cavity radius {radius} is below two cells ({2 * grid.spacing})")
    if not radius <= quarter:
        raise ProfileError(f"cavity radius {radius} is above a quarter of the box ({quarter})")


def cavity_field_factor(
    eps_out: float,
    grid: Grid,
    radius: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Mean field inside a spherical vacuum cavity per unit applied field.

    A unit mean field along x is imposed across the periodic cell; the
    periodic potential correction chi solves ``div(eps grad chi) =
    div(eps * xhat)`` and the total field is ``xhat - grad chi``.  The
    return value is the average x-component over edge samples at least
    ``CAVITY_INTERIOR_MARGIN`` cells inside the cavity; for a sphere in a
    uniform host the quasi-static answer is ``3 eps / (2 eps + 1)``.
    """
    check_cavity_radius(grid, radius)

    center = tuple(l / 2 for l in grid.lengths)
    m = build_profile(Sphere(center, radius, 1.0, float(eps_out)), grid)

    # only the x components enter: div(eps * xhat) = dminus_x(eps_x), and
    # the total field's x component is 1 - dplus_x(chi)
    rhs = -dminus(m.eps[0], 0, grid.spacing)
    chi, _, _ = solve_poisson_block(rhs, m, tol=tol)
    total_x = 1.0 - dplus(chi, 0, grid.spacing)

    inside = in_balls(grid.component_axes(EDGE, 0), (center,),
                      radius - CAVITY_INTERIOR_MARGIN * grid.spacing, grid, "cavity interior")
    if not inside.any():
        raise ProfileError("interior margin leaves no cavity samples")
    return float(total_x[inside].mean())
