"""Generalized Poisson solver and the eps-weighted field decomposition.

The central linear problem is ``div(eps * grad(chi)) = -sigma`` on the
periodic lattice, solved in lattice units for one right-hand side at a time
by :func:`solve_poisson_block`, the one solver entry point.  The operator
``L = -div(eps grad .)`` is symmetric positive semidefinite with the
constants as null space; the gauge is fixed by keeping chi zero-mean, the
periodic analogue of a potential vanishing at infinity.  Conjugate
gradients are preconditioned by the exact inverse of ``c K``, ``K = -div
grad`` and ``c`` a reference permittivity, applied by a real FFT pair
(Concus & Golub, SIAM J. Numer. Anal. 10, 1103 (1973)), so the iteration
count depends on the eps contrast, not on the grid size.  Each iteration
applies the medium only where eps differs from ``c`` (Eisenstat, SIAM J.
Sci. Stat. Comput. 2, 1 (1981); the reference-medium split of FFT
homogenization, Zeman et al., J. Comput. Phys. 229, 8065 (2010)).

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
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
    add: bool = False,
) -> np.ndarray:
    """L chi = -div(eps * grad chi) for one (nx, ny, nz) field, in lattice units.

    ``out`` and the two ``work`` arrays, each of chi's shape and none
    overlapping it, let repeated applies run without allocating.  With
    ``add``, ``L chi`` is added to what ``out`` holds instead of replacing it.
    """
    if out is None:
        out = np.empty_like(chi)
    flux, term = work if work is not None else (np.empty_like(chi), np.empty_like(chi))
    if not add:
        out.fill(0.0)
    for a in range(3):
        np.multiply(eps[a], dplus(chi, a, out=flux), out=flux)
        out -= dminus(flux, a, out=term)
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


def _reference_split(eps: np.ndarray) -> tuple[float, tuple[slice, slice, slice]]:
    """``(c, box)``: the preconditioner's constant and the contrast box.

    ``c`` is the extreme of ``eps`` (min or max) that more edges hold, the
    minimum on a tie.  Per axis, ``box`` spans the cells where any component
    of ``eps`` differs from ``c`` plus one plane on the high side, so that
    ``eps - c`` is zero on the box's last plane and on every plane outside
    it; it takes the whole axis when those cells reach the last plane, which
    a support that wraps always does.  The periodic stencils of
    :func:`apply_weighted_laplacian` on the sub-box then give
    ``-div((eps - c) grad .)`` exactly, which is zero outside it.  All three
    slices are empty when ``eps`` equals ``c`` everywhere.
    """
    lo, hi = eps.min(), eps.max()
    c = hi if np.count_nonzero(eps == hi) > np.count_nonzero(eps == lo) else lo
    differs = (eps != c).any(axis=0)
    box = []
    for a, n in enumerate(differs.shape):
        planes = np.flatnonzero(differs.any(axis=tuple(b for b in range(3) if b != a)))
        if planes.size == 0:
            box.append(slice(0, 0))
        elif planes[-1] == n - 1:
            box.append(slice(0, n))
        else:
            box.append(slice(int(planes[0]), int(planes[-1]) + 2))
    return float(c), tuple(box)


def solve_poisson_block(
    rhs: np.ndarray,
    m: MediumProfile,
    tol: float = DEFAULT_TOL,
    maxiter: int | None = None,
) -> tuple[np.ndarray, float, int]:
    """Preconditioned CG on ``L chi = rhs`` for one right-hand side, in lattice units.

    ``rhs`` has the grid's shape (nx, ny, nz).  Its mean is removed, since
    a periodic source must be neutral, so ``rhs`` and ``rhs + c`` give the
    same chi; it is solved to relative residual ``tol``.  The preconditioner
    inverts ``c K`` (``K = -div grad``, ``c`` from :func:`_reference_split`)
    in Fourier space with the k = 0 term set to zero, so its output ``z`` is
    zero-mean and ``c K z = r`` for the zero-mean residual ``r``; it is an
    FFT pair through two buffers held for the solve
    (:func:`fourier_multiplier`).  Since ``L z = r + L_delta z`` with
    ``delta = eps - c``, the search direction ``p <- z + beta p`` has
    ``L p <- r + beta L p + L_delta z``, and the one weighted-Laplacian
    apply of an iteration runs on ``z`` and ``delta`` sliced to the contrast
    box, adding into ``L p`` there through two box-sized work arrays; no
    iteration allocates.  Where the box is the whole grid the apply adds
    ``L z`` itself, with ``m.eps``, and ``r`` is not added: the same passes
    as applying ``L`` to ``p``, and no copy of eps.  The stopping rule is
    judged on the true residual after the CG run, formed with the full
    weighted Laplacian of ``m.eps``, so a fault in the box or in the
    recurrence cannot pass it.  Returns (chi, relative residual,
    iterations); raises :class:`SolverError` on stagnation and
    ``ValueError`` for any other rhs shape.
    """
    if rhs.shape != m.grid.dims:
        raise ValueError(f"rhs shape {rhs.shape} differs from the grid dims {m.grid.dims}")
    if maxiter is None:
        maxiter = max(1000, 40 * max(m.grid.dims))
    b = np.asarray(rhs, dtype=np.float64)
    b = b - b.mean()

    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    c, box = _reference_split(m.eps)
    sym = laplacian_symbol(m.grid) * c
    inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)
    precondition = fourier_multiplier(inv_sym, m.grid.dims)
    whole = all(s.stop - s.start == n for s, n in zip(box, m.grid.dims))
    delta = m.eps if whole else m.eps[(slice(None),) + box] - c

    # x starts at zero, so the first residual is b, demeaned as every later one is
    x = np.zeros_like(b)
    r = b - b.mean()
    # z is the preconditioner's output buffer, rewritten every iteration
    z = precondition(r)
    p = z.copy()
    rz = np.vdot(r, z)
    # L p (zero before the first direction) and the scaled step live through the solve
    ap, step = np.zeros_like(b), np.empty_like(b)
    # the box Laplacian's two work arrays
    work = (np.empty(delta.shape[1:]), np.empty(delta.shape[1:]))
    beta = 0.0
    iterations = 0
    while iterations < maxiter and np.linalg.norm(r) > 0.5 * tol * scale:
        iterations += 1
        # L p <- r + beta L p + L_delta z, for p = z + beta p (L z for the whole grid)
        ap *= beta
        if not whole:
            ap += r
        apply_weighted_laplacian(z[box], delta, out=ap[box], work=work, add=True)
        pap = np.vdot(p, ap)
        if pap <= 0:
            break
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        r -= r.mean()
        z = precondition(r)
        rz_new = np.vdot(r, z)
        beta = rz_new / rz
        # p <- z + beta p in place
        p *= beta
        p += z
        rz = rz_new
    x -= x.mean()
    # p and step are free now and serve as the full Laplacian's work arrays
    r_true = np.subtract(b, apply_weighted_laplacian(x, m.eps, out=ap, work=(p, step)),
                         out=ap)
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
    unchanged and eps-weighted gradients map to zero.  The Poisson problem is
    solved in lattice units, for ``chi / s``.
    """
    if x.placement != EDGE:
        raise PlacementError("decomposition expects an edge field")
    if x.grid != m.grid:
        raise GridMismatchError("field and medium grids differ")
    chi, res, iterations = solve_poisson_block(-div_raw(x.values), m, tol=tol)
    x2 = grad_raw(chi)
    x2 *= m.eps
    x1 = x.values - x2
    return DecompositionResult(
        x1=VectorField(m.grid, EDGE, x1),
        x2=VectorField(m.grid, EDGE, x2),
        chi=ScalarField(m.grid, chi * m.grid.spacing),
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
    # the total field's x component is 1 - dplus_x(chi), both in lattice units
    chi, _, _ = solve_poisson_block(-dminus(m.eps[0], 0), m, tol=tol)
    total_x = 1.0 - dplus(chi, 0)

    inside = in_balls(grid.component_axes(EDGE, 0), (center,),
                      radius - CAVITY_INTERIOR_MARGIN * grid.spacing, grid, "cavity interior")
    if not inside.any():
        raise ProfileError("interior margin leaves no cavity samples")
    return float(total_x[inside].mean())
