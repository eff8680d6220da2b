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
count depends on the eps contrast, not on the grid size.  The medium is
applied only where eps differs from ``c`` (Eisenstat, SIAM J. Sci. Stat.
Comput. 2, 1 (1981); the reference-medium split of FFT homogenization,
Zeman et al., J. Comput. Phys. 229, 8065 (2010)).  Started at the
preconditioned source, CG keeps its residual on that contrast box, so each
iteration works on box-sized arrays and maps the box through an FFT
convolution with the preconditioner's kernel, zero-padded where the box is
small enough; the full grid is mapped at the start and at the end.  This is
the capacitance-matrix idea (Buzbee, Dorr, George & Golub, SIAM J. Numer.
Anal. 8, 722 (1971)), evaluated as in the James/Hockney free-space Poisson
solvers (Hockney & Eastwood, *Computer Simulation Using Particles*, 1988).

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


def _smooth_size(k: int) -> int:
    """The smallest integer ``>= max(k, 1)`` with no prime factor above 5."""
    n = max(k, 1)
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def box_green_multiplier(inv_sym: np.ndarray, dims: tuple[int, int, int],
                         shape: tuple[int, int, int], periodic):
    """The map ``r -> (G r)|_box`` for ``r`` held on a box of ``shape`` and zero outside it.

    ``G`` is the periodic convolution on ``dims`` whose rfftn symbol is
    ``inv_sym``, with the kernel ``g = irfftn(inv_sym)``, and ``periodic``
    is its full-grid map (:func:`fourier_multiplier` of ``inv_sym``); the
    box may sit anywhere on the grid, since ``G`` commutes with shifts.  Box values meet
    only across displacements ``|d_a| < m_a``, ``m_a`` the box length on
    axis ``a``, so the map is a linear convolution with ``g`` on that
    window.  It runs as a circular one of size ``P_a``: the smallest
    2·3·5-smooth size ``>= 2 m_a - 1`` where that is below ``n_a`` (zero
    padding, as in the James/Hockney free-space Poisson solvers, Hockney &
    Eastwood, *Computer Simulation Using Particles*, 1988), else ``n_a``,
    where the axis keeps the periodic kernel (a box that wraps takes the
    whole axis, so it lands here).  The padded kernel holds ``g`` at ``d mod
    n_a`` for each signed displacement ``d`` of the circular index; the taps
    that no pair of box cells uses meet only the padding.  Where ``P`` is
    ``dims`` on every axis the map is ``periodic`` itself and no kernel is
    formed.  The pair runs through :func:`fourier_multiplier`'s buffers and
    one padded source array, so no call allocates; each call overwrites and
    returns the same box-shaped array (``periodic``'s output where the box
    is the whole grid).
    """
    pads = tuple(n if (p := _smooth_size(2 * m - 1)) >= n else p for m, n in zip(shape, dims))
    if pads == dims:
        convolve = periodic
    else:
        taps = []
        for m, n, p in zip(shape, dims, pads):
            d = np.arange(p)
            taps.append(np.where(d < m, d, d - p) % n)
        g = np.fft.irfftn(inv_sym, s=dims, axes=(0, 1, 2))
        convolve = fourier_multiplier(np.fft.rfftn(g[np.ix_(*taps)], axes=(0, 1, 2)), pads)
    if pads == shape:
        return convolve
    region = tuple(slice(0, m) for m in shape)
    padded, z = np.zeros(pads), np.empty(shape)

    def apply(r: np.ndarray) -> np.ndarray:
        padded[region] = r
        np.copyto(z, convolve(padded)[region])
        return z

    return apply


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
    ``G`` inverts ``c K`` (``K = -div grad``, ``c`` from
    :func:`_reference_split`) in Fourier space with the k = 0 term set to
    zero, so ``G`` maps onto the zero-mean fields and ``c K G r = r`` for a
    zero-mean ``r``.

    CG starts at ``x0 = G b`` instead of zero.  With ``L = c K + L_delta``,
    ``delta = eps - c``, the first residual ``r0 = b - L x0 = -L_delta x0``
    vanishes outside the contrast box, and by induction so do every later
    residual and every ``L p``: for ``p <- z + beta p`` with ``z = G r``,
    ``L p <- r + beta L p + L_delta z``.  The iteration therefore keeps only
    the box values of ``r``, ``L p``, ``p`` and ``x``, forms ``z`` on the
    box by :func:`box_green_multiplier` (a zero-padded FFT convolution), and
    applies the weighted Laplacian on the box alone; no iteration allocates,
    and none touches more than the box and the padded pair's buffers, which
    are grid-sized only where the padding reaches the grid.  This is the
    capacitance-matrix idea of a fast periodic solver plus a correction
    where the medium differs (Buzbee, Dorr, George & Golub, SIAM J. Numer.
    Anal. 8, 722 (1971)).  The full grid is mapped twice: once for ``G b``,
    and once at the end for ``x = G(b - r - L_delta x)``, whose source
    differs from ``b`` only on the box.  A box that covers the whole grid
    runs the same iteration.  For homogeneous eps the box is empty and
    ``G b`` is exact, with no iteration and no final map.  The stopping rule
    is judged on the true residual after the CG run, formed with the
    full weighted Laplacian of ``m.eps``, so a fault in the box, the kernel
    window or the recurrence cannot pass it.  Returns (chi, relative
    residual, iterations); raises :class:`SolverError` on stagnation and
    ``ValueError`` for any other rhs shape.
    """
    dims = m.grid.dims
    if rhs.shape != dims:
        raise ValueError(f"rhs shape {rhs.shape} differs from the grid dims {dims}")
    if maxiter is None:
        maxiter = max(1000, 40 * max(dims))
    b = np.asarray(rhs, dtype=np.float64)
    b = b - b.mean()

    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    c, box = _reference_split(m.eps)
    sym = laplacian_symbol(m.grid) * c
    inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)
    precondition = fourier_multiplier(inv_sym, dims)
    shape = tuple(s.stop - s.start for s in box)
    delta = m.eps[(slice(None),) + box] - c
    work = (np.empty(shape), np.empty(shape))

    # chi is the preconditioner's output buffer: G b until the final map
    chi = precondition(b)
    x = chi[box].copy()
    r = apply_weighted_laplacian(x, delta, work=work)
    np.negative(r, out=r)
    green = box_green_multiplier(inv_sym, dims, shape, precondition) if r.size else None
    # p and L p start at zero, so the first beta drops them; step is the scaled update
    p, ap, step = np.zeros(shape), np.zeros(shape), np.empty(shape)
    rz = 1.0
    iterations = 0
    while iterations < maxiter and np.linalg.norm(r) > 0.5 * tol * scale:
        # z is the box multiplier's output buffer, rewritten every iteration
        z = green(r)
        rz_new = np.vdot(r, z)
        beta = rz_new / rz if iterations else 0.0
        rz = rz_new
        iterations += 1
        # p <- z + beta p and L p <- r + beta L p + L_delta z, in place
        p *= beta
        p += z
        ap *= beta
        ap += r
        apply_weighted_laplacian(z, delta, out=ap, work=work, add=True)
        pap = np.vdot(p, ap)
        if pap <= 0:
            break
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
    # the final map's source, then L chi
    out = np.empty(dims)
    if iterations:
        # c K x = b - r - L_delta x, which differs from b only on the box; z
        # may share the preconditioner's buffer, so chi is the map's return
        np.copyto(out, b)
        out[box] -= r
        out[box] -= apply_weighted_laplacian(x, delta, out=ap, work=work)
        chi = precondition(out)
    r_true = np.subtract(b, apply_weighted_laplacian(chi, m.eps, out=out), out=out)
    res = float(np.linalg.norm(r_true)) / scale
    if not res <= tol:
        raise SolverError(
            f"Poisson CG did not reach tol={tol:g} in {iterations} iterations "
            f"(worst residual {res:.3e})",
            residual=res,
            iterations=iterations,
        )
    return chi, res, iterations


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
    chi *= m.grid.spacing
    # nothing else holds the three arrays: frozen, the fields take them without a copy
    for arr in (x1, x2, chi):
        arr.setflags(write=False)
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
    # the total field's x component is 1 - dplus_x(chi), both in lattice units
    chi, _, _ = solve_poisson_block(-dminus(m.eps[0], 0), m, tol=tol)
    total_x = 1.0 - dplus(chi, 0)

    inside = in_balls(grid.component_axes(EDGE, 0), (center,),
                      radius - CAVITY_INTERIOR_MARGIN * grid.spacing, grid, "cavity interior")
    if not inside.any():
        raise ProfileError("interior margin leaves no cavity samples")
    return float(total_x[inside].mean())
