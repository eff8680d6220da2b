"""Periodic staggered lattice and mimetic difference operators.

The grid is a periodic box of ``nx * ny * nz`` cubic cells with spacing
``s`` (natural units: c = eps0 = mu0 = hbar = 1).  Scalars live at cell
centers, vector fields either on edges (E/A-like quantities) or faces
(B-like quantities):

* cell center ``(i, j, k)`` sits at ``(i, j, k) * s``,
* the edge sample of component ``a`` is shifted by ``s/2`` along ``a``,
* the face sample of component ``a`` is shifted by ``s/2`` along the two
  transverse axes.

``grad`` uses forward differences, ``div`` backward differences, and the
two curls are exact adjoints of one another, so the chain identities
``curl(grad(.)) = 0`` and ``div(curl_t(.)) = 0`` hold to rounding error
and ``<grad phi, V> = -<phi, div V>`` holds exactly in exact arithmetic.

The raw kernels work in lattice units (``s = 1``): the medium is
nondispersive, so the physics at spacing ``s`` is that of ``s = 1`` rescaled.
The field-level operators divide by ``s`` once.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, PlacementError

CELL_CENTER = "cell-center"
EDGE = "edge"
FACE = "face"

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


#: Powers of the spacing that physical values carry: squared positions
#: (media are sampled in physical lengths), the cell volume, frequencies, a
#: bank's stored g and an emission rate.
SPACING_POWERS = (2, 3, -1, -1.5, -3)


@dataclass(frozen=True)
class Grid:
    """Periodic cubic-cell lattice geometry.

    Each power of the spacing in :data:`SPACING_POWERS` must be a normal float.
    """

    dims: tuple[int, int, int]
    spacing: float = 1.0

    def __post_init__(self):
        # a bool or a string would pass int() and float() as a number
        try:
            dims = tuple(self.dims)
        except TypeError:
            dims = ()
        if len(dims) != 3 or not all(
                isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1
                for n in dims):
            raise ValueError(f"dims must be three integers >= 1, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(int(n) for n in dims))
        if isinstance(self.spacing, bool) or not isinstance(self.spacing, numbers.Real):
            raise ValueError(f"spacing must be a number, got {self.spacing!r}")
        s = float(self.spacing)
        with np.errstate(over="ignore", under="ignore"):
            powers = np.float64(s) ** np.array(SPACING_POWERS) if s > 0.0 else np.zeros(1)
        if not np.all((powers >= sys.float_info.min) & (powers <= sys.float_info.max)):
            raise ValueError(f"spacing {s!r} puts a power of it in {SPACING_POWERS} "
                             "outside the normal float range")
        object.__setattr__(self, "spacing", s)
        # the box's lengths and volume are floats too; the cell count is
        # compared as an integer first, since a count past the float range
        # cannot even be converted
        if not (self.ncells <= sys.float_info.max
                and all(v < np.inf for v in (*self.lengths, self.volume))):
            raise ValueError(f"dims {self.dims} with spacing {s!r} make a box length or "
                             "volume that is not finite")

    @property
    def ncells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def volume(self) -> float:
        return self.ncells * self.cell_volume

    @property
    def lengths(self) -> tuple[float, float, float]:
        return tuple(n * self.spacing for n in self.dims)

    def component_offsets(self, placement: str) -> np.ndarray:
        """Half-cell offsets (units of spacing) of each vector component."""
        if placement == EDGE:
            return 0.5 * np.eye(3)
        if placement == FACE:
            return 0.5 * (np.ones((3, 3)) - np.eye(3))
        if placement == CELL_CENTER:
            return np.zeros((3, 3))
        raise PlacementError(f"unknown placement {placement!r}")

    def component_axes(self, placement: str, comp: int) -> tuple[np.ndarray, ...]:
        """Sample coordinates of one component along each axis, three 1D arrays.

        The component's samples sit at every combination of the three, so a
        profile that is separable, or a distance that is a sum over axes, is
        formed on the broadcast grid without a full coordinate array.
        """
        off = self.component_offsets(placement)[comp]
        return tuple((np.arange(n) + off[a]) * self.spacing for a, n in enumerate(self.dims))


def _check_values(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} values must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} values contain non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Cell-centered scalar samples over a grid."""

    grid: Grid
    values: np.ndarray
    placement: str = CELL_CENTER

    def __post_init__(self):
        if self.placement != CELL_CENTER:
            raise PlacementError(f"scalar fields are cell-centered, got {self.placement!r}")
        object.__setattr__(self, "values", _check_values(self.values, self.grid.dims, "scalar"))


@dataclass(frozen=True)
class VectorField:
    """Staggered vector samples, three components per cell."""

    grid: Grid
    placement: str
    values: np.ndarray

    def __post_init__(self):
        if self.placement not in (EDGE, FACE):
            raise PlacementError(f"vector placement must be edge or face, got {self.placement!r}")
        object.__setattr__(
            self, "values", _check_values(self.values, (3,) + self.grid.dims, "vector")
        )


def _require_placement(field, placement: str, op: str):
    if field.placement != placement:
        raise PlacementError(f"{op} requires {placement} placement, got {field.placement!r}")


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


# Raw array kernels.  Scalars are (nx, ny, nz, ...), vectors (3, nx, ny, nz, ...);
# trailing axes are broadcast batches.  Used directly by the solvers.


def _wrap_slices(ndim: int, axis: int):
    """Index tuples for ``[:-1]``, ``[1:]``, ``[:1]`` and ``[-1:]`` along ``axis``."""
    head = (slice(None),) * (axis % ndim)
    return tuple(head + (s,) for s in (
        slice(None, -1), slice(1, None), slice(None, 1), slice(-1, None)))


def dplus(arr: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic forward difference ``f[i+1] - f[i]``.

    ``out``, when given, receives the result; it must not overlap ``arr``.
    """
    lo, hi, first, last = _wrap_slices(arr.ndim, axis)
    if out is None:
        out = np.empty_like(arr)
    np.subtract(arr[hi], arr[lo], out=out[lo])
    np.subtract(arr[first], arr[last], out=out[last])
    return out


def dminus(arr: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic backward difference ``f[i] - f[i-1]``.

    ``out``, when given, receives the result; it must not overlap ``arr``.
    """
    lo, hi, first, last = _wrap_slices(arr.ndim, axis)
    if out is None:
        out = np.empty_like(arr)
    np.subtract(arr[hi], arr[lo], out=out[hi])
    np.subtract(arr[first], arr[last], out=out[first])
    return out


def grad_raw(phi: np.ndarray) -> np.ndarray:
    return np.stack([dplus(phi, a) for a in range(3)])


def div_raw(v: np.ndarray) -> np.ndarray:
    return sum(dminus(v[a], a) for a in range(3))


def curl_raw(v: np.ndarray) -> np.ndarray:
    return np.stack([dplus(v[c], b) - dplus(v[b], c) for _, b, c in _CYCLIC])


def curl_t_raw(w: np.ndarray) -> np.ndarray:
    return np.stack([dminus(w[c], b) - dminus(w[b], c) for _, b, c in _CYCLIC])


def difference_symbols(grid: Grid) -> list[np.ndarray]:
    """``d_a = e^(ik_a) - 1`` on axis ``a`` of the rfftn half grid, shaped to broadcast.

    ``rfftn(dplus(f, a)) = d_a rfftn(f)``.
    """
    parts = []
    for a, npts in enumerate(grid.dims):
        k = 2 * np.pi * (np.fft.rfftfreq(npts) if a == 2 else np.fft.fftfreq(npts))
        shape_a = [1, 1, 1]
        shape_a[a] = len(k)
        parts.append((np.exp(1j * k) - 1.0).reshape(shape_a))
    return parts


def laplacian_symbol(grid: Grid) -> np.ndarray:
    """``|d|^2 = sum_a |d_a|^2`` of shape (nx, ny, nz // 2 + 1) on the rfftn half grid.

    It is the symbol of the periodic 7-point Laplacian ``-div grad`` and of
    the vacuum curl-curl on divergence-free fields.  The three 1D parts are
    summed as ``(s0 + s1) + s2``, the order of ``np.sum`` over the stacked
    ``|d_a|^2``, without building the stack.
    """
    s0, s1, s2 = (np.abs(part) ** 2 for part in difference_symbols(grid))
    return (s0 + s1) + s2


# Field-level operators, in physical units: each divides its kernel by the spacing.


def grad(phi: ScalarField) -> VectorField:
    """Forward-difference gradient, cell centers to edges."""
    return VectorField(phi.grid, EDGE, grad_raw(phi.values) / phi.grid.spacing)


def div(v: VectorField) -> ScalarField:
    """Backward-difference divergence, edges to cell centers.

    Exact negative adjoint of :func:`grad` under the volume-weighted
    inner product.
    """
    _require_placement(v, EDGE, "div")
    return ScalarField(v.grid, div_raw(v.values) / v.grid.spacing)


def curl(v: VectorField) -> VectorField:
    """Mimetic curl taking edge fields to face fields."""
    _require_placement(v, EDGE, "curl")
    return VectorField(v.grid, FACE, curl_raw(v.values) / v.grid.spacing)


def curl_t(w: VectorField) -> VectorField:
    """Adjoint curl taking face fields back to edge fields."""
    _require_placement(w, FACE, "curl_t")
    return VectorField(w.grid, EDGE, curl_t_raw(w.values) / w.grid.spacing)


def inner(u, v) -> float:
    """Volume-weighted inner product of two fields of equal placement."""
    _require_same_grid(u, v)
    if u.placement != v.placement:
        raise PlacementError(f"placements differ: {u.placement!r} vs {v.placement!r}")
    return float(np.vdot(u.values, v.values)) * u.grid.cell_volume


def adjoint_defect(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> float:
    """``|a.b - c.d|`` over ``sum|a*b| + sum|c*d|`` for raw arrays.

    The two products of an adjoint identity can cancel to far below their
    terms, but their rounding stays a few ulps of the terms' magnitudes.
    """
    terms = np.abs(a * b).sum() + np.abs(c * d).sum()
    return float(abs(np.vdot(a, b) - np.vdot(c, d)) / max(terms, np.finfo(float).tiny))
