"""Dielectric/magnetic profiles sampled on the staggered lattice.

Profiles are described analytically (homogeneous, slab stack, sphere,
empty cavity) and staircase-sampled at every staggered sample point:
relative permittivity at the three edge positions, optional relative
permeability at the three face positions.  The descriptor is retained on
the profile for provenance and persistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GridMismatchError, PlacementError, ProfileError
from .lattice import EDGE, FACE, Grid, VectorField


@dataclass(frozen=True)
class Homogeneous:
    eps: float


@dataclass(frozen=True)
class Layer:
    thickness: float
    eps: float


@dataclass(frozen=True)
class SlabStack:
    """Piecewise-constant layers along one axis, tiled periodically."""

    layers: tuple[Layer, ...]
    axis: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple(Layer(l.thickness, l.eps) if not isinstance(l, Layer) else l
                                  for l in self.layers)
        )

    @property
    def period(self) -> float:
        return sum(l.thickness for l in self.layers)


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    eps_in: float
    eps_out: float


@dataclass(frozen=True)
class EmptyCavity:
    """Host profile with eps forced to 1 inside spheres around guest atoms."""

    host: "Descriptor"
    centers: tuple[tuple[float, float, float], ...]
    radius: float


Descriptor = Union[Homogeneous, SlabStack, Sphere, EmptyCavity]


def _min_image(delta: np.ndarray, lengths) -> np.ndarray:
    out = delta.copy()
    for a in range(3):
        out[..., a] -= lengths[a] * np.round(out[..., a] / lengths[a])
    return out


def evaluate_descriptor(desc: Descriptor, points: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise permittivity of a descriptor at coordinates (..., 3)."""
    if isinstance(desc, Homogeneous):
        return np.full(points.shape[:-1], float(desc.eps))
    if isinstance(desc, SlabStack):
        x = np.mod(points[..., desc.axis], desc.period)
        out = np.full(points.shape[:-1], desc.layers[-1].eps)
        lo = 0.0
        for layer in desc.layers:
            hi = lo + layer.thickness
            out[(x >= lo) & (x < hi)] = layer.eps
            lo = hi
        return out
    if isinstance(desc, Sphere):
        delta = _min_image(points - np.asarray(desc.center), grid.lengths)
        r = np.linalg.norm(delta, axis=-1)
        return np.where(r <= desc.radius, desc.eps_in, desc.eps_out)
    if isinstance(desc, EmptyCavity):
        out = evaluate_descriptor(desc.host, points, grid)
        for center in desc.centers:
            delta = _min_image(points - np.asarray(center), grid.lengths)
            r = np.linalg.norm(delta, axis=-1)
            out = np.where(r <= desc.radius, 1.0, out)
        return out
    raise ProfileError(f"unknown descriptor type {type(desc).__name__}")


def _validate(desc: Descriptor, grid: Grid):
    if isinstance(desc, Homogeneous):
        if desc.eps <= 0:
            raise ProfileError(f"permittivity must be positive, got {desc.eps}")
    elif isinstance(desc, SlabStack):
        if not desc.layers:
            raise ProfileError("slab stack needs at least one layer")
        for layer in desc.layers:
            if layer.thickness <= 0 or layer.eps <= 0:
                raise ProfileError(f"bad layer {layer}")
        box = grid.lengths[desc.axis]
        n_periods = box / desc.period
        if abs(n_periods - round(n_periods)) > 1e-9:
            raise ProfileError(
                f"stack period {desc.period} does not tile the box length {box}"
            )
    elif isinstance(desc, Sphere):
        if desc.eps_in <= 0 or desc.eps_out <= 0:
            raise ProfileError("sphere permittivities must be positive")
        if desc.radius <= 0:
            raise ProfileError(f"sphere radius must be positive, got {desc.radius}")
        if desc.radius > min(grid.lengths) / 2:
            raise ProfileError(
                f"sphere radius {desc.radius} exceeds half the box {min(grid.lengths) / 2}"
            )
    elif isinstance(desc, EmptyCavity):
        _validate(desc.host, grid)
        if desc.radius < grid.spacing:
            raise ProfileError(
                f"cavity radius {desc.radius} below one cell ({grid.spacing})"
            )
        if desc.radius > min(grid.lengths) / 2:
            raise ProfileError("cavity radius exceeds half the box")
    else:
        raise ProfileError(f"unknown descriptor type {type(desc).__name__}")


@dataclass(frozen=True)
class MediumProfile:
    """Permittivity (edge samples) and optional permeability (face samples)."""

    grid: Grid
    eps: np.ndarray            # (3, nx, ny, nz) at edge positions
    mu: np.ndarray | None      # (3, nx, ny, nz) at face positions, None means 1
    descriptor: Descriptor | None = None
    mu_descriptor: Descriptor | None = None

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=np.float64)
        if eps.shape != (3,) + self.grid.dims:
            raise ProfileError(f"eps must have shape {(3,) + self.grid.dims}")
        if not (np.all(np.isfinite(eps)) and np.all(eps > 0)):
            raise ProfileError("eps samples must be positive and finite")
        eps = eps.copy()
        eps.setflags(write=False)
        object.__setattr__(self, "eps", eps)
        if self.mu is not None:
            mu = np.asarray(self.mu, dtype=np.float64)
            if mu.shape != (3,) + self.grid.dims:
                raise ProfileError(f"mu must have shape {(3,) + self.grid.dims}")
            if not (np.all(np.isfinite(mu)) and np.all(mu > 0)):
                raise ProfileError("mu samples must be positive and finite")
            mu = mu.copy()
            mu.setflags(write=False)
            object.__setattr__(self, "mu", mu)


def build_profile(
    desc: Descriptor, grid: Grid, mu_desc: Descriptor | None = None
) -> MediumProfile:
    """Staircase-sample a descriptor at every staggered sample point."""
    _validate(desc, grid)
    eps = np.stack(
        [evaluate_descriptor(desc, grid.component_positions(EDGE, a), grid) for a in range(3)]
    )
    mu = None
    if mu_desc is not None:
        _validate(mu_desc, grid)
        mu = np.stack(
            [evaluate_descriptor(mu_desc, grid.component_positions(FACE, a), grid)
             for a in range(3)]
        )
    return MediumProfile(grid, eps, mu, descriptor=desc, mu_descriptor=mu_desc)


def eps_inner(u: VectorField, v: VectorField, m: MediumProfile) -> float:
    """Permittivity-weighted inner product sum(eps * u . v) * cell volume."""
    if u.grid != m.grid or v.grid != m.grid:
        raise GridMismatchError("fields and medium must share a grid")
    if u.placement != EDGE or v.placement != EDGE:
        raise PlacementError("eps_inner is defined for edge fields")
    return float(np.vdot(u.values, m.eps * v.values)) * m.grid.cell_volume
