"""Dielectric/magnetic profiles sampled on the staggered lattice.

Profiles are described analytically (homogeneous, slab stack, sphere,
empty cavity) and staircase-sampled at every staggered sample point:
relative permittivity at the three edge positions, optional relative
permeability at the three face positions.  The descriptor is retained on
the profile for provenance and persistence.

This module is the one owner of the descriptors: their JSON form
(:func:`descriptor_to_dict`, :func:`descriptor_from_dict`) and their rules,
which :func:`evaluate_descriptor` checks in the branch that samples each
kind, whether the descriptor came from a config, a bank sidecar or Python.
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


def _positive(what: str, value: float):
    if not 0 < value < np.inf:
        raise ProfileError(f"{what} must be positive and finite, got {value!r}")


def in_balls(points: np.ndarray, centers, radius: float, grid: Grid, what: str) -> np.ndarray:
    """Mask of the points (..., 3) within ``radius`` of any of ``centers``.

    Distances are taken to the nearest periodic image.  The radius must be
    positive and at most half the shortest box side, so that a ball never
    meets an image of itself, and every center needs three coordinates.
    """
    lengths = grid.lengths
    _positive(f"{what} radius", radius)
    half = min(lengths) / 2
    if radius > half:
        raise ProfileError(f"{what} radius {radius} exceeds half the box {half}")
    inside = np.zeros(points.shape[:-1], dtype=bool)
    for center in centers:
        if np.shape(center) != (3,):
            raise ProfileError(f"{what} center {center!r} needs three coordinates")
        delta = points - np.asarray(center)
        for a in range(3):
            delta[..., a] -= lengths[a] * np.round(delta[..., a] / lengths[a])
        inside |= np.linalg.norm(delta, axis=-1) <= radius
    return inside


def evaluate_descriptor(desc: Descriptor, points: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise permittivity of a descriptor at coordinates (..., 3).

    Each kind's rules are checked before it is sampled, also for values no
    sample reaches (a layer thinner than a cell, a sphere inside one);
    a fault raises :class:`ProfileError`.
    """
    if isinstance(desc, Homogeneous):
        _positive("permittivity", desc.eps)
        return np.full(points.shape[:-1], float(desc.eps))
    if isinstance(desc, SlabStack):
        if not (isinstance(desc.axis, (int, np.integer)) and 0 <= desc.axis <= 2):
            raise ProfileError(f"slab axis {desc.axis!r} is not 0, 1 or 2")
        if not desc.layers:
            raise ProfileError("slab stack needs at least one layer")
        for i, layer in enumerate(desc.layers):
            _positive(f"layer {i} thickness", layer.thickness)
            _positive(f"layer {i} eps", layer.eps)
        box = grid.lengths[desc.axis]
        n_periods = box / desc.period
        if round(n_periods) < 1 or abs(n_periods - round(n_periods)) > 1e-9:
            raise ProfileError(f"stack period {desc.period} does not tile the box length {box}")
        x = np.mod(points[..., desc.axis], desc.period)
        out = np.full(points.shape[:-1], desc.layers[-1].eps)
        lo = 0.0
        for layer in desc.layers:
            hi = lo + layer.thickness
            out[(x >= lo) & (x < hi)] = layer.eps
            lo = hi
        return out
    if isinstance(desc, Sphere):
        _positive("sphere eps_in", desc.eps_in)
        _positive("sphere eps_out", desc.eps_out)
        inside = in_balls(points, (desc.center,), desc.radius, grid, "sphere")
        return np.where(inside, desc.eps_in, desc.eps_out)
    if isinstance(desc, EmptyCavity):
        if not desc.radius >= grid.spacing:
            raise ProfileError(
                f"cavity radius {desc.radius!r} is not at least one cell ({grid.spacing})"
            )
        out = evaluate_descriptor(desc.host, points, grid)
        return np.where(in_balls(points, desc.centers, desc.radius, grid, "cavity"), 1.0, out)
    raise ProfileError(f"unknown descriptor type {type(desc).__name__}")


def descriptor_to_dict(desc: Descriptor) -> dict:
    """The JSON form of a descriptor, as configs and bank sidecars hold it."""
    if isinstance(desc, Homogeneous):
        return {"kind": "homogeneous", "eps": desc.eps}
    if isinstance(desc, SlabStack):
        return {
            "kind": "slab-stack",
            "axis": desc.axis,
            "layers": [{"thickness": l.thickness, "eps": l.eps} for l in desc.layers],
        }
    if isinstance(desc, Sphere):
        return {
            "kind": "sphere",
            "center": list(desc.center),
            "radius": desc.radius,
            "eps_in": desc.eps_in,
            "eps_out": desc.eps_out,
        }
    if isinstance(desc, EmptyCavity):
        return {
            "kind": "empty-cavity",
            "host": descriptor_to_dict(desc.host),
            "centers": [list(c) for c in desc.centers],
            "radius": desc.radius,
        }
    raise ProfileError(f"cannot serialize descriptor {type(desc).__name__}")


def descriptor_from_dict(data: dict) -> Descriptor:
    """The descriptor of a JSON form; its rules are checked when it is sampled."""
    kind = data.get("kind")
    if kind == "homogeneous":
        return Homogeneous(eps=float(data["eps"]))
    if kind == "slab-stack":
        layers = tuple(Layer(float(l["thickness"]), float(l["eps"])) for l in data["layers"])
        return SlabStack(layers=layers, axis=data.get("axis", 0))
    if kind == "sphere":
        return Sphere(
            center=tuple(float(x) for x in data["center"]),
            radius=float(data["radius"]),
            eps_in=float(data["eps_in"]),
            eps_out=float(data["eps_out"]),
        )
    if kind == "empty-cavity":
        return EmptyCavity(
            host=descriptor_from_dict(data["host"]),
            centers=tuple(tuple(float(x) for x in c) for c in data["centers"]),
            radius=float(data["radius"]),
        )
    raise ProfileError(f"unknown descriptor kind {kind!r}")


@dataclass(frozen=True)
class MediumProfile:
    """Permittivity (edge samples) and optional permeability (face samples)."""

    grid: Grid
    eps: np.ndarray            # (3, nx, ny, nz) at edge positions
    mu: np.ndarray | None      # (3, nx, ny, nz) at face positions, None means 1
    descriptor: Descriptor | None = None
    mu_descriptor: Descriptor | None = None

    def __post_init__(self):
        for name in ("eps", "mu"):
            samples = getattr(self, name)
            if name == "mu" and samples is None:
                continue
            samples = np.array(samples, dtype=np.float64)
            if samples.shape != (3,) + self.grid.dims:
                raise ProfileError(f"{name} must have shape {(3,) + self.grid.dims}")
            if not (np.all(np.isfinite(samples)) and np.all(samples > 0)):
                raise ProfileError(f"{name} samples must be positive and finite")
            samples.setflags(write=False)
            object.__setattr__(self, name, samples)


def build_profile(
    desc: Descriptor, grid: Grid, mu_desc: Descriptor | None = None
) -> MediumProfile:
    """Staircase-sample a descriptor at every staggered sample point."""
    eps = np.stack(
        [evaluate_descriptor(desc, grid.component_positions(EDGE, a), grid) for a in range(3)]
    )
    mu = None
    if mu_desc is not None:
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
