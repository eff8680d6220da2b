"""Dielectric/magnetic profiles sampled on the staggered lattice.

Profiles are described analytically (homogeneous, slab stack, sphere,
empty cavity) and staircase-sampled at every staggered sample point:
relative permittivity at the three edge positions, optional relative
permeability at the three face positions.  The descriptor is retained on
the profile for provenance and persistence.

This module holds the descriptors' only grammar, for configs, bank sidecars
and Python alike: :func:`read_descriptor` checks the JSON form's keys and
types with the readers of :mod:`epsmodes.grammar`, the ones that read
configs and sidecars, and :func:`descriptor_from_dict` builds the
descriptor from it; :func:`evaluate_descriptor` checks the values' rules,
such as :func:`check_permittivity`, in the branch that samples each kind.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GridMismatchError, PlacementError, ProfileError
from .grammar import REQUIRED, JsonError, array, enum, obj, value
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


# a relative permittivity or permeability: from 1e8 on, a correct bank's
# weighted divergence fails verify's 1e-8, and far above it the frequencies err
MAX_PERMITTIVITY = 1e6


def _real(what: str, value):
    """Refuse a value that is not a real number: a bool, a string, None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ProfileError(f"{what} must be a number, got {value!r}")


def _positive(what: str, value: float):
    _real(what, value)
    if not 0 < value < np.inf:
        raise ProfileError(f"{what} must be positive and finite, got {value!r}")


def check_permittivity(what: str, value: float):
    """Refuse a relative permittivity or permeability outside (0, MAX_PERMITTIVITY]."""
    _real(what, value)
    if not 0 < value <= MAX_PERMITTIVITY:
        raise ProfileError(f"{what} must lie in (0, {MAX_PERMITTIVITY:g}], got {value!r}")


def in_balls(axes, centers, radius: float, grid: Grid, what: str) -> np.ndarray:
    """Mask of the samples within ``radius`` of any of ``centers``.

    ``axes`` holds a component's 1D coordinates along x, y and z (see
    :meth:`Grid.component_axes`); the mask has their broadcast shape.
    Distances are taken to the nearest periodic image, one axis at a time,
    and summed as ``(dx² + dy²) + dz²`` before the root, the operations of
    ``np.linalg.norm`` over a full coordinate array in its order.  The
    radius must be positive and at most half the shortest box side, so
    that a ball never meets an image of itself, and ``centers`` must be a
    tuple or list whose every entry has three finite coordinates.
    """
    lengths = grid.lengths
    _positive(f"{what} radius", radius)
    if not isinstance(centers, (tuple, list)):
        raise ProfileError(f"{what} centers must be a tuple of points, got {centers!r}")
    half = min(lengths) / 2
    if radius > half:
        raise ProfileError(f"{what} radius {radius} exceeds half the box {half}")
    for center in centers:
        if np.shape(center) != (3,):
            raise ProfileError(f"{what} center {center!r} needs three coordinates")
        for x in center:
            _real(f"{what} center", x)
        if not np.all(np.isfinite(center)):
            raise ProfileError(f"{what} center {center!r} is not finite")
    inside = np.zeros(tuple(len(x) for x in axes), dtype=bool)
    for center in centers:
        squares = []
        for x, c, length in zip(axes, np.asarray(center), lengths):
            d = x - c
            d -= length * np.round(d / length)
            squares.append(d * d)
        sx, sy, sz = np.ix_(*squares)
        inside |= np.sqrt((sx + sy) + sz) <= radius
    return inside


def evaluate_descriptor(desc: Descriptor, axes, grid: Grid) -> np.ndarray:
    """Permittivity of a descriptor at a component's samples.

    ``axes`` holds the component's 1D coordinates along x, y and z (see
    :meth:`Grid.component_axes`), and the result has their broadcast shape;
    a slab stack's may be a read-only broadcast view.  Each kind's rules
    are checked before it is sampled, also for values no sample reaches (a
    layer thinner than a cell, a sphere inside one); a fault raises
    :class:`ProfileError`.
    """
    shape = tuple(len(x) for x in axes)
    if isinstance(desc, Homogeneous):
        check_permittivity("eps", desc.eps)
        return np.full(shape, float(desc.eps))
    if isinstance(desc, SlabStack):
        if not (isinstance(desc.axis, (int, np.integer)) and 0 <= desc.axis <= 2):
            raise ProfileError(f"slab axis {desc.axis!r} is not 0, 1 or 2")
        if not isinstance(desc.layers, (tuple, list)):
            raise ProfileError(f"slab layers must be a tuple of Layer, got {desc.layers!r}")
        if not desc.layers:
            raise ProfileError("slab stack needs at least one layer")
        for i, layer in enumerate(desc.layers):
            if not isinstance(layer, Layer):
                raise ProfileError(f"layer {i} must be a Layer, got {layer!r}")
            _positive(f"layer {i} thickness", layer.thickness)
            check_permittivity(f"layer {i} eps", layer.eps)
        box = grid.lengths[desc.axis]
        n_periods = box / desc.period
        if round(n_periods) < 1 or abs(n_periods - round(n_periods)) > 1e-9:
            raise ProfileError(f"stack period {desc.period} does not tile the box length {box}")
        # the profile depends on one coordinate: sample it there and broadcast
        x = np.mod(axes[desc.axis], desc.period)
        out = np.full(x.shape, desc.layers[-1].eps)
        lo = 0.0
        for layer in desc.layers:
            hi = lo + layer.thickness
            out[(x >= lo) & (x < hi)] = layer.eps
            lo = hi
        along = [1, 1, 1]
        along[desc.axis] = len(x)
        return np.broadcast_to(out.reshape(along), shape)
    if isinstance(desc, Sphere):
        check_permittivity("sphere eps_in", desc.eps_in)
        check_permittivity("sphere eps_out", desc.eps_out)
        inside = in_balls(axes, (desc.center,), desc.radius, grid, "sphere")
        return np.where(inside, desc.eps_in, desc.eps_out)
    if isinstance(desc, EmptyCavity):
        _real("cavity radius", desc.radius)
        if not desc.radius >= grid.spacing:
            raise ProfileError(
                f"cavity radius {desc.radius!r} is not at least one cell ({grid.spacing})"
            )
        out = evaluate_descriptor(desc.host, axes, grid)
        return np.where(in_balls(axes, desc.centers, desc.radius, grid, "cavity"), 1.0, out)
    raise ProfileError(f"unknown descriptor type {type(desc).__name__}")


def check_descriptor(desc: Descriptor, grid: Grid):
    """Check a descriptor's rules on ``grid`` without sampling it.

    The rules are those :func:`evaluate_descriptor` checks, met here on
    empty axes; a fault raises :class:`ProfileError`.
    """
    empty = np.empty(0)
    evaluate_descriptor(desc, (empty, empty, empty), grid)


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


_OBJECT, _NUMBER = value("object"), value("number")
_POINT = array(_NUMBER)
_KIND = enum("homogeneous", "slab-stack", "sphere", "empty-cavity")


def _kind(**keys):
    return obj({"kind": (_KIND, REQUIRED), **keys})


def read_descriptor(data, path: str):
    """Read a descriptor's JSON form (an :mod:`epsmodes.grammar` reader):
    its kind first, then the keys of that kind."""
    _OBJECT(data, path)
    if "kind" not in data:
        raise JsonError(path, "'kind' is a required property")
    return _KIND_READERS[_KIND(data["kind"], f"{path}.kind")](data, path)


_KIND_READERS = {
    "homogeneous": _kind(eps=(_NUMBER, REQUIRED)),
    "slab-stack": _kind(
        layers=(array(obj({"thickness": (_NUMBER, REQUIRED), "eps": (_NUMBER, REQUIRED)})),
                REQUIRED),
        axis=(value("integer"), 0),
    ),
    "sphere": _kind(center=(_POINT, REQUIRED), radius=(_NUMBER, REQUIRED),
                    eps_in=(_NUMBER, REQUIRED), eps_out=(_NUMBER, REQUIRED)),
    "empty-cavity": _kind(host=(read_descriptor, REQUIRED), centers=(array(_POINT), REQUIRED),
                          radius=(_NUMBER, REQUIRED)),
}


def descriptor_from_dict(data, path: str = "descriptor") -> Descriptor:
    """The descriptor of a JSON form, or ProfileError naming the JSON path
    of the fault (``descriptor.center[1]``, under ``path``); the values'
    rules are checked when it is sampled."""
    try:
        # on a copy: the reader fills in a slab stack's axis
        data = read_descriptor(copy.deepcopy(data), path)
    except JsonError as exc:
        raise ProfileError(str(exc)) from exc
    kind = data["kind"]
    if kind == "homogeneous":
        return Homogeneous(eps=float(data["eps"]))
    if kind == "slab-stack":
        return SlabStack(
            layers=tuple(Layer(float(layer["thickness"]), float(layer["eps"]))
                         for layer in data["layers"]),
            axis=data["axis"],
        )
    if kind == "sphere":
        return Sphere(
            center=tuple(map(float, data["center"])),
            radius=float(data["radius"]),
            eps_in=float(data["eps_in"]),
            eps_out=float(data["eps_out"]),
        )
    return EmptyCavity(
        host=descriptor_from_dict(data["host"], f"{path}.host"),
        centers=tuple(tuple(map(float, c)) for c in data["centers"]),
        radius=float(data["radius"]),
    )


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
        [evaluate_descriptor(desc, grid.component_axes(EDGE, a), grid) for a in range(3)]
    )
    mu = None
    if mu_desc is not None:
        mu = np.stack(
            [evaluate_descriptor(mu_desc, grid.component_axes(FACE, a), grid) for a in range(3)]
        )
    return MediumProfile(grid, eps, mu, descriptor=desc, mu_descriptor=mu_desc)


def eps_inner(u: VectorField, v: VectorField, m: MediumProfile) -> float:
    """Permittivity-weighted inner product sum(eps * u . v) * cell volume."""
    if u.grid != m.grid or v.grid != m.grid:
        raise GridMismatchError("fields and medium must share a grid")
    if u.placement != EDGE or v.placement != EDGE:
        raise PlacementError("eps_inner is defined for edge fields")
    return float(np.vdot(u.values, m.eps * v.values)) * m.grid.cell_volume
