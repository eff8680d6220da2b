import numpy as np
import pytest

from epsmodes.lattice import EDGE, FACE, Grid, ScalarField, VectorField, dplus
from epsmodes.medium import MediumProfile


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_scalar(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.dims))


def random_vector(grid, rng, placement=EDGE):
    return VectorField(grid, placement, rng.standard_normal((3,) + grid.dims))


def random_medium(grid, rng, lo=1.0, hi=4.0):
    eps = lo + (hi - lo) * rng.random((3,) + grid.dims)
    return MediumProfile(grid, eps, None)


def range_defect(op, y):
    """How far raw (3, nx, ny, nz, batch) faces ``y`` lie from the range of B.

    The range is ``w^(1/2) * {v : sum_a dplus_a v_a = 0, mean(v) = 0}``; the
    defect is the largest face divergence or column mean of ``y / w^(1/2)``
    over its largest entry.
    """
    v = y if op.sqrt_w is None else y / op.sqrt_w[..., None]
    div_face = sum(dplus(v[a], a, op.grid.spacing) for a in range(3))
    mean = v.mean(axis=(1, 2, 3))
    return max(np.abs(div_face).max(), np.abs(mean).max()) / np.abs(v).max()


def component_positions(grid, placement, comp):
    """Sample coordinates of one component as a full (nx, ny, nz, 3) array.

    The reference against which the library's separable sampling is checked.
    """
    mesh = np.meshgrid(*grid.component_axes(placement, comp), indexing="ij")
    return np.stack(mesh, axis=-1)


def image_distance(points, center, grid):
    """Distance of each point (..., 3) to the nearest periodic image of ``center``.

    Full coordinates and one ``np.linalg.norm`` over the last axis: the
    reference for ``medium.in_balls``.
    """
    lengths = np.asarray(grid.lengths)
    delta = points - np.asarray(center)
    delta -= lengths * np.round(delta / lengths)
    return np.linalg.norm(delta, axis=-1)


def reference_balls(points, centers, radius, grid):
    """Mask of the points (..., 3) within ``radius`` of any of ``centers``."""
    inside = np.zeros(points.shape[:-1], dtype=bool)
    for center in centers:
        inside |= image_distance(points, center, grid) <= radius
    return inside


def smooth_medium(grid, seed=7, lo=1.0, hi=4.0):
    """Smooth (few-Fourier-component) permittivity sampled per edge component."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(4):
        kvec = rng.integers(-1, 2, size=3) * 2 * np.pi / np.asarray(grid.lengths)
        terms.append((kvec, rng.uniform(0, 2 * np.pi), rng.uniform(0.2, 0.5)))
    comps = []
    for a in range(3):
        pts = component_positions(grid, EDGE, a)
        out = np.zeros(pts.shape[:-1])
        for kvec, phase, amp in terms:
            out += amp * np.cos(pts @ kvec + phase)
        comps.append(out)
    eps = np.stack(comps)
    eps -= eps.min()
    eps /= max(eps.max(), 1e-12)
    return MediumProfile(grid, lo + (hi - lo) * eps, None)
