import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsmodes.errors import GridMismatchError, ProfileError
from epsmodes.lattice import EDGE, Grid, VectorField
from epsmodes.medium import (
    EmptyCavity,
    Homogeneous,
    Layer,
    SlabStack,
    Sphere,
    build_profile,
    eps_inner,
    evaluate_descriptor,
)

from conftest import random_medium, random_vector


class TestBuildProfile:
    def test_homogeneous(self):
        g = Grid((4, 4, 4))
        m = build_profile(Homogeneous(1.0), g)
        assert np.all(m.eps == 1.0)
        assert m.mu is None

    def test_sphere_staircase(self):
        g = Grid((16, 16, 16), 1.0)
        desc = Sphere(center=(8, 8, 8), radius=2.0, eps_in=1.0, eps_out=4.0)
        m = build_profile(desc, g)
        # edge-x sample at the center cell lies inside, far corner outside
        assert m.eps[0, 8, 8, 8] == 1.0
        assert m.eps[0, 0, 0, 0] == 4.0
        inside = np.count_nonzero(m.eps == 1.0)
        assert 0 < inside < m.eps.size

    def test_slab_stack_matches_pointwise_evaluation(self):
        g = Grid((64, 1, 1), 1.0)
        desc = SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0)), axis=0)
        m = build_profile(desc, g)
        for a in range(3):
            pts = g.component_positions(EDGE, a)
            assert np.array_equal(m.eps[a], evaluate_descriptor(desc, pts, g))
        # cell-centered samples of the y component follow the layer pattern
        assert m.eps[1, 0, 0, 0] == 1.0
        assert m.eps[1, 6, 0, 0] == 13.0
        assert m.eps[1, 8, 0, 0] == 1.0

    def test_empty_cavity_forces_unity(self):
        g = Grid((16, 16, 16), 1.0)
        desc = EmptyCavity(Homogeneous(4.0), centers=((8.0, 8.0, 8.0),), radius=2.5)
        m = build_profile(desc, g)
        for a in range(3):
            pts = g.component_positions(EDGE, a)
            d = pts - np.array([8.0, 8.0, 8.0])
            r = np.linalg.norm(d, axis=-1)
            assert np.all(m.eps[a][r <= 2.5] == 1.0)
            assert np.all(m.eps[a][r > 2.5] == 4.0)

    def test_rejects_bad_geometry(self):
        g = Grid((8, 8, 8), 1.0)
        with pytest.raises(ProfileError):
            build_profile(Homogeneous(-1.0), g)
        with pytest.raises(ProfileError):
            build_profile(Sphere((4, 4, 4), 5.0, 1.0, 2.0), g)  # radius > L/2
        with pytest.raises(ProfileError):
            build_profile(SlabStack((Layer(3.0, 2.0),), axis=0), g)  # period mismatch
        with pytest.raises(ProfileError):
            build_profile(EmptyCavity(Homogeneous(2.0), ((4, 4, 4),), 0.2), g)


class TestEpsInner:
    def test_unit_fields_give_box_volume(self):
        g = Grid((4, 5, 6), 0.5)
        m = build_profile(Homogeneous(1.0), g)
        u = VectorField(g, EDGE, np.full((3,) + g.dims, 1.0) / math.sqrt(3))
        assert eps_inner(u, u, m) == pytest.approx(g.volume)

    def test_orthogonal_plane_waves(self):
        g = Grid((8, 8, 8), 1.0)
        m = build_profile(Homogeneous(2.0), g)
        x = np.arange(8)[:, None, None] * np.ones(g.dims)
        u = np.zeros((3,) + g.dims)
        v = np.zeros((3,) + g.dims)
        u[1] = np.cos(2 * np.pi * x / 8)
        v[1] = np.sin(2 * np.pi * x / 8)
        value = eps_inner(VectorField(g, EDGE, u), VectorField(g, EDGE, v), m)
        assert abs(value) < 1e-12

    def test_matches_fsum_oracle(self, rng):
        g = Grid((4, 4, 4), 0.9)
        m = random_medium(g, rng)
        u = random_vector(g, rng)
        v = random_vector(g, rng)
        oracle = math.fsum(
            (m.eps * u.values * v.values).ravel().tolist()
        ) * g.cell_volume
        got = eps_inner(u, v, m)
        assert abs(got - oracle) <= 1e-13 * abs(oracle)

    def test_symmetry(self, rng):
        g = Grid((3, 3, 3))
        m = random_medium(g, rng)
        u = random_vector(g, rng)
        v = random_vector(g, rng)
        assert eps_inner(u, v, m) == pytest.approx(eps_inner(v, u, m), rel=1e-14)

    def test_grid_mismatch(self, rng):
        m = random_medium(Grid((4, 4, 4)), rng)
        u = random_vector(Grid((3, 3, 3)), rng)
        with pytest.raises(GridMismatchError):
            eps_inner(u, u, m)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(-5, 5), seed=st.integers(0, 2**31))
def test_eps_inner_bilinear_property(scale, seed):
    rng = np.random.default_rng(seed)
    g = Grid((4, 4, 4))
    m = random_medium(g, rng)
    u = random_vector(g, rng)
    v = random_vector(g, rng)
    scaled = VectorField(g, EDGE, scale * u.values)
    lhs = eps_inner(scaled, v, m)
    rhs = scale * eps_inner(u, v, m)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_eps_inner_positive_definite(rng):
    g = Grid((5, 4, 3))
    m = random_medium(g, rng)
    u = random_vector(g, rng)
    assert eps_inner(u, u, m) > 0
