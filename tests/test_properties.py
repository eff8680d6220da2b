"""Property tests over random sphere and slab-stack media on 6^3 grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epsmodes.electrostatics import helmholtz_decompose
from epsmodes.lattice import EDGE, Grid, VectorField, div_raw
from epsmodes.medium import Layer, SlabStack, Sphere, build_profile
from epsmodes.modes import QOperator, _preconditioner, solve_modes
from epsmodes.quantization import TransverseProjector

from conftest import range_defect

GRID = Grid((6, 6, 6))
SEEDS = st.integers(0, 2**31)


@st.composite
def descriptors(draw):
    """A sphere or a two-layer slab stack that tiles the 6^3 box."""
    eps = st.floats(1.0, 13.0)
    if draw(st.booleans()):
        center = draw(st.tuples(*[st.floats(0.0, 6.0)] * 3))
        return Sphere(center, draw(st.floats(0.8, 3.0)), draw(eps), draw(eps))
    period = draw(st.sampled_from([2.0, 3.0, 6.0]))
    cut = draw(st.integers(1, int(period) - 1))
    layers = (Layer(float(cut), draw(eps)), Layer(period - cut, draw(eps)))
    return SlabStack(layers, axis=draw(st.integers(0, 2)))


@settings(max_examples=10, deadline=None)
@given(desc=descriptors(), mu_desc=st.none() | descriptors(), seed=SEEDS)
def test_preconditioner_range_property(desc, mu_desc, seed):
    op = QOperator(build_profile(desc, GRID, mu_desc))
    precondition, _ = _preconditioner(op)
    y = np.random.default_rng(seed).standard_normal((3,) + GRID.dims + (2,))
    assert range_defect(op, precondition(y)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(desc=descriptors(), seed=SEEDS)
def test_decomposition_property(desc, seed):
    m = build_profile(desc, GRID)
    x = VectorField(GRID, EDGE, np.random.default_rng(seed).standard_normal((3,) + GRID.dims))
    split = helmholtz_decompose(x, m, tol=1e-10)
    # reconstruction, and a divergence-free first part
    assert np.abs(split.x1.values + split.x2.values - x.values).max() <= 1e-12
    d = div_raw(split.x1.values)
    assert np.linalg.norm(d) <= 1e-9 * np.linalg.norm(div_raw(x.values))
    # uniqueness: the divergence-free part splits into itself and nothing else
    again = helmholtz_decompose(split.x1, m, tol=1e-10)
    assert np.abs(again.x2.values).max() <= 1e-8 * np.abs(x.values).max()


@settings(max_examples=6, deadline=None)
@given(desc=descriptors(), seed=SEEDS)
def test_transverse_projector_idempotent_property(desc, seed):
    bank = solve_modes(QOperator(build_profile(desc, GRID)), 4, tol=1e-6)
    proj = TransverseProjector(bank)
    x = VectorField(GRID, EDGE, np.random.default_rng(seed).standard_normal((3,) + GRID.dims))
    once = proj.apply(x)
    assert np.abs(proj.apply(once).values - once.values).max() <= 1e-10 * np.abs(once.values).max()
