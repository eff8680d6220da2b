import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsmodes.errors import PlacementError
from epsmodes.lattice import (
    CELL_CENTER,
    EDGE,
    FACE,
    Grid,
    ScalarField,
    VectorField,
    adjoint_defect,
    curl,
    curl_t,
    difference_symbols,
    div,
    dminus,
    dplus,
    grad,
    laplacian_symbol,
)

from conftest import random_scalar, random_vector


def dense_matrix(op, in_shape, out_shape, grid, placement_in):
    """Operator matrix built column-by-column from unit basis fields."""
    n_in = int(np.prod(in_shape))
    cols = []
    for j in range(n_in):
        basis = np.zeros(n_in)
        basis[j] = 1.0
        basis = basis.reshape(in_shape)
        if placement_in == CELL_CENTER:
            field = ScalarField(grid, basis)
        else:
            field = VectorField(grid, placement_in, basis)
        cols.append(op(field).values.ravel())
    return np.stack(cols, axis=1)


class TestGrid:
    def test_geometry(self):
        g = Grid((4, 5, 6), 0.5)
        assert g.ncells == 120
        assert g.cell_volume == pytest.approx(0.125)
        assert g.lengths == (2.0, 2.5, 3.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid((0, 4, 4))
        with pytest.raises(ValueError):
            Grid((4, 4, 4), spacing=-1.0)

    @pytest.mark.parametrize(
        "dims, spacing",
        [((4, 4, 4), "1"), ((4, 4, 4), True), ((4, 4, 4), None), ((4.7, 4, 4), 1.0),
         ((4.0, 4, 4), 1.0), ((True, 4, 4), 1.0), (("4", 4, 4), 1.0), ("444", 1.0),
         (4, 1.0), ((4, 4), 1.0)],
    )
    def test_refuses_what_is_not_a_number(self, dims, spacing):
        # int() and float() would take a bool or a string, and int() would
        # truncate a dim of 4.7
        with pytest.raises(ValueError):
            Grid(dims, spacing)

    def test_stores_plain_numbers(self):
        g = Grid(np.array([4, 5, 6]), 1)
        assert g.dims == (4, 5, 6) and all(type(n) is int for n in g.dims)
        assert type(g.spacing) is float and g.spacing == 1.0
        assert g == Grid((4, 5, 6), 1.0)
        assert g.lengths == (4.0, 5.0, 6.0)

    def test_field_validation(self):
        g = Grid((3, 3, 3))
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((3, 3)))
        bad = np.zeros((3,) + g.dims)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            VectorField(g, EDGE, bad)
        with pytest.raises(PlacementError):
            VectorField(g, "corner", np.zeros((3,) + g.dims))


class TestGrad:
    def test_constant_is_zero(self):
        g = Grid((5, 4, 3))
        out = grad(ScalarField(g, np.full(g.dims, 3.7)))
        assert np.abs(out.values).max() == 0.0

    def test_fourier_eigenfunction(self):
        # cos(2 pi x / L) is an exact eigenvector of the forward difference:
        # the edge samples carry amplitude -(2/s) sin(pi s / L) at x + s/2
        g = Grid((8, 8, 8), 1.0)
        x = np.arange(8)[:, None, None] * np.ones(g.dims)
        k = 2 * np.pi / 8
        out = grad(ScalarField(g, np.cos(k * x)))
        expected = -2 * np.sin(k / 2) * np.sin(k * (x + 0.5))
        assert np.abs(out.values[0] - expected).max() < 1e-13
        assert np.abs(out.values[1:]).max() < 1e-15

    def test_matches_dense_matrix(self, rng):
        g = Grid((4, 4, 4), 0.7)
        mat = dense_matrix(grad, g.dims, (3,) + g.dims, g, CELL_CENTER)
        phi = random_scalar(g, rng)
        direct = grad(phi).values.ravel()
        assert np.allclose(direct, mat @ phi.values.ravel(), rtol=0, atol=1e-13)


class TestDiv:
    def test_laplacian_stencil(self):
        # div(grad(delta)) reproduces the 7-point stencil: -6/s^2 at the
        # impulse, 1/s^2 at the six neighbors
        g = Grid((6, 6, 6), 0.5)
        phi = np.zeros(g.dims)
        phi[2, 3, 1] = 1.0
        lap = div(grad(ScalarField(g, phi))).values
        s2 = 0.5**2
        assert lap[2, 3, 1] == pytest.approx(-6 / s2)
        for shift in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            assert lap[2 + shift[0], 3 + shift[1], 1 + shift[2]] == pytest.approx(1 / s2)
        assert np.count_nonzero(lap) == 7

    def test_div_of_curl_t_vanishes(self, rng):
        g = Grid((5, 6, 4))
        w = random_vector(g, rng, FACE)
        assert np.abs(div(curl_t(w)).values).max() < 1e-13

    def test_matches_dense_matrix(self, rng):
        g = Grid((4, 4, 4), 1.3)
        mat = dense_matrix(div, (3,) + g.dims, g.dims, g, EDGE)
        v = random_vector(g, rng)
        assert np.allclose(div(v).values.ravel(), mat @ v.values.ravel(), atol=1e-13)

    def test_placement_check(self, rng):
        g = Grid((4, 4, 4))
        with pytest.raises(PlacementError):
            div(random_vector(g, rng, FACE))


class TestCurl:
    def test_curl_of_gradient_vanishes(self, rng):
        g = Grid((6, 5, 4), 0.9)
        phi = random_scalar(g, rng)
        assert np.abs(curl(grad(phi)).values).max() < 1e-13

    def test_plane_wave(self):
        # V = yhat cos(2 pi x / L) has a z face component with the discrete
        # wavenumber amplitude (2/s) sin(pi s / L)
        g = Grid((8, 4, 4), 1.0)
        x = np.arange(8)[:, None, None] * np.ones(g.dims)
        k = 2 * np.pi / 8
        v = np.zeros((3,) + g.dims)
        v[1] = np.cos(k * x)
        out = curl(VectorField(g, EDGE, v))
        expected = -2 * np.sin(k / 2) * np.sin(k * (x + 0.5))
        assert np.abs(out.values[2] - expected).max() < 1e-13
        assert np.abs(out.values[:2]).max() < 1e-15

    def test_adjointness(self, rng):
        g = Grid((4, 4, 4), 0.8)
        v = random_vector(g, rng, EDGE)
        w = random_vector(g, rng, FACE)
        # rounding relative to the terms of both products, which cancel
        assert adjoint_defect(curl(v).values, w.values, v.values, curl_t(w).values) <= 1e-14

    def test_placement_checks(self, rng):
        g = Grid((4, 4, 4))
        with pytest.raises(PlacementError):
            curl(random_vector(g, rng, FACE))
        with pytest.raises(PlacementError):
            curl_t(random_vector(g, rng, EDGE))


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(*[st.integers(2, 6)] * 3),
    spacing=st.floats(0.3, 2.5),
    seed=st.integers(0, 2**31),
)
# both products are 2.08e-3 here, sums of O(1) terms, and differ by 6.3e-15:
# 3.0e-12 of the products, but a few ulps of their terms
@example(dims=(6, 2, 6), spacing=1.0, seed=401)
def test_grad_div_adjointness_property(dims, spacing, seed):
    rng = np.random.default_rng(seed)
    g = Grid(dims, spacing)
    phi = ScalarField(g, rng.standard_normal(g.dims))
    v = VectorField(g, EDGE, rng.standard_normal((3,) + g.dims))
    assert adjoint_defect(grad(phi).values, v.values, -phi.values, div(v).values) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(*[st.integers(2, 5)] * 3),
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    seed=st.integers(0, 2**31),
)
def test_operators_linear_property(dims, a, b, seed):
    rng = np.random.default_rng(seed)
    g = Grid(dims)
    x = rng.standard_normal((3,) + g.dims)
    y = rng.standard_normal((3,) + g.dims)
    mixed = curl(VectorField(g, EDGE, a * x + b * y)).values
    parts = a * curl(VectorField(g, EDGE, x)).values + b * curl(VectorField(g, EDGE, y)).values
    scale = max(np.abs(parts).max(), 1e-30)
    assert np.abs(mixed - parts).max() <= 1e-12 * scale


def test_identities_hold_with_unit_dims(rng):
    # degenerate (size-1) axes reduce the dimension; identities must survive
    g = Grid((64, 1, 1))
    phi = random_scalar(g, rng)
    w = random_vector(g, rng, FACE)
    assert np.abs(curl(grad(phi)).values).max() < 1e-13
    assert np.abs(div(curl_t(w)).values).max() < 1e-13


@pytest.mark.parametrize("dims", [(5, 4, 3), (6, 1, 1)], ids=["5x4x3", "6x1x1"])
@pytest.mark.parametrize("spacing", [1.0, 0.37])
def test_stencils_match_roll_formulas(dims, spacing, rng):
    # the slice-based stencils give the np.roll formulas bit for bit on a
    # batched array, along every axis, including the trailing batch axis;
    # they work in lattice units, and the field-level operators divide by
    # the spacing once
    arr = rng.standard_normal(dims + (7,))
    for axis in range(arr.ndim):
        forward = np.roll(arr, -1, axis=axis) - arr
        backward = arr - np.roll(arr, 1, axis=axis)
        assert np.array_equal(dplus(arr, axis), forward)
        assert np.array_equal(dminus(arr, axis), backward)
        # a given out array is filled and returned, every sample overwritten
        out = np.full_like(arr, np.nan)
        assert dplus(arr, axis, out=out) is out
        assert np.array_equal(out, forward)
        assert dminus(arr, axis, out=out) is out
        assert np.array_equal(out, backward)
    phi = ScalarField(Grid(dims, spacing), arr[..., 0])
    forward = np.stack([np.roll(phi.values, -1, axis=a) - phi.values for a in range(3)])
    assert np.array_equal(grad(phi).values, forward / spacing)
    v = VectorField(phi.grid, EDGE, forward)
    backward = sum(forward[a] - np.roll(forward[a], 1, axis=a) for a in range(3))
    assert np.array_equal(div(v).values, backward / spacing)


@pytest.mark.parametrize(
    "dims, spacing",
    [((64, 64, 64), 1.0), ((48, 48, 48), 0.5), ((12, 12, 12), 1.0), ((64, 1, 1), 1.0),
     ((6, 5, 7), 0.37)],
    ids=["64^3", "48^3-half", "12^3", "64x1x1", "6x5x7"],
)
def test_laplacian_symbol_matches_sum_over_stacked_symbols(dims, spacing):
    # (s0 + s1) + s2 from the 1D parts gives np.sum over the stacked |d_a|^2
    # bit for bit
    g = Grid(dims, spacing)
    d = np.stack(np.broadcast_arrays(*difference_symbols(g)))
    expect = np.sum(np.abs(d) ** 2, axis=0)
    assert laplacian_symbol(g).tobytes() == expect.tobytes()


def test_difference_symbols_are_the_forward_differences(rng):
    # rfftn(dplus(f, a)) = d_a rfftn(f) on the rfftn half grid
    g = Grid((6, 5, 7), 0.37)
    f = rng.standard_normal(g.dims)
    fk = np.fft.rfftn(f)
    for a, d_a in enumerate(difference_symbols(g)):
        lhs = np.fft.rfftn(dplus(f, a))
        assert np.abs(lhs - d_a * fk).max() <= 1e-12 * np.abs(lhs).max()
