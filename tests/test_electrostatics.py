import numpy as np
import pytest

from epsmodes import electrostatics
from epsmodes.electrostatics import (
    CAVITY_INTERIOR_MARGIN,
    apply_weighted_laplacian,
    box_green_multiplier,
    cavity_field_factor,
    check_cavity_radius,
    fourier_multiplier,
    helmholtz_decompose,
    solve_poisson_block,
)
from epsmodes.emission import local_field_grid
from epsmodes.errors import GridMismatchError, PlacementError, ProfileError, SolverError
from epsmodes.lattice import (
    EDGE,
    FACE,
    Grid,
    VectorField,
    div,
    div_raw,
    dminus,
    dplus,
    grad_raw,
    inner,
    laplacian_symbol,
)
from epsmodes.medium import Homogeneous, Layer, SlabStack, Sphere, build_profile

from conftest import (
    component_positions,
    random_medium,
    random_vector,
    reference_balls,
    smooth_medium,
)


def dense_weighted_laplacian(m):
    """Dense lattice-unit matrix of -div(eps grad .) built from unit scalar fields."""
    g = m.grid
    n = g.ncells
    basis = np.eye(n).reshape(g.dims + (n,))
    cols = -div_raw(m.eps[..., None] * grad_raw(basis))
    return cols.reshape(n, n)


@pytest.mark.parametrize("dims", [(6, 5, 4), (8, 1, 1)], ids=["6x5x4", "8x1x1"])
def test_weighted_laplacian_buffers_give_the_same_bits(dims, rng):
    # the sum -dminus(eps dplus chi) over axes, from zero, in the axis order
    # (a constant field's zeros come out +0.0, as 0 - 0 does, not -0.0)
    g = Grid(dims, 0.37)
    m = random_medium(g, rng)
    out, work = np.full(dims, np.nan), (np.full(dims, np.nan), np.full(dims, np.nan))
    for chi in (rng.standard_normal(dims), np.full(dims, 2.5)):
        expect = np.zeros(dims)
        for a in range(3):
            expect -= dminus(m.eps[a] * dplus(chi, a), a)
        assert apply_weighted_laplacian(chi, m.eps).tobytes() == expect.tobytes()
        got = apply_weighted_laplacian(chi, m.eps, out=out, work=work)
        assert got is out
        assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dims", [(5, 4, 3), (6, 5, 7), (8, 1, 1), (16, 16, 16)],
                         ids=["5x4x3", "6x5x7", "8x1x1", "16x16x16"])
def test_fourier_multiplier_matches_rfftn_pair(dims, rng):
    # the buffered map gives irfftn(rfftn(r) * symbol) bit for bit, and
    # writes every call's result into the same array
    symbol = rng.random(dims[:2] + (dims[2] // 2 + 1,))
    apply = fourier_multiplier(symbol, dims)
    first = None
    for _ in range(3):
        r = rng.standard_normal(dims)
        expect = np.fft.irfftn(np.fft.rfftn(r, axes=(0, 1, 2)) * symbol, s=dims,
                               axes=(0, 1, 2))
        got = apply(r)
        assert got.tobytes() == expect.tobytes()
        first = got if first is None else first
        assert got is first


class TestSolvePoisson:
    def test_zero_source(self):
        g = Grid((6, 6, 6))
        m = build_profile(Homogeneous(2.0), g)
        chi, res, _ = solve_poisson_block(np.zeros(g.dims), m)
        assert np.all(chi == 0.0)
        assert res == 0.0

    def test_dipole_pair_matches_dense_solve(self):
        # discrete +-q pair on adjacent cells of a vacuum 8^3 box, solved
        # densely with the mean pinned to zero
        g = Grid((8, 8, 8), 1.0)
        m = build_profile(Homogeneous(1.0), g)
        sigma = np.zeros(g.dims)
        sigma[3, 4, 4] = 1.0
        sigma[4, 4, 4] = -1.0
        chi, _, _ = solve_poisson_block(sigma, m, tol=1e-12)

        lmat = dense_weighted_laplacian(m)
        n = g.ncells
        aug = np.vstack([lmat, np.ones((1, n))])
        rhs = np.concatenate([sigma.ravel(), [0.0]])
        chi_dense, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        assert np.abs(chi.ravel() - chi_dense).max() < 1e-10

    def test_zero_mean_gauge(self, rng):
        g = Grid((6, 5, 4))
        m = random_medium(g, rng)
        sigma = rng.standard_normal(g.dims)
        sigma -= sigma.mean()
        chi, res, _ = solve_poisson_block(sigma, m, tol=1e-10)
        assert abs(chi.mean()) < 1e-13
        assert res <= 1e-10

    def test_source_mean_is_removed(self, rng):
        # a periodic source must be neutral: the solver removes its mean
        g = Grid((4, 4, 4))
        m = random_medium(g, rng)
        sigma = rng.standard_normal(g.dims)
        chi, _, _ = solve_poisson_block(sigma, m)
        shifted, res, _ = solve_poisson_block(sigma + 1.0, m)
        assert res <= 1e-10
        assert np.abs(shifted - chi).max() <= 1e-9 * np.abs(chi).max()

    @pytest.mark.parametrize("wavevectors", [[(1, 3, 7)], [(1, 3, 7), (2, 0, 5), (16, 16, 16)]],
                             ids=["one-mode", "three-modes"])
    def test_homogeneous_fourier_modes_match_analytic(self, wavevectors):
        # past the dense limit: on a homogeneous 32^3 grid each lattice
        # Fourier mode is an eigenvector of the lattice-unit L with eigenvalue
        # eps * sum_a 4 sin^2(pi k_a / n), whatever the spacing, which the FFT
        # preconditioner inverts exactly, so the start G b is the answer and
        # CG runs no iteration for any mix of modes
        g = Grid((32, 32, 32), 0.5)
        eps = 4.0
        m = build_profile(Homogeneous(eps), g)
        idx = np.indices(g.dims)
        sigma = np.zeros(g.dims)
        exact = np.zeros(g.dims)
        for k in np.array(wavevectors):
            mode = np.cos(2 * np.pi * np.tensordot(k, idx, axes=1) / 32 + 0.3)
            lam = np.sum(4 * np.sin(np.pi * k / 32) ** 2)
            sigma += mode
            exact += mode / (eps * lam)
        chi, res, iterations = solve_poisson_block(sigma, m)
        assert iterations == 0
        assert np.abs(chi - exact).max() <= 1e-12 * np.abs(exact).max()
        assert res <= 1e-12

    def test_iterations_bounded_under_contrast(self, rng):
        # eps 1 inside a sphere and 9 outside: the count depends on the
        # contrast, not on the grid size
        g = Grid((32, 32, 32))
        m = build_profile(Sphere((15.5, 16.0, 16.5), 8.0, 1.0, 9.0), g)
        sigma = rng.standard_normal(g.dims)
        sigma -= sigma.mean()
        chi, res, iterations = solve_poisson_block(sigma, m, tol=1e-10)
        assert res <= 1e-10
        assert iterations <= 40
        assert abs(chi.mean()) < 1e-13 * np.abs(chi).max()

    def test_batched_rhs_rejected(self, rng):
        # one right-hand side only: a trailing batch axis of size nz would
        # broadcast eps against the wrong axes and give a wrong answer
        g = Grid((4, 4, 4))
        m = random_medium(g, rng)
        with pytest.raises(ValueError):
            solve_poisson_block(rng.standard_normal(g.dims + (4,)), m)

    def test_nonconvergence_raises_with_residual(self, rng):
        g = Grid((8, 8, 8))
        m = smooth_medium(g, lo=1.0, hi=13.0)
        sigma = rng.standard_normal(g.dims)
        sigma -= sigma.mean()
        with pytest.raises(SolverError) as err:
            solve_poisson_block(sigma, m, tol=1e-12, maxiter=3)
        assert err.value.residual is not None
        assert err.value.residual > 1e-12


def reference_poisson(rhs, m, tol):
    """CG preconditioned by mean(eps) times the FFT Laplacian inverse, with
    the full weighted Laplacian applied to every search direction."""
    b = rhs - rhs.mean()
    scale = np.linalg.norm(b) or 1.0
    sym = laplacian_symbol(m.grid) * m.eps.mean()
    inv = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)

    def precondition(r):
        return np.fft.irfftn(np.fft.rfftn(r) * inv, s=m.grid.dims, axes=(0, 1, 2))

    x, r = np.zeros_like(b), b.copy()
    z = precondition(r)
    p, rz = z.copy(), np.vdot(r, z)
    iterations = 0
    while np.linalg.norm(r) > 0.5 * tol * scale:
        iterations += 1
        ap = -div_raw(m.eps * grad_raw(p))
        alpha = rz / np.vdot(p, ap)
        x += alpha * p
        r -= alpha * ap
        r -= r.mean()
        z = precondition(r)
        rz_new = np.vdot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x - x.mean(), iterations


# media by the contrast box they give: part of the grid, part of the grid
# across its periodic faces (the whole grid), the whole grid, or none.  The
# box multiplier pads every axis of the off-centre spheres and the 48^3
# cavity, only the long axis of the 64x16x16 sphere, and no axis of the
# 64^3 sphere whose box is wider than half the grid.
POISSON_MEDIA = {
    "sphere-off-centre": (Grid((16, 16, 16)), Sphere((6.3, 7.1, 5.2), 3.0, 1.0, 9.0), "part"),
    "sphere-off-centre-eps-in-above": (Grid((16, 16, 16)), Sphere((9.3, 7.1, 8.2), 3.0, 9.0, 1.0),
                                       "part"),
    "sphere-at-corner": (Grid((16, 16, 16)), Sphere((0.5, 0.5, 0.5), 3.0, 1.0, 9.0), "whole"),
    "slab-stack": (Grid((16, 8, 8)), SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0))), "whole"),
    "random-per-cell": (Grid((8, 6, 7)), None, "whole"),
    "homogeneous": (Grid((8, 8, 8)), Homogeneous(4.0), "empty"),
    "6x5x7-spacing-0.37": (Grid((6, 5, 7), 0.37), Sphere((1.0, 0.9, 1.1), 0.6, 5.0, 1.0), "part"),
    "48-cavity-spacing-0.5": (Grid((48, 48, 48), 0.5), Sphere((12.0, 12.0, 12.0), 3.0, 1.0, 4.0),
                              "part"),
    "64x16x16-sphere": (Grid((64, 16, 16)), Sphere((30.0, 8.0, 8.0), 5.0, 1.0, 9.0), "part"),
    "64-sphere-past-half": (Grid((64, 64, 64)), Sphere((30.3, 33.1, 29.7), 20.0, 1.0, 9.0),
                            "part"),
}


def poisson_medium(name, rng):
    g, desc, _ = POISSON_MEDIA[name]
    return random_medium(g, rng) if desc is None else build_profile(desc, g)


class TestContrastBox:
    @pytest.mark.parametrize("name", POISSON_MEDIA)
    def test_box_kind(self, name, rng):
        m = poisson_medium(name, rng)
        c, box = electrostatics._reference_split(m.eps)
        assert c in (m.eps.min(), m.eps.max())
        cells = np.prod([sl.stop - sl.start for sl in box])
        kind = {0: "empty", m.grid.ncells: "whole"}.get(cells, "part")
        assert kind == POISSON_MEDIA[name][2]

    @pytest.mark.parametrize("name", ["sphere-off-centre", "6x5x7-spacing-0.37",
                                      "48-cavity-spacing-0.5"])
    def test_box_apply_is_the_full_contrast_apply(self, name, rng):
        # -div((eps - c) grad z) on the box equals the whole grid's, which is
        # zero outside the box
        m = poisson_medium(name, rng)
        c, box = electrostatics._reference_split(m.eps)
        z = rng.standard_normal(m.grid.dims)
        full = -div_raw((m.eps - c) * grad_raw(z))
        on_box = apply_weighted_laplacian(z[box], m.eps[(slice(None),) + box] - c)
        assert np.abs(on_box - full[box]).max() <= 1e-13 * np.abs(full).max()
        full[box] = 0.0
        assert np.all(full == 0.0)


class TestBoxGreenMultiplier:
    @pytest.mark.parametrize("dims, shape, pads", [
        ((32, 32, 32), (9, 10, 11), (18, 20, 24)),
        ((64, 16, 16), (11, 11, 11), (24, 16, 16)),
        ((16, 16, 16), (10, 9, 12), (16, 16, 16)),
        ((12, 10, 8), (12, 10, 8), (12, 10, 8)),
    ], ids=["padded", "mixed", "periodic", "whole"])
    def test_matches_full_grid_map_on_the_box(self, dims, shape, pads, rng):
        # (G r)|_box for random r on a box at a random offset, against the
        # full-grid FFT pair of the embedded r
        assert tuple(n if (p := electrostatics._smooth_size(2 * k - 1)) >= n else p
                     for k, n in zip(shape, dims)) == pads
        sym = laplacian_symbol(Grid(dims)) * 2.5
        inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)
        periodic = fourier_multiplier(inv_sym, dims)
        apply = box_green_multiplier(inv_sym, dims, shape, periodic)
        first = None
        for _ in range(3):
            offset = [int(rng.integers(0, n - k + 1)) for n, k in zip(dims, shape)]
            box = tuple(slice(o, o + k) for o, k in zip(offset, shape))
            r = rng.standard_normal(shape)
            full = np.zeros(dims)
            full[box] = r
            expect = np.fft.irfftn(np.fft.rfftn(full) * inv_sym, s=dims, axes=(0, 1, 2))[box]
            got = apply(r)
            assert got.shape == shape
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
            first = got if first is None else first
            assert got is first

    def test_smooth_sizes(self):
        assert [electrostatics._smooth_size(k) for k in (-1, 1, 7, 13, 17, 35, 49, 97)] == \
            [1, 1, 8, 15, 18, 36, 50, 100]


class TestSolvePoissonAgainstMeanEpsReference:
    @pytest.mark.parametrize("name", POISSON_MEDIA)
    def test_matches_reference(self, name, rng):
        m = poisson_medium(name, rng)
        rhs = rng.standard_normal(m.grid.dims)
        tol = 1e-10
        chi, res, iterations = solve_poisson_block(rhs, m, tol=tol)
        expect, ref_iterations = reference_poisson(rhs, m, tol)
        assert np.abs(chi - expect).max() <= 1e-9 * np.abs(expect).max()
        assert abs(iterations - ref_iterations) <= 1
        assert res <= tol
        if POISSON_MEDIA[name][2] == "empty":
            # the start G b is exact
            assert iterations == 0

    @pytest.mark.parametrize("name", ["sphere-off-centre", "sphere-at-corner", "slab-stack",
                                      "random-per-cell"])
    def test_no_iteration_applies_the_full_grid(self, name, rng, monkeypatch):
        # one path whatever the box: box applies with eps - c only (the start
        # residual, one per iteration and the final map's source), then one
        # full apply, with m.eps, for the true residual at the end
        m = poisson_medium(name, rng)
        calls = []
        apply = electrostatics.apply_weighted_laplacian

        def record(chi, eps, *args, **kwargs):
            calls.append((chi.shape, eps is m.eps))
            return apply(chi, eps, *args, **kwargs)

        monkeypatch.setattr(electrostatics, "apply_weighted_laplacian", record)
        _, _, iterations = solve_poisson_block(rng.standard_normal(m.grid.dims), m)
        assert iterations > 0
        assert len(calls) == iterations + 3
        assert not any(full for _, full in calls[:-1])
        if POISSON_MEDIA[name][2] == "part":
            assert all(np.prod(shape) < m.grid.ncells for shape, _ in calls[:-1])
        assert calls[-1] == (m.grid.dims, True)

    @pytest.mark.parametrize("tol", [1e-4, 1e-10])
    def test_two_full_grid_fft_pairs_per_solve(self, tol, rng, monkeypatch):
        # whatever the iteration count, the full grid is transformed for G b
        # and for the final map, plus one inverse transform for the padded
        # kernel; every iteration's pair runs on the padded box
        m = poisson_medium("sphere-off-centre", rng)
        dims = m.grid.dims
        counts = {"forward": 0, "inverse": 0, "kernel": 0, "padded": 0}
        rfftn, irfft, irfftn = np.fft.rfftn, np.fft.irfft, np.fft.irfftn

        def forward(a, *args, **kwargs):
            counts["forward" if a.shape == dims else "padded"] += 1
            return rfftn(a, *args, **kwargs)

        def inverse(a, *args, n=None, **kwargs):
            counts["inverse"] += n == dims[2] and a.shape[:2] == dims[:2]
            return irfft(a, *args, n=n, **kwargs)

        def kernel(a, *args, s=None, **kwargs):
            counts["kernel"] += tuple(s) == dims
            return irfftn(a, *args, s=s, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", forward)
        monkeypatch.setattr(np.fft, "irfft", inverse)
        monkeypatch.setattr(np.fft, "irfftn", kernel)
        _, _, iterations = solve_poisson_block(rng.standard_normal(dims), m, tol=tol)
        assert iterations > 0
        assert (counts["forward"], counts["inverse"], counts["kernel"]) == (2, 2, 1)
        # the kernel's spectrum and one pair per iteration
        assert counts["padded"] == iterations + 1

    def test_maxiter_raises_with_residual_and_iterations(self, rng):
        m = poisson_medium("sphere-off-centre", rng)
        with pytest.raises(SolverError) as err:
            solve_poisson_block(rng.standard_normal(m.grid.dims), m, maxiter=3)
        assert err.value.iterations == 3
        assert err.value.residual > 1e-10


class TestHelmholtzDecompose:
    def test_transverse_input_passes_through(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        from epsmodes.lattice import curl_t_raw

        x = VectorField(g, EDGE, curl_t_raw(rng.standard_normal((3,) + g.dims)))
        res = helmholtz_decompose(x, m, tol=1e-11)
        scale = np.abs(x.values).max()
        assert np.abs(res.x1.values - x.values).max() <= 1e-9 * scale
        assert np.abs(res.x2.values).max() <= 1e-9 * scale

    def test_weighted_gradient_maps_to_x2(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        psi = rng.standard_normal(g.dims)
        x = VectorField(g, EDGE, m.eps * grad_raw(psi))
        res = helmholtz_decompose(x, m, tol=1e-11)
        assert np.abs(res.x1.values).max() <= 1e-9 * np.abs(x.values).max()

    def test_random_field_properties(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        x = random_vector(g, rng)
        res = helmholtz_decompose(x, m, tol=1e-11)
        # exact reconstruction by construction
        assert np.abs(x.values - res.x1.values - res.x2.values).max() < 1e-12
        # x2 is eps * grad(chi) exactly
        rebuilt = m.eps * grad_raw(res.chi.values)
        assert np.array_equal(res.x2.values, rebuilt)
        # transversality
        xnorm = np.linalg.norm(x.values)
        assert np.linalg.norm(div(res.x1).values) <= 1e-9 * xnorm
        # orthogonality against a probe set of gradients
        for _ in range(5):
            probe = VectorField(g, EDGE, grad_raw(rng.standard_normal(g.dims)))
            overlap = inner(res.x1, probe)
            assert abs(overlap) <= 1e-8 * xnorm * np.linalg.norm(probe.values)

    def test_uniqueness_under_redecomposition(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        x = random_vector(g, rng)
        first = helmholtz_decompose(x, m, tol=1e-11)
        again = helmholtz_decompose(
            VectorField(g, EDGE, first.x1.values + first.x2.values), m, tol=1e-11
        )
        assert np.abs(first.x1.values - again.x1.values).max() <= 2e-10

    def test_energy_split_cross_term_free(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        x = random_vector(g, rng)
        res = helmholtz_decompose(x, m, tol=1e-11)
        grad_chi = VectorField(g, EDGE, grad_raw(res.chi.values))
        cross = inner(res.x1, grad_chi)
        bound = 1e-10 * np.linalg.norm(x.values) * max(np.linalg.norm(grad_chi.values), 1e-30)
        assert abs(cross) <= max(bound, 1e-13)


    def test_fields_take_the_results_without_a_copy(self, rng, monkeypatch):
        # x1, x2 and chi are fresh arrays that nothing else holds: frozen,
        # each field takes its array as it is
        from epsmodes import lattice

        m = smooth_medium(Grid((6, 6, 6)))
        x = random_vector(m.grid, rng)
        adopted, check = [], lattice._check_values

        def record(values, *args):
            out = check(values, *args)
            adopted.append(out is values)
            return out

        monkeypatch.setattr(lattice, "_check_values", record)
        res = helmholtz_decompose(x, m)
        assert adopted == [True, True, True]
        for field in (res.x1, res.x2, res.chi):
            assert not field.values.flags.writeable

    def test_refuses_a_field_on_another_grid(self, rng):
        # a grid mismatch is the same error here as in apply_q, inner and eps_inner
        m = smooth_medium(Grid((6, 6, 6)))
        for grid in (Grid((6, 6, 5)), Grid((6, 6, 6), 0.5)):
            with pytest.raises(GridMismatchError):
                helmholtz_decompose(random_vector(grid, rng), m)
        with pytest.raises(PlacementError):
            helmholtz_decompose(random_vector(m.grid, rng, FACE), m)


class TestConstrainedDerivative:
    def test_transverse_fixed_point(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        from epsmodes.lattice import curl_t_raw

        x = VectorField(g, EDGE, curl_t_raw(rng.standard_normal((3,) + g.dims)))
        out = helmholtz_decompose(x, m, tol=1e-11).x1
        assert np.abs(out.values - x.values).max() <= 1e-9 * np.abs(x.values).max()

    def test_weighted_gradient_annihilated(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        psi = rng.standard_normal(g.dims)
        x = VectorField(g, EDGE, m.eps * grad_raw(psi))
        out = helmholtz_decompose(x, m, tol=1e-11).x1
        assert np.abs(out.values).max() <= 1e-9 * np.abs(x.values).max()

    def test_idempotent(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        x = random_vector(g, rng)
        once = helmholtz_decompose(x, m, tol=1e-10).x1
        twice = helmholtz_decompose(once, m, tol=1e-10).x1
        assert np.abs(twice.values - once.values).max() <= 2e-10 * np.abs(x.values).max()


class TestCavityFieldFactor:
    def test_no_contrast_gives_exactly_one(self):
        assert cavity_field_factor(1.0, Grid((32, 32, 32)), 4.0) == 1.0

    def test_interior_field_uniform(self):
        # classical benchmark: uniform applied field, eps 1 cavity in eps 4
        g = Grid((48, 48, 48), 1.0)
        center = (24.0, 24.0, 24.0)
        m = build_profile(Sphere(center, 6.0, 1.0, 4.0), g)
        applied = np.zeros((3,) + g.dims)
        applied[0] = 1.0
        rhs = -div_raw(m.eps * applied)
        chi, _, _ = solve_poisson_block(rhs, m, tol=1e-10)
        total = applied - grad_raw(chi)
        pts = component_positions(g, EDGE, 0)
        r = np.linalg.norm(pts - np.array(center), axis=-1)
        interior = total[0][r <= 4.0]
        assert interior.std() / interior.mean() <= 0.03

    @pytest.mark.parametrize("spacing", [0.1, 0.37, 1.0, 2.5])
    def test_interior_mask_matches_full_coordinates(self, spacing, monkeypatch, rng):
        # the interior mask is sampled on 1D axes; the reference takes a norm
        # per point.  A radius of 4 cells puts the interior's edge on samples.
        masks, in_balls = [], electrostatics.in_balls

        def recording(*args):
            masks.append((args, in_balls(*args)))
            return masks[-1][1]

        monkeypatch.setattr(electrostatics, "in_balls", recording)
        for dims, radius in (((16, 16, 16), 4.0), ((17, 16, 19), float(rng.uniform(2, 4)))):
            g = Grid(dims, spacing)
            cavity_field_factor(4.0, g, radius * spacing)
            (axes, centers, interior, grid, _), mask = masks.pop()
            center = tuple(l / 2 for l in g.lengths)
            assert centers == (center,) and grid == g
            assert interior == radius * spacing - CAVITY_INTERIOR_MARGIN * spacing
            expect = reference_balls(component_positions(g, EDGE, 0), (center,), interior, g)
            assert mask.any() and mask.tobytes() == expect.tobytes()

    def test_monotone_in_host_permittivity(self):
        g = Grid((32, 32, 32), 1.0)
        factors = [cavity_field_factor(e, g, 4.0, tol=1e-9) for e in (1.0, 2.25, 4.0, 9.0)]
        assert all(b > a for a, b in zip(factors, factors[1:]))

    def test_radius_bounds(self):
        g = Grid((32, 32, 32))
        with pytest.raises(ProfileError):
            cavity_field_factor(4.0, g, 1.0)
        with pytest.raises(ProfileError):
            cavity_field_factor(4.0, g, 12.0)
        with pytest.raises(ProfileError):
            cavity_field_factor(-1.0, g, 4.0)

    @pytest.mark.parametrize("radius", [0.3, 1.0, 2.5])
    def test_local_field_grids_admit_the_cavity(self, radius):
        # rate.factor_grid's schema minimum of 16 is the smallest grid the
        # cavity rule admits
        for n in range(16, 65):
            check_cavity_radius(local_field_grid(radius, n), radius)
        with pytest.raises(ProfileError):
            check_cavity_radius(local_field_grid(radius, 15), radius)
