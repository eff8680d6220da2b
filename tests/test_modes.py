import numpy as np
import pytest

from epsmodes.electrostatics import helmholtz_decompose
from epsmodes.errors import FeasibilityError, GridMismatchError, SolverError
from epsmodes.lattice import (
    EDGE,
    Grid,
    VectorField,
    curl_raw,
    curl_t_raw,
    div_raw,
    dminus,
    grad_raw,
    inner,
)
from epsmodes import modes
from epsmodes.medium import (
    Homogeneous,
    Layer,
    MediumProfile,
    SlabStack,
    Sphere,
    build_profile,
)
from epsmodes.modes import (
    DEGENERACY_RTOL,
    DENSE_DOF_LIMIT,
    SOLVE_HELD_BLOCKS,
    ModeBank,
    QOperator,
    _canonicalize_clusters,
    _closed_shells,
    _orthonormalize,
    _preconditioner,
    apply_q,
    dense_q_matrix,
    dense_transverse_spectrum,
    lobpcg_block,
    mode_residual_report,
    shell_directions,
    solve_modes,
    transverse_subspace_basis,
)
from epsmodes.quantization import projector_matrix

from conftest import (
    component_positions,
    random_medium,
    random_vector,
    range_defect,
    smooth_medium,
)


def half_trace(eps_cells, omega, spacing=1.0):
    """Half the trace of the discrete 1D stack's per-period transfer matrix.

    The cell matrix ``[[2 - s^2 w^2 e_i, -1], [1, 0]]`` maps ``(v[i], v[i-1])``
    to ``(v[i+1], v[i])``; the product's four entries are carried as arrays,
    so one call takes a whole grid of ``omega``.
    """
    omega = np.asarray(omega, dtype=float)
    a, b, c, d = np.ones_like(omega), np.zeros_like(omega), np.zeros_like(omega), np.ones_like(omega)
    for e in eps_cells:
        t = 2 - spacing**2 * omega**2 * e
        a, b, c, d = t * a - c, t * b - d, a, b
    return (a + d) / 2


def transfer_matrix_gap(eps_cells, spacing=1.0):
    """Gap edges of the discrete 1D stack from the cell transfer matrix.

    Propagating solutions of -(v[i+1] - 2 v[i] + v[i-1])/s^2 = w^2 e_i v[i]
    have |trace of the per-period product| <= 2; the first band's top and
    the second band's bottom bracket the gap.
    """
    from scipy.optimize import brentq

    omegas = np.linspace(1e-4, 0.6, 20001)
    f = np.abs(half_trace(eps_cells, omegas, spacing)) - 1
    return [  # first two are the gap edges when starting inside band 1
        brentq(lambda w: abs(half_trace(eps_cells, w, spacing)) - 1, omegas[i], omegas[i + 1])
        for i in np.flatnonzero(f[:-1] * f[1:] < 0)
    ]


def discrete_bloch_frequencies(eps_cells, periods, spacing=1.0, band_max=0.6):
    """All 1D Bloch frequencies for the y/z-polarized sector, with multiplicity."""
    from scipy.optimize import brentq

    freqs = []
    omegas = np.linspace(1e-6, band_max, 40001)
    values = half_trace(eps_cells, omegas, spacing)
    for q in range(periods // 2 + 1):
        target = np.cos(2 * np.pi * q / periods)
        f = values - target
        for i in np.flatnonzero(f[:-1] * f[1:] <= 0):
            w = brentq(lambda x: half_trace(eps_cells, x, spacing) - target,
                       omegas[i], omegas[i + 1])
            # interior q: +-k pairs; q = 0 and q = periods/2 are single
            mult = 2 if 0 < q < periods // 2 else 1
            if q == 0 and w < 1e-8:
                continue  # zero modes excluded from solver banks
            freqs += [w] * mult * 2  # two polarizations
    return np.sort(freqs)


def transverse_part(g, m, tol):
    """The ``div(sqrt(eps) g) = 0`` part of edge values ``g``.

    ``sqrt(eps) g`` splits into a divergence-free part and ``eps grad(psi)``;
    the first over ``sqrt(eps)`` is the projection.
    """
    sqrt_eps = np.sqrt(m.eps)
    return helmholtz_decompose(VectorField(m.grid, EDGE, sqrt_eps * g), m, tol).x1.values / sqrt_eps


class TestApplyQ:
    def test_vacuum_plane_wave_eigenvalue(self):
        g = Grid((8, 8, 8), 0.5)
        m = build_profile(Homogeneous(1.0), g)
        op = QOperator(m)
        k = 2 * np.pi / (8 * 0.5)
        x_edge = (np.arange(8)[:, None, None] + 0.5) * 0.5 * np.ones(g.dims)
        vals = np.zeros((3,) + g.dims)
        vals[1] = np.cos(k * x_edge)  # transverse: polarization y, propagation x
        wrong = x_edge  # y-edge offset is along y, so recompute on the y lattice
        vals[1] = np.cos(k * np.arange(8)[:, None, None] * 0.5 * np.ones(g.dims))
        field = VectorField(g, EDGE, vals)
        out = apply_q(op, field)
        # the lattice-unit operator's eigenvalue, (omega s)^2
        expected = 4 * np.sin(k * 0.5 / 2) ** 2
        ratio = out.values[1][np.abs(vals[1]) > 0.3] / vals[1][np.abs(vals[1]) > 0.3]
        assert np.abs(ratio - expected).max() < 1e-12

    def test_weighted_gradient_in_null_space(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        op = QOperator(m)
        psi = rng.standard_normal(g.dims)
        gfield = VectorField(g, EDGE, np.sqrt(m.eps) * grad_raw(psi))
        out = apply_q(op, gfield)
        assert np.abs(out.values).max() <= 1e-12 * np.abs(gfield.values).max()

    def test_matches_dense_matrix(self, rng):
        g = Grid((4, 4, 4), 0.8)
        m = random_medium(g, rng)
        op = QOperator(m)
        mat = dense_q_matrix(op)
        v = random_vector(g, rng)
        direct = apply_q(op, v).values.ravel()
        assert np.abs(direct - mat @ v.values.ravel()).max() <= 1e-12 * np.abs(direct).max()

    def test_self_adjoint(self, rng):
        g = Grid((5, 4, 6))
        m = random_medium(g, rng)
        op = QOperator(m)
        u = random_vector(g, rng)
        v = random_vector(g, rng)
        lhs = inner(apply_q(op, u), v)
        rhs = inner(u, apply_q(op, v))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_grid_mismatch(self, rng):
        op = QOperator(build_profile(Homogeneous(1.0), Grid((4, 4, 4))))
        with pytest.raises(GridMismatchError):
            apply_q(op, random_vector(Grid((5, 5, 5)), rng))

    def test_uniform_sector_in_null_space(self):
        # the transverse parts of sqrt(eps) * e_a are the three exact
        # zero-frequency modes of Q on the torus
        g = Grid((5, 5, 5))
        m = smooth_medium(g, seed=6)
        op = QOperator(m)
        for a in range(3):
            vals = np.zeros((3,) + g.dims)
            vals[a] = np.sqrt(m.eps[a])
            z = transverse_part(vals, m, tol=1e-12)
            assert np.linalg.norm(z) > 1.0
            assert np.abs(apply_q(op, VectorField(g, EDGE, z)).values).max() <= 1e-11

    def test_halves_compose_to_q(self, rng):
        g = Grid((4, 5, 3))
        m = random_medium(g, rng)
        mu = 1.0 + rng.random((3,) + g.dims)
        op = QOperator(MediumProfile(g, m.eps, mu))
        v = rng.standard_normal((3,) + g.dims + (2,))
        y = rng.standard_normal((3,) + g.dims + (2,))
        assert np.array_equal(op.apply_raw(v), op.bt_raw(op.b_raw(v)))
        # B^T is the adjoint of B
        lhs = np.vdot(op.b_raw(v), y)
        rhs = np.vdot(v, op.bt_raw(y))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestProjectTransverse:
    def test_fixed_point(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        w = curl_t_raw(rng.standard_normal((3,) + g.dims))
        gvals = w / np.sqrt(m.eps)
        out = transverse_part(gvals, m, tol=1e-11)
        assert np.abs(out - gvals).max() <= 1e-9 * np.abs(w).max()

    def test_null_input_vanishes(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        psi = rng.standard_normal(g.dims)
        gvals = np.sqrt(m.eps) * grad_raw(psi)
        out = transverse_part(gvals, m, tol=1e-11)
        assert np.abs(out).max() <= 1e-9 * np.abs(gvals).max()

    def test_idempotent_and_constraint(self, rng):
        g = Grid((6, 6, 6))
        m = smooth_medium(g)
        x = random_vector(g, rng).values
        once = transverse_part(x, m, tol=1e-10)
        twice = transverse_part(once, m, tol=1e-10)
        assert np.abs(twice - once).max() <= 2e-10 * np.abs(x).max()
        d = div_raw(np.sqrt(m.eps) * once)
        assert np.linalg.norm(d) <= 1e-9 * np.linalg.norm(once)


def sphere_medium(g, magnetic=True):
    """An eps sphere, with an offset mu sphere unless ``magnetic`` is false."""
    mu_desc = Sphere((2.0, 3.0, 3.5), 2.0, 3.0, 1.0) if magnetic else None
    return build_profile(Sphere((3.0, 3.0, 3.0), 1.8, 5.0, 2.0), g, mu_desc=mu_desc)


class TestRangeProjector:
    """The solver's one map into the range of B: MPB's preconditioner, the
    same for every medium."""

    MEDIA = {
        "nonmagnetic": lambda g: sphere_medium(g, magnetic=False),
        "magnetic": sphere_medium,
        "homogeneous": lambda g: build_profile(Homogeneous(2.5), g),
        "uniform-eps-mu-sphere": lambda g: build_profile(
            Homogeneous(2.0), g, mu_desc=Sphere((3.0, 3.0, 3.0), 2.0, 3.0, 1.0)),
    }

    @pytest.fixture(params=list(MEDIA))
    def op(self, request):
        m = self.MEDIA[request.param](Grid((6, 6, 6)))
        assert m.mu is None or m.mu.min() < m.mu.max()
        return QOperator(m)

    def sqrt_w(self, op):
        return 1.0 if op.sqrt_w is None else op.sqrt_w[..., None]

    def test_fixes_range_of_b(self, op, rng):
        # B v and w^(1/2) curl v lie in the range, and the map keeps them there
        precondition, _ = _preconditioner(op)
        v = rng.standard_normal((3,) + op.grid.dims + (3,))
        for y in (op.b_raw(v), self.sqrt_w(op) * curl_raw(v)):
            assert range_defect(op, y) <= 1e-13
            assert range_defect(op, precondition(y)) <= 1e-13

    def test_annihilates_constants_and_dual_gradients(self, op, rng):
        precondition, _ = _preconditioner(op)
        phi = rng.standard_normal(op.grid.dims + (2,))
        # the dual gradient is the adjoint of the face divergence sum_a dplus_a
        dual_grad = -np.stack([dminus(phi, a) for a in range(3)])
        const = np.array([1.0, -2.0, 0.5])[:, None, None, None, None] * np.ones(op.grid.dims + (1,))
        for v in (dual_grad, const):
            y = self.sqrt_w(op) * v
            assert np.abs(precondition(y)).max() <= 1e-13 * np.abs(y).max()

    def test_preconditioner_lands_in_range(self, op, rng):
        # a random draw is far from the range; the map's output has zero face
        # divergence and zero mean after dividing out w^(1/2)
        precondition, _ = _preconditioner(op)
        y = rng.standard_normal((3,) + op.grid.dims + (3,))
        assert range_defect(op, y) > 0.1
        assert range_defect(op, precondition(y)) <= 1e-13

    def test_inhomogeneous_map_inverts_curls_in_fourier_space(self, op, rng):
        # w^(1/2) C |d|^-2 E |d|^-2 C^T w^(-1/2) for every medium, uniform
        # eps included, built from the real-space curls and an FFT |d|^-2
        # per component
        precondition, sym = _preconditioner(op)
        inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)[..., None]
        axes = (1, 2, 3)

        def inv_laplacian(f):
            return np.fft.irfftn(np.fft.rfftn(f, axes=axes) * inv_sym, s=op.grid.dims, axes=axes)

        y = rng.standard_normal((3,) + op.grid.dims + (3,))
        u = inv_laplacian(curl_t_raw(y / self.sqrt_w(op)))
        ref = self.sqrt_w(op) * curl_raw(inv_laplacian(op.medium.eps[..., None] * u))
        out = precondition(y)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_nonmagnetic_map_symmetric_positive_on_range(self, rng):
        op = QOperator(sphere_medium(Grid((6, 6, 6)), magnetic=False))
        precondition, _ = _preconditioner(op)
        y = op.b_raw(rng.standard_normal((3,) + op.grid.dims + (8,)))
        flat = y.reshape(-1, 8)
        gram = flat.T @ precondition(y).reshape(-1, 8)
        assert np.abs(gram - gram.T).max() <= 1e-13 * np.abs(gram).max()
        assert np.linalg.eigvalsh((gram + gram.T) / 2).min() > 0


class TestStartBlock:
    """The solver's first block: for a uniform medium, exactly the closed
    lowest shells of ``|d|^2``; over every shell for any other medium."""

    @staticmethod
    def start_block(op, n_modes, monkeypatch):
        """The preconditioned block ``solve_modes`` orthonormalizes first, and the bank."""
        seen = []

        def spy(block, against, drop_abs=0.0):
            if not seen:
                seen.append(block.copy())
            return _orthonormalize(block, against, drop_abs)

        monkeypatch.setattr(modes, "_orthonormalize", spy)
        bank = solve_modes(op, n_modes, tol=1e-6, seed=0)
        return seen[0].reshape((3,) + op.grid.dims + (-1,)), bank

    @pytest.mark.parametrize(
        "make_op, n_modes",
        [
            # 13 of the 14 range directions split the top shell's pair
            (lambda: QOperator(build_profile(Homogeneous(1.0), Grid((2, 2, 2)))), 13),
            (lambda: QOperator(build_profile(Homogeneous(4.0), Grid((64, 1, 1)))), 16),
            (lambda: QOperator(build_profile(Homogeneous(2.0), Grid((5, 3, 1)))), 10),
            (lambda: QOperator(build_profile(Homogeneous(2.0), Grid((6, 6, 6)),
                                             mu_desc=Homogeneous(3.0))), 30),
        ],
        ids=["2^3-complete", "64x1x1", "5x3x1", "uniform-mu-6^3"],
    )
    def test_block_lies_in_the_lowest_shells_of_the_range(self, make_op, n_modes,
                                                           monkeypatch):
        op = make_op()
        grid = op.grid
        y, bank = self.start_block(op, n_modes, monkeypatch)
        precondition, sym = _preconditioner(op)
        cutoff, width = _closed_shells(sym, grid.dims[2], n_modes)
        assert width == shell_directions(grid, n_modes) >= n_modes
        assert y.shape[-1] == width
        # independent columns
        sv = np.linalg.svd(y.reshape(-1, width), compute_uv=False)
        assert sv.min() > 1e-3 * sv.max()
        # the seeded draw through the preconditioner with the shell mask, so
        # in the range of B
        draw = np.random.default_rng(0).standard_normal((3 * grid.ncells, width))
        assert np.array_equal(y, precondition(draw.reshape(y.shape), cutoff))
        assert range_defect(op, y) <= 1e-13
        # no wave vector of the full grid above the cutoff, which is the
        # smallest |d|^2 whose shells and those below hold ceil(n_modes / 2)
        # of the nonzero wave vectors, and the draw is exactly two
        # directions per wave vector of those shells; the full-grid symbol
        # is formed here apart from the solver's, so both sides get a
        # rounding margin
        n = np.indices(grid.dims)
        dims = np.array(grid.dims)[:, None, None, None]
        full_sym = 4 / grid.spacing**2 * np.sum(np.sin(np.pi * n / dims) ** 2, axis=0)
        sqrt_w = 1.0 if op.sqrt_w is None else op.sqrt_w[..., None]
        yk = np.abs(np.fft.fftn(y / sqrt_w, axes=(1, 2, 3))).max(axis=(0, -1))
        assert yk[full_sym > cutoff * (1 + 1e-12)].max(initial=0.0) <= 1e-12 * yk.max()
        nonzero = full_sym > 0
        need = -(-n_modes // 2)
        held = np.count_nonzero(nonzero & (full_sym <= cutoff * (1 + 1e-12)))
        assert held >= need and width == 2 * held
        assert np.count_nonzero(nonzero & (full_sym < cutoff * (1 - 1e-12))) < need
        if width == 2 * grid.ncells - 2:
            assert cutoff == sym.max()
        # the lowest n_modes of the plane-wave spectrum
        mu = 1.0 if op.medium.mu is None else op.medium.mu.flat[0]
        ref = homogeneous_frequencies(grid, op.medium.eps.flat[0] * mu)[:n_modes]
        assert np.abs(bank.frequencies - ref).max() <= 1e-12 * ref.max()

    @pytest.mark.parametrize(
        "make_op, n_modes",
        [
            (lambda: QOperator(build_profile(
                SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0)), axis=0), Grid((64, 1, 1)))), 16),
            (lambda: QOperator(sphere_medium(Grid((6, 6, 6)))), 30),
        ],
        ids=["slab-64x1x1", "mu-sphere-6^3"],
    )
    def test_inhomogeneous_block_keeps_every_shell(self, make_op, n_modes, monkeypatch):
        # the seeded draw through the preconditioner with no wave vector dropped
        op = make_op()
        block = lobpcg_block(op.grid, n_modes)
        y, _ = self.start_block(op, n_modes, monkeypatch)
        draw = np.random.default_rng(0).standard_normal((3 * op.grid.ncells, block))
        precondition, _ = _preconditioner(op)
        assert np.array_equal(y, precondition(draw.reshape(y.shape)))

    @pytest.mark.parametrize(
        "make_op, n_modes",
        [
            (lambda: QOperator(build_profile(
                SlabStack((Layer(1.0, 1.0), Layer(1.0, 50.0)), axis=0), Grid((8, 6, 6)))), 16),
            (lambda: QOperator(build_profile(
                Sphere((3.0, 3.0, 3.0), 1.8, 50.0, 1.0), Grid((6, 6, 6)))), 6),
        ],
        ids=["period-2-slabs-8x6x6", "centered-sphere-6^3"],
    )
    def test_symmetric_media_find_every_mode(self, make_op, n_modes):
        # each symmetry of a medium splits the range into subspaces that the
        # operator and the preconditioner keep apart: a period of two
        # cells on an 8-cell axis couples kx only to kx + 4m, a centred sphere
        # keeps mirror parities apart.  Some of these subspaces have no wave
        # vector in the lowest shells that hold the block, yet hold wanted
        # modes, so a start confined to those shells misses them (the
        # frequencies then came out 1.6e-2 and 4e-3 too high)
        op = make_op()
        bank = solve_modes(op, n_modes, tol=1e-8, seed=0)
        ref = dense_transverse_spectrum(op, include_zero_modes=False).frequencies[:n_modes]
        assert np.abs(bank.frequencies - ref).max() <= 1e-10 * ref.max()

    def test_closed_shells_converge_in_one_step(self):
        # 4^3, 6 modes: the draw of 12 is exactly the six wave vectors of
        # the lowest shell, the eigenspace of a homogeneous medium, so the
        # one Rayleigh-Ritz step solves it
        g = Grid((4, 4, 4))
        iterations = []
        bank = solve_modes(QOperator(build_profile(Homogeneous(2.0), g)), 6, tol=1e-10,
                           seed=0, on_iteration=lambda i, theta, rnorm: iterations.append(i))
        assert shell_directions(g, 6) == 12
        assert iterations == [0]
        ref = homogeneous_frequencies(g, 2.0)[:6]
        assert np.abs(bank.frequencies - ref).max() <= 1e-12 * ref.max()

    def test_uniform_solve_applies_the_operator_once(self, monkeypatch):
        # the emission-bulk shape: one B B^T apply over the 112 counted
        # columns, one report of the residuals, and no iteration
        op = QOperator(build_profile(Homogeneous(4.0), Grid((12, 12, 12), 1.0)))
        applied = []
        b_raw = QOperator.b_raw

        def counted(self, g):
            if g.ndim == 5:
                applied.append(g.shape[-1])
            return b_raw(self, g)

        monkeypatch.setattr(QOperator, "b_raw", counted)
        reports = []
        bank = solve_modes(op, 112, tol=1e-6, seed=0,
                           on_iteration=lambda i, theta, rnorm: reports.append((i, rnorm)))
        assert applied == [shell_directions(op.grid, 112)] == [112]
        assert [i for i, _ in reports] == [0]
        rnorm = reports[0][1]
        assert rnorm.shape == (112,) and rnorm.max() <= 1e-12
        assert bank.residuals.max() <= 1e-12


def homogeneous_frequencies(grid, eps):
    """Sorted nonzero frequencies of a homogeneous lattice, with multiplicity.

    ``omega^2 = (4/s^2) sum_a sin^2(k_a s/2) / eps`` with two modes per
    nonzero lattice wavevector ``k_a = 2 pi n_a / (N_a s)``.
    """
    n = np.indices(grid.dims).reshape(3, -1)
    dims = np.array(grid.dims)[:, None]
    omega2 = 4 / grid.spacing**2 * np.sum(np.sin(np.pi * n / dims) ** 2, axis=0) / eps
    return np.sort(np.repeat(np.sqrt(omega2[omega2 > 0]), 2))


class TestSolveModes:
    @pytest.mark.parametrize(
        "dims, spacing, eps, n_modes",
        [((8, 8, 8), 1.0, 1.0, 12), ((16, 16, 16), 0.5, 4.0, 36),
         ((32, 32, 32), 0.5, 4.0, 36)],
        ids=["8^3-vacuum", "16^3-eps4", "32^3-eps4"],
    )
    def test_vacuum_lowest_band(self, dims, spacing, eps, n_modes):
        # homogeneous analytic oracle, |d(k)|^2 / eps; 8^3 holds the first
        # shell (3 axes x 2 polarizations x 2 real combinations), 16^3 and
        # 32^3 are past the dense limit and hold two closed shells, which the
        # solver's one Rayleigh-Ritz step resolves to rounding
        g = Grid(dims, spacing)
        expected = homogeneous_frequencies(g, eps)
        assert expected[n_modes] - expected[n_modes - 1] > 1e-3 * expected[n_modes]
        bank = solve_modes(QOperator(build_profile(Homogeneous(eps), g)), n_modes, tol=1e-10)
        assert np.abs(bank.frequencies - expected[:n_modes]).max() <= 1e-13 * expected[n_modes]
        assert bank.gram_defect <= 1e-13
        assert bank.residuals.max() <= 1e-12

    def test_split_shell_keeps_the_lowest(self):
        # 16^3 and 280 modes split a degenerate shell: all 292 directions of
        # the closed shells enter the Rayleigh-Ritz step, the bank keeps the
        # lowest 280 (a seeded subspace of the split cluster), and a rerun
        # with the same seed is byte-identical
        g = Grid((16, 16, 16))
        op = QOperator(build_profile(Homogeneous(2.25), g))
        assert shell_directions(g, 280) == 292
        expected = homogeneous_frequencies(g, 2.25)
        assert np.ptp(expected[279:292]) <= 1e-13 * expected[279] < expected[292] - expected[291]
        banks = [solve_modes(op, 280, tol=1e-8, seed=3) for _ in range(2)]
        assert np.abs(banks[0].frequencies - expected[:280]).max() <= 1e-13 * expected[279]
        assert banks[0].gram_defect <= 1e-13
        assert banks[0].residuals.max() <= 1e-12
        for name in ("frequencies", "modes_g", "residuals"):
            assert getattr(banks[0], name).tobytes() == getattr(banks[1], name).tobytes()

    def test_homogeneous_scaling_law(self):
        g = Grid((8, 8, 8), 1.0)
        b1 = solve_modes(QOperator(build_profile(Homogeneous(1.0), g)), 20, tol=1e-10)
        b4 = solve_modes(QOperator(build_profile(Homogeneous(4.0), g)), 20, tol=1e-10)
        assert np.abs(2 * b4.frequencies - b1.frequencies).max() <= 1e-10

    def test_matches_dense_oracle_on_inhomogeneous_medium(self):
        g = Grid((5, 5, 5), 1.0)
        m = smooth_medium(g, seed=19)
        op = QOperator(m)
        dense = dense_transverse_spectrum(op)
        bank = solve_modes(op, 15, tol=1e-10, seed=4)
        ref = dense.frequencies[3:18]  # skip the three zero modes
        assert np.abs(bank.frequencies - ref).max() <= 1e-8 * ref.max()

    def test_slab_stack_matches_transfer_matrix(self):
        g = Grid((64, 1, 1), 1.0)
        stack = SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0)), axis=0)
        m = build_profile(stack, g)
        bank = solve_modes(QOperator(m), 14, tol=1e-7)
        eps_cells = [1.0] * 6 + [13.0] * 2
        oracle = discrete_bloch_frequencies(eps_cells, periods=8)[:14]
        assert np.abs(bank.frequencies - oracle).max() <= 1e-2 * oracle.max()
        # band gap: a clear jump after the first band's 14 states
        edges = transfer_matrix_gap(eps_cells)
        assert bank.frequencies[-1] == pytest.approx(edges[0], rel=1e-6)

    @pytest.mark.parametrize(
        "make_op, n_modes, tol, most",
        [
            (lambda: QOperator(build_profile(
                SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0)), axis=0), Grid((64, 1, 1), 1.0))),
             16, 3e-7, 16),
            (lambda: QOperator(sphere_medium(Grid((6, 6, 6), 1.0))),
             30, 1e-10, 36),
            (lambda: QOperator(build_profile(Homogeneous(1.0), Grid((8, 8, 8), 1.0),
                                             mu_desc=Sphere((2.0, 3.0, 3.5), 2.0, 3.0, 1.0))),
             20, 1e-8, 45),
        ],
        ids=["slab-64", "magnetic-sphere-6^3", "vacuum-mu-sphere-8^3"],
    )
    def test_slab_stack_converges_quickly(self, make_op, n_modes, tol, most):
        # with the medium-aware preconditioner the criterion-10 solve takes
        # 14 iterations, the magnetic sphere 33 and the off-centre mu sphere
        # in vacuum 41 (34, 36 and 33 with a shift-and-invert preconditioner
        # that saw only mean(1/eps) mean(1/mu))
        iterations = []
        solve_modes(make_op(), n_modes, tol=tol, seed=0,
                    on_iteration=lambda i, theta, rnorm: iterations.append(i))
        assert len(iterations) <= most

    def test_high_contrast_host_converges_quickly(self):
        # an eps-1 sphere in an eps-9 host: 37 iterations, 73 with a
        # preconditioner that saw only mean(1/eps)
        g = Grid((10, 10, 10), 1.0)
        op = QOperator(build_profile(Sphere((5.0, 5.0, 5.0), 2.5, 1.0, 9.0), g))
        iterations = []
        bank = solve_modes(op, 40, tol=1e-8, seed=0,
                           on_iteration=lambda i, theta, rnorm: iterations.append(i))
        assert len(iterations) <= 45
        report = mode_residual_report(bank)
        assert report.matches_stored
        assert report.gram_defect <= 1e-10
        assert report.residuals.max() <= 1e-6
        assert report.max_weighted_divergence <= 1e-8

    def test_inhomogeneous_mu_matches_dense_oracle(self):
        g = Grid((6, 6, 6), 1.0)
        op = QOperator(sphere_medium(g))
        dense = dense_transverse_spectrum(op)
        bank = solve_modes(op, 30, tol=1e-10)
        ref = dense.frequencies[3:33]  # skip the three zero modes
        assert np.abs(bank.frequencies - ref).max() <= 1e-10
        report = mode_residual_report(bank)
        assert report.matches_stored
        assert report.gram_defect <= 1e-8
        assert report.residuals.max() <= 1e-8
        assert report.max_weighted_divergence <= 1e-8

    def test_deterministic_given_seed(self):
        g = Grid((5, 5, 5))
        op = QOperator(smooth_medium(g, seed=3))
        b1 = solve_modes(op, 8, tol=1e-10, seed=11)
        b2 = solve_modes(op, 8, tol=1e-10, seed=11)
        assert np.array_equal(b1.frequencies, b2.frequencies)
        assert np.array_equal(b1.modes_g, b2.modes_g)

    def test_eigenvalue_nonnegativity(self):
        g = Grid((5, 5, 5))
        bank = solve_modes(QOperator(smooth_medium(g, seed=5)), 10, tol=1e-10)
        assert np.all(bank.frequencies**2 >= -1e-12)

    def test_feasibility_bounds(self):
        g = Grid((4, 4, 4))
        op = QOperator(build_profile(Homogeneous(1.0), g))
        with pytest.raises(FeasibilityError):
            solve_modes(op, 0)
        with pytest.raises(FeasibilityError):
            solve_modes(op, 2 * g.ncells - 1)

    def test_solve_holds_the_counted_blocks(self):
        # the CLI refuses a modes.count whose SOLVE_HELD_BLOCKS blocks exceed
        # physical memory; a run holds at least that many, even when it stops
        # after one iteration, so no run that fits is refused
        import tracemalloc

        g = Grid((8, 8, 8))
        op = QOperator(build_profile(Sphere((4.0, 4.0, 4.0), 2.0, 1.0, 4.0), g))
        held = SOLVE_HELD_BLOCKS * 8 * 3 * g.ncells * lobpcg_block(g, 40)
        tracemalloc.start()
        try:
            with pytest.raises(SolverError):
                solve_modes(op, 40, tol=1e-12, maxiter=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak >= held

    def test_closed_shell_solve_holds_the_counted_blocks(self):
        # the same for a uniform medium, whose block the CLI counts as the
        # larger of lobpcg_block and the closed shells: 8^3 and 1 mode draw
        # the 12 directions of the lowest shell against a block of 7
        import tracemalloc

        g = Grid((8, 8, 8))
        op = QOperator(build_profile(Homogeneous(2.0), g))
        assert (lobpcg_block(g, 1), shell_directions(g, 1)) == (7, 12)
        held = SOLVE_HELD_BLOCKS * 8 * 3 * g.ncells * 12
        tracemalloc.start()
        try:
            solve_modes(op, 1, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak >= held

    def test_nonconvergence_raises(self):
        g = Grid((6, 6, 6))
        op = QOperator(smooth_medium(g, seed=8))
        with pytest.raises(SolverError):
            solve_modes(op, 10, tol=1e-12, maxiter=2)

    def test_closed_shell_step_judges_its_residuals(self):
        # a uniform medium's one step reaches rounding, and a tol below
        # rounding fails it with the worst residual
        op = QOperator(build_profile(Homogeneous(2.0), Grid((6, 6, 6))))
        with pytest.raises(SolverError) as info:
            solve_modes(op, 10, tol=1e-20)
        assert 0 < info.value.residual <= 1e-12

    def test_solver_peak_memory(self):
        # the emission-bulk shape: one dof x block array is 5.3 MiB, and the
        # solver should hold about a dozen of them at its peak
        import tracemalloc

        op = QOperator(build_profile(Homogeneous(4.0), Grid((12, 12, 12), 1.0)))
        tracemalloc.start()
        try:
            solve_modes(op, 112, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_one_full_orthonormalization_per_iteration(self, monkeypatch):
        # on the bandgap-1d shape, one dof-row _orthonormalize call builds
        # the start block and one cleans each iteration's new directions
        op = QOperator(build_profile(
            SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0)), axis=0), Grid((64, 1, 1), 1.0)))
        dof = 3 * op.grid.ncells
        calls = []

        def counted(block, against, drop_abs=0.0):
            if block.shape[0] == dof:
                calls.append(block.shape[1])
            return _orthonormalize(block, against, drop_abs)

        monkeypatch.setattr(modes, "_orthonormalize", counted)
        iterations = []
        solve_modes(op, 16, tol=3e-7, seed=0,
                    on_iteration=lambda i, theta, rnorm: iterations.append(i))
        # the last iteration converges and adds no directions
        assert len(iterations) > 2
        assert len(calls) == 1 + (len(iterations) - 1)

    def test_implicit_gram_blocks_do_not_drift(self, monkeypatch):
        # a 12^3 eps-13 sphere (39 iterations): the [x, p] Gram blocks the
        # solver takes from the Ritz coefficients match explicit x^T (A p)
        # and p^T (A p) at every iteration, the last included
        op = QOperator(build_profile(
            Sphere((6.0, 6.0, 6.0), 3.0, 13.0, 1.0), Grid((12, 12, 12), 1.0)))
        shape = (3,) + op.grid.dims
        bases, drifts, thetas = [], [], []
        projected_matrix = modes._projected_matrix

        def spy_orthonormalize(block, against, drop_abs=0.0):
            if len(against) == 2:
                bases.append([b.copy() for b in against])
            return _orthonormalize(block, against, drop_abs)

        def spy_projected_matrix(gram, widths):
            # compared as they come, so that only one basis is held at a time
            if len(widths) == 3:
                # the solver iterates on face fields with B B^T
                x, p = bases.pop()
                ap = op.b_raw(op.bt_raw(p.reshape(shape + (p.shape[1],)))).reshape(p.shape)
                drifts.append((np.abs(gram[0, 1] - x.T @ ap).max(initial=0.0),
                               np.abs(gram[1, 1] - p.T @ ap).max(initial=0.0)))
            return projected_matrix(gram, widths)

        monkeypatch.setattr(modes, "_orthonormalize", spy_orthonormalize)
        monkeypatch.setattr(modes, "_projected_matrix", spy_projected_matrix)
        solve_modes(op, 30, tol=1e-8, seed=0,
                    on_iteration=lambda i, theta, rnorm: thetas.append(theta.max()))
        assert len(thetas) >= 30 and len(drifts) == len(thetas) - 1 and not bases
        scale = max(thetas)
        for xap, pap in drifts:
            assert xap <= 1e-10 * scale
            assert pap <= 1e-10 * scale

    def test_identities_past_dense_limit(self):
        # 12^3 (5184 dof) with inhomogeneous mu: the oblique range projector
        # runs before the one orthonormalization of each iteration
        g = Grid((12, 12, 12), 1.0)
        assert 3 * g.ncells > DENSE_DOF_LIMIT
        bank = solve_modes(QOperator(sphere_medium(g)), 12, tol=1e-8)
        report = mode_residual_report(bank)
        assert report.gram_defect <= 1e-10
        assert report.residuals.max() <= 1e-6
        assert report.max_weighted_divergence <= 1e-8
        assert report.matches_stored


class TestOrthonormalize:
    def test_graded_block_orthonormal_with_span(self):
        # singular values spread over 1 ... 1e-6 on the emission-bulk shape
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((5184, 134)))
        v, _ = np.linalg.qr(rng.standard_normal((134, 134)))
        block = (u * np.logspace(0, -6, 134)) @ v.T
        q = _orthonormalize(block, [])
        assert q.shape == (5184, 134)
        assert np.abs(q.T @ q - np.eye(134)).max() <= 1e-14
        assert np.abs(u - q @ (q.T @ u)).max() <= 1e-9

    def test_drops_column_inside_span_of_basis(self):
        # a unit column inside span(against) up to 1e-12 noise is round-off
        # after Gram-Schmidt and must be dropped, not rescaled
        rng = np.random.default_rng(0)
        against, _ = np.linalg.qr(rng.standard_normal((5184, 40)))
        inside = against @ rng.standard_normal(40)
        inside = inside / np.linalg.norm(inside) + 1e-12 * rng.standard_normal(5184)
        fresh = rng.standard_normal((5184, 100))
        block = np.column_stack([fresh / np.linalg.norm(fresh, axis=0), inside])
        q = _orthonormalize(block, [against], drop_abs=1e-9)
        assert q.shape[1] == 100
        assert np.abs(against.T @ q).max() <= 1e-14
        assert np.abs(q.T @ q - np.eye(100)).max() <= 1e-14

    def test_cancellation_takes_second_sweep(self):
        # unit columns that are a combination of the basis plus 1e-6 fresh
        # content keep 1e-6 of their norm through the first sweep, whose
        # rounding is then 1e-10 of what is left; only a second sweep
        # makes the result orthogonal to the basis
        rng = np.random.default_rng(9)
        against, _ = np.linalg.qr(rng.standard_normal((5184, 40)))
        fresh = rng.standard_normal((5184, 20))
        block = against @ rng.standard_normal((40, 20)) + 1e-6 * fresh
        block /= np.linalg.norm(block, axis=0)
        q = _orthonormalize(block, [against], drop_abs=1e-9)
        assert q.shape[1] == 20
        assert np.abs(against.T @ q).max() <= 1e-14
        assert np.abs(q.T @ q - np.eye(20)).max() <= 1e-14
        fresh -= against @ (against.T @ fresh)
        assert np.abs(fresh - q @ (q.T @ fresh)).max() <= 1e-8 * np.abs(fresh).max()

    def test_duplicate_columns_reduce_to_rank(self):
        rng = np.random.default_rng(6)
        distinct = rng.standard_normal((3000, 4))
        block = np.column_stack([distinct, distinct[:, :2], 2.0 * distinct[:, 3]])
        q = _orthonormalize(block, [])
        assert q.shape[1] == 4
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-14
        assert np.abs(distinct - q @ (q.T @ distinct)).max() <= 1e-12 * np.abs(distinct).max()


class TestCompleteness:
    def test_complete_bank_reproduces_transverse_fields(self, rng):
        # with the full transverse spectrum, eps * sum_l <x, h_l> h_l acts
        # as the identity on divergence-free fields
        g = Grid((4, 4, 4), 1.0)
        m = smooth_medium(g, seed=2)
        bank = dense_transverse_spectrum(QOperator(m))
        x = curl_t_raw(rng.standard_normal((3,) + g.dims))
        n = len(bank)
        flat_h = np.stack([bank.mode_h(i).values for i in range(n)]).reshape(n, -1)
        coef = flat_h @ x.ravel() * g.cell_volume
        rebuilt = m.eps * (coef @ flat_h).reshape((3,) + g.dims)
        assert np.abs(rebuilt - x).max() <= 1e-8 * np.abs(x).max()

    def test_magnetic_variant_with_unit_mu_matches(self, rng):
        g = Grid((4, 4, 4))
        eps = 1.0 + rng.random((3,) + g.dims)
        v = random_vector(g, rng)
        plain = apply_q(QOperator(MediumProfile(g, eps, None)), v)
        magnetic = apply_q(QOperator(MediumProfile(g, eps, np.ones((3,) + g.dims))), v)
        assert np.abs(plain.values - magnetic.values).max() <= 1e-13

    def test_magnetic_scaling(self):
        # homogeneous mu = 4 halves every frequency, like eps = 4
        g = Grid((6, 6, 6), 1.0)
        m_plain = build_profile(Homogeneous(1.0), g)
        m_mu = build_profile(Homogeneous(1.0), g, mu_desc=Homogeneous(4.0))
        b_plain = solve_modes(QOperator(m_plain), 12, tol=1e-10)
        b_mu = solve_modes(QOperator(m_mu), 12, tol=1e-10)
        assert np.abs(2 * b_mu.frequencies - b_plain.frequencies).max() <= 1e-9


@pytest.mark.parametrize(
    "dense_path",
    [
        lambda m: dense_q_matrix(QOperator(m)),
        transverse_subspace_basis,
        lambda m: projector_matrix(ModeBank(
            m, np.zeros(1), np.zeros((1, 3) + m.grid.dims), np.zeros(1), 0.0)),
    ],
    ids=["dense_q_matrix", "transverse_subspace_basis", "projector_matrix"],
)
def test_dense_paths_refuse_past_limit(dense_path):
    # 12^3 holds 5184 edge dof, past the one dense limit all three share
    m = build_profile(Homogeneous(1.0), Grid((12, 12, 12)))
    assert 3 * m.grid.ncells > DENSE_DOF_LIMIT
    with pytest.raises(FeasibilityError, match="5184"):
        dense_path(m)


@pytest.mark.parametrize("k", [-40, -3, 1, 40])
def test_power_of_two_spacing_scales_exactly(k):
    # the kernels work in lattice units, so at s = 2^k, where every scaling
    # is exact, the medium and the lattice-unit bank are those of s = 1 bit
    # for bit: eps, omega s, and (at s = 4^(k/2)) g s^(3/2) with the
    # residuals and Gram defect computed from it
    def bank_at(s):
        m = build_profile(Sphere((2 * s,) * 3, 1.2 * s, 4.0, 1.0), Grid((4, 4, 4), s))
        return m, solve_modes(QOperator(m), 6, tol=1e-10)

    s = 2.0**k
    m1, b1 = bank_at(1.0)
    ms, bs = bank_at(s)
    assert ms.eps.tobytes() == m1.eps.tobytes()
    assert (bs.frequencies * s).tobytes() == b1.frequencies.tobytes()
    if k % 2 == 0:
        assert (bs.modes_g * s**1.5).tobytes() == b1.modes_g.tobytes()
        assert bs.residuals.tobytes() == b1.residuals.tobytes()
        assert bs.gram_defect == b1.gram_defect
    assert mode_residual_report(bs).matches_stored


class TestResidualReport:
    def test_fresh_bank_consistent(self):
        g = Grid((5, 5, 5))
        bank = solve_modes(QOperator(smooth_medium(g, seed=1)), 8, tol=1e-10)
        report = mode_residual_report(bank)
        assert report.matches_stored
        assert report.residuals.max() <= 1e-6
        assert report.max_weighted_divergence <= 1e-8

    def test_detects_corrupted_mode(self):
        g = Grid((4, 4, 4))
        bank = solve_modes(QOperator(build_profile(Homogeneous(1.0), g)), 6, tol=1e-10)
        bad = ModeBank(
            medium=bank.medium,
            frequencies=bank.frequencies,
            modes_g=bank.modes_g * np.where(np.arange(6) == 2, 2.0, 1.0)[:, None, None, None, None],
            residuals=bank.residuals,
            gram_defect=bank.gram_defect,
        )
        report = mode_residual_report(bad)
        assert report.gram_defect == pytest.approx(3.0, abs=1e-6)
        assert not report.matches_stored

    def test_invariant_under_cluster_rotation(self, rng):
        g = Grid((4, 4, 4))
        bank = solve_modes(QOperator(build_profile(Homogeneous(1.0), g)), 12, tol=1e-11)
        # rotate the 12-fold degenerate cluster by a random orthogonal matrix
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        rotated = ModeBank(
            medium=bank.medium,
            frequencies=bank.frequencies,
            modes_g=np.tensordot(q.T, bank.modes_g, axes=(1, 0)),
            residuals=bank.residuals,
            gram_defect=bank.gram_defect,
        )
        report = mode_residual_report(rotated)
        assert report.gram_defect <= bank.gram_defect + 1e-10
        assert np.abs(np.sort(report.residuals) - np.sort(bank.residuals)).max() <= 1e-10


def plane_wave_shells(n, eps, count):
    """Unit-norm discrete plane waves of the lowest shells of a homogeneous box.

    Each wave vector (one of each +-k pair) gives cos and sin waves in the
    two polarizations orthogonal to the discrete wave vector sin(k/2); the
    columns are sorted by frequency, so shells form degenerate clusters.
    """
    import itertools

    grid = Grid((n, n, n), 1.0)
    waves = []
    for v in itertools.product(range(-2, 3), repeat=3):
        v = np.array(v)
        if v[v != 0].size and v[v != 0][0] > 0:
            waves.append((4 * np.sum(np.sin(np.pi * v / n) ** 2) / eps, tuple(v)))
    cols, freqs = [], []
    for omega2, v in sorted(waves):
        k = 2 * np.pi * np.array(v) / n
        kappa = np.sin(k / 2)
        p1 = np.cross(kappa, np.eye(3)[np.argmin(np.abs(kappa))])
        p1 /= np.linalg.norm(p1)
        p2 = np.cross(kappa, p1) / np.linalg.norm(kappa)
        phases = [component_positions(grid, EDGE, a) @ k for a in range(3)]
        for f in (np.cos, np.sin):
            for p in (p1, p2):
                col = np.stack([p[a] * f(phases[a]) for a in range(3)]).ravel()
                cols.append(col / np.linalg.norm(col))
                freqs.append(np.sqrt(omega2))
    return np.array(cols[:count]).T, np.array(freqs[:count])


def mixed_shells(v, w, seed):
    """``v`` with each degenerate cluster turned by a random rotation."""
    edges = np.flatnonzero(np.diff(w) > 1e-8 * w.max()) + 1
    rng = np.random.default_rng(seed)
    x = v.copy()
    for lo, hi in zip(np.r_[0, edges], np.r_[edges, len(w)]):
        mix, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
        x[:, lo:hi] = np.linalg.qr(v[:, lo:hi])[0] @ mix
    return x


def canonicalize_rowwise(vecs, freqs):
    """Reference cluster canonicalization: one coordinate row at a time."""
    vecs = vecs.copy()
    scale = max(freqs.max(), 1.0)
    i, n = 0, len(freqs)
    while i < n:
        j = i + 1
        while j < n and freqs[j] - freqs[j - 1] <= DEGENERACY_RTOL * scale:
            j += 1
        size = j - i
        if size > 1:
            v = vecs[:, i:j]
            coeff = np.zeros((size, size))
            picked = 0
            for row in range(v.shape[0]):
                c = v[row].copy()
                for _ in range(2):
                    c -= coeff[:picked].T @ (coeff[:picked] @ c)
                nc = np.linalg.norm(c)
                if nc > 1e-6:
                    coeff[picked] = c / nc
                    if (v[row] @ coeff[picked]) < 0:
                        coeff[picked] = -coeff[picked]
                    picked += 1
                    if picked == size:
                        break
            assert picked == size
            vecs[:, i:j] = v @ coeff.T
        else:
            k = int(np.argmax(np.abs(vecs[:, i])))
            if vecs[k, i] < 0:
                vecs[:, i] = -vecs[:, i]
        i = j
    return vecs


class TestCanonicalizeClusters:
    def test_orthonormal_and_mixing_independent(self):
        # 12^3, eps = 4: the lowest 112 modes fill five shells of 12, 24,
        # 16, 12 and 48 plane waves; a single Gram-Schmidt pass over the
        # coordinate rows loses orthonormality here (defect ~1e-10)
        v, w = plane_wave_shells(12, 4.0, 112)
        outs = []
        for seed in range(2):
            x = mixed_shells(v, w, seed)
            assert np.abs(x.T @ x - np.eye(len(w))).max() <= 1e-14
            outs.append(_canonicalize_clusters(x, w))
            assert np.abs(outs[-1].T @ outs[-1] - np.eye(len(w))).max() <= 1e-13
        assert np.abs(outs[0] - outs[1]).max() <= 1e-12

    def test_matches_rowwise_reference(self):
        # the chunked scan picks the same coordinate rows, with the same
        # signs, as the row-by-row loop
        v, w = plane_wave_shells(12, 4.0, 112)
        x = mixed_shells(v, w, 5)
        assert np.abs(_canonicalize_clusters(x, w) - canonicalize_rowwise(x, w)).max() <= 1e-13

    def test_rank_deficient_cluster_raises(self):
        v, w = plane_wave_shells(6, 1.0, 12)
        v[:, 1] = v[:, 0]
        with pytest.raises(SolverError, match="canonicalization failed"):
            _canonicalize_clusters(v, w)

