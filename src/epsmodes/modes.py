"""Hermitian mode eigenproblem for periodic inhomogeneous media.

The operator applied here is ``Q g = S curl_t(w curl(S g))`` with
``S = 1/sqrt(eps)`` on edges and ``w = 1`` (nonmagnetic) or ``w = 1/mu``
on faces (magnetic variant).  Q is symmetric positive semidefinite under
the plain volume-weighted inner product and its eigenvalues are squared
mode frequencies.  Its null space consists of ``sqrt(eps) * (grad psi +
const)``; the gradient sector is removed by solving a generalized
Poisson problem, the three constant-induced zero-frequency modes are
deflated explicitly, and the solver returns the lowest nonzero
eigenpairs.

Mode banks store each mode once, as ``g`` (orthonormal under the plain
inner product).  The physical mode function is ``h = g / sqrt(eps)``,
formed where it is used: it is orthonormal under the eps-weighted inner
product, satisfies ``curl_t(curl(h)) = eps * omega^2 * h`` and the
weighted-divergence constraint ``div(eps h) = 0``.  (The alternative
convention ``h = sqrt(eps) g`` breaks all three identities at once.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .electrostatics import solve_poisson_block
from .errors import (
    FeasibilityError,
    GridMismatchError,
    PlacementError,
    SolverError,
)
from .lattice import EDGE, Grid, VectorField, curl_raw, curl_t_raw, div_raw, grad_raw
from .medium import MediumProfile

NONMAGNETIC = "nonmagnetic"
MAGNETIC = "magnetic"

#: Relative eigenvalue below which a mode counts as zero-frequency.
ZERO_EIGENVALUE_CUTOFF = 1e-10

#: Relative frequency separation below which modes form a degenerate cluster.
DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class QOperator:
    """Curl-curl operator symmetrized with inverse-sqrt-eps weights."""

    medium: MediumProfile
    variant: str = NONMAGNETIC
    inv_sqrt_eps: np.ndarray = field(init=False, repr=False)
    inv_w: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.variant not in (NONMAGNETIC, MAGNETIC):
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "inv_sqrt_eps", 1.0 / np.sqrt(self.medium.eps))
        inv_w = None
        if self.variant == MAGNETIC:
            mu = self.medium.mu
            inv_w = 1.0 / mu if mu is not None else np.ones((3,) + self.medium.grid.dims)
        object.__setattr__(self, "inv_w", inv_w)

    @property
    def grid(self) -> Grid:
        return self.medium.grid

    def apply_raw(self, g: np.ndarray) -> np.ndarray:
        """Operator application on a raw (3, nx, ny, nz[, B]) array."""
        s = self.grid.spacing
        if g.ndim == 4:
            ise = self.inv_sqrt_eps
        else:
            ise = self.inv_sqrt_eps[..., None]
        w = curl_raw(ise * g, s)
        if self.inv_w is not None:
            w = (self.inv_w if g.ndim == 4 else self.inv_w[..., None]) * w
        return ise * curl_t_raw(w, s)


def apply_q(op: QOperator, g: VectorField) -> VectorField:
    """Apply the mode operator to an edge field."""
    if g.placement != EDGE:
        raise PlacementError("apply_q expects an edge field")
    if g.grid != op.grid:
        raise GridMismatchError("field and operator grids differ")
    return VectorField(op.grid, EDGE, op.apply_raw(g.values))


def _project_block_raw(
    g: np.ndarray, m: MediumProfile, tol: float
) -> np.ndarray:
    """Remove the sqrt(eps)*grad(psi) component from a block of edge fields."""
    s = m.grid.spacing
    sqrt_eps = np.sqrt(m.eps) if g.ndim == 4 else np.sqrt(m.eps)[..., None]
    sigma = -div_raw(sqrt_eps * g, s)
    # block columns may have wildly different scales; demeaning handles the
    # compatibility, solve_poisson_block normalizes per column
    psi, _, _ = solve_poisson_block(sigma, m, tol=tol)
    return g - sqrt_eps * grad_raw(psi, s)


def project_transverse_g(
    g: VectorField, m: MediumProfile, tol: float = 1e-10
) -> VectorField:
    """Project an edge field onto ``div(sqrt(eps) g) = 0``.

    Idempotent up to solver tolerance; fields already satisfying the
    constraint pass through unchanged and pure ``sqrt(eps) grad(psi)``
    inputs map to zero.
    """
    if g.placement != EDGE:
        raise PlacementError("projection expects an edge field")
    if g.grid != m.grid:
        raise GridMismatchError("field and medium grids differ")
    return VectorField(m.grid, EDGE, _project_block_raw(g.values, m, tol))


@dataclass
class ModeBank:
    """Orthonormal generalized-transverse eigenmodes with frequencies.

    ``modes_g[i]`` are orthonormal under the plain inner product and are
    the only stored form of the modes, C-ordered and mode-major with
    shape (n, 3, nx, ny, nz).  The physical modes ``h = g / sqrt(eps)``,
    orthonormal under the eps-weighted inner product, come from
    :meth:`mode_h` or are formed by each consumer where it needs them.
    """

    medium: MediumProfile
    variant: str
    frequencies: np.ndarray          # (n,) ascending, >= 0
    modes_g: np.ndarray              # (n, 3, nx, ny, nz)
    residuals: np.ndarray            # per-mode wave-equation residuals
    gram_defect: float
    complete: bool = False
    seed: int | None = None

    @property
    def grid(self) -> Grid:
        return self.medium.grid

    def __len__(self) -> int:
        return len(self.frequencies)

    def mode_h(self, i: int) -> VectorField:
        """Physical mode ``h_i = g_i / sqrt(eps)`` as an edge field."""
        return VectorField(self.grid, EDGE, self.modes_g[i] / np.sqrt(self.medium.eps))


@dataclass
class ResidualReport:
    residuals: np.ndarray
    gram_defect: float
    max_weighted_divergence: float
    matches_stored: bool


def _bank_invariants(op: QOperator, freqs: np.ndarray, g: np.ndarray,
                     divergence: bool = False):
    """Gram defect, per-mode wave residuals and worst weighted divergence.

    With ``h = g / sqrt(eps)`` the residual
    ``||sqrt(eps) (Q g - omega^2 g)|| / ||h||`` equals
    ``||curl_t(w curl h) - eps omega^2 h|| / ||h||``, and
    ``div(sqrt(eps) g) = div(eps h)``.  Modes are taken one at a time.
    The divergence costs an extra stencil pass per mode, so it is computed
    only when asked for and reported as 0 otherwise.
    """
    m = op.medium
    n = len(freqs)
    flat = g.reshape(n, -1)
    gram = flat @ flat.T * m.grid.cell_volume
    gram_defect = float(np.abs(gram - np.eye(n)).max())
    sqrt_eps = np.sqrt(m.eps)
    residuals = np.empty(n)
    div_defect = 0.0
    for i, (gi, om) in enumerate(zip(g, freqs)):
        h_norm = np.linalg.norm(op.inv_sqrt_eps * gi)
        residuals[i] = np.linalg.norm(sqrt_eps * (op.apply_raw(gi) - om**2 * gi)) / h_norm
        if divergence:
            d = div_raw(sqrt_eps * gi, m.grid.spacing)
            div_defect = max(div_defect, float(np.linalg.norm(d) / h_norm))
    return gram_defect, residuals, div_defect


def mode_residual_report(bank: ModeBank) -> ResidualReport:
    """Recompute bank invariants from scratch and compare with metadata."""
    if len(bank) == 0:
        raise ValueError("empty mode bank")
    gram_defect, residuals, div_defect = _bank_invariants(
        QOperator(bank.medium, bank.variant), bank.frequencies, bank.modes_g,
        divergence=True,
    )
    matches = (
        abs(gram_defect - bank.gram_defect) <= 1e-12
        and np.all(np.abs(residuals - bank.residuals) <= 1e-12 * (1 + residuals))
    )
    return ResidualReport(residuals, gram_defect, div_defect, bool(matches))


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


def _canonicalize_clusters(vecs: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Deterministic basis within degenerate clusters.

    Within each cluster the basis is rebuilt by Gram-Schmidt over the
    projections of coordinate unit fields taken in lexicographic order,
    so the result depends only on the eigenspace, not on solver history.
    Each projection is orthogonalized twice: a picked row can be nearly
    inside the span of the earlier picks, and one pass then leaves its
    cancellation error in the basis.
    """
    vecs = vecs.copy()
    scale = max(freqs.max(), 1.0)
    i = 0
    n = len(freqs)
    while i < n:
        j = i + 1
        while j < n and freqs[j] - freqs[j - 1] <= DEGENERACY_RTOL * scale:
            j += 1
        size = j - i
        if size > 1:
            v = vecs[:, i:j]                      # (dof, m)
            coeff = np.zeros((size, size))
            picked = 0
            # rows of v are the coefficient vectors of the coordinate unit
            # fields, visited in lexicographic order
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
            if picked < size:
                raise SolverError("degenerate cluster canonicalization failed")
            vecs[:, i:j] = v @ coeff.T
        else:
            vecs[:, i] = _canonical_sign(vecs[:, i])
        i = j
    return vecs


def _orthonormalize(
    block: np.ndarray,
    against: list[np.ndarray],
    drop_abs: float = 0.0,
    drop_rel: float = 1e-10,
):
    """Two-pass Gram-Schmidt against fixed bases, then thin QR with drops.

    ``drop_abs`` discards columns whose post-projection content fell
    below an absolute size; callers feeding unit-norm columns use it to
    reject directions that were numerically inside the span already
    (keeping them would recycle their round-off as search directions).
    """
    if block.shape[1] == 0:
        return block
    for _ in range(2):
        for basis in against:
            if basis.shape[1]:
                block = block - basis @ (basis.T @ block)
    q, r = np.linalg.qr(block)
    dr = np.abs(np.diag(r))
    keep = dr > max(drop_abs, drop_rel * (dr.max() if dr.size else 1.0))
    return q[:, keep]


def uniform_zero_modes(m: MediumProfile, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the three zero-frequency transverse modes.

    On the torus the transverse projections of ``sqrt(eps) * e_a`` are
    exact null vectors of the mode operator; they carry zero frequency
    and are excluded from solver banks but belong to complete spectra.
    """
    dims = m.grid.dims
    cols = []
    for a in range(3):
        g = np.zeros((3,) + dims)
        g[a] = np.sqrt(m.eps[a])
        cols.append(_project_block_raw(g, m, tol).ravel())
    z = np.stack(cols, axis=1)
    q, _ = np.linalg.qr(z)
    return q


def solve_modes(
    op: QOperator,
    n_modes: int,
    tol: float = 1e-8,
    seed: int = 0,
    maxiter: int = 1000,
    poisson_tol: float | None = None,
    on_iteration=None,
) -> ModeBank:
    """Lowest nonzero-frequency eigenmodes via blocked Rayleigh-Ritz.

    LOBPCG-style iteration: the search subspace is spanned by the
    current Ritz block, preconditioned residuals and the previous
    update directions.  New directions are projected onto the
    generalized-transverse subspace after every operator application
    and deflated against the three uniform zero modes, which keeps the
    iteration inside the physical sector.  Deterministic for a fixed
    seed.

    ``tol`` bounds eigen-residual norms relative to max(Ritz value,
    a tenth of the operator scale); eigenvalue errors are quadratically
    smaller.
    """
    m = op.medium
    grid = m.grid
    dof = 3 * grid.ncells
    n_nonzero = 2 * grid.ncells - 2
    if n_modes < 1:
        raise FeasibilityError("n_modes must be >= 1")
    if n_modes > n_nonzero:
        raise FeasibilityError(
            f"requested {n_modes} modes but the transverse subspace holds "
            f"only {n_nonzero} nonzero-frequency modes on this grid"
        )
    if poisson_tol is None:
        poisson_tol = min(1e-10, tol * 1e-3)

    block = min(n_modes + max(6, n_modes // 5), n_nonzero)
    shape = (3,) + grid.dims

    def to_block(mat):
        return mat.reshape(shape + (mat.shape[1],))

    def project_cols(mat):
        projected = _project_block_raw(to_block(mat), m, poisson_tol)
        return projected.reshape(dof, -1)

    def apply_cols(mat):
        return op.apply_raw(to_block(mat)).reshape(dof, -1)

    zmodes = uniform_zero_modes(m, poisson_tol)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dof, block))
    x = project_cols(x)
    x = _orthonormalize(x, [zmodes])
    if x.shape[1] < block:
        raise SolverError("failed to build an independent starting block")

    # FFT preconditioner: Davidson-style inverse of the vacuum curl-curl
    # symbol (scaled by the harmonic-mean permittivity) shifted per column.
    s = grid.spacing
    sym = np.zeros(grid.dims)
    for a, npts in enumerate(grid.dims):
        k = 2 * np.pi * np.fft.fftfreq(npts)
        shape_a = [1, 1, 1]
        shape_a[a] = npts
        sym = sym + (4 * np.sin(k / 2) ** 2 / s**2).reshape(shape_a)
    inv_eps_bar = float(np.mean(1.0 / m.eps))

    def precondition(resid, shifts):
        r = to_block(resid)
        rk = np.fft.fftn(r, axes=(1, 2, 3))
        denom = sym[None, ..., None] * inv_eps_bar - shifts[None, None, None, None, :]
        np.abs(denom, out=denom)
        np.maximum(denom, 0.1 * np.abs(shifts)[None, None, None, None, :], out=denom)
        rk /= denom
        out = np.fft.ifftn(rk, axes=(1, 2, 3)).real
        return out.reshape(dof, -1)

    ax = apply_cols(x)
    t = x.T @ ax
    theta, c = scipy.linalg.eigh((t + t.T) / 2)
    x, ax = x @ c, ax @ c
    p = np.zeros((dof, 0))
    ap = np.zeros((dof, 0))
    converged = False
    rnorm = np.full(n_modes, np.inf)
    # residuals are judged against the operator scale as well as the Ritz
    # value: the projection/FFT pipeline has an absolute accuracy floor, so
    # demanding tol * theta for theta far below ||Q|| can never be met
    op_scale = 0.1 * float(sym.max() * np.max(1.0 / m.eps))
    for _iteration in range(maxiter):
        resid = ax - x * theta
        rnorm = np.linalg.norm(resid, axis=0)
        if on_iteration is not None:
            on_iteration(_iteration, theta, rnorm)
        anchor = tol * np.maximum(theta[:n_modes], op_scale)
        if np.all(rnorm[:n_modes] <= anchor):
            converged = True
            break

        # fresh directions from the unconverged residuals, normalized so the
        # drop tolerances are scale-free
        active = rnorm > tol * np.maximum(theta, op_scale)
        r_act = resid[:, active] / rnorm[active]
        w = precondition(r_act, theta[active])
        w /= np.linalg.norm(w, axis=0)
        # orthonormalize -> project -> orthonormalize: projecting after the
        # Gram-Schmidt pass is essential, otherwise directions numerically
        # inside span(x) get their null-space round-off amplified to unit
        # vectors that the Rayleigh-Ritz step would rank below the physical
        # spectrum
        w = _orthonormalize(w, [zmodes, x, p], drop_abs=1e-9)
        if w.shape[1]:
            w = project_cols(w)
            w = _orthonormalize(w, [zmodes, x, p], drop_abs=1e-9)
        if w.shape[1] == 0:
            raise SolverError(
                "eigensolver stagnated: no independent search directions left "
                f"(worst residual {float(rnorm[:n_modes].max()):.3e})",
                residual=float(rnorm[:n_modes].max()),
            )
        aw = apply_cols(w)

        # the basis [x, p, w] is orthonormal by construction, so a plain
        # Rayleigh-Ritz step is stable
        basis = np.hstack([x, p, w])
        abasis = np.hstack([ax, ap, aw])
        t = basis.T @ abasis
        evals, evecs = scipy.linalg.eigh((t + t.T) / 2)
        c = evecs[:, :block]
        x_new = basis @ c
        theta = evals[:block]

        # implicit previous-direction block: the p/w contribution to the
        # update, cleaned the same way as w (tiny columns are cancellation
        # noise and would smuggle null-space content into the basis)
        cp = c.copy()
        cp[: x.shape[1], :] = 0.0
        p_raw = basis @ cp
        pnorm = np.linalg.norm(p_raw, axis=0)
        strong = pnorm > 1e-6
        p = p_raw[:, strong] / pnorm[strong]
        p = _orthonormalize(p, [zmodes, x_new], drop_abs=1e-6)
        if p.shape[1]:
            p = project_cols(p)
            p = _orthonormalize(p, [zmodes, x_new], drop_abs=1e-6)
        x = x_new
        # exact operator images every iteration; the cost is negligible next
        # to the transversality projections and it keeps the Rayleigh-Ritz
        # data consistent over long runs
        ax = apply_cols(x)
        ap = apply_cols(p)

    if not converged:
        raise SolverError(
            f"eigensolver did not converge in {maxiter} iterations "
            f"(worst residual {float(rnorm[:n_modes].max()):.3e})",
            residual=float(rnorm[:n_modes].max()),
            iterations=maxiter,
        )

    # polish: tight transversality projection, deflation, final Rayleigh-Ritz
    x = project_cols(x[:, :block])
    x = _orthonormalize(x, [zmodes])
    ax = apply_cols(x)
    t = x.T @ ax
    t = (t + t.T) / 2
    theta, c = scipy.linalg.eigh(t)
    x = x @ c
    keep = slice(0, n_modes)
    x = x[:, keep]
    theta = theta[keep]

    freqs = np.sqrt(np.clip(theta, 0.0, None))
    x = _canonicalize_clusters(x, freqs)
    return _assemble_bank(op, freqs, x, complete=False, seed=seed)


def _assemble_bank(op, freqs, cols, complete, seed=None) -> ModeBank:
    m = op.medium
    n = cols.shape[1]
    # plain-orthonormal g scaled so that h = g/sqrt(eps) is eps-orthonormal
    # with the volume weight included; C order makes a solved bank and one
    # loaded from disk reduce in the same order, so their invariants agree
    # bitwise
    g = np.divide(cols.T, np.sqrt(m.grid.cell_volume), order="C")
    g = g.reshape((n, 3) + m.grid.dims)
    freqs = np.asarray(freqs, dtype=np.float64)
    gram_defect, residuals, _ = _bank_invariants(op, freqs, g)
    return ModeBank(
        medium=m,
        variant=op.variant,
        frequencies=freqs,
        modes_g=g,
        residuals=residuals,
        gram_defect=gram_defect,
        complete=complete,
        seed=seed,
    )


def dense_q_matrix(op: QOperator) -> np.ndarray:
    """Dense operator matrix, columns from unit basis fields (small grids)."""
    dof = 3 * op.grid.ncells
    if dof > 4000:
        raise FeasibilityError(f"dense assembly refused for {dof} degrees of freedom")
    shape = (3,) + op.grid.dims
    basis = np.eye(dof).reshape(shape + (dof,))
    mat = op.apply_raw(basis).reshape(dof, dof)
    return (mat + mat.T) / 2


def transverse_subspace_basis(m: MediumProfile) -> np.ndarray:
    """Orthonormal basis of ``div(sqrt(eps) g) = 0`` (small grids)."""
    grid = m.grid
    dof = 3 * grid.ncells
    if dof > 4000:
        raise FeasibilityError(f"dense subspace basis refused for {dof} DOF")
    shape = (3,) + grid.dims
    ncells = grid.ncells
    unit_scalars = np.eye(ncells).reshape(grid.dims + (ncells,))
    gradients = grad_raw(unit_scalars, grid.spacing)
    k = (np.sqrt(m.eps)[..., None] * gradients).reshape(dof, ncells)
    u, sing, _ = np.linalg.svd(k, full_matrices=True)
    rank = int(np.sum(sing > 1e-10 * sing.max()))
    return u[:, rank:]


def dense_transverse_spectrum(
    op: QOperator, include_zero_modes: bool = True
) -> ModeBank:
    """Full transverse spectrum by dense eigendecomposition (oracle path).

    Independent of the iterative solver: the operator matrix is built
    from unit fields and restricted to an SVD basis of the transverse
    subspace.  With ``include_zero_modes`` the bank is complete and
    spans the whole generalized-transverse sector, as required by the
    projector and commutator constructions.
    """
    m = op.medium
    q = dense_q_matrix(op)
    basis = transverse_subspace_basis(m)
    qt = basis.T @ q @ basis
    qt = (qt + qt.T) / 2
    evals, evecs = scipy.linalg.eigh(qt)
    cols = basis @ evecs
    cutoff = ZERO_EIGENVALUE_CUTOFF * max(evals.max(), 1.0)
    if include_zero_modes:
        keep = np.ones(len(evals), dtype=bool)
    else:
        keep = evals > cutoff
    evals = np.clip(evals[keep], 0.0, None)
    cols = cols[:, keep]
    freqs = np.sqrt(evals)
    cols = _canonicalize_clusters(cols, freqs)
    return _assemble_bank(op, freqs, cols, complete=include_zero_modes)
