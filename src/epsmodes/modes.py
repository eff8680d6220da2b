"""Hermitian mode eigenproblem for periodic inhomogeneous media.

The operator applied here is ``Q g = S curl_t(w curl(S g))`` with
``S = 1/sqrt(eps)`` on edges and, on faces, ``w = 1/mu`` when the medium
has a permeability, else 1.  Q is symmetric positive semidefinite under
the plain volume-weighted inner product and its eigenvalues are squared
mode frequencies.  Its null space consists of ``sqrt(eps) * (grad psi +
const)``.  The solver factors ``Q = B^T B``, ``B = w^(1/2) curl S``, and
iterates on face fields with ``B B^T``, as MPB does (Johnson &
Joannopoulos, Opt. Express 8, 173 (2001)); see :func:`solve_modes`.  The
three zero-frequency modes of Q belong only to complete dense spectra.

Q, the solver and the bank invariants work in lattice units (``s = 1``); a
bank holds the frequencies over ``s`` and ``g`` times ``s^(-3/2)``.

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

from .electrostatics import helmholtz_decompose
from .errors import FeasibilityError, GridMismatchError, PlacementError, SolverError
from .lattice import (
    EDGE,
    Grid,
    VectorField,
    curl_raw,
    curl_t_raw,
    difference_symbols,
    div_raw,
    grad_raw,
    laplacian_symbol,
)
from .medium import MediumProfile

#: Relative eigenvalue below which a mode counts as zero-frequency.
ZERO_EIGENVALUE_CUTOFF = 1e-10

#: Relative frequency separation below which modes form a degenerate cluster.
DEGENERACY_RTOL = 1e-8

#: Column norm or singular value, relative to the largest, below which
#: :func:`_orthonormalize` drops a direction.  It must sit above the square
#: root of machine epsilon: SVQB reads singular values off a Gram matrix,
#: which squares them, so anything under about 1e-8 of the block's norm is
#: rounding noise there.
ORTHO_DROP_RTOL = 1e-7

#: Fraction of its norm a column must keep through one Gram-Schmidt sweep
#: for :func:`_orthonormalize` to skip the second: "twice is enough"
#: (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976)).
REORTH_KEEP = 1 / np.sqrt(2)

#: Coordinate rows :func:`_canonicalize_clusters` orthogonalizes at once.
CANONICALIZE_CHUNK = 64

#: Largest gap between a bank's stored Gram defect and residuals and their
#: recomputed values (a residual's gap taken relative to 1 + residual) that
#: :func:`mode_residual_report` counts as a match.
STORED_MATCH_TOL = 1e-12

#: Degrees of freedom above which dense matrices (the oracle spectrum and
#: the projector kernel) are refused.
DENSE_DOF_LIMIT = 4000


@dataclass(frozen=True)
class QOperator:
    """Curl-curl operator ``Q = B^T B``; ``B = w^(1/2) curl S`` maps edges to faces.

    ``w = 1/mu`` when the medium has a permeability, so the medium alone
    decides whether the operator is magnetic.  Its eigenvalues are ``(omega s)^2``.
    """

    medium: MediumProfile
    inv_sqrt_eps: np.ndarray = field(init=False, repr=False)
    sqrt_w: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        mu = self.medium.mu
        object.__setattr__(self, "inv_sqrt_eps", 1.0 / np.sqrt(self.medium.eps))
        object.__setattr__(self, "sqrt_w", None if mu is None else 1.0 / np.sqrt(mu))

    @property
    def grid(self) -> Grid:
        return self.medium.grid

    def b_raw(self, g: np.ndarray) -> np.ndarray:
        """``B g`` for raw (3, nx, ny, nz[, batch]) edge arrays; face output."""
        y = curl_raw(_batched(self.inv_sqrt_eps, g) * g)
        return y if self.sqrt_w is None else _batched(self.sqrt_w, y) * y

    def bt_raw(self, y: np.ndarray) -> np.ndarray:
        """``B^T y`` for raw (3, nx, ny, nz[, batch]) face arrays; edge output."""
        if self.sqrt_w is not None:
            y = _batched(self.sqrt_w, y) * y
        return _batched(self.inv_sqrt_eps, y) * curl_t_raw(y)

    def apply_raw(self, g: np.ndarray) -> np.ndarray:
        """Operator application ``B^T (B g)`` on a raw (3, nx, ny, nz[, B]) array."""
        return self.bt_raw(self.b_raw(g))


def _batched(coeff: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """A (3, nx, ny, nz) coefficient shaped to multiply ``arr``."""
    return coeff if arr.ndim == 4 else coeff[..., None]


def apply_q(op: QOperator, g: VectorField) -> VectorField:
    """Apply the mode operator, in lattice units, to an edge field."""
    if g.placement != EDGE:
        raise PlacementError("apply_q expects an edge field")
    if g.grid != op.grid:
        raise GridMismatchError("field and operator grids differ")
    return VectorField(op.grid, EDGE, op.apply_raw(g.values))


# no caller in the package; kept because perfbench's tracer rebinds this name
def _project_block_raw(g: np.ndarray, m: MediumProfile, tol: float) -> np.ndarray:
    """Remove the sqrt(eps)*grad(psi) component from one raw edge field.

    ``sqrt(eps) g`` splits into a divergence-free part and
    ``eps grad(psi)`` (:func:`helmholtz_decompose`); the first part over
    ``sqrt(eps)`` is ``g - sqrt(eps) grad(psi)``.
    """
    sqrt_eps = np.sqrt(m.eps)
    x = VectorField(m.grid, EDGE, sqrt_eps * g)
    return helmholtz_decompose(x, m, tol).x1.values / sqrt_eps


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
    stored_mismatch: float       # worst gap to the bank's stored metadata

    @property
    def matches_stored(self) -> bool:
        return self.stored_mismatch <= STORED_MATCH_TOL


def _bank_invariants(op: QOperator, freqs: np.ndarray, g: np.ndarray, scale: float,
                     divergence: bool = False):
    """Gram defect, per-mode wave residuals and worst weighted divergence.

    Of the lattice-unit modes ``g * scale`` (a bank's ``g`` with
    ``scale = s^(3/2)``, converted one mode at a time) and ``freqs``.  With
    ``h = g / sqrt(eps)`` the residual
    ``||sqrt(eps) (Q g - omega^2 g)|| / ||h||`` equals
    ``||curl_t(w curl h) - eps omega^2 h|| / ||h||``, and
    ``div(sqrt(eps) g) = div(eps h)``.  The divergence costs an extra
    stencil pass per mode, so it is computed only when asked for and
    reported as 0 otherwise.
    """
    n = len(freqs)
    flat = g.reshape(n, -1)
    gram = flat @ flat.T * scale**2
    gram_defect = float(np.abs(gram - np.eye(n)).max())
    sqrt_eps = np.sqrt(op.medium.eps)
    residuals = np.empty(n)
    div_defect = 0.0
    for i, (gi, om) in enumerate(zip(g, freqs)):
        gi = gi * scale
        h_norm = np.linalg.norm(op.inv_sqrt_eps * gi)
        residuals[i] = np.linalg.norm(sqrt_eps * (op.apply_raw(gi) - om**2 * gi)) / h_norm
        if divergence:
            d = div_raw(sqrt_eps * gi)
            div_defect = max(div_defect, float(np.linalg.norm(d) / h_norm))
    return gram_defect, residuals, div_defect


def mode_residual_report(bank: ModeBank) -> ResidualReport:
    """Recompute the lattice-unit bank invariants and compare with metadata."""
    if len(bank) == 0:
        raise ValueError("empty mode bank")
    s = bank.grid.spacing
    gram_defect, residuals, div_defect = _bank_invariants(
        QOperator(bank.medium), bank.frequencies * s, bank.modes_g, s**1.5, divergence=True)
    # NaN metadata propagates through max() and so fails the match
    gaps = np.append(np.abs(residuals - bank.residuals) / (1 + residuals),
                     abs(gram_defect - bank.gram_defect))
    return ResidualReport(residuals, gram_defect, div_defect, float(gaps.max()))


def degenerate_clusters(freqs: np.ndarray) -> list[slice]:
    """The degenerate clusters of ascending lattice-unit ``freqs``, as slices.

    A cluster is a run whose consecutive gaps are at most
    ``DEGENERACY_RTOL * max(f_max, 1)``, so a chain of near-equal
    frequencies is one cluster however far its ends lie apart.
    """
    cuts = np.flatnonzero(np.diff(freqs) > DEGENERACY_RTOL * max(freqs.max(), 1.0)) + 1
    bounds = [0, *cuts.tolist(), len(freqs)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


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
    for cluster in degenerate_clusters(freqs):
        size = cluster.stop - cluster.start
        if size > 1:
            v = vecs[:, cluster]                  # (dof, m)
            coeff = np.zeros((size, size))
            picked = 0
            # rows of v are the coefficient vectors of the coordinate unit
            # fields, visited in lexicographic order; a chunk is
            # orthogonalized at once, its first row that keeps some norm is
            # picked, and the scan resumes after that row
            row = 0
            while picked < size and row < v.shape[0]:
                c = v[row:row + CANONICALIZE_CHUNK].copy()
                for _ in range(2):
                    c -= (c @ coeff[:picked].T) @ coeff[:picked]
                norms = np.linalg.norm(c, axis=1)
                hits = np.flatnonzero(norms > 1e-6)
                if hits.size == 0:
                    row += len(c)
                    continue
                k = hits[0]
                coeff[picked] = c[k] / norms[k]
                if (v[row + k] @ coeff[picked]) < 0:
                    coeff[picked] = -coeff[picked]
                picked += 1
                row += k + 1
            if picked < size:
                raise SolverError("degenerate cluster canonicalization failed")
            vecs[:, cluster] = v @ coeff.T
        else:
            vec = vecs[:, cluster.start]          # a view: its largest entry made positive
            if vec[np.argmax(np.abs(vec))] < 0:
                vec *= -1
    return vecs


def _orthonormalize(block: np.ndarray, against: list[np.ndarray], drop_abs: float = 0.0):
    """Gram-Schmidt against fixed bases, then two SVQB passes.

    One block Gram-Schmidt sweep removes the ``against`` components; a
    second sweep runs only on cancellation, when some column kept less
    than ``REORTH_KEEP`` of its norm.  Relative to a column that kept more,
    the sweep's rounding is at most sqrt(2) times what it is relative to
    the input, so one sweep leaves it orthogonal to working precision.

    SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput. 23, 2165 (2002))
    orthonormalizes with one Gram matrix ``block^T block`` and its small
    eigendecomposition: ``block V S^-1`` over the singular values S kept.
    Directions whose singular value falls below ``drop_abs`` (first pass
    only) or below ``ORTHO_DROP_RTOL`` of the largest are dropped; the
    second pass removes the rounding the first leaves behind.

    ``drop_abs`` discards content that fell below an absolute size;
    callers feeding unit-norm columns use it to reject directions that
    were numerically inside the span already (keeping them would recycle
    their round-off as search directions).  Columns are screened by their
    norms before any Gram matrix is formed: the Gram matrix squares the
    singular values, so a column of round-off mixed into a larger one
    would no longer stand out and would be rescaled instead of dropped.
    """
    if block.shape[1] == 0:
        return block
    bases = [basis for basis in against if basis.shape[1]]
    norms = np.linalg.norm(block, axis=0)
    for _ in range(2 if bases else 0):
        before = norms
        for basis in bases:
            block = block - basis @ (basis.T @ block)
        norms = np.linalg.norm(block, axis=0)
        if np.all(norms >= REORTH_KEEP * before):
            break
    block = block[:, norms > max(drop_abs, ORTHO_DROP_RTOL * norms.max())]
    for floor in (drop_abs, 0.0):
        if block.shape[1] == 0:
            break
        evals, evecs = np.linalg.eigh(block.T @ block)
        sv = np.sqrt(np.clip(evals, 0.0, None))
        keep = sv > max(floor, ORTHO_DROP_RTOL * sv.max())
        block = block @ (evecs[:, keep] / sv[keep])
    return block


def _cross(a: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """``a x v`` for a symbol's three components and (3, ..., batch) spectra."""
    out = np.empty_like(v)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], v[k], out=out[i])
        out[i] -= a[k] * v[j]
    return out


def _preconditioner(op: QOperator):
    """MPB's preconditioner for raw (3, nx, ny, nz, batch) faces, and ``|d|^2``.

    ``precondition(y)`` is an approximate inverse of ``B B^T = W C E^-1 C^T W``
    (``W = w^(1/2)``, ``C`` the curl, ``E = eps`` on edges) whose output lies
    in the range of B, ``W * {v : sum_a dplus_a v_a = 0, mean(v) = 0}``.  It
    is MPB's rule (Johnson & Joannopoulos, Opt. Express 8, 173 (2001)), which
    inverts the curls in Fourier space and multiplies by eps in real space,
    two FFT pairs::

        W C |d|^-2 E |d|^-2 C^T W^-1

    with ``d x`` the symbol of C and ``-conj(d) x`` that of ``C^T``, so
    ``C C^T = |d|^2 P``; W on the left, where an exact inverse would have
    ``W^-1``, keeps the output in the range.  A uniform eps is a constant E,
    for which the map is ``eps W P |d|^-2 W^-1``: the exact inverse of a
    homogeneous medium up to a scale, which the solver normalizes away.
    The map is not shifted: the rule is only approximate, and inverting
    ``A - shift`` through an approximate inverse magnifies its error for
    the modes near the shift.

    ``precondition(y, cutoff=c)`` also zeroes every wave vector whose
    ``|d|^2`` exceeds ``c`` in its first spectrum.  When eps and mu are both
    uniform the map does not mix wave vectors, so its output stays in the
    shells at or below ``c``: the start block of such a medium
    (:func:`_start_cutoff`).

    Also returns ``|d|^2``, the Fourier symbol of the vacuum curl-curl on
    the rfftn half grid (:func:`laplacian_symbol`).
    """
    grid = op.grid
    axes = (1, 2, 3)
    sym = laplacian_symbol(grid)
    inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)[..., None]
    sqrt_w = None if op.sqrt_w is None else op.sqrt_w[..., None]
    eps_cols = op.medium.eps[..., None]
    # C^T |d|^-2 and |d|^-2 C as symbols, one broadcast 1D part d_a per
    # component; inv_sym vanishes at k = 0, so the output has zero mean
    parts = [d_a[..., None] for d_a in difference_symbols(grid)]
    curl_t_sym = [-d_a.conj() * inv_sym for d_a in parts]
    curl_sym = [d_a * inv_sym for d_a in parts]

    def precondition(y, cutoff=None):
        v = y if sqrt_w is None else y / sqrt_w
        # each array is dropped as soon as the next one is formed
        vk = np.fft.rfftn(v, axes=axes)
        if cutoff is not None:
            vk[:, sym > cutoff] = 0.0
        vk = _cross(curl_t_sym, vk)
        u = np.fft.irfftn(vk, s=grid.dims, axes=axes)
        del vk
        u *= eps_cols
        vk = np.fft.rfftn(u, axes=axes)
        del u
        vk = _cross(curl_sym, vk)
        v = np.fft.irfftn(vk, s=grid.dims, axes=axes)
        return v if sqrt_w is None else sqrt_w * v

    return precondition, sym


def _start_cutoff(sym: np.ndarray, nz: int, block: int) -> float:
    """Smallest ``|d|^2`` whose shells and those below hold ``block`` range directions.

    Each nonzero wave vector carries two directions of the range of B, so
    the cutoff is the smallest value of ``sym`` (the rfftn half-grid
    symbol of :func:`_preconditioner`) at which the nonzero wave vectors
    with ``sym <= cutoff`` number at least ``ceil(block / 2)``.  They are
    counted on ``sym`` itself, so the count and the preconditioner's mask
    agree exactly: an interior rfft plane stands for two wave vectors, the
    self-conjugate planes ``kz = 0`` and ``kz = nz/2`` (nz even) for one.
    """
    weight = np.full(sym.shape[-1], 2)
    weight[0] = 1
    if nz % 2 == 0:
        weight[-1] = 1
    weight = np.broadcast_to(weight, sym.shape)
    nonzero = sym > 0
    values, counts = sym[nonzero], weight[nonzero]
    order = np.argsort(values, kind="stable")
    held = np.cumsum(counts[order])
    return float(values[order][np.searchsorted(held, -(-block // 2))])


def _projected_matrix(gram, widths):
    """Rayleigh-Ritz matrix from Gram blocks ``gram[i, j] = b_i^T (A b_j)``, i <= j.

    Returns it, lower blocks mirrored, with the row slice of each part.
    """
    edges = np.cumsum([0] + widths)
    spans = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    t = np.empty((edges[-1], edges[-1]))
    for (i, j), blk in gram.items():
        if i == j:
            blk = (blk + blk.T) / 2
        t[spans[i], spans[j]] = blk
        t[spans[j], spans[i]] = blk.T
    return t, spans


#: dof x block float64 arrays every :func:`solve_modes` run holds at once:
#: its first residual ``A x - x theta`` next to ``x``, ``A x`` and ``x theta``.
SOLVE_HELD_BLOCKS = 4


def lobpcg_block(grid: Grid, n_modes: int) -> int:
    """Columns of :func:`solve_modes`' blocks: ``n_modes`` plus guard columns.

    ``n_modes`` must lie between 1 and the ``2 ncells - 2`` nonzero-frequency
    modes of the transverse subspace.
    """
    n_nonzero = 2 * grid.ncells - 2
    if not 1 <= n_modes <= n_nonzero:
        raise FeasibilityError(
            f"{n_modes} modes requested: the count must lie between 1 and the "
            f"{n_nonzero} nonzero-frequency modes of a {grid.dims} grid"
        )
    return min(n_modes + max(6, n_modes // 5), n_nonzero)


def solve_modes(
    op: QOperator,
    n_modes: int,
    tol: float = 1e-8,
    seed: int = 0,
    maxiter: int = 1000,
    on_iteration=None,
) -> ModeBank:
    """Lowest nonzero-frequency eigenmodes via blocked Rayleigh-Ritz.

    LOBPCG-style iteration on face fields ``y`` with ``B B^T``, which has
    Q's nonzero spectrum and is positive definite on the range of B: the
    search subspace is spanned by the current Ritz block, preconditioned
    residuals and the previous update directions.  Modes map back as
    ``g = B^T y / omega``, plain-orthonormal with ``div(sqrt(eps) g) = 0``
    by construction.  Deterministic for a fixed seed.

    The residuals are preconditioned into the range by MPB's map in two FFT
    pairs (:func:`_preconditioner`), then orthonormalized once against
    ``[x, p]``.  They stay in the range exactly: ``x`` and ``p`` lie in it,
    and Gram-Schmidt and SVQB only form combinations of range vectors, which
    holds for the oblique projector of an inhomogeneous mu as well.
    Gram-Schmidt leaves a direction that lay numerically inside the current
    span as round-off that is not in the range; the column-norm pre-drop and
    the absolute SVQB floor of :func:`_orthonormalize` discard such
    directions instead of rescaling them, so Rayleigh-Ritz never sees the
    round-off's null-space part as a zero-frequency Ritz vector.

    Each iteration starts with the one Rayleigh-Ritz step, over the start
    block alone and then over ``[x, p, w]``.  It works on Gram blocks: the
    projected matrix ``t`` is assembled from ``b_i^T (A b_j)`` and the Ritz
    block is ``x c_x + p c_p + w c_w``, so the basis is never stacked
    (Duersch, Shao, Yang & Gu, SIAM J. Sci. Comput. 40, C655 (2018)).  The
    previous directions come from the same coefficients (Hetmaniuk &
    Lehoucq, J. Comput. Phys. 218, 324 (2006)): ``c`` with its ``x`` rows
    zeroed, made orthonormal to ``c``, gives ``c_p`` and a ``p`` orthonormal
    to the new ``x`` inside the range of B, and ``x^T A p = c^T t c_p``,
    ``p^T A p = c_p^T t c_p`` need no image of ``p``.  The operator is
    applied to ``x``, whose image the residual needs, and to ``w``.

    The start block is a seeded random draw passed through the same map,
    which puts it in the range.  When eps and mu are both uniform, the map
    also drops every wave vector above :func:`_start_cutoff` from its first
    spectrum; it mixes no wave vectors for such a medium, so the block lies
    in the fewest lowest shells of the vacuum symbol ``|d|^2`` that hold it.
    The modes of such a medium are plane waves, so those shells span its
    lowest ``block`` eigenpairs exactly and the solve takes two iterations
    instead of about seven (Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)).
    Any other medium starts from every shell: a symmetry of the medium (a
    period that tiles the box more than once, a mirror plane) splits the
    range into subspaces the iteration never mixes, and one that misses
    the lowest shells can still hold wanted modes, which a start confined
    to those shells would never find.  A block of all ``2 ncells - 2``
    range directions keeps every shell.

    ``tol`` bounds eigen-residual norms relative to max(Ritz value,
    a tenth of the operator scale); eigenvalue errors are quadratically
    smaller.
    """
    m = op.medium
    grid = m.grid
    dof = 3 * grid.ncells
    block = lobpcg_block(grid, n_modes)
    shape = (3,) + grid.dims
    precondition, sym = _preconditioner(op)

    def to_block(mat):
        return mat.reshape(shape + (mat.shape[1],))

    def apply_cols(mat):
        return op.b_raw(op.bt_raw(to_block(mat))).reshape(dof, -1)

    rng = np.random.default_rng(seed)
    homogeneous = np.ptp(m.eps) == 0 and (op.sqrt_w is None or np.ptp(op.sqrt_w) == 0)
    cutoff = _start_cutoff(sym, grid.dims[2], block) if homogeneous else None
    x = precondition(to_block(rng.standard_normal((dof, block))), cutoff).reshape(dof, -1)
    x = _orthonormalize(x, [])
    if x.shape[1] < block:
        raise SolverError("failed to build an independent starting block")

    # residuals are judged against the operator scale as well as the Ritz
    # value: rounding sets an absolute accuracy floor, so demanding
    # tol * theta for theta far below ||Q|| can never be met
    inv_mu = 1.0 if op.sqrt_w is None else op.sqrt_w**2
    op_scale = 0.1 * float(sym.max() * np.max(1.0 / m.eps) * np.max(inv_mu))
    parts = (x,)
    gram = {(0, 0): x.T @ apply_cols(x)}
    converged = False
    rnorm = np.full(n_modes, np.inf)
    for _iteration in range(maxiter):
        # the basis parts are orthonormal by construction, so a plain
        # Rayleigh-Ritz step is stable
        t, spans = _projected_matrix(gram, [b.shape[1] for b in parts])
        evals, evecs = np.linalg.eigh(t)
        c = evecs[:, :block]
        theta = evals[:block]

        # previous directions from the Ritz coefficients (see the docstring)
        cp = c.copy()
        cp[spans[0]] = 0
        cp = _orthonormalize(cp, [c])
        x = sum(b @ c[s] for b, s in zip(parts, spans))
        p = sum(b @ cp[s] for b, s in zip(parts, spans))
        # the old basis goes before the operator is applied, so that it does
        # not add to the solver's peak memory
        del parts

        ax = apply_cols(x)
        resid = ax - x * theta
        rnorm = np.linalg.norm(resid, axis=0)
        if on_iteration is not None:
            on_iteration(_iteration, theta, rnorm)
        anchor = tol * np.maximum(theta[:n_modes], op_scale)
        if np.all(rnorm[:n_modes] <= anchor):
            converged = True
            break
        tcp = t @ cp
        gram = {(0, 0): x.T @ ax, (0, 1): c.T @ tcp, (1, 1): cp.T @ tcp}
        del ax

        # fresh directions from the unconverged residuals, normalized after
        # the map so the drop tolerances are scale-free
        active = rnorm > tol * np.maximum(theta, op_scale)
        resid = resid[:, active]
        w = precondition(to_block(resid)).reshape(dof, -1)
        del resid
        w /= np.linalg.norm(w, axis=0)
        w = _orthonormalize(w, [x, p], drop_abs=1e-9)
        if w.shape[1] == 0:
            raise SolverError(
                "eigensolver stagnated: no independent search directions left "
                f"(worst residual {float(rnorm[:n_modes].max()):.3e})",
                residual=float(rnorm[:n_modes].max()),
            )
        aw = apply_cols(w)
        gram.update({(0, 2): x.T @ aw, (1, 2): p.T @ aw, (2, 2): w.T @ aw})
        parts = (x, p, w)
        del aw, w

    if not converged:
        raise SolverError(
            f"eigensolver did not converge in {maxiter} iterations "
            f"(worst residual {float(rnorm[:n_modes].max()):.3e})",
            residual=float(rnorm[:n_modes].max()),
            iterations=maxiter,
        )

    # orthonormal Ritz vectors y of B B^T give those of Q as B^T y / omega
    freqs = np.sqrt(theta[:n_modes])
    g = op.bt_raw(to_block(x[:, :n_modes])).reshape(dof, -1) / freqs
    g = _canonicalize_clusters(g, freqs)
    return _assemble_bank(op, freqs, g, complete=False, seed=seed)


def _assemble_bank(op, freqs, cols, complete, seed=None) -> ModeBank:
    m = op.medium
    n = cols.shape[1]
    s = m.grid.spacing
    # plain-orthonormal g scaled so that h = g/sqrt(eps) is eps-orthonormal
    # with the volume weight s^3 included; C order, and invariants taken from
    # it as mode_residual_report takes them, make a solved bank and one
    # loaded from disk agree bitwise
    g = np.multiply(cols.T, s**-1.5, order="C").reshape((n, 3) + m.grid.dims)
    freqs = np.asarray(freqs, dtype=np.float64)
    gram_defect, residuals, _ = _bank_invariants(op, freqs, g, s**1.5)
    return ModeBank(
        medium=m,
        frequencies=freqs / s,
        modes_g=g,
        residuals=residuals,
        gram_defect=gram_defect,
        complete=complete,
        seed=seed,
    )


def dense_q_matrix(op: QOperator) -> np.ndarray:
    """Dense operator matrix, columns from unit basis fields (small grids)."""
    dof = 3 * op.grid.ncells
    if dof > DENSE_DOF_LIMIT:
        raise FeasibilityError(f"dense assembly refused for {dof} degrees of freedom")
    shape = (3,) + op.grid.dims
    basis = np.eye(dof).reshape(shape + (dof,))
    mat = op.apply_raw(basis).reshape(dof, dof)
    return (mat + mat.T) / 2


def transverse_subspace_basis(m: MediumProfile) -> np.ndarray:
    """Orthonormal basis of ``div(sqrt(eps) g) = 0`` (small grids)."""
    grid = m.grid
    dof = 3 * grid.ncells
    if dof > DENSE_DOF_LIMIT:
        raise FeasibilityError(f"dense subspace basis refused for {dof} DOF")
    shape = (3,) + grid.dims
    ncells = grid.ncells
    unit_scalars = np.eye(ncells).reshape(grid.dims + (ncells,))
    gradients = grad_raw(unit_scalars)
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
    evals, evecs = np.linalg.eigh(qt)
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
