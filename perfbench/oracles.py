"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the documented conventions alone (the
staggered-grid layout, the staircase sampling rule, the QMB1 bank layout)
and imports nothing from ``epsmodes``:

* cell centres at ``i * s``; the edge sample of component ``a`` is shifted
  by ``s/2`` along ``a``; ``grad`` is a forward and ``div`` a backward
  difference, ``curl`` maps edges to faces and ``curl_t`` is its adjoint;
* permittivity is the descriptor evaluated at each edge sample point;
* point samples of edge fields are trilinear on each component's own
  sub-lattice.

SciPy is imported inside the functions that use it: ``child.py`` imports
this module inside a timed CLI process.
"""

from __future__ import annotations

import struct

import numpy as np

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


# --- stencils ---------------------------------------------------------------

def _dplus(a, axis, s):
    return (np.roll(a, -1, axis=axis) - a) / s


def _dminus(a, axis, s):
    return (a - np.roll(a, 1, axis=axis)) / s


def div(v, s):
    """Backward-difference divergence of an edge field (3, nx, ny, nz)."""
    return _dminus(v[0], 0, s) + _dminus(v[1], 1, s) + _dminus(v[2], 2, s)


def curl(v, s):
    return np.stack([_dplus(v[c], b, s) - _dplus(v[b], c, s) for _, b, c in _CYCLIC])


def curl_t(w, s):
    return np.stack([_dminus(w[c], b, s) - _dminus(w[b], c, s) for _, b, c in _CYCLIC])


# --- media ------------------------------------------------------------------

def _min_image(delta, lengths):
    return delta - lengths * np.round(delta / lengths)


def eps_at(desc: dict, points: np.ndarray, lengths) -> np.ndarray:
    """Permittivity of a config medium descriptor at points (..., 3)."""
    kind = desc["kind"]
    if kind == "homogeneous":
        return np.full(points.shape[:-1], float(desc["eps"]))
    if kind == "slab-stack":
        period = sum(l["thickness"] for l in desc["layers"])
        x = np.mod(points[..., desc.get("axis", 0)], period)
        out = np.full(points.shape[:-1], float(desc["layers"][-1]["eps"]))
        lo = 0.0
        for layer in desc["layers"]:
            hi = lo + layer["thickness"]
            out[(x >= lo) & (x < hi)] = layer["eps"]
            lo = hi
        return out
    if kind == "sphere":
        delta = _min_image(points - np.asarray(desc["center"], float), np.asarray(lengths))
        inside = np.linalg.norm(delta, axis=-1) <= desc["radius"]
        return np.where(inside, float(desc["eps_in"]), float(desc["eps_out"]))
    raise ValueError(f"no reference sampling for medium kind {kind!r}")


def edge_eps(desc: dict, dims, s: float) -> np.ndarray:
    """Staircase permittivity at the three edge sub-lattices, (3, nx, ny, nz)."""
    lengths = tuple(n * s for n in dims)
    out = []
    for a in range(3):
        axes = [(np.arange(n) + (0.5 if b == a else 0.0)) * s for b, n in enumerate(dims)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        out.append(eps_at(desc, pts, lengths))
    return np.stack(out)


# --- point sampling -----------------------------------------------------------

def sample_edges(fields: np.ndarray, position, s: float) -> np.ndarray:
    """Trilinear samples of edge fields (n, 3, nx, ny, nz) at a point, shape (n, 3)."""
    dims = fields.shape[2:]
    out = np.zeros((fields.shape[0], 3))
    for a in range(3):
        idx, wts = [], []
        for b in range(3):
            u = position[b] / s - (0.5 if b == a else 0.0)
            i0 = int(np.floor(u))
            idx.append((i0 % dims[b], (i0 + 1) % dims[b]))
            wts.append((1.0 - (u - i0), u - i0))
        for di in (0, 1):
            for dj in (0, 1):
                for dk in (0, 1):
                    w = wts[0][di] * wts[1][dj] * wts[2][dk]
                    out[:, a] += w * fields[:, a, idx[0][di], idx[1][dj], idx[2][dk]]
    return out


def sample_eps(eps_edges: np.ndarray, position, s: float) -> float:
    """Scalar permittivity at a point: mean of the three component samples."""
    per_comp = sample_edges(eps_edges[None], position, s)[0]
    return float(per_comp.mean())


def lorentzian(x, eta):
    return (eta / np.pi) / (x * x + eta * eta)


def golden_rule_rate(freqs, h_at, moment, omega0, eta) -> float:
    """2 pi sum_l (w_l / 2) (mu . h_l(R))^2 L_eta(w0 - w_l)."""
    proj = h_at @ np.asarray(moment, float)
    return float(2 * np.pi * np.sum(0.5 * freqs * proj**2 * lorentzian(omega0 - freqs, eta)))


def free_space_rate(omega0, moment) -> float:
    mu = np.asarray(moment, float)
    return float(omega0**3 * (mu @ mu) / (3 * np.pi))


def ldos(freqs, h_at, eps_r, orientation, omegas, eta) -> np.ndarray:
    u = np.asarray(orientation, float)
    u = u / np.linalg.norm(u)
    weights = (h_at @ u) ** 2 * eps_r
    return lorentzian(np.asarray(omegas)[:, None] - freqs[None, :], eta) @ weights


def distinct_levels(freqs, rtol=1e-8):
    om = np.sort(freqs[freqs > 0])
    out = [om[0]]
    for w in om[1:]:
        if w - out[-1] > rtol * om[-1]:
            out.append(w)
    return np.asarray(out)


def default_broadening(freqs, omega0, levels=6) -> float:
    """The documented default: three local level spacings, clamped at band edges."""
    lv = distinct_levels(freqs)
    nearest = np.sort(lv[np.argsort(np.abs(lv - omega0))[: min(levels, len(lv))]])
    eta = 3.0 * float(np.mean(np.diff(nearest)))
    margin = min(omega0 - lv[0], lv[-1] - omega0)
    return min(eta, margin / 4.0) if margin > 0 else eta


# --- homogeneous medium: analytic lattice plane waves ---------------------------

def lattice_frequencies(dims, s, eps) -> tuple[np.ndarray, np.ndarray]:
    """All wave vectors of the periodic lattice and their transverse frequency.

    ``omega^2 = (4/s^2) sum_a sin^2(k_a s/2) / eps``; every nonzero k
    carries two transverse polarizations.
    """
    ms = np.stack(
        np.meshgrid(*[np.fft.fftfreq(n) * n for n in dims], indexing="ij"), axis=-1
    ).reshape(-1, 3)
    k = 2 * np.pi * ms / (np.asarray(dims) * s)
    omega = np.sqrt(4.0 / s**2 * np.sum(np.sin(k * s / 2) ** 2, axis=1) / eps)
    return k, omega


def plane_wave_bank(dims, s, eps, n_modes):
    """Frequencies and eps-orthonormal h fields of the lowest ``n_modes``.

    The cut must close a degenerate shell.  Each +-k pair gives four real
    modes (cos and sin standing waves, two polarizations orthogonal to
    ``sin(k s/2)``), normalized numerically under the eps-weighted inner
    product.
    """
    dims = np.asarray(dims)
    k, omega = lattice_frequencies(dims, s, eps)
    full = np.sort(np.repeat(omega[omega > 0], 2))
    if len(full) <= n_modes or full[n_modes] - full[n_modes - 1] <= 1e-9 * full[n_modes]:
        raise ValueError(f"{n_modes} modes do not close a degenerate shell")
    cutoff = full[n_modes - 1] * (1 + 1e-12)
    m = np.round(k * dims * s / (2 * np.pi)).astype(int)
    pos = [
        np.stack(np.meshgrid(*[(np.arange(n) + (0.5 if b == a else 0.0)) * s
                               for b, n in enumerate(dims)], indexing="ij"), axis=-1)
        for a in range(3)
    ]
    freqs, fields = [], []
    for i in np.argsort(omega, kind="stable"):
        if omega[i] == 0 or tuple(m[i]) < tuple(-m[i]):
            continue          # zero mode, or the other member of a +-k pair
        if omega[i] > cutoff:
            break
        if np.any(2 * np.abs(m[i]) == dims):
            raise ValueError("self-conjugate wave vectors are not supported")
        kap = np.sin(k[i] * s / 2)
        e1 = np.cross(kap, np.eye(3)[int(np.argmin(np.abs(kap)))])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(kap / np.linalg.norm(kap), e1)
        phases = [pos[a] @ k[i] for a in range(3)]
        for pol in (e1, e2):
            for trig in (np.cos, np.sin):
                h = np.stack([pol[a] * trig(phases[a]) for a in range(3)])
                h /= np.sqrt(eps * np.sum(h * h) * s**3)
                fields.append(h)
                freqs.append(omega[i])
    if len(freqs) != n_modes:
        raise ValueError(f"built {len(freqs)} plane-wave modes, expected {n_modes}")
    return np.asarray(freqs), np.stack(fields)


# --- one-dimensional stack: transfer matrix -----------------------------------

def half_trace(omega, eps_cells):
    """Half trace of the one-period transfer matrix of the discrete 1-d wave equation."""
    omega = np.asarray(omega, float)
    a, b, c, d = np.ones_like(omega), np.zeros_like(omega), np.zeros_like(omega), np.ones_like(omega)
    for e in eps_cells:
        m00 = 2 - omega**2 * e
        a, b, c, d = m00 * a - c, m00 * b - d, a, b
    return (a + d) / 2


def gap_edges(eps_cells, omega_max=0.6, samples=30001):
    """The first band gap: where |half trace| crosses 1 upward, then downward."""
    from scipy.optimize import brentq

    omegas = np.linspace(1e-4, omega_max, samples)
    vals = np.abs(half_trace(omegas, eps_cells)) - 1
    crossings = []
    for i in np.nonzero(vals[:-1] * vals[1:] <= 0)[0]:
        crossings.append(brentq(
            lambda w: abs(float(half_trace(w, eps_cells))) - 1, omegas[i], omegas[i + 1]
        ))
        if len(crossings) == 2:
            return tuple(crossings)
    raise ValueError("no band gap below omega_max")


def bloch_defect(omega, eps_cells, n_periods) -> float:
    """Distance of the half trace from the nearest allowed Bloch phase cos(2 pi m / n)."""
    allowed = np.cos(2 * np.pi * np.arange(n_periods) / n_periods)
    return float(np.min(np.abs(half_trace(omega, eps_cells) - allowed)))


# --- small grids: dense operator spectrum -------------------------------------

def _forward_difference(dims, axis, s):
    """Sparse periodic forward difference along one axis of a C-order flattened grid."""
    import scipy.sparse

    n = dims[axis]
    d1 = (np.roll(np.eye(n), 1, axis=1) - np.eye(n)) / s
    mats = [scipy.sparse.identity(m, format="csr") for m in dims]
    mats[axis] = scipy.sparse.csr_matrix(d1)
    return scipy.sparse.kron(scipy.sparse.kron(mats[0], mats[1]), mats[2], format="csr")


def dense_frequencies(eps_edges: np.ndarray, s: float, n_modes: int) -> np.ndarray:
    """Lowest nonzero frequencies of ``S curl_t curl S`` by dense diagonalization."""
    import scipy.sparse

    dims = eps_edges.shape[1:]
    dp = [_forward_difference(dims, a, s) for a in range(3)]
    zero = scipy.sparse.csr_matrix((int(np.prod(dims)),) * 2)
    rows = []
    for a, b, c in _CYCLIC:
        row = [zero, zero, zero]
        row[c] = dp[b]
        row[b] = -dp[c]
        rows.append(row)
    curl_m = scipy.sparse.bmat(rows, format="csr")
    inv_sqrt = scipy.sparse.diags(1.0 / np.sqrt(eps_edges.ravel()))
    cs = (curl_m @ inv_sqrt).toarray()
    q = cs.T @ cs
    evals = np.linalg.eigvalsh((q + q.T) / 2)
    nonzero = evals[evals > 1e-10 * evals.max()]
    return np.sqrt(nonzero[:n_modes])


# --- QMB1 bank files --------------------------------------------------------------

_HEADER = struct.Struct("<4sI3IdIB")


def read_bank(raw: bytes):
    """Parse a QMB1 bank: (dims, spacing, variant, frequencies, g fields)."""
    magic, version, nx, ny, nz, spacing, n, variant = _HEADER.unpack_from(raw)
    if magic != b"QMB1" or version != 1:
        raise ValueError(f"not a QMB1 v1 bank: {magic!r} v{version}")
    dims = (nx, ny, nz)
    ncells = nx * ny * nz
    per_mode = 8 + 24 * ncells
    if len(raw) != _HEADER.size + n * per_mode:
        raise ValueError(f"bank body of {len(raw) - _HEADER.size} bytes for {n} modes")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n, 1 + 3 * ncells)
    freqs = body[:, 0].copy()
    g = body[:, 1:].reshape(n, 3, nz, ny, nx).transpose(0, 1, 4, 3, 2)
    return dims, spacing, variant, freqs, np.ascontiguousarray(g)


def bank_invariants(g, freqs, eps_edges, s):
    """Gram defect, worst wave residual and worst div(eps h) of a g-field bank."""
    h = g / np.sqrt(eps_edges)[None]
    n = len(freqs)
    flat = h.reshape(n, -1)
    gram = flat @ (eps_edges[None] * h).reshape(n, -1).T * s**3
    gram_defect = float(np.abs(gram - np.eye(n)).max())
    residual = max(
        float(np.linalg.norm(curl_t(curl(hi, s), s) - eps_edges * om**2 * hi) / np.linalg.norm(hi))
        for hi, om in zip(h, freqs)
    )
    divergence = max(
        float(np.linalg.norm(div(eps_edges * hi, s)) / np.linalg.norm(hi)) for hi in h
    )
    return h, gram_defect, residual, divergence
