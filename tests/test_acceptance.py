"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and runtimes.  The emission and cavity-factor criteria run
minutes-long mode solves; the full suite budget is roughly fifteen minutes
on a desktop-class machine.
"""

import json
import time

import numpy as np
import pytest

from epsmodes.lattice import (
    EDGE,
    FACE,
    Grid,
    ScalarField,
    VectorField,
    curl,
    curl_t,
    div,
    div_raw,
    grad,
    inner,
)
from epsmodes.medium import Homogeneous, Layer, SlabStack, build_profile
from epsmodes.electrostatics import cavity_field_factor, helmholtz_decompose
from epsmodes.modes import QOperator, dense_transverse_spectrum, solve_modes
from epsmodes.quantization import ModeCoefficients, hamiltonian_energy, projector_matrix
from epsmodes.emission import emission_rate, ldos_spectrum, local_field_corrected_rate, two_level_atom

from conftest import smooth_medium


def report(number, label, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status} ({elapsed:6.1f}s) {label}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_operator_identities():
    start = time.time()
    rng = np.random.default_rng(11)
    g = Grid((8, 8, 8), 0.7)
    worst_chain = 0.0
    worst_adjoint = 0.0
    for _ in range(5):
        phi = ScalarField(g, rng.standard_normal(g.dims))
        v = VectorField(g, EDGE, rng.standard_normal((3,) + g.dims))
        w = VectorField(g, FACE, rng.standard_normal((3,) + g.dims))
        worst_chain = max(
            worst_chain,
            np.abs(curl(grad(phi)).values).max(),
            np.abs(div(curl_t(w)).values).max(),
        )
        lhs = inner(grad(phi), v)
        rhs = -inner(phi, div(v))
        worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.time() - start
    ok = worst_chain <= 1e-13 and worst_adjoint <= 1e-12 and elapsed < 1.0
    report(
        1, "operator identities", ok,
        f"chain {worst_chain:.2e} (<=1e-13), adjoint {worst_adjoint:.2e} (<=1e-12), "
        f"runtime<1s", elapsed,
    )


def test_criterion_02_decomposition_suite():
    start = time.time()
    rng = np.random.default_rng(22)
    g = Grid((8, 8, 8), 1.0)
    m = smooth_medium(g, seed=13, lo=1.0, hi=4.0)
    worst_recon = worst_div = worst_unique = 0.0
    for _ in range(100):
        x = VectorField(g, EDGE, rng.standard_normal((3,) + g.dims))
        res = helmholtz_decompose(x, m, tol=1e-11)
        xnorm = np.linalg.norm(x.values)
        worst_recon = max(
            worst_recon,
            np.linalg.norm(x.values - res.x1.values - res.x2.values) / xnorm,
        )
        worst_div = max(worst_div, np.linalg.norm(div(res.x1).values) / xnorm)
        again = helmholtz_decompose(x, m, tol=1e-11)
        worst_unique = max(
            worst_unique, np.abs(res.x1.values - again.x1.values).max()
        )
    elapsed = time.time() - start
    ok = (
        worst_recon <= 1e-12
        and worst_div <= 1e-9
        and worst_unique <= 2e-10
        and elapsed < 10.0
    )
    report(
        2, "decomposition suite", ok,
        f"recon {worst_recon:.2e} (<=1e-12), div(x1) {worst_div:.2e} (<=1e-9), "
        f"uniqueness {worst_unique:.2e} (<=2e-10), runtime<10s", elapsed,
    )


def test_criterion_03_projector_idempotency():
    start = time.time()
    rng = np.random.default_rng(33)
    g = Grid((4, 4, 4), 1.0)
    m = smooth_medium(g, seed=5, lo=1.0, hi=4.0)
    bank = dense_transverse_spectrum(QOperator(m))
    k = projector_matrix(bank)
    idem = np.abs(k @ k - k).max()
    worst_div = 0.0
    for _ in range(5):
        x = rng.standard_normal(3 * g.ncells)
        px = (k @ x).reshape((3,) + g.dims)
        d = div_raw(m.eps * px)
        worst_div = max(worst_div, np.abs(d).max() / max(np.abs(px).max(), 1e-30))
    elapsed = time.time() - start
    ok = idem <= 1e-8 and worst_div <= 1e-8 and elapsed < 30.0
    report(
        3, "projector idempotency/transversality", ok,
        f"|P^2-P| {idem:.2e} (<=1e-8), div(eps Px) {worst_div:.2e} (<=1e-8), "
        f"runtime<30s", elapsed,
    )


def test_criterion_04_vacuum_reduction():
    start = time.time()
    g = Grid((4, 4, 4), 1.0)
    bank = dense_transverse_spectrum(QOperator(build_profile(Homogeneous(1.0), g)))
    k_full = projector_matrix(bank)
    n = g.dims[0]
    freqs = np.fft.fftfreq(n)
    worst = 0.0
    for kidx in np.ndindex((n, n, n)):
        kvec = 2 * np.pi * np.array([freqs[i] for i in kidx])
        pw = (
            np.exp(1j * kvec[0] * np.arange(n))[:, None, None]
            * np.exp(1j * kvec[1] * np.arange(n))[None, :, None]
            * np.exp(1j * kvec[2] * np.arange(n))[None, None, :]
        )
        sym = np.zeros((3, 3), complex)
        for b in range(3):
            vb = np.zeros((3,) + g.dims, complex)
            vb[b] = pw
            out = (k_full @ vb.ravel()).reshape((3,) + g.dims)
            for a in range(3):
                sym[a, b] = np.vdot(pw, out[a]) / np.vdot(pw, pw)
        mvec = (np.exp(1j * kvec) - 1.0) / g.spacing
        if np.linalg.norm(mvec) < 1e-12:
            ref = np.eye(3)
        else:
            mh = mvec / np.linalg.norm(mvec)
            ref = np.eye(3) - np.outer(mh, mh.conj())
        worst = max(worst, np.abs(sym - ref).max())
    elapsed = time.time() - start
    ok = worst <= 1e-8
    report(
        4, "vacuum transverse-projector symbol", ok,
        f"max |symbol - (I - k k)| {worst:.2e} (<=1e-8)", elapsed,
    )


def test_criterion_05_mode_solver_oracle():
    start = time.time()
    g = Grid((6, 6, 6), 1.0)
    m = smooth_medium(g, seed=7, lo=1.0, hi=4.0)
    op = QOperator(m)
    dense = dense_transverse_spectrum(op)
    n_req = 25
    bank = solve_modes(op, n_req, tol=1e-9, seed=3)
    ref = dense.frequencies[3 : 3 + n_req]
    err = np.abs(bank.frequencies - ref).max() / ref.max()
    elapsed = time.time() - start
    ok = err <= 1e-8 and elapsed < 120.0
    report(
        5, "mode-solver oracle equivalence", ok,
        f"max rel err {err:.2e} (<=1e-8) over {n_req} modes, runtime<2min", elapsed,
    )


def test_criterion_06_scaling_law():
    start = time.time()
    g = Grid((16, 16, 16), 1.0)
    b1 = solve_modes(QOperator(build_profile(Homogeneous(1.0), g)), 24, tol=1e-9, seed=0)
    b4 = solve_modes(QOperator(build_profile(Homogeneous(4.0), g)), 24, tol=1e-9, seed=0)
    dev = np.abs(2 * b4.frequencies - b1.frequencies).max() / b1.frequencies.max()
    # the vacuum box's lowest nonzero band: twelve modes at (2/s) sin(pi s/L)
    band = 2 * np.sin(np.pi / 16)
    band_err = np.abs(b1.frequencies[:12] - band).max()
    twelve_fold = b1.frequencies[12] > band * (1 + 1e-6)
    elapsed = time.time() - start
    ok = dev <= 1e-10 and band_err <= 1e-9 and twelve_fold and elapsed < 120.0
    report(
        6, "homogeneous scaling law", ok,
        f"max rel deviation {dev:.2e} (<=1e-10) mode-by-mode; lowest band "
        f"12 modes at {band:.6f} (err {band_err:.1e}), runtime<2min", elapsed,
    )


def test_criterion_07_energy_equivalence():
    start = time.time()
    rng = np.random.default_rng(77)
    g = Grid((12, 12, 12), 1.0)
    m = smooth_medium(g, seed=9, lo=1.0, hi=3.0)
    bank = solve_modes(QOperator(m), 20, tol=1e-9, seed=1)
    worst = 0.0
    for _ in range(100):
        coeffs = ModeCoefficients(rng.standard_normal(20), rng.standard_normal(20))
        e = hamiltonian_energy(bank, coeffs)
        worst = max(worst, abs(e.integral_form - e.spectral_form) / e.spectral_form)
    elapsed = time.time() - start
    ok = worst <= 1e-7
    report(
        7, "energy equivalence", ok,
        f"max |integral-spectral|/spectral {worst:.2e} (<=1e-7) over 100 states",
        elapsed,
    )


def test_criterion_08_cavity_factor():
    start = time.time()
    g = Grid((64, 64, 64), 1.0)
    worst = 0.0
    values = {}
    for eps_out in (2.25, 4.0, 9.0):
        got = cavity_field_factor(eps_out, g, 8.0, tol=1e-10)
        ref = 3 * eps_out / (2 * eps_out + 1)
        values[eps_out] = (got, ref)
        worst = max(worst, abs(got - ref) / ref)
    elapsed = time.time() - start
    ok = worst <= 0.03 and elapsed < 300.0
    detail = ", ".join(
        f"eps={e}: {got:.4f} vs {ref:.4f}" for e, (got, ref) in values.items()
    )
    report(
        8, "electrostatic cavity factor", ok,
        f"worst rel err {100 * worst:.2f}% (<=3%); {detail}; runtime<5min", elapsed,
    )


def test_criterion_09_emission_enhancement():
    start = time.time()
    g = Grid((16, 16, 16), 1.0)
    pos = (8.37, 7.91, 8.22)
    mu = (0.4, 0.5, 0.3)
    n_modes = 280
    results = {}
    banks = {}
    for eps, omega0 in ((1.0, 0.9), (2.25, 0.6), (4.0, 0.45)):
        bank = solve_modes(
            QOperator(build_profile(Homogeneous(eps), g)), n_modes, tol=1e-6, seed=0
        )
        banks[eps] = bank
        atom = two_level_atom(pos, omega0, mu)
        rep = emission_rate(bank, atom)  # default broadening
        results[eps] = rep
    bulk_ok = all(
        abs(results[eps].ratio - np.sqrt(eps)) <= 0.15 * np.sqrt(eps)
        for eps in (1.0, 2.25, 4.0)
    )

    composed_ok = True
    composed_detail = []
    for eps, omega0 in ((2.25, 0.6), (4.0, 0.45)):
        atom = two_level_atom(pos, omega0, mu, cavity_radius=8.0)
        rep = local_field_corrected_rate(
            banks[eps], atom, factor_grid=Grid((64, 64, 64), 1.0)
        )
        factor_ref = 3 * eps / (2 * eps + 1)
        target = factor_ref**2 * np.sqrt(eps)
        composed_ok &= abs(rep.ratio - target) <= 0.08 * target
        composed_detail.append(f"eps={eps}: {rep.ratio:.3f} vs {target:.3f}")
    elapsed = time.time() - start
    ok = bulk_ok and composed_ok and elapsed < 600.0
    bulk_detail = ", ".join(
        f"eps={e}: {results[e].ratio:.3f} vs {np.sqrt(e):.3f}" for e in (1.0, 2.25, 4.0)
    )
    report(
        9, "bulk and empty-cavity emission", ok,
        f"bulk (<=15%): {bulk_detail}; composed (<=8%): {'; '.join(composed_detail)}; "
        f"runtime<10min", elapsed,
    )


def test_criterion_10_band_gap():
    start = time.time()
    from scipy.optimize import brentq

    g = Grid((64, 1, 1), 1.0)
    eps_cells = [1.0] * 6 + [13.0] * 2
    m = build_profile(SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0)), axis=0), g)
    bank = solve_modes(QOperator(m), 16, tol=3e-7, seed=0)

    def trace_half(omega):
        t = np.eye(2)
        for e in eps_cells:
            t = np.array([[2 - omega**2 * e, -1.0], [1.0, 0.0]]) @ t
        return np.trace(t) / 2

    # oracle gap edges: |trace| crosses 1 at the top of band 1 and bottom of 2
    omegas = np.linspace(1e-4, 0.6, 30001)
    vals = np.array([abs(trace_half(w)) - 1 for w in omegas])
    crossings = []
    for i in range(len(omegas) - 1):
        if vals[i] * vals[i + 1] <= 0:
            crossings.append(
                brentq(lambda w: abs(trace_half(w)) - 1, omegas[i], omegas[i + 1])
            )
            if len(crossings) == 2:
                break
    gap_lo, gap_hi = crossings

    in_band = bank.frequencies[bank.frequencies <= gap_lo * 1.0001]
    above = bank.frequencies[bank.frequencies >= gap_hi * 0.9999]
    edge_err = abs(in_band.max() - gap_lo) / gap_lo
    reentry_err = abs(above.min() - gap_hi) / gap_hi
    none_inside = not np.any(
        (bank.frequencies > gap_lo * 1.0001) & (bank.frequencies < gap_hi * 0.9999)
    )

    eta = 5e-4
    om, ldos = ldos_spectrum(
        bank, (15.0, 0.0, 0.0), (0, 1, 0),
        np.array([gap_lo, 0.5 * (gap_lo + gap_hi)]), eta,
    )
    suppression = ldos[1] / ldos[0]
    elapsed = time.time() - start
    ok = (
        edge_err <= 0.01
        and reentry_err <= 0.01
        and none_inside
        and suppression <= 1e-3
        and elapsed < 60.0
    )
    report(
        10, "one-dimensional band gap", ok,
        f"gap edges err {edge_err:.2e}/{reentry_err:.2e} (<=1e-2), "
        f"in-gap LDOS ratio {suppression:.2e} (<=1e-3), runtime<1min", elapsed,
    )


def test_criterion_11_cli_determinism(tmp_path):
    start = time.time()
    config = {
        "grid": {"dims": [8, 8, 8], "spacing": 1.0},
        "medium": {"kind": "sphere", "center": [4, 4, 4], "radius": 2.0,
                   "eps_in": 1.0, "eps_out": 4.0},
        "tasks": ["decompose", "modes", "verify", "ldos"],
        "modes": {"count": 12, "bank_out": "bank.qmb"},
        "ldos": {"omega_min": 0.3, "omega_max": 0.6, "count": 40, "eta": 0.03},
        "seed": 5,
    }
    from epsmodes.cli import EXIT_OK, run

    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        assert run(config_path, out, verbosity=0) == EXIT_OK
        outputs.append(out)
    identical = True
    files = sorted(p.name for p in outputs[0].iterdir())
    for fname in files:
        if (outputs[0] / fname).read_bytes() != (outputs[1] / fname).read_bytes():
            identical = False
    elapsed = time.time() - start
    report(
        11, "CLI determinism", identical,
        f"{len(files)} output files byte-identical across reruns", elapsed,
    )
