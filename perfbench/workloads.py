"""The four benchmark workloads: CLI configurations made from a seed, and checks.

A workload lists the CLI processes of one round (run in order) and checks
their outputs against ``oracles``.  ``--seed`` varies the inputs whose
change leaves the amount of work alone: atom position and dipole, LDOS
probe and orientation, the decomposed random field.  Solver start seeds
stay fixed, so the LOBPCG iteration counts of a workload repeat across
seeds.  Every round attempts the same checks, whatever the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles


@dataclass
class Process:
    name: str
    config: dict
    check_decompose: bool = False


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Round:
    """Outputs of one round: each process's out-dir, record and exit code."""

    index: int
    directory: Path
    exit_codes: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)
    complete: bool = False

    def out(self, process: str) -> Path:
        return self.directory / process


def _within(name, got, want, rtol):
    err = abs(got - want) / abs(want)
    return Check(name, bool(err <= rtol), f"{got:.10g} vs {want:.10g} (rel err {err:.2e}, tol {rtol:g})")


def _at_most(name, value, tol):
    return Check(name, bool(value <= tol), f"{value:.3e} (tol {tol:g})")


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_ldos(path: Path):
    lines = path.read_text().splitlines()
    params = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1 + len(params):]])
    return params, rows[:, 0], rows[:, 1]


class Workload:
    name = ""
    why = ""
    min_rounds = 1
    n_processes = 1
    n_checks = 0            # checks one round attempts, cross-round checks included
    # checks that fail every time because of a program fault named in CHANGES.md
    known_faults: dict[str, str] = {}

    def processes(self, round_dir: Path) -> list[Process]:
        raise NotImplementedError

    def checks(self, rnd: Round) -> list[Check]:
        """Checks on one round whose processes all exited 0."""
        raise NotImplementedError

    def cross_checks(self, rnd: Round, other: Round) -> list[Check]:
        """Checks comparing a round with another round of the same run."""
        return []



def _random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class EmissionBulk(Workload):
    """12^3 homogeneous eps=4 host, 112 modes (five closed shells), local-field rate and LDOS."""

    name = "emission-bulk"
    why = "criterion-9 shape: 12^3 eps=4, 112 modes; large LOBPCG block, block Poisson projection, dense algebra, bank write"
    dims, eps, n_modes, omega0, cavity_radius = (12, 12, 12), 4.0, 112, 0.45, 3.0
    n_checks = 6

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.position = [float(x) for x in rng.uniform(0.0, 12.0, 3)]
        self.moment = [float(x) for x in 0.7 * _random_direction(rng)]
        self.orientation = [float(x) for x in _random_direction(rng)]
        self._reference = None

    def processes(self, round_dir):
        return [Process("main", {
            "grid": {"dims": list(self.dims), "spacing": 1.0},
            "medium": {"kind": "homogeneous", "eps": self.eps},
            "tasks": ["modes", "rate", "ldos"],
            "modes": {"count": self.n_modes, "bank_out": "bank.qmb"},
            "solver": {"eig_tol": 1e-6},
            "atoms": [{
                "position": self.position,
                "levels": [0.0, self.omega0],
                "dipoles": [{"levels": [0, 1], "moment": self.moment}],
                "cavity_radius": self.cavity_radius,
            }],
            "rate": {"transition": [1, 0], "local_field": True, "factor_grid": 48},
            "ldos": {"omega_min": 0.2, "omega_max": 0.5, "count": 200,
                     "orientation": self.orientation},
            "seed": 0,
        })]

    def checks(self, rnd):
        if self._reference is None:
            freqs, h = oracles.plane_wave_bank(self.dims, 1.0, self.eps, self.n_modes)
            self._reference = freqs, oracles.sample_edges(h, self.position, 1.0)
        freqs, h_at = self._reference
        out = rnd.out("main")
        modes = _read_json(out / "modes.json")
        got = np.asarray(modes["frequencies"])
        freq_err = float(np.max(np.abs(got - freqs) / freqs)) if len(got) == len(freqs) else np.inf
        rate = _read_json(out / "rate.json")
        eta = rate["params"]["eta"]
        factor = rate["local_field_factor"]
        bulk = oracles.golden_rule_rate(freqs, h_at, self.moment, self.omega0, eta)
        gamma0 = oracles.free_space_rate(self.omega0, self.moment)
        factor_ref = 3 * self.eps / (2 * self.eps + 1)
        params, omegas, ldos = _read_ldos(out / "ldos.csv")
        ldos_ref = oracles.ldos(freqs, h_at, self.eps, self.orientation, omegas, float(params["eta"]))
        ldos_err = float(np.max(np.abs(ldos - ldos_ref)) / np.max(ldos_ref))
        eta_ref = oracles.default_broadening(freqs, self.omega0)
        return [
            _at_most("frequencies_vs_lattice_dispersion", freq_err, 1e-8),
            _within("broadening_vs_documented_rule", eta, eta_ref, 1e-6),
            _within("bulk_rate_vs_plane_wave_sum", rate["rate"] / factor**2, bulk, 1e-5),
            _within("rate_ratio_vs_free_space", rate["ratio"], rate["rate"] / gamma0, 1e-12),
            _within("local_field_factor_vs_quasi_static", factor, factor_ref, 0.03),
            _at_most("ldos_vs_plane_wave_sum", ldos_err, 1e-5),
        ]


class BandGap1d(Workload):
    """64x1x1 stack of 6 cells eps=1 and 2 cells eps=13, 16 modes, LDOS at the gap edge and mid-gap."""

    name = "bandgap-1d"
    why = "criterion-10 shape: 64x1x1 slab stack, 16 modes; tiny arrays, ~640 LOBPCG iterations, per-call overhead"
    eps_cells = [1.0] * 6 + [13.0] * 2
    n_periods = 8
    n_checks = 4

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # the probe moves by whole periods: the LDOS is the same at every copy
        self.x = float(15.0 + 8 * int(rng.integers(0, 6)))
        angle = float(rng.uniform(0.0, 2 * np.pi))
        self.orientation = [0.0, float(np.cos(angle)), float(np.sin(angle))]
        self.gap = oracles.gap_edges(self.eps_cells)

    def processes(self, round_dir):
        gap_lo, gap_hi = self.gap
        return [Process("main", {
            "grid": {"dims": [64, 1, 1], "spacing": 1.0},
            "medium": {"kind": "slab-stack", "axis": 0,
                       "layers": [{"thickness": 6.0, "eps": 1.0}, {"thickness": 2.0, "eps": 13.0}]},
            "tasks": ["modes", "ldos"],
            "modes": {"count": 16},
            "solver": {"eig_tol": 3e-7},
            "ldos": {"omega_min": gap_lo, "omega_max": 0.5 * (gap_lo + gap_hi), "count": 2,
                     "position": [self.x, 0.0, 0.0], "orientation": self.orientation,
                     "eta": 5e-4},
            "seed": 0,
        })]

    def checks(self, rnd):
        gap_lo, gap_hi = self.gap
        out = rnd.out("main")
        freqs = np.asarray(_read_json(out / "modes.json")["frequencies"])
        below = freqs[freqs <= gap_lo * 1.0001]
        above = freqs[freqs >= gap_hi * 0.9999]
        inside = int(np.sum((freqs > gap_lo * 1.0001) & (freqs < gap_hi * 0.9999)))
        edge_err = max(abs(below.max() - gap_lo) / gap_lo if len(below) else np.inf,
                       abs(above.min() - gap_hi) / gap_hi if len(above) else np.inf)
        bloch = max(oracles.bloch_defect(f, self.eps_cells, self.n_periods) for f in freqs)
        _, _, ldos = _read_ldos(out / "ldos.csv")
        return [
            _at_most("gap_edges_vs_transfer_matrix", edge_err, 0.01),
            Check("no_mode_inside_gap", inside == 0, f"{inside} modes inside ({gap_lo:.6f}, {gap_hi:.6f})"),
            _at_most("frequencies_on_bloch_phases", bloch, 1e-6),
            _at_most("in_gap_ldos_ratio", float(ldos[1] / ldos[0]), 1e-3),
        ]


class Electrostatics64(Workload):
    """64^3 sphere medium (eps 1 in, 9 out): decomposition and the cavity factor, no mode solve."""

    name = "electrostatics-64"
    why = "criterion-8 shape: 64^3 single-column Poisson CG, decomposition and cavity factor; no mode solve"
    eps_out, radius = 9.0, 8.0
    n_checks = 3

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.seed = int(seed)
        self.center = [float(x) for x in 32.0 + rng.uniform(-4.0, 4.0, 3)]

    def processes(self, round_dir):
        return [Process("main", {
            "grid": {"dims": [64, 64, 64], "spacing": 1.0},
            "medium": {"kind": "sphere", "center": self.center, "radius": self.radius,
                       "eps_in": 1.0, "eps_out": self.eps_out},
            "tasks": ["decompose", "cavity-factor"],
            "cavity_factor": {"eps_out": self.eps_out, "radius": self.radius},
            "seed": self.seed,
        }, check_decompose=True)]

    def checks(self, rnd):
        found = rnd.records["main"]["checks"]
        factor = _read_json(rnd.out("main") / "cavity_factor.json")["factor"]
        return [
            _at_most("decomposition_reconstruction", found.get("decompose_reconstruction", np.inf), 1e-12),
            _at_most("decomposition_divergence_x1", found.get("decompose_divergence", np.inf), 1e-8),
            _within("cavity_factor_vs_quasi_static", factor,
                    3 * self.eps_out / (2 * self.eps_out + 1), 0.03),
        ]


class PipelineReuse(Workload):
    """8^3 sphere, seed 5: a full pipeline writing a bank, then verify/ldos/rate from that bank."""

    name = "pipeline-reuse"
    why = "criterion-11 shape: 8^3 sphere; full pipeline plus a bank_in rerun; bank I/O, verify, observables, per-run fixed cost"
    min_rounds = 2          # each round is compared with another round of the run
    n_processes = 2
    n_checks = 11
    known_faults = {
        "bank_in_verify.json_identical":
            "bank_gram_defect differs in the last digits between a solved and a "
            "reloaded bank (array layout changes the summation order)",
    }
    n_modes, omega0 = 12, 0.395
    medium = {"kind": "sphere", "center": [4.0, 4.0, 4.0], "radius": 2.0,
              "eps_in": 1.0, "eps_out": 4.0}
    reports = ("verify.json", "ldos.csv", "rate.json")

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.position = [float(x) for x in rng.uniform(0.0, 8.0, 3)]
        self.moment = [float(x) for x in 0.5 * _random_direction(rng)]
        self.orientation = [float(x) for x in _random_direction(rng)]
        self.eps_edges = oracles.edge_eps(self.medium, (8, 8, 8), 1.0)
        self._dense = None

    def _config(self, tasks, modes):
        return {
            "grid": {"dims": [8, 8, 8], "spacing": 1.0},
            "medium": self.medium,
            "tasks": tasks,
            "modes": modes,
            "atoms": [{"position": self.position, "levels": [0.0, self.omega0],
                       "dipoles": [{"levels": [0, 1], "moment": self.moment}]}],
            "ldos": {"omega_min": 0.3, "omega_max": 0.6, "count": 40, "eta": 0.03,
                     "orientation": self.orientation},
            "rate": {"transition": [1, 0]},
            "seed": 5,
        }

    def processes(self, round_dir):
        bank = (round_dir / "write" / "bank.qmb").resolve()
        return [
            Process("write", self._config(["decompose", "modes", "verify", "ldos", "rate"],
                                          {"count": self.n_modes, "bank_out": "bank.qmb"})),
            Process("reuse", self._config(["verify", "ldos", "rate"], {"bank_in": str(bank)})),
        ]

    def checks(self, rnd):
        if self._dense is None:
            self._dense = oracles.dense_frequencies(self.eps_edges, 1.0, self.n_modes)
        write, reuse = rnd.out("write"), rnd.out("reuse")
        reported = np.asarray(_read_json(write / "modes.json")["frequencies"])
        _, s, _, freqs, g = oracles.read_bank((write / "bank.qmb").read_bytes())
        h, gram, residual, divergence = oracles.bank_invariants(g, freqs, self.eps_edges, s)
        h_at = oracles.sample_edges(h, self.position, s)
        rate = _read_json(write / "rate.json")
        rate_ref = oracles.golden_rule_rate(freqs, h_at, self.moment, self.omega0,
                                            rate["params"]["eta"])
        params, omegas, ldos = _read_ldos(write / "ldos.csv")
        eps_r = oracles.sample_eps(self.eps_edges, self.position, s)
        ldos_ref = oracles.ldos(freqs, h_at, eps_r, self.orientation, omegas, float(params["eta"]))
        dense_err = float(np.max(np.abs(reported - self._dense) / self._dense))
        out = [
            _at_most("frequencies_vs_dense_oracle", dense_err, 1e-7),
            Check("bank_frequencies_match_report", bool(np.array_equal(freqs, reported)),
                  f"{len(freqs)} bank frequencies vs {len(reported)} reported"),
            _at_most("bank_gram_defect", gram, 1e-8),
            _at_most("bank_wave_residual", residual, 1e-6),
            _at_most("bank_weighted_divergence", divergence, 1e-8),
            _within("rate_vs_golden_rule_on_bank", rate["rate"], rate_ref, 1e-9),
            _at_most("ldos_vs_bank_modes",
                     float(np.max(np.abs(ldos - ldos_ref)) / np.max(ldos_ref)), 1e-9),
        ]
        for report in self.reports:
            same = (write / report).read_bytes() == (reuse / report).read_bytes()
            out.append(Check(f"bank_in_{report}_identical", same,
                             "identical" if same else "differs from the writing run's"))
        return out

    def cross_checks(self, rnd, other):
        differ = [
            f"{proc}/{p.name}"
            for proc in ("write", "reuse")
            for p in sorted(rnd.out(proc).iterdir())
            if p.read_bytes() != (other.out(proc) / p.name).read_bytes()
        ]
        return [Check("reports_identical_across_rounds", not differ,
                      f"round {rnd.index} vs {other.index}: " + (", ".join(differ) or "identical"))]


WORKLOADS = {w.name: w for w in (EmissionBulk, BandGap1d, Electrostatics64, PipelineReuse)}
