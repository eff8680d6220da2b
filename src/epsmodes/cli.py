"""Config-driven pipeline runner.

A run is described by one JSON file (``read_config`` below) listing tasks that
execute in order over a shared grid/medium: ``decompose``, ``modes``,
``verify``, ``ldos``, ``rate``, ``cavity-factor``.  Outputs are CSV for
spectra and JSON for scalar summaries; every report embeds the
tolerances, broadening and seed that produced it.  Identical config, seed
and ``--threads`` give byte-identical outputs on one BLAS build; another
thread count changes the order of BLAS sums and so the last bits.

Exit codes: 0 success, 2 configuration/schema error, 3 solver failure,
4 invariant-suite failure from the ``verify`` task.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path

from .grammar import OPTIONAL, REQUIRED, JsonError, array, enum, obj, value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

_POSITIVE = value("number", exclusive_minimum=0)
_POINT = array(value("number"), 3, 3)
_LEVEL_PAIR = array(value("integer", minimum=0), 2, 2)

# The config's grammar, each key with its default (see epsmodes.grammar); a
# default of None means "none": no bank file, the default broadening, no
# cavity, no SI fields.  The defaults that depend on other values are set
# by validate_config.
read_config = obj({
    "grid": (obj({
        "dims": (array(value("integer", minimum=1), 3, 3), REQUIRED),
        "spacing": (_POSITIVE, 1.0),
    }), REQUIRED),
    # a descriptor's grammar is epsmodes.medium's, which validate_config calls
    "medium": (value("object"), REQUIRED),
    "mu": (value("object"), OPTIONAL),
    "tasks": (array(enum("decompose", "modes", "verify", "ldos", "rate", "cavity-factor"), 1),
              REQUIRED),
    "solver": (obj({
        "poisson_tol": (_POSITIVE, 1e-10),
        "eig_tol": (_POSITIVE, 1e-8),
        "max_iter": (value("integer", minimum=1), 1000),
    }), {}),
    "modes": (obj({
        "count": (value("integer", minimum=1), 12),
        "bank_out": (value("string"), None),
        "bank_in": (value("string"), None),
    }), {}),
    "atoms": (array(obj({
        "position": (_POINT, REQUIRED),
        "levels": (array(value("number"), 2), REQUIRED),
        "dipoles": (array(obj({"levels": (_LEVEL_PAIR, REQUIRED),
                               "moment": (_POINT, REQUIRED)})), REQUIRED),
        "cavity_radius": (_POSITIVE, None),
    })), []),
    "ldos": (obj({
        "omega_min": (value("number", minimum=0), REQUIRED),
        "omega_max": (_POSITIVE, REQUIRED),
        "count": (value("integer", minimum=2), REQUIRED),
        "position": (_POINT, OPTIONAL),
        "orientation": (_POINT, [0.0, 0.0, 1.0]),
        "eta": (_POSITIVE, None),
    }), OPTIONAL),
    "rate": (obj({
        "atom": (value("integer", minimum=0), 0),
        "transition": (_LEVEL_PAIR, [1, 0]),
        "eta": (_POSITIVE, None),
        "local_field": (value("boolean"), False),
        # emission.local_field_grid spans n radius / 4 for n < 40, and
        # electrostatics.check_cavity_radius needs four radii: n >= 16
        "factor_grid": (value("integer", minimum=16), OPTIONAL),
    }), {}),
    "cavity_factor": (obj({
        "eps_out": (value("number"), REQUIRED),
        "radius": (_POSITIVE, REQUIRED),
        "grid": (array(value("integer", minimum=2), 3, 3), OPTIONAL),
    }), OPTIONAL),
    "seed": (value("integer", minimum=0), 0),
    "si": (obj({"length_unit_m": (_POSITIVE, None)}), {}),
})


_SPEED_OF_LIGHT = 299792458.0


def _write_json(path: Path, payload: dict):
    from .bankfile import write_atomic

    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _write_csv(path: Path, rows, params: dict):
    from .bankfile import write_atomic

    lines = [f"# {k}={params[k]}" for k in sorted(params)]
    lines.append("omega,value")
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


class _Runner:
    """Runs the tasks of ``config``, the resolved run ``validate_config`` returns."""

    def __init__(self, config: dict, out_dir: Path, verbosity: int):
        from .emission import AtomSpec
        from .errors import ConfigError
        from .lattice import Grid
        from .medium import build_profile, check_descriptor, descriptor_from_dict

        self.config = config
        self.out_dir = out_dir
        self.verbosity = verbosity
        self.seed = config["seed"]
        self.grid = Grid(tuple(config["grid"]["dims"]), config["grid"]["spacing"])
        desc = descriptor_from_dict(config["medium"])
        mu_desc = descriptor_from_dict(config["mu"]) if "mu" in config else None
        if mu_desc is not None:
            # mu's rules first, so that a fault in sampling is the medium's
            _rule("mu", check_descriptor, mu_desc, self.grid)
        self.medium = _rule("medium", build_profile, desc, self.grid, mu_desc)
        if "modes" in config["tasks"]:
            from .modes import SOLVE_HELD_BLOCKS, start_draw

            # the columns the solve draws, decided on the sampled eps and mu
            # as solve_modes decides them (validate_config checked the count)
            count = config["modes"]["count"]
            _, block = start_draw(self.medium, count)
            held = SOLVE_HELD_BLOCKS * 8 * 3 * self.grid.ncells * block
            _within_memory("modes.count", count, held, f"the mode solve's {SOLVE_HELD_BLOCKS} "
                           f"float64 blocks of {block} columns")
        self.atoms = [AtomSpec.from_dipoles(**entry) for entry in config["atoms"]]
        if "rate" in config["tasks"]:
            # no mode lies above sqrt(12 max(1/mu) / min(eps)) / s, the bound of |Q|
            i, transition = config["rate"]["atom"], config["rate"]["transition"]
            omega0 = self.atoms[i].transition_frequency(*transition)
            m, s = self.medium, self.grid.spacing
            top = math.sqrt(12 * (1.0 if m.mu is None else (1 / m.mu).max()) / m.eps.min()) / s
            if not omega0 <= top:
                raise ConfigError(f"rate.transition={transition} of atoms[{i}]: frequency "
                                  f"{omega0!r} lies above {top!r}, the grid's highest")
        solver = config["solver"]
        self.poisson_tol = solver["poisson_tol"]
        self.eig_tol = solver["eig_tol"]
        self.max_iter = solver["max_iter"]
        length = config["si"]["length_unit_m"]
        # natural-unit frequencies and rates times this give rad/s and 1/s
        self.si_scale = _SPEED_OF_LIGHT / length if length else None
        self.bank = None

    def log(self, msg: str, level: int = 1):
        if self.verbosity >= level:
            print(msg)

    def _params(self, **extra) -> dict:
        base = {
            "seed": self.seed,
            "poisson_tol": self.poisson_tol,
            "eig_tol": self.eig_tol,
        }
        base.update(extra)
        return base

    def _require_bank(self):
        if self.bank is None:
            bank_in = self.config["modes"]["bank_in"]
            if not bank_in:
                raise ValueError(
                    "task needs a mode bank: run the 'modes' task first or set modes.bank_in"
                )
            from .bankfile import load_bank

            # relative paths name files in the output directory, as bank_out does
            try:
                bank = load_bank(self.out_dir / bank_in)
            except OSError as exc:
                raise ValueError(
                    f"modes.bank_in {bank_in}: cannot read the bank: {exc.strerror or exc}"
                ) from exc
            # a bank solved for another problem must not reach the tasks
            for name, got, want in (
                ("grid.dims", bank.grid.dims, self.grid.dims),
                ("grid.spacing", bank.grid.spacing, self.grid.spacing),
                ("medium", bank.medium.descriptor, self.medium.descriptor),
                ("mu", bank.medium.mu_descriptor, self.medium.mu_descriptor),
            ):
                if got != want:
                    raise ValueError(
                        f"modes.bank_in {bank_in}: the bank's {name} {got!r} differs "
                        f"from the config's {want!r}"
                    )
            self.bank = bank
        return self.bank

    def task_modes(self):
        from .modes import QOperator, solve_modes

        cfg = self.config["modes"]
        count = cfg["count"]
        op = QOperator(self.medium)

        def stream(iteration, theta, rnorm):
            worst = float(rnorm[:count].max())
            self.log(f"modes: iteration {iteration}, worst residual {worst:.3e}", level=2)

        self.bank = solve_modes(
            op, count, tol=self.eig_tol, seed=self.seed, maxiter=self.max_iter,
            on_iteration=stream if self.verbosity >= 2 else None,
        )
        payload = {
            "task": "modes",
            "count": len(self.bank),
            "frequencies": [float(w) for w in self.bank.frequencies],
            "gram_defect": self.bank.gram_defect,
            "max_residual": float(self.bank.residuals.max()),
            "params": self._params(),
        }
        if self.si_scale:
            payload["frequencies_si_rad_per_s"] = [
                float(w) * self.si_scale for w in self.bank.frequencies
            ]
        bank_out = cfg["bank_out"]
        if bank_out:
            from .bankfile import save_bank

            path = self.out_dir / bank_out
            try:
                save_bank(self.bank, path)
            except OSError as exc:
                raise ValueError(
                    f"modes.bank_out {path}: cannot write the bank: {exc.strerror or exc}"
                ) from exc
            payload["bank_file"] = bank_out
        _write_json(self.out_dir / "modes.json", payload)
        self.log(f"modes: {len(self.bank)} modes, gram defect {self.bank.gram_defect:.2e}")

    def _decompose(self, x):
        """``helmholtz_decompose(x)`` with its reconstruction error and the
        lattice-unit ``|div(x1)|``, each relative to ``|x|``."""
        import numpy as np

        # looked up at each call, so that a rebound name takes effect
        from .electrostatics import helmholtz_decompose
        from .lattice import div_raw

        result = helmholtz_decompose(x, self.medium, tol=self.poisson_tol)
        xnorm = np.linalg.norm(x.values)
        # x - (x1 + x2) through one buffer
        rest = result.x1.values + result.x2.values
        recon = np.linalg.norm(np.subtract(x.values, rest, out=rest)) / xnorm
        div_rel = np.linalg.norm(div_raw(result.x1.values)) / xnorm
        return result, float(recon), float(div_rel)

    def task_decompose(self):
        import numpy as np

        from .lattice import EDGE, VectorField

        rng = np.random.default_rng(self.seed)
        x = VectorField(self.grid, EDGE, rng.standard_normal((3,) + self.grid.dims))
        result, recon, div_rel = self._decompose(x)
        payload = {
            "task": "decompose",
            "reconstruction_error": recon,
            "x1_divergence": div_rel,
            "poisson_residual": result.residual_norm,
            "poisson_iterations": result.iterations,
            "params": self._params(),
        }
        _write_json(self.out_dir / "decompose.json", payload)
        self.log(f"decompose: reconstruction {recon:.2e}, div(x1) {div_rel:.2e}")

    def task_verify(self) -> bool:
        import numpy as np

        from .lattice import EDGE, VectorField, adjoint_defect, curl_raw, curl_t_raw
        from .lattice import div_raw, grad_raw
        from .modes import STORED_MATCH_TOL, mode_residual_report

        if self.bank is None and self.config["modes"]["bank_in"]:
            self._require_bank()

        rng = np.random.default_rng(self.seed)
        checks = {}

        phi = rng.standard_normal(self.grid.dims)
        v = rng.standard_normal((3,) + self.grid.dims)
        w = rng.standard_normal((3,) + self.grid.dims)

        # each defect relative to the terms that cancel in it: for a chain
        # identity, the inner field's largest value; in lattice units, as the
        # kernels work
        g_phi, ct_w = grad_raw(phi), curl_t_raw(w)
        for name, out, inner in (("curl_grad_zero", curl_raw(g_phi), g_phi),
                                 ("div_curl_t_zero", div_raw(ct_w), ct_w)):
            scale = float(np.abs(inner).max()) or 1.0
            checks[name] = (float(np.abs(out).max()) / scale, 1e-14)
        checks["grad_div_adjoint"] = (adjoint_defect(g_phi, v, -phi, div_raw(v)), 1e-14)
        checks["curl_adjoint"] = (adjoint_defect(curl_raw(v), w, v, ct_w), 1e-14)

        _, recon, div_rel = self._decompose(VectorField(self.grid, EDGE, v))
        checks["decomposition_reconstruction"] = (recon, 1e-12)
        checks["decomposition_transversality"] = (div_rel, 1e-8)

        if self.bank is not None:
            report = mode_residual_report(self.bank)
            checks["bank_gram_defect"] = (report.gram_defect, 1e-8)
            checks["bank_max_residual"] = (float(report.residuals.max()), 1e-6)
            checks["bank_weighted_divergence"] = (report.max_weighted_divergence, 1e-8)
            # the Gram defect and residuals the bank (or its sidecar) claims
            checks["bank_stored_metadata"] = (report.stored_mismatch, STORED_MATCH_TOL)

        results = {
            name: {"value": value, "tolerance": tol, "pass": bool(value <= tol)}
            for name, (value, tol) in checks.items()
        }
        ok = all(r["pass"] for r in results.values())
        payload = {
            "task": "verify",
            "pass": ok,
            "checks": results,
            "params": self._params(),
        }
        _write_json(self.out_dir / "verify.json", payload)
        for name, r in sorted(results.items()):
            self.log(
                f"verify: {'PASS' if r['pass'] else 'FAIL'} {name} "
                f"({r['value']:.3e} vs {r['tolerance']:.1e})"
            )
        return ok

    def task_ldos(self):
        import numpy as np

        from .emission import default_broadening, ldos_spectrum

        bank = self._require_bank()
        cfg = self.config["ldos"]
        omegas = np.linspace(cfg["omega_min"], cfg["omega_max"], cfg["count"])
        position, orientation, eta = cfg["position"], cfg["orientation"], cfg["eta"]
        if eta is None:
            # the median of the ascending grid, without np.median's import of numpy.ma
            n = len(omegas)
            eta = default_broadening(bank, float(0.5 * (omegas[(n - 1) // 2] + omegas[n // 2])))
        om, values = ldos_spectrum(bank, position, orientation, omegas, eta)
        params = self._params(
            eta=eta,
            position=tuple(position),
            orientation=tuple(orientation),
        )
        _write_csv(self.out_dir / "ldos.csv", zip(om, values), params)
        self.log(f"ldos: {len(om)} samples, eta={eta:.3e}")

    def task_rate(self):
        from .emission import emission_rate, local_field_corrected_rate, local_field_grid

        bank = self._require_bank()
        cfg = self.config["rate"]
        atom = self.atoms[cfg["atom"]]
        transition = tuple(cfg["transition"])
        eta = cfg["eta"]
        if cfg["local_field"]:
            factor_grid = local_field_grid(atom.cavity_radius, cfg["factor_grid"])
            report = local_field_corrected_rate(
                bank, atom, transition, eta,
                factor_grid=factor_grid, factor_tol=self.poisson_tol,
            )
        else:
            report = emission_rate(bank, atom, transition, eta)
        payload = {
            "task": "rate",
            "rate": report.rate,
            "rate_free_space": report.rate_free_space,
            "ratio": report.ratio,
            "local_field_factor": report.local_field_factor,
            "params": self._params(
                eta=report.eta,
                transition=list(transition),
                atom=cfg["atom"],
            ),
        }
        if self.si_scale:
            payload["rate_si_per_s"] = report.rate * self.si_scale
        _write_json(self.out_dir / "rate.json", payload)
        self.log(f"rate: ratio {report.ratio:.4f} (eta={report.eta:.3e})")

    def task_cavity_factor(self):
        from .electrostatics import cavity_field_factor
        from .lattice import Grid

        cfg = self.config["cavity_factor"]
        dims = cfg["grid"]
        grid = Grid(tuple(dims), self.grid.spacing)
        factor = cavity_field_factor(
            cfg["eps_out"], grid, cfg["radius"], tol=self.poisson_tol
        )
        quasi_static = 3 * cfg["eps_out"] / (2 * cfg["eps_out"] + 1)
        payload = {
            "task": "cavity-factor",
            "factor": factor,
            "quasi_static_reference": quasi_static,
            "eps_out": cfg["eps_out"],
            "radius": cfg["radius"],
            "grid": list(dims),
            "params": self._params(),
        }
        _write_json(self.out_dir / "cavity_factor.json", payload)
        self.log(f"cavity-factor: {factor:.5f} (quasi-static {quasi_static:.5f})")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _within_memory(name: str, size, nbytes: int, what: str):
    """ConfigError led by ``name=size`` if ``what``, ``nbytes`` bytes, exceeds physical memory."""
    from .errors import ConfigError

    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        # in decimal, so that a size past the float range (10**400 cells) prints too
        from decimal import Decimal

        raise ConfigError(
            f"{name}={size}: {what} takes {Decimal(nbytes) / 2**30:.3g} GiB, "
            f"more than the {Decimal(memory) / 2**30:.3g} GiB of physical memory"
        )


def _rule(where: str, rule, *args):
    """``rule(*args)``; its fault becomes a ConfigError led by ``where``, the keys it reads."""
    from .errors import ConfigError, EpsmodesError

    try:
        return rule(*args)
    except (ValueError, EpsmodesError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def validate_config(config: dict) -> dict:
    """The run ``config`` describes, or ConfigError on a fault.

    The run is a deep copy of ``config`` with every optional key's default
    filled in; ``config`` itself is left as it is.  ``read_config`` checks
    the grammar first, then each resolved value is checked by the library
    rule of the task using it.
    """
    from .errors import ConfigError

    try:
        resolved = read_config(copy.deepcopy(config), "$")
    except JsonError as exc:
        raise ConfigError(f"config schema violation at {exc.path}: {exc.message}") from exc
    atoms = resolved["atoms"]
    dims, spacing = resolved["grid"]["dims"], resolved["grid"]["spacing"]
    rate, tasks = resolved["rate"], resolved["tasks"]

    # the modules the runner imports anyway
    import numpy as np

    from . import emission
    from .electrostatics import check_cavity_radius
    from .lattice import Grid
    from .medium import check_permittivity, descriptor_from_dict
    from .modes import lobpcg_block

    grid = _rule(f"grid.dims={dims}, grid.spacing={spacing!r}", Grid, tuple(dims), spacing)
    # the medium's grammar here, its values' rules where _Runner samples it
    medium = _rule("medium", descriptor_from_dict, resolved["medium"])
    if "mu" in resolved:
        _rule("mu", descriptor_from_dict, resolved["mu"])
    # every grid a task samples fields on, checked before any is allocated
    grids = [("grid.dims", dims)]
    cavity = resolved.get("cavity_factor")
    if cavity is not None:
        _rule(f"cavity_factor.eps_out={cavity['eps_out']!r}", check_permittivity, "eps_out",
              cavity["eps_out"])
        cavity_dims = cavity.setdefault("grid", list(dims))
        grids.append(("cavity_factor.grid", cavity_dims))
        cavity_grid = _rule(f"cavity_factor.grid={cavity_dims}", Grid, tuple(cavity_dims), spacing)
        _rule(f"cavity_factor.radius={cavity['radius']!r} on cavity_factor.grid={cavity_dims}",
              check_cavity_radius, cavity_grid, cavity["radius"])
    if rate["local_field"]:
        n = rate.setdefault("factor_grid", emission.LOCAL_FIELD_CELLS)
        grids.append(("rate.factor_grid", [n, n, n]))
    for name, g in grids:
        _within_memory(name, g, 3 * 8 * math.prod(g), "one three-component float64 field")
    count = resolved["modes"]["count"]
    if "modes" in tasks:
        # the memory of its blocks is checked where _Runner samples the medium
        _rule(f"modes.count={count}", lobpcg_block, grid, count)
    if "ldos" in resolved:
        # emission.ldos_spectrum's (count, modes) Lorentzian matrix
        n = resolved["ldos"]["count"]
        _within_memory("ldos.count", n, 8 * n * count,
                       f"the ({n}, {count}) float64 Lorentzian matrix of the spectrum")

    for task in tasks:
        key = {"ldos": "ldos", "cavity-factor": "cavity_factor"}.get(task)
        if key and key not in resolved:
            raise ConfigError(f"task {task!r} needs a {key!r} config section")
    for i, entry in enumerate(atoms):
        for j, dipole in enumerate(entry["dipoles"]):
            _rule(f"atoms[{i}].dipoles[{j}].levels={dipole['levels']}", emission.level_pair,
                  entry["levels"], dipole["levels"])

    ldos = resolved.get("ldos")
    if ldos is not None:
        lo, hi, n = ldos["omega_min"], ldos["omega_max"], ldos["count"]
        orientation = ldos["orientation"]
        # the grid task_ldos hands to emission.ldos_spectrum
        _rule(f"ldos.omega_min={lo!r}, ldos.omega_max={hi!r}, ldos.count={n}, "
              f"ldos.orientation={orientation}", emission.spectrum_probe,
              np.linspace(lo, hi, n), orientation)
        # the probe defaults to the first atom, in floats as AtomSpec holds
        # its position, or else to the center of the box
        if "position" in ldos:
            _rule(f"ldos.position={ldos['position']}", emission.check_position,
                  ldos["position"], grid)
        elif atoms:
            if "ldos" in tasks:
                _rule(f"atoms[0].position={atoms[0]['position']}", emission.check_position,
                      atoms[0]["position"], grid)
            ldos["position"] = [float(x) for x in atoms[0]["position"]]
        else:
            ldos["position"] = [length / 2 for length in grid.lengths]
    if "rate" in tasks:
        i = rate["atom"]
        if i >= len(atoms):
            raise ConfigError(f"rate.atom={i} is out of range for the {len(atoms)} atoms")
        entry, atom = atoms[i], emission.AtomSpec.from_dipoles(**atoms[i])
        _rule(f"atoms[{i}].position={entry['position']}", emission.check_position,
              atom.position, grid)
        transition = rate["transition"]
        _rule(f"rate.transition={transition} of atoms[{i}].levels={entry['levels']}",
              atom.transition_frequency, *transition)
        if rate["local_field"]:
            _rule(f"rate.local_field for atoms[{i}] in medium.kind={resolved['medium']['kind']!r}",
                  emission.local_field_host_eps, atom, medium)
    # a task that reads modes needs the 'modes' task before it or a bank to
    # load, and a verify before 'modes' would check no bank
    if not resolved["modes"]["bank_in"]:
        for task in tasks[:tasks.index("modes")] if "modes" in tasks else tasks:
            if task in ("ldos", "rate"):
                raise ConfigError(f"task {task!r} needs a mode bank: run the 'modes' task "
                                  "before it or set modes.bank_in")
            if task == "verify" and "modes" in tasks:
                raise ConfigError("task 'verify' comes before task 'modes' and would check "
                                  "no mode bank: list 'modes' first or set modes.bank_in")
    return resolved


def run(config_path, out_dir, threads: int = 0, verbosity: int = 1) -> int:
    """Execute a configuration; returns the process exit code."""
    if threads:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(threads)

    from .errors import ConfigError, EpsmodesError, SolverError

    config_path = Path(config_path)
    out_dir = Path(out_dir)
    try:
        config = json.loads(config_path.read_text())
    except (OSError, ValueError) as exc:
        # ValueError: a JSON or UTF-8 fault, or an integer literal past
        # Python's limit of 4300 digits
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        resolved = validate_config(config)
        runner = _Runner(resolved, out_dir, verbosity)
        # made only once the medium is built, so a refused run leaves none;
        # it is the one step here that touches the file system
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ValueError, EpsmodesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: --out-dir {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG

    for task in resolved["tasks"]:
        try:
            result = getattr(runner, "task_" + task.replace("-", "_"))()
        except SolverError as exc:
            print(f"error in task {task!r}: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        except (ValueError, EpsmodesError) as exc:
            print(f"error in task {task!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if task == "verify" and result is False:
            print("verify: invariant suite failed", file=sys.stderr)
            return EXIT_INVARIANT
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epsmodes",
        description="Mode solving, field decomposition and emission rates "
        "in periodic inhomogeneous dielectrics.",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out-dir", default=".", help="directory for reports")
    parser.add_argument(
        "--threads", type=int, default=0,
        help="cap internal parallelism (0 = library default)",
    )
    parser.add_argument(
        "--verbosity", type=int, default=1, choices=(0, 1, 2),
        help="console chatter level; 2 also streams the mode solver's residuals",
    )
    args = parser.parse_args(argv)
    return run(args.config, args.out_dir, args.threads, args.verbosity)


if __name__ == "__main__":
    sys.exit(main())
