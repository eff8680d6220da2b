"""Config-driven pipeline runner.

A run is described by one JSON file (schema below) listing tasks that
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["grid", "medium", "tasks"],
    "additionalProperties": False,
    "properties": {
        "grid": {
            "type": "object",
            "required": ["dims"],
            "additionalProperties": False,
            "properties": {
                "dims": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 3,
                    "maxItems": 3,
                },
                "spacing": {"$ref": "#/$defs/positive"},
            },
        },
        "medium": {"$ref": "#/$defs/descriptor"},
        "mu": {"$ref": "#/$defs/descriptor"},
        "tasks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "enum": ["decompose", "modes", "verify", "ldos", "rate", "cavity-factor"]
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "poisson_tol": {"$ref": "#/$defs/positive"},
                "eig_tol": {"$ref": "#/$defs/positive"},
                "max_iter": {"type": "integer", "minimum": 1},
            },
        },
        "modes": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 1},
                "bank_out": {"type": "string"},
                "bank_in": {"type": "string"},
            },
        },
        "atoms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["position", "levels", "dipoles"],
                "additionalProperties": False,
                "properties": {
                    "position": {"$ref": "#/$defs/point"},
                    "levels": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                    },
                    "dipoles": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["levels", "moment"],
                            "additionalProperties": False,
                            "properties": {
                                "levels": {
                                    "type": "array",
                                    "items": {"type": "integer", "minimum": 0},
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                                "moment": {"$ref": "#/$defs/point"},
                            },
                        },
                    },
                    "cavity_radius": {"$ref": "#/$defs/positive"},
                },
            },
        },
        "ldos": {
            "type": "object",
            "required": ["omega_min", "omega_max", "count"],
            "additionalProperties": False,
            "properties": {
                "omega_min": {"type": "number", "minimum": 0},
                "omega_max": {"$ref": "#/$defs/positive"},
                "count": {"type": "integer", "minimum": 2},
                "position": {"$ref": "#/$defs/point"},
                "orientation": {"$ref": "#/$defs/point"},
                "eta": {"$ref": "#/$defs/positive"},
            },
        },
        "rate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "atom": {"type": "integer", "minimum": 0},
                "transition": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "eta": {"$ref": "#/$defs/positive"},
                "local_field": {"type": "boolean"},
                # emission.local_field_grid spans n radius / 4 for n < 40, and
                # electrostatics.check_cavity_radius needs four radii: n >= 16
                "factor_grid": {"type": "integer", "minimum": 16},
            },
        },
        "cavity_factor": {
            "type": "object",
            "required": ["eps_out", "radius"],
            "additionalProperties": False,
            "properties": {
                "eps_out": {"$ref": "#/$defs/permittivity"},
                "radius": {"$ref": "#/$defs/positive"},
                "grid": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "si": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"length_unit_m": {"$ref": "#/$defs/positive"}},
        },
    },
    "$defs": {
        "positive": {"type": "number", "exclusiveMinimum": 0},
        # a relative permittivity or permeability: from 1e8 on, a correct bank's
        # weighted divergence fails verify's 1e-8, and far above the frequencies err
        "permittivity": {"type": "number", "exclusiveMinimum": 0, "maximum": 1e6},
        "point": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
        # the kind selects one schema below; each names its required keys
        # and lists "kind" itself, so that additionalProperties admits it
        "descriptor": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["homogeneous", "slab-stack", "sphere", "empty-cavity"]}
            },
            "allOf": [
                {
                    "if": {"properties": {"kind": {"const": kind}}},
                    "then": {"$ref": f"#/$defs/{kind}"},
                }
                for kind in ("homogeneous", "slab-stack", "sphere", "empty-cavity")
            ],
        },
        "homogeneous": {
            "required": ["eps"],
            "additionalProperties": False,
            "properties": {"kind": {}, "eps": {"$ref": "#/$defs/permittivity"}},
        },
        "slab-stack": {
            "required": ["layers"],
            "additionalProperties": False,
            "properties": {
                "kind": {},
                "axis": {"type": "integer", "minimum": 0, "maximum": 2},
                "layers": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["thickness", "eps"],
                        "additionalProperties": False,
                        "properties": {
                            "thickness": {"$ref": "#/$defs/positive"},
                            "eps": {"$ref": "#/$defs/permittivity"},
                        },
                    },
                },
            },
        },
        "sphere": {
            "required": ["center", "radius", "eps_in", "eps_out"],
            "additionalProperties": False,
            "properties": {
                "kind": {},
                "center": {"$ref": "#/$defs/point"},
                "radius": {"$ref": "#/$defs/positive"},
                "eps_in": {"$ref": "#/$defs/permittivity"},
                "eps_out": {"$ref": "#/$defs/permittivity"},
            },
        },
        "empty-cavity": {
            "required": ["host", "centers", "radius"],
            "additionalProperties": False,
            "properties": {
                "kind": {},
                "host": {"$ref": "#/$defs/descriptor"},
                "centers": {"type": "array", "items": {"$ref": "#/$defs/point"}},
                "radius": {"$ref": "#/$defs/positive"},
            },
        },
    },
}

# the JSON Schema (draft 2020-12) keywords CONFIG_SCHEMA uses, all that
# schema_error implements; "then" is read by "if", "$defs" by "$ref"
SCHEMA_KEYWORDS = frozenset({
    "type", "enum", "const", "minimum", "maximum", "exclusiveMinimum",
    "minItems", "maxItems", "items", "required", "properties",
    "additionalProperties", "$ref", "$defs", "allOf", "if", "then",
})

_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # a JSON integer literal: unlike draft 2020-12, 4.0 is not an integer,
    # since the tasks index and size arrays with these values
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # RFC 8259 has no NaN or Infinity, which json.loads admits as floats
    "number": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                         or isinstance(v, float) and math.isfinite(v)),
}

# numeric bounds: the comparison that violates each, and its message
_BOUNDS = {
    "minimum": (lambda x, b: x < b, "is less than the minimum of"),
    "maximum": (lambda x, b: x > b, "is greater than the maximum of"),
    "exclusiveMinimum": (lambda x, b: x <= b, "is less than or equal to the minimum of"),
}


def schema_error(instance, schema=CONFIG_SCHEMA, path="$"):
    """The first violation of ``schema`` as ``(json_path, message)``, or None.

    Paths and messages read as jsonschema's do (``$.atoms[0].position``,
    ``'eps' is a required property``).  Keywords apply in the schema's
    order, each only to the JSON types it constrains.
    """
    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    for key, value in schema.items():
        message = None
        children = ()  # the (instance, schema, path) triples the keyword descends into
        if key == "type":
            if not _JSON_TYPES[value](instance):
                message = f"{instance!r} is not of type {value!r}"
        elif key == "enum":
            if instance not in value:
                message = f"{instance!r} is not one of {value!r}"
        elif key == "const":
            if instance != value:
                message = f"{value!r} was expected"
        elif key in _BOUNDS:
            violates, text = _BOUNDS[key]
            if _JSON_TYPES["number"](instance) and violates(instance, value):
                message = f"{instance!r} {text} {value!r}"
        elif key == "minItems":
            if is_array and len(instance) < value:
                short = "should be non-empty" if value == 1 else "is too short"
                message = f"{instance!r} {short}"
        elif key == "maxItems":
            if is_array and len(instance) > value:
                message = f"{instance!r} is too long"
        elif key == "required":
            missing = [name for name in value if name not in instance] if is_object else []
            if missing:
                message = f"{missing[0]!r} is a required property"
        elif key == "additionalProperties":
            # CONFIG_SCHEMA uses only additionalProperties: false
            known = schema.get("properties", {})
            extras = sorted((k for k in instance if k not in known), key=str) if is_object else []
            if extras:
                names = ", ".join(repr(name) for name in extras)
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "properties" and is_object:
            children = [(instance[name], sub, f"{path}.{name}")
                        for name, sub in value.items() if name in instance]
        elif key == "items" and is_array:
            children = [(item, value, f"{path}[{i}]") for i, item in enumerate(instance)]
        elif key == "allOf":
            children = [(instance, sub, path) for sub in value]
        elif key == "if" and "then" in schema and schema_error(instance, value) is None:
            children = [(instance, schema["then"], path)]
        elif key == "$ref":
            children = [(instance, CONFIG_SCHEMA["$defs"][value.removeprefix("#/$defs/")], path)]
        if message is not None:
            return path, message
        for child in children:
            error = schema_error(*child)
            if error is not None:
                return error
    return None


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
        from .lattice import Grid
        from .medium import build_profile, descriptor_from_dict

        self.config = config
        self.out_dir = out_dir
        self.verbosity = verbosity
        self.seed = config["seed"]
        self.grid = Grid(tuple(config["grid"]["dims"]), config["grid"]["spacing"])
        desc = descriptor_from_dict(config["medium"])
        mu_desc = descriptor_from_dict(config["mu"]) if "mu" in config else None
        self.medium = _rule("medium" if mu_desc is None else "medium, mu",
                            build_profile, desc, self.grid, mu_desc)
        self.atoms = [AtomSpec.from_dipoles(**entry) for entry in config["atoms"]]
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
        """``helmholtz_decompose(x)`` with its reconstruction error and
        ``|div(x1)|``, each relative to ``|x|``."""
        import numpy as np

        # looked up at each call, so that a rebound name takes effect
        from .electrostatics import helmholtz_decompose
        from .lattice import div_raw

        result = helmholtz_decompose(x, self.medium, tol=self.poisson_tol)
        xnorm = np.linalg.norm(x.values)
        recon = np.linalg.norm(x.values - (result.x1.values + result.x2.values)) / xnorm
        div_rel = np.linalg.norm(div_raw(result.x1.values, self.grid.spacing)) / xnorm
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

        from .lattice import EDGE, FACE, ScalarField, VectorField, adjoint_defect, curl, curl_t
        from .lattice import div, grad
        from .modes import STORED_MATCH_TOL, mode_residual_report

        if self.bank is None and self.config["modes"]["bank_in"]:
            self._require_bank()

        rng = np.random.default_rng(self.seed)
        checks = {}

        phi = ScalarField(self.grid, rng.standard_normal(self.grid.dims))
        v = VectorField(self.grid, EDGE, rng.standard_normal((3,) + self.grid.dims))
        w = VectorField(self.grid, FACE, rng.standard_normal((3,) + self.grid.dims))

        # each defect relative to the terms that cancel in it: for a chain
        # identity, the inner field's largest value over the spacing
        g_phi, ct_w = grad(phi), curl_t(w)
        for name, out, inner_field in (("curl_grad_zero", curl(g_phi), g_phi),
                                       ("div_curl_t_zero", div(ct_w), ct_w)):
            scale = float(np.abs(inner_field.values).max()) / self.grid.spacing or 1.0
            checks[name] = (float(np.abs(out.values).max()) / scale, 1e-14)
        checks["grad_div_adjoint"] = (
            adjoint_defect(g_phi.values, v.values, -phi.values, div(v).values), 1e-14)
        checks["curl_adjoint"] = (
            adjoint_defect(curl(v).values, w.values, v.values, ct_w.values), 1e-14)

        _, recon, div_rel = self._decompose(v)
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
            eta = default_broadening(bank, float(np.median(omegas)))
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
    filled in; ``config`` itself is left as it is.  The schema is checked
    first, then each resolved value by the library rule of the task using it.
    """
    from .errors import ConfigError

    error = schema_error(config)
    if error is not None:
        raise ConfigError(f"config schema violation at {error[0]}: {error[1]}")

    resolved = copy.deepcopy(config)
    # the default of each optional key; None where the key's absence means
    # "none": no bank file, the default broadening, no cavity, no SI fields
    resolved.setdefault("seed", 0)
    for section, defaults in (
        ("grid", {"spacing": 1.0}),
        ("solver", {"poisson_tol": 1e-10, "eig_tol": 1e-8, "max_iter": 1000}),
        ("modes", {"count": 12, "bank_in": None, "bank_out": None}),
        ("rate", {"atom": 0, "transition": [1, 0], "eta": None, "local_field": False}),
        ("si", {"length_unit_m": None}),
    ):
        resolved[section] = {**defaults, **resolved.get(section, {})}
    atoms = resolved.setdefault("atoms", [])
    for entry in atoms:
        entry.setdefault("cavity_radius", None)
    dims, spacing = resolved["grid"]["dims"], resolved["grid"]["spacing"]
    rate, tasks = resolved["rate"], resolved["tasks"]

    # the modules the runner imports anyway
    import numpy as np

    from . import emission
    from .electrostatics import check_cavity_radius
    from .lattice import Grid
    from .medium import descriptor_from_dict
    from .modes import SOLVE_HELD_BLOCKS, lobpcg_block

    grid = _rule(f"grid.spacing={spacing!r}", Grid, tuple(dims), spacing)
    # every grid a task samples fields on, checked before any is allocated
    grids = [("grid.dims", dims)]
    cavity = resolved.get("cavity_factor")
    if cavity is not None:
        cavity_dims = cavity.setdefault("grid", list(dims))
        grids.append(("cavity_factor.grid", cavity_dims))
        _rule(f"cavity_factor.radius={cavity['radius']!r} on cavity_factor.grid={cavity_dims}",
              check_cavity_radius, Grid(tuple(cavity_dims), spacing), cavity["radius"])
    if rate["local_field"]:
        n = rate.setdefault("factor_grid", emission.LOCAL_FIELD_CELLS)
        grids.append(("rate.factor_grid", [n, n, n]))
    arrays = [(name, g, 3 * 8 * math.prod(g), "one three-component float64 field")
              for name, g in grids]
    count = resolved["modes"]["count"]
    if "modes" in tasks:
        block = _rule(f"modes.count={count}", lobpcg_block, grid, count)
        arrays.append(("modes.count", count, SOLVE_HELD_BLOCKS * 8 * 3 * grid.ncells * block,
                       f"the mode solve's {SOLVE_HELD_BLOCKS} float64 blocks of {block} columns"))
    if "ldos" in resolved:
        # emission.ldos_spectrum's (count, modes) Lorentzian matrix
        n = resolved["ldos"]["count"]
        arrays.append(("ldos.count", n, 8 * n * count,
                       f"the ({n}, {count}) float64 Lorentzian matrix of the spectrum"))
    memory = _physical_memory()
    for name, value, nbytes, what in arrays:
        if memory is not None and nbytes > memory:
            raise ConfigError(
                f"{name}={value}: {what} takes {nbytes / 2**30:.3g} GiB, "
                f"more than the {memory / 2**30:.3g} GiB of physical memory"
            )

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
        ldos.setdefault("eta", None)
        lo, hi, n = ldos["omega_min"], ldos["omega_max"], ldos["count"]
        orientation = ldos.setdefault("orientation", [0.0, 0.0, 1.0])
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
                  emission.local_field_host_eps, atom, descriptor_from_dict(resolved["medium"]))
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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        resolved = validate_config(config)
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = _Runner(resolved, out_dir, verbosity)
    except (ConfigError, ValueError, EpsmodesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
