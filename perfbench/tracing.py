"""Spans and counters around calls into each epsmodes layer.

The program is not edited: :func:`install` rebinds module attributes (and
methods of two classes) of the loaded ``epsmodes`` modules to timing
wrappers.  Every module that imported a function by name holds its own
reference, so each reference to the original object is replaced.

Spans (name, parent, start, end) stay in memory as flat arrays and are
written once, when the process ends; :func:`layer_metrics` turns the spans
and counters of one round's processes into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# per-layer metric name -> unit; the order is the order of the report
LAYER_METRICS = {
    "electrostatics.poisson_calls": "count",
    "electrostatics.poisson_columns": "count",
    "electrostatics.cg_iterations": "count",
    "electrostatics.laplacian_columns": "count",
    "electrostatics.poisson_s": "s",
    "electrostatics.laplacian_s": "s",
    "electrostatics.decompose_s": "s",
    "electrostatics.cavity_factor_s": "s",
    "modes.projection_calls": "count",
    "modes.projection_s": "s",
    "modes.lobpcg_self_s": "s",
    "modes.lobpcg_iterations": "count",
    "modes.q_apply_columns": "count",
    "modes.q_apply_s": "s",
    "modes.solve_s": "s",
    "modes.residual_report_s": "s",
    "lattice.stencil_calls": "count",
    "lattice.stencil_s": "s",
    "medium.build_profile_s": "s",
    "emission.rate_s": "s",
    "emission.ldos_s": "s",
    "bankfile.save_s": "s",
    "bankfile.load_s": "s",
    "bankfile.bytes_written": "bytes",
    "bankfile.bytes_read": "bytes",
    "cli.decompose_s": "s",
    "cli.modes_s": "s",
    "cli.verify_s": "s",
    "cli.ldos_s": "s",
    "cli.rate_s": "s",
    "cli.cavity-factor_s": "s",
    "trace.overhead_s": "s",
}

CLI_TASKS = ("decompose", "modes", "verify", "ldos", "rate", "cavity-factor")

# span name of the benchmark's own in-process checks, excluded from task times
CHECK_SPAN = "bench.check"


class Tracer:
    """Span and counter store of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.residual_history: list[float] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float):
        """Add a finished span under the span now open."""
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn, name: str, count=None):
        """Timing wrapper; ``count(counters, args, kwargs, result)`` adds counts."""
        name_id = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            residual_history=np.asarray(self.residual_history, dtype=np.float64),
        )


def _columns(arr, grid_ndim) -> int:
    return 1 if arr.ndim == grid_ndim else int(arr.shape[-1])


def _count_poisson(counters, args, kwargs, result):
    counters["electrostatics.poisson_columns"] += _columns(args[0], 3)
    counters["electrostatics.cg_iterations"] += result[2]


def _count_laplacian(counters, args, kwargs, result):
    counters["electrostatics.laplacian_columns"] += _columns(args[0], 3)


def _count_q_apply(counters, args, kwargs, result):
    counters["modes.q_apply_columns"] += _columns(args[1], 4)


def _bank_bytes(path) -> int:
    return os.path.getsize(path) + os.path.getsize(str(path) + ".json")


def _count_save(counters, args, kwargs, result):
    counters["bankfile.bytes_written"] += _bank_bytes(args[1])


def _count_load(counters, args, kwargs, result):
    counters["bankfile.bytes_read"] += _bank_bytes(args[0])


def _rebind(modules, owner, attr, wrapper):
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer: Tracer):
    """Wrap the public entry points of every epsmodes layer."""
    from epsmodes import bankfile, cli, electrostatics, emission, lattice, medium, modes

    modules = (lattice, medium, electrostatics, modes, emission, bankfile, cli)
    targets = [
        (lattice, "dplus", "lattice.stencil", None),
        (lattice, "dminus", "lattice.stencil", None),
        (medium, "build_profile", "medium.build_profile", None),
        (electrostatics, "apply_weighted_laplacian", "electrostatics.laplacian", _count_laplacian),
        (electrostatics, "solve_poisson_block", "electrostatics.poisson", _count_poisson),
        (electrostatics, "helmholtz_decompose", "electrostatics.decompose", None),
        (electrostatics, "cavity_field_factor", "electrostatics.cavity_factor", None),
        (modes, "_project_block_raw", "modes.projection", None),
        (modes.QOperator, "apply_raw", "modes.q_apply", _count_q_apply),
        (modes, "mode_residual_report", "modes.residual_report", None),
        (emission, "emission_rate", "emission.rate", None),
        (emission, "local_field_corrected_rate", "emission.rate", None),
        (emission, "ldos_spectrum", "emission.ldos", None),
        (bankfile, "save_bank", "bankfile.save", _count_save),
        (bankfile, "load_bank", "bankfile.load", _count_load),
    ]
    targets += [
        (cli._Runner, "task_" + task.replace("-", "_"), "cli." + task, None) for task in CLI_TASKS
    ]
    for owner, attr, name, count in targets:
        _rebind(modules, owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    # LOBPCG iterations come through the solver's public on_iteration hook
    solve = modes.solve_modes
    signature = inspect.signature(solve)

    def solve_with_hook(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        n_modes = bound.arguments["n_modes"]
        if bound.arguments.get("on_iteration") is None:
            def on_iteration(iteration, theta, rnorm):
                tracer.counters["modes.lobpcg_iterations"] += 1
                tracer.residual_history.append(float(np.max(rnorm[:n_modes])))

            bound.arguments["on_iteration"] = on_iteration
        return solve(*bound.args, **bound.kwargs)

    _rebind(modules, modes, "solve_modes",
            tracer.wrap(functools.wraps(solve)(solve_with_hook), "modes.solve"))


def _load(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_metrics(traces) -> tuple[dict, dict]:
    """Per-layer metrics and a per-span-name table from one round's processes.

    ``traces`` holds (span file, counters) per process.  Self time is a
    span's duration minus the durations of its direct children.
    """
    values = defaultdict(float)
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for path, counters in traces:
        for key, value in counters.items():
            values[key] += value
        t = _load(path)
        names = [str(n) for n in t["names"]]
        if not names:
            continue
        name, parent = t["name"], t["parent"]
        dur = t["end"] - t["start"]
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def ids(*wanted):
            return [names.index(w) for w in wanted if w in names]

        def mask(*wanted):
            return np.isin(name, ids(*wanted))

        def total(*wanted):
            # outermost spans only: a rate call that makes another rate call counts once
            m = mask(*wanted) & ~np.isin(parent_name, ids(*wanted))
            return float(dur[m].sum()), int(m.sum())

        for i, n in enumerate(names):
            m = name == i
            row = table[n]
            row[0] += int(m.sum())
            row[1] += float(dur[m].sum())
            row[2] += float((dur[m] - child_sum[m]).sum())

        for span, time_key, calls_key in (
            ("electrostatics.poisson", "electrostatics.poisson_s", "electrostatics.poisson_calls"),
            ("electrostatics.laplacian", "electrostatics.laplacian_s", None),
            ("electrostatics.decompose", "electrostatics.decompose_s", None),
            ("electrostatics.cavity_factor", "electrostatics.cavity_factor_s", None),
            ("modes.projection", "modes.projection_s", "modes.projection_calls"),
            ("modes.q_apply", "modes.q_apply_s", None),
            ("modes.solve", "modes.solve_s", None),
            ("modes.residual_report", "modes.residual_report_s", None),
            ("lattice.stencil", "lattice.stencil_s", "lattice.stencil_calls"),
            ("medium.build_profile", "medium.build_profile_s", None),
            ("emission.rate", "emission.rate_s", None),
            ("emission.ldos", "emission.ldos_s", None),
            ("bankfile.save", "bankfile.save_s", None),
            ("bankfile.load", "bankfile.load_s", None),
        ):
            seconds, calls = total(span)
            values[time_key] += seconds
            if calls_key:
                values[calls_key] += calls

        # LOBPCG self time: the solve minus its projections and Q applies
        solve = mask("modes.solve")
        under_solve = np.isin(parent_name, ids("modes.solve")) & mask("modes.projection", "modes.q_apply")
        values["modes.lobpcg_self_s"] += float(dur[solve].sum() - dur[under_solve].sum())

        checks = mask(CHECK_SPAN)
        for task in CLI_TASKS:
            span = mask("cli." + task)
            in_task = checks & np.isin(parent_name, ids("cli." + task))
            values[f"cli.{task}_s"] += float(dur[span].sum() - dur[in_task].sum())
    return dict(values), {k: {"calls": c, "total_s": tot, "self_s": s}
                          for k, (c, tot, s) in sorted(table.items())}
