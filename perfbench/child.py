"""One epsmodes CLI process, timed from inside.

Usage::

    python3 perfbench/child.py --record REC.json [--trace SPANS.npz]
        [--setup-only] [--check-decompose] -- <epsmodes CLI arguments>

Runs ``epsmodes.cli.main`` from the checkout's ``src`` and writes REC.json
with the monotonic-clock times at which the first task started and the
last report was written.  The launching process reads the same
system-wide clock just before it starts this one.

``--setup-only`` stops the run when its first task would start.
``--check-decompose`` checks each decomposition on the fields it returns.
``--trace`` wraps every layer (see ``tracing.py``) and writes the spans.
Without ``--trace`` nothing numeric is imported before the CLI sets its
thread limits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class _SetupDone(BaseException):
    """Raised at the first task of a set-up-only run; the CLI does not catch it."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check-decompose", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    from epsmodes import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"epsmodes imported from {cli.__file__}, not from this checkout")

    record = {"t_first_task": None, "check_s": 0.0, "checks": {}}
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def check_decompose():
        import numpy as np
        import oracles
        from epsmodes import electrostatics

        decompose = electrostatics.helmholtz_decompose

        def checked(x, m, *a, **kw):
            result = decompose(x, m, *a, **kw)
            t0 = time.perf_counter()
            xnorm = np.linalg.norm(x.values)
            record["checks"]["decompose_reconstruction"] = float(
                np.linalg.norm(x.values - result.x1.values - result.x2.values) / xnorm
            )
            record["checks"]["decompose_divergence"] = float(
                np.linalg.norm(oracles.div(result.x1.values, m.grid.spacing)) / xnorm
            )
            t1 = time.perf_counter()
            record["check_s"] += t1 - t0
            if tracer is not None:
                tracer.record(tracing.CHECK_SPAN, t0, t1)
            return result

        electrostatics.helmholtz_decompose = checked

    def first_task_marker(method):
        def marked(self, *a, **kw):
            if record["t_first_task"] is None:
                record["t_first_task"] = time.monotonic()
                if args.setup_only:
                    raise _SetupDone
                if args.check_decompose:
                    check_decompose()
            return method(self, *a, **kw)

        return marked

    for name in list(vars(cli._Runner)):
        if name.startswith("task_"):
            setattr(cli._Runner, name, first_task_marker(getattr(cli._Runner, name)))

    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    record["t_end"] = time.monotonic()
    record["exit_code"] = code
    if tracer is not None:
        tracer.save(args.trace)
        record["counters"] = dict(tracer.counters)
    Path(args.record).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
