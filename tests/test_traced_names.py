"""The benchmark's tracer wraps epsmodes functions by name.

``perfbench/tracing.py`` rebinds module attributes (some private) to timing
wrappers, so renaming or deleting one of them breaks every traced run.  It
also reads the ``(chi, residual, iterations)`` tuple of
``electrostatics.solve_poisson_block`` to count Poisson columns and CG
iterations.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = (
    "import sys\n"
    f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
    "import tracing\n"
    "tracer = tracing.Tracer()\n"
    "tracing.install(tracer)\n"
)


def _run(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", PRELUDE + script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_installs():
    _run("")


def test_tracer_counts_poisson_solves(tmp_path):
    # one decomposition and one cavity factor make one Poisson solve each;
    # the per-layer metrics come from the spans as the benchmark reads them
    spans = tmp_path / "spans.npz"
    metrics = json.loads(_run(
        "import json\n"
        "import numpy as np\n"
        "from epsmodes import electrostatics\n"
        "from epsmodes.lattice import EDGE, Grid, VectorField\n"
        "from epsmodes.medium import Sphere, build_profile\n"
        "g = Grid((8, 8, 8))\n"
        "m = build_profile(Sphere((4.0, 4.0, 4.0), 2.0, 1.0, 4.0), g)\n"
        "x = np.random.default_rng(0).standard_normal((3,) + g.dims)\n"
        "electrostatics.helmholtz_decompose(VectorField(g, EDGE, x), m)\n"
        "electrostatics.cavity_field_factor(4.0, g, 2.0)\n"
        f"tracer.save({str(spans)!r})\n"
        f"print(json.dumps(tracing.layer_metrics([({str(spans)!r}, tracer.counters)])[0]))\n"
    ))
    assert metrics["electrostatics.poisson_columns"] == 2
    assert metrics["electrostatics.cg_iterations"] > 0
    # one Laplacian apply per CG iteration; per solve, one on the start
    # residual, one on the final map's source and one true-residual check
    assert (metrics["electrostatics.laplacian_columns"]
            == metrics["electrostatics.cg_iterations"] + 3 * 2)
    assert metrics["lattice.stencil_calls"] > 0
