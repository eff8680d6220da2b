"""The benchmark's set-up probe runs each workload process up to its first task.

``perfbench/run.py`` times set-up by running every process of a workload
through ``perfbench/child.py --setup-only`` in a fresh directory, where no
earlier process has written anything: ``pipeline-reuse``'s ``reuse`` run
names a ``bank_in`` that does not exist there.  The probe fails the whole
benchmark unless each such run reaches its first task and exits 0, so the
CLI must not read or check anything that a task writes before the first
task starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SEED = 3


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads.WORKLOADS


@pytest.mark.parametrize("name", ["emission-bulk", "bandgap-1d", "electrostatics-64",
                                  "pipeline-reuse"])
def test_setup_probe_reaches_the_first_task(name, workloads, tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    processes = workloads[name](SEED).processes(tmp_path)
    assert processes
    for process in processes:
        config = tmp_path / f"{process.name}.config.json"
        config.write_text(json.dumps(process.config))
        record = tmp_path / f"{process.name}.record.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--record", str(record), "--setup-only",
             "--", "--config", str(config), "--out-dir", str(tmp_path / process.name),
             "--threads", "1", "--verbosity", "0"],
            capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(record.read_text())
        assert rec["exit_code"] == 0
        assert rec["t_first_task"] is not None
