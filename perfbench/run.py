"""epsmodes benchmark: end-to-end CLI workloads, and a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs the workload's CLI processes one after another, each a
fresh ``python3 perfbench/child.py`` process that calls
``epsmodes.cli.main`` from ``src/``.  Rounds repeat until ``--seconds``
have passed (at least ``min_rounds``); then every round's outputs are
checked.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full result
(per-round times, every check, the machine) goes to
``perfbench/runs/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
RUNS = BENCH / "runs"

# processes slower than this are killed, so a run ends within its time limit
PROCESS_TIMEOUT_S = 150.0
# set-up samples per run: timed rounds first, set-up-only probes for the rest
SETUP_SAMPLES = 5
# BLAS/OpenMP threads of every CLI process: on a 2-vCPU box one thread was
# both faster and steadier than two, even for the dense-algebra workload
THREADS = 1

END_TO_END = {"time_to_solution_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class Launcher:
    """Starts child processes and times them against the shared monotonic clock."""

    def __init__(self, run_dir: Path, threads: int):
        self.run_dir = run_dir
        self.threads = threads
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(threads)

    def run(self, process, directory: Path, setup_only=False, trace=False) -> dict:
        out = directory / process.name
        out.mkdir(parents=True, exist_ok=True)
        config = directory / f"{process.name}.config.json"
        config.write_text(json.dumps(process.config, indent=1))
        record = directory / f"{process.name}.record.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "--record", str(record)]
        if setup_only:
            cmd.append("--setup-only")
        if process.check_decompose:
            cmd.append("--check-decompose")
        spans = directory / f"{process.name}.spans.npz"
        if trace:
            cmd += ["--trace", str(spans)]
        cmd += ["--", "--config", str(config), "--out-dir", str(out),
                "--threads", str(self.threads), "--verbosity", "0"]
        with open(directory / f"{process.name}.stderr", "w") as err:
            t_launch = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"exit_code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if proc.returncode == 0 and record.exists():
            rec = json.loads(record.read_text())
            result["record"] = rec
            if rec["t_first_task"] is not None:
                result["setup_s"] = rec["t_first_task"] - t_launch
            result["solution_s"] = rec["t_end"] - rec["check_s"] - t_launch
            if trace:
                result["trace"] = (str(spans), rec.get("counters", {}))
        elif proc.returncode == 0:
            result["exit_code"] = -1        # exited without its record
        return result


def _run_round(workload, launcher, index, trace):
    from workloads import Round

    rnd = Round(index, launcher.run_dir / f"round{index:03d}")
    rnd.directory.mkdir(parents=True)
    procs = {}
    for process in workload.processes(rnd.directory):
        res = launcher.run(process, rnd.directory, trace=trace)
        procs[process.name] = res
        rnd.exit_codes[process.name] = res["exit_code"]
        rnd.records[process.name] = res.get("record", {})
        if res["exit_code"] != 0:
            break
    summary = {"round": index, "traced": trace, "processes": {
        name: {k: v for k, v in r.items() if k not in ("record", "trace")}
        for name, r in procs.items()}}
    rnd.complete = len(procs) == workload.n_processes and all(
        r["exit_code"] == 0 for r in procs.values())
    if rnd.complete:
        summary["time_to_solution_s"] = sum(r["solution_s"] for r in procs.values())
        summary["setup_s"] = sum(r["setup_s"] for r in procs.values())
        summary["peak_rss_mb"] = max(r["peak_rss_mb"] for r in procs.values())
        if trace:
            summary["traces"] = [r["trace"] for r in procs.values()]
    return rnd, summary


def _setup_probe(workload, launcher, index) -> float:
    """Set-up time of one round: each process stopped at its first task."""
    directory = launcher.run_dir / f"probe{index:03d}"
    directory.mkdir(parents=True)
    total = 0.0
    for process in workload.processes(directory):
        res = launcher.run(process, directory, setup_only=True)
        if res["exit_code"] != 0 or "setup_s" not in res:
            raise RuntimeError(f"set-up probe of {process.name} failed; see {directory}")
        total += res["setup_s"]
    return total


def _check_rounds(workload, rounds):
    """Every round attempts its processes plus ``n_checks`` checks.

    A check that cannot run, because a process of its round failed, counts
    as failed.  A failed check listed in ``known_faults`` counts as failed
    but leaves ``correct`` true; any other failed check makes it false.
    """
    counts = {"cli_runs": 0, "cli_runs_failed": 0, "checks": 0, "checks_failed": 0}
    wrong, known, results = [], [], []
    for i, rnd in enumerate(rounds):
        other = rounds[(i + 1) % len(rounds)]
        counts["cli_runs"] += workload.n_processes
        counts["cli_runs_failed"] += workload.n_processes - sum(
            1 for c in rnd.exit_codes.values() if c == 0)
        checks = []
        try:
            if rnd.complete:
                checks += workload.checks(rnd)
            if rnd.complete and other.complete:
                checks += workload.cross_checks(rnd, other)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # unreadable or malformed outputs: none of the round's checks passes
            checks = []
            wrong.append(f"round {rnd.index}: outputs could not be checked: {exc!r}")
        if len(checks) > workload.n_checks:
            raise RuntimeError(f"{workload.name} made {len(checks)} checks, "
                               f"more than the {workload.n_checks} it declares")
        counts["checks"] += workload.n_checks
        counts["checks_failed"] += workload.n_checks - sum(1 for c in checks if c.ok)
        for c in checks:
            if not c.ok:
                line = f"round {rnd.index}: {c.name}: {c.detail}"
                (known if c.name in workload.known_faults else wrong).append(line)
        results.append([{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks])
    return counts, wrong, known, results


def _environment(threads) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    revision = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        revision = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "cpu": cpu,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "epsmodes" / "cli.py").is_file():
        print(f"error: no epsmodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = RUNS / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    launcher = Launcher(run_dir, THREADS)

    # warm-up: bytecode caches and the page cache, which users pay for once
    _setup_probe(workload, launcher, 0)

    rounds, summaries = [], []
    start = time.monotonic()
    while True:
        for traced in ((False, True) if trace else (False,)):
            rnd, summary = _run_round(workload, launcher, len(rounds), traced)
            rounds.append(rnd)
            summaries.append(summary)
        if time.monotonic() - start >= args.seconds and len(rounds) >= workload.min_rounds:
            break
    measured_s = time.monotonic() - start

    plain = [s for s in summaries if not s["traced"] and "time_to_solution_s" in s]
    setups = [s["setup_s"] for s in plain]
    if not trace:
        for i in range(max(0, SETUP_SAMPLES - len(setups))):
            setups.append(_setup_probe(workload, launcher, i + 1))

    counts, wrong, known, check_results = _check_rounds(workload, rounds)
    attempted = counts["cli_runs"] + counts["checks"]
    failed = counts["cli_runs_failed"] + counts["checks_failed"]
    if not wrong:
        # checked outputs (banks of several MB) go; configs, records and spans stay
        for rnd in rounds:
            for name in rnd.exit_codes:
                shutil.rmtree(rnd.out(name), ignore_errors=True)

    metrics = {}
    layer_table = {}
    traced = [s for s in summaries if s["traced"] and "time_to_solution_s" in s]
    if plain and (traced or not trace):
        tts = statistics.median(s["time_to_solution_s"] for s in plain)
        if trace:
            from tracing import LAYER_METRICS, layer_metrics

            per_round = []
            for s in traced:
                values, layer_table = layer_metrics(s["traces"])
                per_round.append(values)
            for name, unit in LAYER_METRICS.items():
                if name == "trace.overhead_s":
                    value = statistics.median(s["time_to_solution_s"] for s in traced) - tts
                else:
                    value = statistics.median(v.get(name, 0.0) for v in per_round)
                metrics[name] = {"value": value, "unit": unit}
        else:
            values = {
                "time_to_solution_s": tts,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    correct = not wrong and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "environment": _environment(THREADS),
        "rounds": [{k: v for k, v in s.items() if k != "traces"} for s in summaries],
        "setup_samples_s": setups,
        "operations": counts,
        "checks": check_results,
        "failed_checks": wrong,
        "failed_known_faults": known,
        "layer_table_last_round": layer_table,
        "result": result,
    }
    (RUNS / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {len(rounds)} rounds "
          f"in {measured_s:.1f} s; {attempted} operations attempted, {failed} failed")
    print("# environment: " + json.dumps(detail["environment"]))
    for line in known:
        print(f"# known fault: {line}")
    for line in wrong:
        print(f"# check failed: {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
