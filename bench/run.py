#!/usr/bin/env python3
"""thermoqec benchmark: drive the public CLI on fixed workloads, check every
output, and report end-to-end metrics (untraced) or per-layer metrics
(traced).

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; every process starts at the checkout
root and imports thermoqec from its `src`. With --trace 0 the benchmark
starts five set-up-only processes, then one fresh process per iteration of
the workload, until --seconds have passed (at least one iteration), and
reports medians. With --trace 1 it runs one untraced and two traced
iterations, whose exact counts must agree. Everything a run writes goes to
.bench_run/ in the checkout, including BENCH_<workload>_seed<n>_trace<t>.json
with the machine facts and every sample. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import MASTER_SEEDS, N_TRAJ, WORKLOADS, config_paths, master_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "traj_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "setup.import_s": "s",
    "config.load_s": "s",
    "compiler.schedule_s": "s",
    "dynamics.ensemble_s": "s",
    "dynamics.propagate_s": "s",
    "dynamics.accumulate_s": "s",
    "dynamics.acc_mb": "MiB",
    "dynamics.traj_steps": "count",
    "dynamics.hot_jumps": "count",
    "dynamics.cold_jumps": "count",
    "dynamics.jumper_share": "ratio",
    "dynamics.stream_draws": "count",
    "metrics.step_metrics_s": "s",
    "metrics.entropy_evals": "count",
    "dynamics.oracle_measured_round_s": "s",
    "dynamics.oracle_mf_round_s": "s",
    "ratemodel.cooling_s": "s",
    "ratemodel.chain_s": "s",
    "cli.residual_s": "s",
    "trace.overhead_frac": "ratio",
}
class Deadline(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, out_dir: Path, deadline: float) -> dict:
    """Run one worker process to completion; returns its measurements plus
    exit code, CPU time and peak RSS read from os.wait4."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(out_dir))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    with open(out_dir / "worker.log", "wb") as log:
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), str(out_dir), repr(spawn_t)],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise Deadline(f"{mode} process of {workload} passed the run deadline")
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"exit": proc.returncode}
    if proc.returncode == 0:
        result.update(json.loads((out_dir / "worker.json").read_text()))
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def iteration(mode: str, workload: str, seed: int, out_dir: Path, deadline: float) -> dict:
    """One fresh process making the workload's CLI calls, with its outputs checked."""
    load_before = os.getloadavg()[0]
    r = spawn(mode, workload, seed, out_dir, deadline)
    r["load_before"], r["load_after"] = load_before, os.getloadavg()[0]
    problems = [] if r["exit"] == 0 else [f"worker exited with {r['exit']}; see {out_dir / 'worker.log'}"]
    identical = r["exit"] == 0
    for i, call in enumerate(r.get("calls", [])):
        if call["code"] != 0:
            problems.append(f"{' '.join(call['argv'])} exited with {call['code']}")
            continue
        call_dir = out_dir / f"{i}_{call['tag']}"
        found, same = checks.check_call(workload, seed, i, call["tag"], call_dir)
        problems += found
        identical &= same
        if not found:
            shutil.rmtree(call_dir)
    if r.get("oracle_f2") and workload == "exact_routes":
        ref = json.loads(checks.read_ref(checks.ref_path(workload, None, "oracle_f2.json")))
        problems += checks.check_oracle_f2(r["oracle_f2"], ref)
    problems += r.get("problems", [])
    r["problems"], r["byte_identical"] = problems, identical
    if r["exit"] == 0:
        r["traj_steps_per_s"] = r["traj_steps"] / r["wall_s"]
    return r


def measure(workload: str, seed: int, seconds: float, run_dir: Path, deadline: float) -> tuple[dict, list, list]:
    """Untraced run: set-up probes, then iterations until `seconds` pass."""
    start = time.monotonic()
    probes = [spawn("setup", workload, seed, run_dir / f"setup{k}", deadline) for k in range(SETUP_PROBES)]
    iters = []
    while True:
        t = time.monotonic()
        iters.append(iteration("run", workload, seed, run_dir / f"iter{len(iters)}", deadline))
        if time.monotonic() - start + (time.monotonic() - t) > seconds:
            break
    done = [r for r in iters if r["exit"] == 0]
    metrics = {}
    if done:
        setups = [r["setup_s"] for r in probes + iters if r["exit"] == 0]
        metrics["setup_s"] = statistics.median(setups)
        for name in ("wall_s", "traj_steps_per_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in done)
    return metrics, probes, iters


def traced(workload: str, seed: int, run_dir: Path, deadline: float) -> tuple[dict, list, list]:
    """Traced run: one untraced iteration for the overhead baseline, then two
    traced iterations whose exact counts must repeat bit for bit."""
    base = iteration("run", workload, seed, run_dir / "untraced", deadline)
    passes = [iteration("trace", workload, seed, run_dir / f"trace{k}", deadline) for k in range(2)]
    iters = [base] + passes
    good = [p for p in passes if p["exit"] == 0]
    metrics = {}
    if len(good) == 2:
        a, b = (p["counts"] for p in good)
        if a != b:
            passes[1]["problems"].append(f"exact counts differ between traced runs: {a} vs {b}")
        for name in good[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in good)
        metrics.update(a)
        if base["exit"] == 0:
            metrics["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in good) / base["wall_s"] - 1.0
    return metrics, [], iters


def pin_blas_threads() -> None:
    """One BLAS thread for this process and every worker it starts: the
    matrices are small, so a second thread mostly spins (CPU time was twice
    wall time) and on a 2-core machine makes every GEMM wait for the slower
    core; one thread was also faster. Call before numpy is imported."""
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "blas_threads": _blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": src_hash(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"], facts["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        facts["blas"] = facts["blas_version"] = None
    return facts


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: int, facts: dict) -> dict:
    run_dir = RUN_DIR / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    load_before = os.getloadavg()[0]
    try:
        if trace:
            metrics, probes, iters = traced(workload, seed, run_dir, deadline)
        else:
            metrics, probes, iters = measure(workload, seed, seconds, run_dir, deadline)
        aborted = None
    except Deadline as exc:
        metrics, probes, iters, aborted = {}, [], [], str(exc)
    failed = sum(1 for r in probes if r["exit"] != 0) + sum(1 for r in iters if r["problems"])
    attempted = len(probes) + len(iters)
    if aborted:
        failed, attempted = failed + 1, attempted + 1
    if not trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    wanted = PER_LAYER if trace else END_TO_END
    missing = sorted(set(wanted) - set(metrics))
    result = {
        "workload": workload,
        "seed": seed,
        "master_seed": master_seed(seed),
        "n_traj": N_TRAJ,
        "trace": trace,
        "seconds": seconds,
        "machine": facts,
        "load_avg_1m": {"before": load_before, "after": os.getloadavg()[0]},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "byte_identical": all(r.get("byte_identical", False) for r in iters) if iters else False,
        "problems": ([aborted] if aborted else []) + [p for r in probes + iters for p in r.get("problems", [])],
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]} for k in wanted if k in metrics},
        "missing_metrics": missing,
        "probes": probes,
        "iterations": iters,
    }
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"BENCH_{workload}_seed{seed}_trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    print(
        f"{result['workload']}: seed {result['seed']} (master_seed {result['master_seed']}), "
        f"n_traj {result['n_traj']}, trace {result['trace']}, "
        f"{result['attempted']} processes, {result['failed']} failed"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {result['failed_frac']:.6g} ratio")
    print(f"  {'byte_identical_outputs':34s} {'yes' if result['byte_identical'] else 'no'}")
    m = result["machine"]
    print(
        f"  machine: {m['cpu_count']} cpus, Python {m['python']}, numpy {m['numpy']}, "
        f"{m['blas']} {m['blas_version']} ({m['blas_threads']} threads), "
        f"load {result['load_avg_1m']['before']:.2f} -> {result['load_avg_1m']['after']:.2f}"
    )
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")
    for name in result["missing_metrics"]:
        print(f"  MISSING: {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thermoqec benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help=f"even: master_seed {MASTER_SEEDS[0]}, odd: {MASTER_SEEDS[1]}")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = [ROOT / "src" / "thermoqec" / "cli.py"] + [ROOT / p for w in names for p in config_paths(w)]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"benchmark needs the thermoqec sources; missing: {', '.join(absent)}", file=sys.stderr)
        return 2

    pin_blas_threads()
    facts = machine_facts()
    results = [run_workload(w, args.seed, args.seconds, args.trace, facts) for w in names]
    for r in results:
        report(r)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 and not r["missing_metrics"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v for r in results for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
