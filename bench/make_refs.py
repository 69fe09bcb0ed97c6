#!/usr/bin/env python3
"""Regenerate the stored references under bench/refs.

    python3 bench/make_refs.py

Runs every workload once per master seed through the benchmark's worker and
stores the outputs the checks compare against (gzip-compressed CSV), the
oracle f2 series from a traced run, and a manifest naming the commit and
source hash they were made at. References define correct output: make them
only at a commit whose outputs are trusted, never to make a check pass.
"""

from __future__ import annotations

import gzip
import json
import shutil
import time

import checks
from run import RUN_DIR, git_commit, src_hash, pin_blas_threads, spawn
from workloads import MASTER_SEEDS, N_TRAJ, REF_DIR, WORKLOADS


def store(path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gzip.compress(data, mtime=0) if path.suffix == ".gz" else data)


def main() -> int:
    pin_blas_threads()
    shutil.rmtree(REF_DIR, ignore_errors=True)
    build = RUN_DIR / "make_refs"
    shutil.rmtree(build, ignore_errors=True)
    for seed in range(len(MASTER_SEEDS)):
        for workload, calls in WORKLOADS.items():
            mode = "trace" if workload == "exact_routes" and seed == 0 else "run"
            out = build / f"{workload}-{seed}"
            r = spawn(mode, workload, seed, out, time.monotonic() + 600)
            if r["exit"] != 0 or any(c["code"] != 0 for c in r["calls"]) or r.get("problems"):
                print(f"{workload} seed {seed} failed; see {out / 'worker.log'}")
                return 1
            for i, (tag, _) in enumerate(calls):
                src, name = out / f"{i}_{tag}", f"{i}_{tag}"
                if tag in ("run", "run_oracle"):
                    store(checks.ref_path(workload, seed, f"{name}.metrics.csv.gz"), (src / "metrics.csv").read_bytes())
                if tag == "run_oracle":
                    dists = checks.oracle_distances((src / "summary.txt").read_text())
                    store(checks.ref_path(workload, seed, f"{name}.distances.json"), json.dumps(dists).encode())
                if tag == "compare":
                    store(checks.ref_path(workload, seed, f"{name}.compare.csv.gz"), (src / "compare.csv").read_bytes())
                if tag == "chain" and seed == 0:
                    store(checks.ref_path(workload, None, f"{name}.chain.csv.gz"), (src / "chain.csv").read_bytes())
            if mode == "trace":
                store(checks.ref_path(workload, None, "oracle_f2.json"), json.dumps(r["oracle_f2"]).encode())
            print(f"{workload} seed {seed}: {r['wall_s']:.1f} s")
    manifest = {
        "git_commit": git_commit(),
        "src_sha256": src_hash(),
        "n_traj": N_TRAJ,
        "master_seeds": list(MASTER_SEEDS),
    }
    (REF_DIR / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    shutil.rmtree(build)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
