"""Workload definitions shared by the benchmark runner, its worker process and
the reference generator.

Each workload is a list of `thermoqec` CLI calls. Paths are relative to the
repository root, which is the working directory of every process the
benchmark starts.
"""

from __future__ import annotations

from pathlib import Path

# Trajectories per `run`/`compare` call: large enough that the per-trajectory
# layers (accumulation, jump replay) dominate the fixed per-step overhead,
# small enough that a full evaluation (about 70 runs of 35 s) fits in an hour.
N_TRAJ = 50

# `--seed n` selects MASTER_SEEDS[n % 2]. Index 0 is the shipped configs'
# master_seed (the default); index 1 is held out, so a gain found while
# working on seed 0 can be confirmed on a seed the change was not tuned on.
# References are stored for both.
MASTER_SEEDS = (20260811, 917364)

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "refs"

# Why each workload exists (also in BENCHMARK.json and README.md).
WORKLOADS = {
    "measured_full": [
        ("run", ["run", "--config", "configs/fig4a_iii.cfg"]),
    ],
    "mf_hot": [
        ("run", ["run", "--config", "configs/fig8b_100x.cfg"]),
    ],
    "exact_routes": [
        ("compare", ["compare", "--config", "bench/configs/measured_1round.cfg", "--oracle"]),
        ("run_oracle", ["run", "--config", "bench/configs/mf_1round.cfg", "--oracle"]),
        ("cooling", ["rate-model", "cooling", "--n-c", "0.01"]),
        ("chain", ["rate-model", "chain", "--alpha", "1e-3", "--rounds", "4000"]),
    ],
}

# Cooling-curve parameters of the `cooling` call (the CLI defaults it relies on).
COOLING_GAMMA_C = 3.0
COOLING_N_C = 0.01
COOLING_INITIAL = 7


def master_seed(seed: int) -> int:
    return MASTER_SEEDS[seed % len(MASTER_SEEDS)]


def cli_calls(workload: str, seed: int, out_dir: Path) -> list[tuple[str, list[str]]]:
    """(tag, argv) for each CLI call of a workload; call i writes to
    out_dir/<i>_<tag>."""
    calls = []
    for i, (tag, argv) in enumerate(WORKLOADS[workload]):
        argv = list(argv)
        if argv[0] in ("run", "compare"):
            argv += ["--seed", str(master_seed(seed)), "--traj", str(N_TRAJ)]
        argv += ["--out", str(out_dir / f"{i}_{tag}")]
        calls.append((tag, argv))
    return calls


def config_paths(workload: str) -> list[str]:
    """Config files the workload's calls read."""
    return [argv[argv.index("--config") + 1] for _, argv in WORKLOADS[workload] if "--config" in argv]
