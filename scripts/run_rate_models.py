#!/usr/bin/env python3
"""Produce the analytic-model tables under results/rate_models: the cooling
curve, steady ancilla fidelities and weight-class chain iterates. The
slow-cooling fixed point and each chain's exact steady state and decay
constant are printed. Run from the repository root:

    PYTHONPATH=src python3 scripts/run_rate_models.py
"""

import sys
from pathlib import Path

from thermoqec.cli import main as cli_main

OUT = Path("results/rate_models")


def run():
    jobs = [
        ["rate-model", "cooling", "--n-c", "0", "--Gamma-c", "3", "--t-max", "3",
         "--initial", "7", "--out", str(OUT / "cooling_from_full")],
        ["rate-model", "steady-fidelity", "--n-c-values", "0", "1e-3", "1e-2", "1e-1", "0.5",
         "--out", str(OUT)],
        ["rate-model", "slow-cooling", "--gamma-h", "1e-3", "--Gamma-c", "0.1", "--n-c", "1e-2", "--steps", "16"],
    ]
    for alpha in ("5e-4", "1e-3", "2e-3"):
        jobs.append(["rate-model", "chain", "--alpha", alpha, "--rounds", "4000",
                     "--out", str(OUT / f"chain_a{alpha}")])
    for job in jobs:
        print("===", " ".join(job))
        code = cli_main(job)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
