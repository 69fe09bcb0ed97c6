#!/usr/bin/env python3
"""Run the shipped figure-reproduction configs at full trajectory count.

Examples:
    python scripts/reproduce_figures.py --set fig4
    python scripts/reproduce_figures.py --set fig8 --traj 500 --out results/quick
    python scripts/reproduce_figures.py --only fig5_i figcycles_mf
    python scripts/reproduce_figures.py --out /tmp/sweep --timings BENCH_sweep.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

from thermoqec.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--set", dest="which", default="all",
                        choices=["all", "fig4", "fig5", "fig8", "figcycles"],
                        help="config family to run")
    parser.add_argument("--only", nargs="*", default=None, help="explicit config stems")
    parser.add_argument("--traj", type=int, default=None, help="override n_traj")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--out", default=None, help="output root (default: per-config)")
    parser.add_argument("--timings", default=None,
                        help="write per-config and total wall time, with machine facts, to this JSON file")
    args = parser.parse_args(argv)

    if args.only:
        stems = args.only
    else:
        prefix = "" if args.which == "all" else args.which
        stems = sorted(p.stem for p in CONFIGS.glob(f"{prefix}*.cfg"))
    if not stems:
        print("no configs matched", file=sys.stderr)
        return 2

    seconds = {}
    for stem in stems:
        cfg = CONFIGS / f"{stem}.cfg"
        if not cfg.exists():
            print(f"missing config {cfg}", file=sys.stderr)
            return 2
        argv_run = ["run", "--config", str(cfg)]
        if args.traj is not None:
            argv_run += ["--traj", str(args.traj)]
        if args.seed is not None:
            argv_run += ["--seed", str(args.seed)]
        if args.out is not None:
            argv_run += ["--out", str(Path(args.out) / stem)]
        print(f"=== {stem} ===")
        t0 = time.time()
        code = cli_main(argv_run)
        seconds[stem] = round(time.time() - t0, 2)
        print(f"--- {stem}: exit {code} in {seconds[stem]:.1f}s\n")
        if code != 0:
            return code
    if args.timings is not None:
        record = {
            "traj": args.traj,  # null: each config's own n_traj
            "seed": args.seed,  # null: each config's own master_seed
            "configs_s": seconds,
            "total_s": round(sum(seconds.values()), 2),
            "machine": _machine_facts(),
        }
        Path(args.timings).write_text(json.dumps(record, indent=2) + "\n")
        print(f"total {record['total_s']:.1f}s; wrote {args.timings}")
    return 0


def _machine_facts() -> dict:
    """The benchmark's machine facts: CPU count, Python, numpy, BLAS and its
    thread count, git commit and a hash of src/."""
    sys.path.insert(0, str(REPO / "bench"))
    from run import machine_facts

    return machine_facts()


if __name__ == "__main__":
    sys.exit(run())
