"""One fresh process of the benchmark.

    python3 bench/worker.py MODE WORKLOAD SEED OUT_DIR SPAWN_T

Run from the repository root with `src` on PYTHONPATH. The process imports
thermoqec, loads the workload's configs and compiles their schedules (the
set-up), then, unless MODE is `setup`, makes the workload's CLI calls through
`thermoqec.cli.main`. MODE `trace` wraps the calls into each module with the
tracer and afterwards re-runs the trajectory ensembles for the diagnostics.
SPAWN_T is the parent's time.monotonic() just before it started this
process, so set-up time includes interpreter start. The measurements go to
OUT_DIR/worker.json; the CLI's own printing goes to this process's stdout.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    mode, workload, seed, out_dir, spawn_t = argv[0], argv[1], int(argv[2]), Path(argv[3]), float(argv[4])
    tracer = None
    t0 = time.monotonic()
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.count_eigensolvers()
    import thermoqec
    import thermoqec.cli as cli

    import_s = time.monotonic() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(thermoqec.__file__).resolve().parents:
        print(f"thermoqec was imported from {thermoqec.__file__}, not from {src}", file=sys.stderr)
        return 3
    if tracer is not None:
        tracer.install(cli)

    build = {"measured": cli.build_measured_round, "measurement_free": cli.build_measurement_free_round}
    traj_steps = 0
    for path in workloads.config_paths(workload):
        cfg = cli.load_config(path)
        traj_steps += workloads.N_TRAJ * cfg.rounds * len(build[cfg.protocol]())
    out = {"setup_s": time.monotonic() - spawn_t, "import_s": import_s, "traj_steps": traj_steps}

    if mode != "setup":
        out["calls"] = []
        for tag, call_argv in workloads.cli_calls(workload, seed, out_dir):
            t = time.monotonic()
            if tracer is None:
                code = cli.main(call_argv)
            else:
                tracer.call_tag = tag
                with tracer.span("cli.main"):
                    code = cli.main(call_argv)
                tracer.call_tag = None
            out["calls"].append({"tag": tag, "argv": call_argv, "code": code, "wall_s": time.monotonic() - t})
        out["wall_s"] = sum(c["wall_s"] for c in out["calls"])

    if tracer is not None:
        from thermoqec.dynamics import JUMP_BIT_FLIP, run_ensemble

        layers = tracer.layer_seconds()
        propagate_s, counts, problems = tracer.rerun_ensembles(run_ensemble, JUMP_BIT_FLIP)
        layers["setup.import_s"] = import_s
        layers["dynamics.propagate_s"] = propagate_s
        layers["dynamics.accumulate_s"] = layers["dynamics.ensemble_s"] - propagate_s
        out.update(layers=layers, counts=counts, problems=problems, oracle_f2=tracer.oracle_f2())
        out["spans"] = tracer.spans

    (out_dir / "worker.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
