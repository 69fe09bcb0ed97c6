"""The benchmark's output gate in tier-1: `metrics.csv` of the two
trajectory workloads, at the benchmark's trajectory count and both of its
master seeds, against the stored references under bench/refs, within the
benchmark's tolerance. The references are read, never written.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from thermoqec.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
from workloads import MASTER_SEEDS, N_TRAJ, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("seed", range(len(MASTER_SEEDS)), ids=[str(s) for s in MASTER_SEEDS])
@pytest.mark.parametrize("workload", ["measured_full", "mf_hot"])
def test_metrics_match_the_benchmark_reference(tmp_path, capsys, workload, seed):
    ((tag, argv),) = WORKLOADS[workload]
    argv = [str(ROOT / a) if a.endswith(".cfg") else a for a in argv]  # configs by repository path
    args = [*argv, "--seed", str(MASTER_SEEDS[seed]), "--traj", str(N_TRAJ), "--out", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    ref = checks.read_ref(checks.ref_path(workload, seed, f"0_{tag}.metrics.csv.gz"))
    assert checks.compare_csv((tmp_path / "metrics.csv").read_bytes(), ref, tol=1e-9) == []
