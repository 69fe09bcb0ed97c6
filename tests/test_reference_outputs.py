"""The benchmark's output gate in tier-1: every call of the benchmark's
workloads, at its trajectory count and both of its master seeds, against the
stored references under bench/refs. `metrics.csv` of the two trajectory
workloads is compared within the trajectory tolerance; the `exact_routes`
calls (`compare --oracle`, `run --oracle`, `rate-model cooling` and
`rate-model chain`) are checked as the benchmark checks them
(`checks.check_call`). The references are read, never written.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from thermoqec.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
from workloads import MASTER_SEEDS, N_TRAJ, WORKLOADS, cli_calls  # noqa: E402


def by_repository_path(argv):
    return [str(ROOT / a) if a.endswith(".cfg") else a for a in argv]


@pytest.mark.parametrize("seed", range(len(MASTER_SEEDS)), ids=[str(s) for s in MASTER_SEEDS])
@pytest.mark.parametrize("workload", ["measured_full", "mf_hot"])
def test_metrics_match_the_benchmark_reference(tmp_path, capsys, workload, seed):
    ((tag, argv),) = WORKLOADS[workload]
    args = [*by_repository_path(argv), "--seed", str(MASTER_SEEDS[seed]), "--traj", str(N_TRAJ), "--out", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    ref = checks.read_ref(checks.ref_path(workload, seed, f"0_{tag}.metrics.csv.gz"))
    assert checks.compare_csv((tmp_path / "metrics.csv").read_bytes(), ref, tol=1e-9) == []


EXACT_TAGS = [tag for tag, _ in WORKLOADS["exact_routes"]]


@pytest.mark.parametrize("seed", range(len(MASTER_SEEDS)), ids=[str(s) for s in MASTER_SEEDS])
@pytest.mark.parametrize("index", range(len(EXACT_TAGS)), ids=EXACT_TAGS)
def test_exact_routes_match_the_benchmark_reference(tmp_path, capsys, index, seed):
    tag, argv = cli_calls("exact_routes", seed, tmp_path)[index]
    assert main(by_repository_path(argv)) == 0
    capsys.readouterr()
    problems, _ = checks.check_call("exact_routes", seed, index, tag, tmp_path / f"{index}_{tag}")
    assert problems == []
