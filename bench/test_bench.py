"""Tests of the benchmark's own checks and counts.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

import pytest

import checks
from workloads import MASTER_SEEDS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture(scope="module")
def reference() -> bytes:
    return checks.read_ref(checks.ref_path("measured_full", 0, "0_run.metrics.csv.gz"))


def _perturb(data: bytes, row: int, column: str, delta: float) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    col = rows[0].index(column)
    rows[row][col] = repr(float(rows[row][col]) + delta)
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerows(rows)
    return out.getvalue().encode()


def test_reference_matches_itself(reference):
    assert checks.compare_csv(reference, reference) == []


def test_rejects_value_perturbed_by_1e6(reference):
    bad = _perturb(reference, 700, "f2_data", 1e-6)
    problems = checks.compare_csv(bad, reference)
    assert len(problems) == 1 and "row 700 f2_data" in problems[0]


def test_admits_summation_order_noise(reference):
    noisy = _perturb(reference, 700, "s_total", 1e-12)
    assert checks.compare_csv(noisy, reference) == []
    assert noisy != reference


@pytest.mark.parametrize("cut", [0.5, 0.999])
def test_rejects_truncated_csv(reference, cut):
    truncated = reference[: int(len(reference) * cut)]
    assert checks.compare_csv(truncated, reference) != []


def test_every_seed_has_its_references():
    for seed in range(len(MASTER_SEEDS)):
        for name in ("measured_full.0_run.metrics.csv.gz", "mf_hot.0_run.metrics.csv.gz"):
            assert (checks.REF_DIR / str(MASTER_SEEDS[seed]) / name).is_file()


def _cli_cooling(tmp_path: Path, n_c: str) -> bytes:
    from thermoqec.cli import main

    assert main(["rate-model", "cooling", "--n-c", n_c, "--out", str(tmp_path)]) == 0
    return (tmp_path / "cooling.csv").read_bytes()


def test_closed_form_matches_cli_closed_columns_at_zero_occupancy(tmp_path):
    rows = list(csv.DictReader(io.StringIO(_cli_cooling(tmp_path, "0").decode())))
    assert len(rows) == 201
    for row in rows:
        want = checks.cooling_closed_form(float(row["t"]), 3.0, 0.0, 7)
        for i in range(8):
            assert float(row[f"P{i}_closed"]) == pytest.approx(want[i], abs=1e-11)


def test_cooling_check_accepts_cli_and_rejects_perturbation(tmp_path):
    data = _cli_cooling(tmp_path, "0.01")
    a, b = 3.0 * 1.01, 3.0 * 0.01
    assert checks.check_cooling(data, a, b, 7) == []
    assert checks.check_cooling(_perturb(data, 50, "P3", 1e-6), a, b, 7) != []


def test_stream_draw_count_matches_the_stream_bank(monkeypatch):
    """The draw count derived from public outputs equals the uniforms the
    engine's stream bank hands out (a private class, checked while it exists)."""
    dyn = pytest.importorskip("thermoqec.dynamics")
    if not hasattr(dyn, "_StreamBank"):
        pytest.skip("engine no longer has a _StreamBank")
    from thermoqec.compiler import build_measured_round, build_measurement_free_round
    from thermoqec.qstate import StateVector
    from tracing import Tracer

    banks = []

    class CountingBank(dyn._StreamBank):
        def __init__(self, *args, **kwargs):
            self.refills = 0
            super().__init__(*args, **kwargs)
            banks.append(self)

        def _refill(self, rows):
            self.refills += len(rows)
            super()._refill(rows)

    monkeypatch.setattr(dyn, "_StreamBank", CountingBank)
    for build in (build_measured_round, build_measurement_free_round):
        schedule = build()
        tracer = Tracer()
        tracer._wrap_ensemble(dyn.run_ensemble)(
            StateVector.basis(schedule.n_qubits, 0), 6, schedule, dyn.NoiseParams(1e-2, 3.0, 0.01), 12, master_seed=5
        )
        banks.clear()
        _, counts, problems = tracer.rerun_ensembles(dyn.run_ensemble, dyn.JUMP_BIT_FLIP)
        assert problems == []
        assert counts["dynamics.hot_jumps"] > 0 and counts["dynamics.cold_jumps"] > 0
        assert len(banks) == 2  # the store="scalar" and the record=True reruns
        for bank in banks:
            assert counts["dynamics.stream_draws"] == bank.refills * bank.chunk + int(bank.pos.sum())
