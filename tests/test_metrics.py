import csv
import math

import numpy as np
import pytest

import thermoqec as tq
from thermoqec import qstate
from thermoqec.cli import main
from thermoqec.dynamics import EnsembleAccumulator, NoiseParams, run_ensemble
from thermoqec.metrics import compute_step_metrics, round_end_series
from thermoqec.qstate import EIG_FLOOR, StateVector, squared_fidelity, von_neumann_entropy

MEASURED = tq.build_measured_round()


def make_accumulator(rho_data, rho_anc, f2_data=None, count=1):
    """Hand-built single-cell accumulator for exact metric checks."""
    acc = EnsembleAccumulator(1, 1, 6, (0, 1, 2), (3, 4, 5), store="reduced")
    acc.count = count
    acc.rho_data[0, 0] = rho_data * count
    acc.rho_anc[0, 0] = rho_anc * count
    acc.f2_data[0, 0] = (f2_data if f2_data is not None else rho_data[0, 0].real) * count
    acc.f2_anc[0, 0] = rho_anc[0, 0].real * count
    return acc


class TestComputeStepMetrics:
    def test_empty_accumulator_rejected(self):
        acc = EnsembleAccumulator(1, 1, 6, (0, 1, 2), (3, 4, 5))
        with pytest.raises(ValueError):
            compute_step_metrics(acc)

    def test_noiseless_run_all_ones(self):
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, NoiseParams(0, 0, 0), 3, master_seed=0,
            store="full",
        )
        rows = compute_step_metrics(acc)
        assert len(rows) == 32
        for r in rows:
            assert abs(r.f2_data - 1.0) < 1e-9
            assert abs(r.s_data) < 1e-7
            assert r.n_traj == 3

    def test_fully_mixed_data_register(self):
        rho_data = np.eye(8, dtype=complex) / 8
        rho_anc = np.zeros((8, 8), dtype=complex)
        rho_anc[0, 0] = 1.0
        acc = make_accumulator(rho_data, rho_anc)
        row = compute_step_metrics(acc)[0]
        assert row.f2_data == pytest.approx(1 / 8, abs=1e-12)
        assert row.s_data == pytest.approx(3.0, abs=1e-9)
        assert row.s_ancilla == pytest.approx(0.0, abs=1e-9)

    def test_codeword_mixture_is_half(self):
        rho_data = np.zeros((8, 8), dtype=complex)
        rho_data[0, 0] = rho_data[7, 7] = 0.5
        rho_anc = np.zeros((8, 8), dtype=complex)
        rho_anc[0, 0] = 1.0
        acc = make_accumulator(rho_data, rho_anc)
        row = compute_step_metrics(acc)[0]
        assert row.f2_data == pytest.approx(0.5, abs=1e-12)
        rho = acc.mean_rho("data", 0, 0).elements
        assert rho[0, 0].real + rho[7, 7].real == pytest.approx(1.0, abs=1e-12)

    def test_alternate_reference_state(self):
        rho_data = np.zeros((8, 8), dtype=complex)
        rho_data[7, 7] = 1.0
        rho_anc = np.zeros((8, 8), dtype=complex)
        rho_anc[0, 0] = 1.0
        acc = make_accumulator(rho_data, rho_anc, f2_data=0.0)
        f2 = squared_fidelity(acc.mean_rho("data", 0, 0), StateVector.from_bits("111"))
        assert f2 == pytest.approx(1.0, abs=1e-12)

    def test_entropies_nan_without_matrices(self):
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 1, MEASURED, NoiseParams(0, 0, 0), 2, master_seed=0,
            store="scalar",
        )
        rows = compute_step_metrics(acc)
        assert all(np.isnan(r.s_data) and np.isnan(r.s_total) for r in rows)
        assert all(0.0 <= r.f2_data <= 1.0 for r in rows)

    def test_metric_ranges_on_noisy_run(self):
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, NoiseParams(5e-2, 3.0, 0.1), 60,
            master_seed=17, store="full",
        )
        for r in compute_step_metrics(acc):
            assert 0.0 <= r.f2_data <= 1.0 and 0.0 <= r.f2_ancilla <= 1.0
            assert -1e-9 <= r.s_data <= 3.0 + 1e-9
            assert -1e-9 <= r.s_ancilla <= 3.0 + 1e-9
            assert -1e-9 <= r.s_total <= 6.0 + 1e-9

    def test_round_end_series(self):
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 3, MEASURED, NoiseParams(0, 0, 0), 2, master_seed=0,
            store="scalar",
        )
        ends = round_end_series(compute_step_metrics(acc))
        assert ends.shape == (3,)
        assert np.allclose(ends, 1.0, atol=1e-9)


class TestStackedEntropies:
    @pytest.mark.parametrize("store", ["full", "reduced"])
    def test_match_per_matrix_entropy(self, store):
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, NoiseParams(5e-2, 3.0, 0.1), 30,
            master_seed=23, store=store,
        )
        rows = compute_step_metrics(acc)
        assert len(rows) == 2 * 16
        fields = (("total", "s_total"), ("data", "s_data"), ("ancilla", "s_ancilla"))
        for r in rows:
            for which, name in fields:
                value = getattr(r, name)
                if which == "total" and store != "full":
                    assert math.isnan(value)
                    continue
                expect = max(0.0, von_neumann_entropy(acc.mean_rho(which, r.round_index, r.step_index)))
                assert value == pytest.approx(expect, abs=1e-12)
        assert max(r.s_data for r in rows if r.step_index == 15) > 0.01  # the run is noisy

    def test_trace_not_one_rejected(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        acc = make_accumulator(rho * 1.01, rho)
        with pytest.raises(ValueError, match="trace"):
            compute_step_metrics(acc)

    def test_eigenvalue_below_floor_rejected(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        bad = np.diag([0.5, 0.5 - 10 * EIG_FLOOR, 10 * EIG_FLOOR, 0, 0, 0, 0, 0]).astype(complex)
        acc = make_accumulator(rho, bad)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            compute_step_metrics(acc)

    def test_eigenvalue_below_floor_in_last_block_rejected(self):
        # the blocks' eigenvalues are not sorted: singletons first, then the
        # 2x2 block of states 6 and 7 with eigenvalues 0.5 + 1e-9 and -1e-9
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        bad = np.diag([0.5, 0, 0, 0, 0, 0, 0.25, 0.25]).astype(complex)
        bad[6, 7] = bad[7, 6] = 0.25 + 1e-9
        acc = make_accumulator(rho, bad)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            compute_step_metrics(acc)

    def test_non_hermitian_mean_rejected(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        skew = rho.copy()
        skew[0, 1] = 1e-6
        acc = make_accumulator(skew, rho)
        with pytest.raises(ValueError, match="Hermitian"):
            compute_step_metrics(acc)

    def test_pure_state_entropy_is_positive_zero(self, tmp_path):
        # eigenvalues exactly (0, ..., 0, 1) give -(1 * log2 1) = -0.0
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        row = compute_step_metrics(make_accumulator(rho, rho))[0]
        for value in (row.s_data, row.s_ancilla):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        cfg = tmp_path / "pure.cfg"
        cfg.write_text(
            "[experiment]\nprotocol = measured\ngamma_h = 0\nGamma_c = 0\nrounds = 1\n"
            "n_traj = 2\nmaster_seed = 1\nstore = full\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            for name in ("s_total", "s_data", "s_anc"):
                assert not r[name].startswith("-") and float(r[name]) < 1e-9


def grid_accumulator(rho_data, rho_anc, count=1):
    """Hand-built accumulator from (rounds, steps, 8, 8) grids of mean
    matrices, summed over `count` trajectories."""
    rounds, steps = rho_data.shape[:2]
    acc = EnsembleAccumulator(rounds, steps, 6, (0, 1, 2), (3, 4, 5), store="reduced")
    acc.count = count
    acc.rho_data[:] = rho_data * count
    acc.rho_anc[:] = rho_anc * count
    acc.f2_data[:] = rho_data[:, :, 0, 0].real * count
    acc.f2_anc[:] = rho_anc[:, :, 0, 0].real * count
    return acc


def layout_grid():
    """Three rounds of two steps: step 0 diagonal in every round; step 1
    diagonal but for a 2x2 block on states 2 and 5 that only round 1 fills."""
    rng = np.random.default_rng(5)
    p = rng.random((3, 2, 8))
    p /= p.sum(axis=-1, keepdims=True)
    grid = np.zeros((3, 2, 8, 8), dtype=complex)
    grid[:, :, np.arange(8), np.arange(8)] = p
    grid[1, 1, 2, 5] = 0.5 * np.sqrt(p[1, 1, 2] * p[1, 1, 5]) * np.exp(0.7j)
    grid[1, 1, 5, 2] = np.conj(grid[1, 1, 2, 5])
    return grid


class TestBlockLayoutEntropies:
    def check_against_per_matrix(self, acc):
        rows = compute_step_metrics(acc)
        for r in rows:
            for which, name in (("data", "s_data"), ("ancilla", "s_ancilla")):
                expect = max(0.0, von_neumann_entropy(acc.mean_rho(which, r.round_index, r.step_index)))
                assert getattr(r, name) == pytest.approx(expect, abs=1e-12)
        return rows

    def test_diagonal_step_and_one_round_block(self):
        grid = layout_grid()
        rows = self.check_against_per_matrix(grid_accumulator(grid, grid[:, ::-1]))
        assert len(rows) == 6
        # the block mixes its two states: round 1, step 1 differs from its diagonal
        diag = np.diagonal(grid[1, 1]).real
        assert rows[3].s_data < -np.sum(diag * np.log2(diag)) - 1e-3

    def test_count_seven_matches_count_one(self):
        grid = layout_grid()
        one = compute_step_metrics(grid_accumulator(grid, grid[:, ::-1]))
        seven = self.check_against_per_matrix(grid_accumulator(grid, grid[:, ::-1], count=7))
        for a, b in zip(one, seven):
            for name in ("s_data", "s_ancilla"):
                assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-12)

    def test_imaginary_diagonal_rejected(self):
        grid = layout_grid()
        bad = grid.copy()
        bad[2, 0, 3, 3] += 1e-6j
        with pytest.raises(ValueError, match="not Hermitian"):
            compute_step_metrics(grid_accumulator(bad, grid))

    @staticmethod
    def noisy_rows(rounds, seed, fields=("s_total", "s_data", "s_ancilla")):
        # the run reduces its matrix sums to entropies as it goes, so each
        # chunking is applied by a run of its own with the same draws
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), rounds, MEASURED, NoiseParams(5e-2, 3.0, 0.1), 30,
            master_seed=seed, store="full",
        )
        return [[getattr(r, f) for f in fields] for r in compute_step_metrics(acc)]

    def test_entropies_do_not_depend_on_chunking(self, monkeypatch):
        whole = self.noisy_rows(2, 23)
        monkeypatch.setattr(qstate, "_BLOCK_BYTES", 1024)  # one 8x8 block or one entry row per chunk
        split = self.noisy_rows(2, 23)
        assert split == whole

    @pytest.mark.parametrize("block_bytes", [3 * 1024 + 512, 5 * 8192 + 100])
    def test_chunks_of_a_few_steps_match_whole_rounds(self, monkeypatch, block_bytes):
        # chunks of 3 or 5 steps leave a shorter last chunk in most runs of steps
        monkeypatch.setattr(qstate, "_BLOCK_BYTES", 2**24)  # every run of steps in one chunk
        whole = self.noisy_rows(3, 29)
        monkeypatch.setattr(qstate, "_BLOCK_BYTES", block_bytes)
        split = self.noisy_rows(3, 29)
        assert split == whole

    def test_one_round_makes_few_stacked_calls(self, monkeypatch):
        # one call per step would make 16; blocks of one size share calls
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        self.noisy_rows(1, 23)  # the ensemble's only eigensolves are its entropies
        assert len(MEASURED) == 16 and 0 < len(calls) < 16


class TestAncillaFidelityRoundIndependence:
    def test_after_cooling_fidelity_stable_at_strong_cooling(self):
        # with a fast cold coupling the post-cooling ancilla fidelity is set
        # by the reservoir, not by history: rounds past the first transient
        # agree with their mean within Monte Carlo spread
        noise = NoiseParams(1e-3, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 5, MEASURED, noise, 2000, master_seed=101, store="scalar"
        )
        after_cooling = acc.mean_f2_anc()[1:, 0]  # skip the pristine first round
        mean = after_cooling.mean()
        sigma = np.sqrt(mean * (1 - mean) / 2000)
        assert np.max(np.abs(after_cooling - mean)) <= 3 * sigma
