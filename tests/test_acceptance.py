"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured numbers.

Statistical checks run at fixed seeds with their tolerances derived from the
stated allowances (3-sigma binomial/Monte Carlo where specified). Three
checks (5a, 7a and 8) encode closed-form targets that the exact model
contradicts; they are implemented as stated and fail with diagnostic output
rather than being loosened. `scripts/exact_values.py` computes the exact
values they print: for 7a the expansion of the weight-class chain's fixed
point, for 5a and 8 the fixed point of the exact measured-round map.
Deterministic companions of 5a and 8 pin those exact values at 1e-6, so
engine regressions show without sampling noise.

9a takes its noise allowances from a delete-one-group jackknife of the
pooled entropy estimates over 20 groups of trajectories.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import thermoqec as tq
from thermoqec.cli import _verification_table
from thermoqec.compiler import phase_aligned_distance
from thermoqec.dynamics import (
    NoiseParams,
    evolve_master_equation,
    run_ensemble,
)
from thermoqec.metrics import compute_step_metrics
from thermoqec.qstate import StateVector, bit_mask, gather_blocks, mean_entropies, pattern_blocks, trace_distance
from thermoqec.ratemodel import (
    RoundEventParams,
    ancilla_steady_fidelity,
    chain_decay_constant,
    chain_steady_state,
    decay_constant_series,
    event_probabilities,
    first_round_weight0,
    flow_coefficients,
    slow_cooling_steady_fidelity,
    steady_weight0_series,
)

MEASURED = tq.build_measured_round()
MEASUREMENT_FREE = tq.build_measurement_free_round()
SEED = 20260811


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / n)


def exact_values():
    """scripts/exact_values.py, which builds the exact measured-round map."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "exact_values.py"
    spec = importlib.util.spec_from_file_location("exact_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def jackknife_se(leave_one_out: np.ndarray) -> np.ndarray:
    """Delete-one-group jackknife standard error of a pooled estimator,
    from its values recomputed with each group left out (groups on axis 0)."""
    g = leave_one_out.shape[0]
    centered = leave_one_out - leave_one_out.mean(axis=0)
    return np.sqrt((g - 1) / g * (centered**2).sum(axis=0))


class TestCriterion1GateVerification:
    def test_compiled_unitaries_match_canonical(self):
        worst = 0.0
        details = []
        for name, u, canon in _verification_table():
            d = phase_aligned_distance(u, canon)
            worst = max(worst, d)
            details.append(f"{name}={d:.2e}")
        ok = worst < 1e-9
        assert report("1 gate verification", ok, "; ".join(details)), details


class TestCriterion2CodeCorrectness:
    @pytest.mark.parametrize(
        "schedule, tag", [(MEASURED, "measured"), (MEASUREMENT_FREE, "measurement-free")]
    )
    def test_weight1_corrected_weight2_miscorrected(self, schedule, tag):
        n = schedule.n_qubits
        noise = NoiseParams(0.0, 0.0, 0.0)

        def round_end_f2(mask, index):
            acc, _ = run_ensemble(
                StateVector.basis(n, mask), 1, schedule, noise, 1, master_seed=SEED, traj_indices=[index], store="scalar"
            )
            return acc.f2_data[0, -1]

        singles = [round_end_f2(bit_mask(q, n), q) for q in (0, 1, 2)]
        pairs = ((0, 1), (0, 2), (1, 2))
        doubles = [round_end_f2(bit_mask(qa, n) ^ bit_mask(qb, n), 10 * qa + qb) for qa, qb in pairs]
        ok = all(abs(f - 1.0) < 1e-9 for f in singles) and all(f < 1e-9 for f in doubles)
        assert report(
            f"2 code correctness ({tag})",
            ok,
            f"weight-1 restored {np.round(singles, 12)}, weight-2 sent to complement "
            f"(residual {np.format_float_scientific(max(doubles), 2)})",
        )


class TestCriterion3AncillaSteadyFidelity:
    def test_after_cooling_matches_reservoir_fixed_point(self):
        results = []
        ok = True
        for k, n_c in enumerate((0.0, 1e-3, 1e-2, 1e-1)):
            noise = NoiseParams(1e-3, 3.0, n_c)
            acc, _ = run_ensemble(
                StateVector.basis(6, 0), 2, MEASURED, noise, 2000,
                master_seed=SEED + k, store="scalar",
            )
            sim = acc.mean_f2_anc()[0, 0]  # immediately after the cooling step
            pred = ancilla_steady_fidelity(n_c)
            tol = binomial_3sigma(sim, 2000)
            ok &= abs(sim - pred) <= tol
            results.append(f"n_c={n_c}: sim={sim:.4f} pred={pred:.4f} tol={tol:.4f}")
        assert report("3 ancilla steady fidelity", ok, "; ".join(results))


class TestCriterion4TrajectoryOracleAgreement:
    def test_trace_distance_each_round(self):
        noise = NoiseParams(1e-3, 3.0, 1e-2)
        psi = StateVector.basis(6, 0)
        oracle = evolve_master_equation(psi.projector(), MEASURED, noise, rounds=5)
        acc, _ = run_ensemble(
            psi, 5, MEASURED, noise, 5000, master_seed=SEED, store="full"
        )
        dists = [
            trace_distance(acc.mean_rho("total", rnd), oracle.rho(rnd)) for rnd in range(5)
        ]
        ok = max(dists) <= 0.05
        assert report(
            "4 trajectory-oracle agreement",
            ok,
            "trace distances " + " ".join(f"{d:.4f}" for d in dists) + " (limit 0.05)",
        )


class TestCriterion5SteadyStatePlateaus:
    def test_strong_error_correction_plateau(self):
        # The exact round map (scripts/exact_values.py round-map 5a) relaxes
        # in 46 rounds to P(000) = 0.5980, P(111) = 0.2874: d1, left on
        # ancilla 3 by the decode, survives the one-step cooling window with
        # probability e^-3.03 and then miscorrects the 111 codeword.
        rounds = 8000
        noise = NoiseParams(1e-3, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), rounds, MEASURED, noise, 500,
            master_seed=SEED, store="scalar",
        )
        ends = acc.mean_f2_data()[:, -1]
        plateau = ends[-1000:].mean()
        ok = abs(plateau - 0.5) <= 0.05
        assert report(
            "5a strong-EC plateau",
            ok,
            f"mean of rounds {rounds - 999}-{rounds} = {plateau:.4f} (target 0.5 +- 0.05); "
            f"round 1000: {ends[999]:.3f}, 4000: {ends[3999]:.3f}, {rounds}: {ends[-1]:.3f}; "
            f"exact round-map fixed point P(000)=0.5980, P(111)=0.2874 "
            f"(scripts/exact_values.py round-map 5a)",
        )

    def test_exact_round_map_fixed_point(self):
        # deterministic companion of 5a: pins the exact model's long-time state
        v = exact_values().round_map_values("5a")
        assert v["data_000"] == pytest.approx(0.59800040, abs=1e-6)
        assert v["data_111"] == pytest.approx(0.28736946, abs=1e-6)
        assert v["relaxation_rounds"] == pytest.approx(45.796930, rel=1e-6)

    def test_heavy_heating_plateau(self):
        noise = NoiseParams(0.1, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 60, MEASURED, noise, 500,
            master_seed=SEED, store="scalar",
        )
        plateau = acc.mean_f2_data()[-30:, -1].mean()
        ok = abs(plateau - 0.125) <= 0.02
        assert report(
            "5b heavy-heating plateau", ok, f"mean of rounds 31-60 = {plateau:.4f} (target 0.125 +- 0.02)"
        )


class TestCriterion6FirstRoundDrop:
    def test_first_round_weight0_matches_model(self):
        n_traj = 500
        noise = NoiseParams(1e-3, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 1, MEASURED, noise, n_traj,
            master_seed=SEED, store="scalar",
        )
        sim = acc.mean_f2_data()[0, -1]
        pred = first_round_weight0(RoundEventParams(ancilla_steady_fidelity(1e-2), 15e-3, 16e-3))
        tol = binomial_3sigma(sim, n_traj)
        ok = abs(sim - pred) <= tol
        assert report(
            "6 first-round drop",
            ok,
            f"sim={sim:.4f} first-order model={pred:.4f} |diff|={abs(sim - pred):.4f} "
            f"3sigma={tol:.4f} (n_traj={n_traj}; the model books every in-round data "
            f"error as correctable, so a ~0.02 systematic remains at higher statistics)",
        )


class TestCriterion7RateChainPerturbative:
    def test_a_steady_state_vs_matched_series(self):
        alpha = 1e-3
        flows = flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))
        # The exact fixed point: the slow mode decays over 1/(42 a^2) ~ 24,000
        # rounds, too slowly for a plateau fitted to the iterates to resolve
        # the tolerance.
        exact = chain_steady_state(flows).P0
        matched = steady_weight0_series(alpha)
        tol = 10 * alpha**3
        ok = abs(exact - matched) <= tol
        third = 0.5 * (1 - 3 * alpha + 24 * alpha**3)
        report(
            "7a chain steady state vs matched series",
            ok,
            f"chain fixed point (eigenvector)={exact:.12f}, matched series (1-3a+24a^2)/2="
            f"{matched:.12f}, |diff|={abs(exact - matched):.3e} > tol={tol:.1e}; the fixed "
            f"point expands as 1/2 - 3a/2 + 0a^2 + 12a^3 - 21a^4 + O(a^5) "
            f"(scripts/exact_values.py chain-series), and (1-3a+24a^3)/2={third:.12f} "
            f"is {abs(exact - third):.3e} away",
        )
        assert ok, "matched second-order steady state is not the chain's fixed point"

    def test_b_decay_constant_second_order(self):
        results = []
        ok = True
        for alpha in (5e-4, 1e-3, 2e-3):
            flows = flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))
            delta = chain_decay_constant(flows)
            coeff = (delta - 1.0) / alpha**2
            ok &= abs(coeff - 42.0) <= 2.0
            results.append(f"alpha={alpha}: (delta-1)/a^2={coeff:.3f}")
        assert report(
            "7b chain decay constant",
            ok,
            "; ".join(results) + f" (target 42 +- 2; series {decay_constant_series(1e-3):.6f})",
        )


class TestCriterion8SlowCoolingSelfConsistency:
    def test_long_time_ancilla_fidelity(self):
        gamma, Gamma_c, n_c = 1e-3, 0.1, 1e-2
        n_traj, rounds, tail = 600, 200, 80
        # the 16-step cooling exposure per round in the stated survival
        # x = exp(-16 A) requires the cold coupling held on all round
        noise = NoiseParams(gamma, Gamma_c, n_c, cooling_gate="always")
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), rounds, MEASURED, noise, n_traj,
            master_seed=SEED, store="scalar",
        )
        # ancilla fidelity at the readout: the measured-pattern indicator
        sim = acc.mean_f2_anc()[-tail:, 14].mean()
        a_rate = Gamma_c * (n_c + 1.0)
        pred = slow_cooling_steady_fidelity(96 * gamma, float(np.exp(-16 * a_rate)))
        alt = slow_cooling_steady_fidelity(96 * gamma, float(np.exp(-a_rate)))
        tol = binomial_3sigma(sim, n_traj)
        ok = abs(sim - pred) <= tol
        report(
            "8 slow-cooling self-consistency",
            ok,
            f"sim={sim:.4f} vs stated F_ss(alpha=96g, x=e^-16A)={pred:.4f}, "
            f"|diff|={abs(sim - pred):.3f} > 3sigma={tol:.3f}; the exact round map "
            f"(scripts/exact_values.py round-map 8) gives 0.4898 "
            f"(relaxation time 5.6 rounds). The self-consistency ansatz cools every "
            f"recycled error, but errors parked on the (never cooled) data register "
            f"re-imprint each round (one-step-survival variant F_ss(x=e^-A)={alt:.4f} "
            f"lands close by coincidence)",
        )
        assert ok, "stated slow-cooling fixed point is unreachable for the full register"

    def test_exact_round_map_readout_fidelity(self):
        # deterministic companion of 8: pins the exact model's readout value
        v = exact_values().round_map_values("8")
        assert v["readout_ancilla_000"] == pytest.approx(0.48979954, abs=1e-6)


class TestCriterion9EntropyCycle:
    def test_effective_cooling_entropy_floor_and_data_growth(self):
        # Trajectories 0-1999 in 20 groups of 100. Streams are keyed by
        # trajectory index, so the groups' matrix sums add up to the pooled
        # run's, whatever the grouping. The allowances are delete-one-group
        # jackknife standard errors of the pooled entropy estimates; only the
        # data and ancilla entropies are read, so the reduced store suffices.
        noise = NoiseParams(1e-3, 3.0, 1e-2)
        n_groups, size = 20, 100
        groups = [
            run_ensemble(
                StateVector.basis(6, 0), 10, MEASURED, noise, size,
                master_seed=SEED, traj_indices=range(size * g, size * (g + 1)),
                store="reduced",
            )[0]
            for g in range(n_groups)
        ]
        # (groups, rounds, steps, 8, 8) sums, solved in the accumulator's
        # layouts: the data qubits are classical, the ancilla matrices dense
        assert all(g.classical == (0, 1, 2) and g.window == 10 for g in groups)
        rho_data = np.array([g.rho_data for g in groups])
        rho_anc = np.array([g.rho_anc for g in groups])
        data_layout, anc_layout = pattern_blocks(3, [0, 1, 2]), pattern_blocks(3, [])

        def floors_and_data_means(data, anc, count):
            s_anc = mean_entropies(gather_blocks(anc, anc_layout), count)
            s_data = mean_entropies(gather_blocks(data, data_layout), count)
            return s_anc[3:, 0], s_data.mean(axis=1)

        data_sum, anc_sum = rho_data.sum(axis=0), rho_anc.sum(axis=0)
        floors, data_means = floors_and_data_means(data_sum, anc_sum, n_groups * size)
        loo = [
            floors_and_data_means(data_sum - d, anc_sum - a, (n_groups - 1) * size) for d, a in zip(rho_data, rho_anc)
        ]
        floors_loo = np.array([f for f, _ in loo])
        increments_loo = np.diff(np.array([d for _, d in loo]), axis=1)

        dev = floors - floors.mean()
        allow = np.maximum(3 * jackknife_se(floors_loo - floors_loo.mean(axis=1, keepdims=True)), 1e-3)
        floor_ok = np.all(np.abs(dev) <= allow)

        increments = np.diff(data_means)
        se_diff = jackknife_se(increments_loo)
        data_ok = np.all(increments >= -3 * se_diff)

        ok = floor_ok and data_ok
        assert report(
            "9a entropy cycle (effective cooling)",
            ok,
            f"ancilla floor rounds 4-10: {np.round(floors, 3)} (3sig allow "
            f"{np.round(allow, 3)}, jackknife over {n_groups} groups); data round-mean "
            f"increments {np.round(increments, 3)} vs -3sig {np.round(-3 * se_diff, 3)}",
        )

    def test_ineffective_cooling_ancilla_entropy_grows(self):
        noise = NoiseParams(1e-3, 1e-2, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 10, MEASURED, noise, 1500,
            master_seed=SEED, store="full",
        )
        rows = compute_step_metrics(acc)
        s_anc = np.array([r.s_ancilla for r in rows]).reshape(10, 16).mean(axis=1)
        ok = bool(np.all(np.diff(s_anc) > 0))
        assert report(
            "9b entropy cycle (ineffective cooling)",
            ok,
            f"ancilla entropy round means strictly increasing: {np.round(s_anc, 3)}",
        )


class TestCriterion10MeasurementFree:
    def test_low_heating_monotone_toward_half(self):
        noise = NoiseParams(1e-4, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(5, 0), 700, MEASUREMENT_FREE, noise, 400,
            master_seed=SEED, store="scalar",
        )
        ends = acc.mean_f2_data()[:, -1]
        blocks = ends.reshape(7, 100).mean(axis=1)
        noise_allow = 3 * np.sqrt(0.25 / (400 * 20))  # block mean of correlated rounds
        monotone = bool(np.all(np.diff(blocks) <= noise_allow))
        plateau = ends[-150:].mean()
        in_range = 0.40 <= plateau <= 0.55
        ok = monotone and in_range
        assert report(
            "10a measurement-free low heating",
            ok,
            f"100-round block means {np.round(blocks, 3)} decreasing, plateau (last 150) "
            f"= {plateau:.4f} in [0.40, 0.55]",
        )

    def test_high_heating_plateau_eighth(self):
        noise = NoiseParams(1e-2, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(5, 0), 60, MEASUREMENT_FREE, noise, 400,
            master_seed=SEED, store="scalar",
        )
        plateau = acc.mean_f2_data()[-30:, -1].mean()
        ok = abs(plateau - 0.125) <= 0.02
        assert report(
            "10b measurement-free heavy heating",
            ok,
            f"mean of rounds 31-60 = {plateau:.4f} (target 0.125 +- 0.02)",
        )
