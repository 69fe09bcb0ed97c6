import numpy as np
import pytest

import thermoqec as tq
from thermoqec.compiler import ControlTerm, GateSchedule, Step, schedule_net_unitary
from thermoqec.dynamics import (
    JUMP_BIT_FLIP,
    NoiseParams,
    evolve_master_equation,
    run_ensemble,
    run_round,
    trajectory_stream,
    trajectory_substep,
)
from thermoqec.qstate import PAULI_X, StateVector, apply_single_qubit_unitary, trace_distance

MEASURED = tq.build_measured_round()
MEASUREMENT_FREE = tq.build_measurement_free_round()
ZERO_NOISE = NoiseParams(0.0, 0.0, 0.0)


def idle_schedule(n_qubits, n_steps, ancilla=()):
    data = tuple(q for q in range(n_qubits) if q not in ancilla)
    return GateSchedule(n_qubits, data, tuple(ancilla), tuple(Step() for _ in range(n_steps)))


def cooling_schedule(n_qubits, ancilla, n_steps=1):
    data = tuple(q for q in range(n_qubits) if q not in ancilla)
    steps = tuple(Step(cooling_window=True) for _ in range(n_steps))
    return GateSchedule(n_qubits, data, tuple(ancilla), steps)


class TestNoiseParams:
    def test_rates(self):
        p = NoiseParams(1e-3, 3.0, 0.01)
        assert p.rate_down == pytest.approx(3.03)
        assert p.rate_up == pytest.approx(0.03)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseParams(-1e-3, 0.0, 0.0)

    def test_cooling_profiles(self):
        p = NoiseParams(0, 1, 0, cooling_gate="window")
        prof = p.cooling_profile(MEASURED)
        assert prof[0] and not prof[1:].any()
        assert NoiseParams(0, 1, 0, cooling_gate="always").cooling_profile(MEASURED).all()
        assert not NoiseParams(0, 1, 0, cooling_gate="off").cooling_profile(MEASURED).any()
        explicit = NoiseParams(0, 1, 0, cooling_gate=(1,) * 16)
        assert explicit.cooling_profile(MEASURED).all()
        with pytest.raises(ValueError):
            NoiseParams(0, 1, 0, cooling_gate=(1, 0)).cooling_profile(MEASURED)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            NoiseParams(0, 1, 0, cooling_gate="sometimes")


class TestTrajectorySubstep:
    def test_closed_system_is_unitary(self):
        rng = trajectory_stream(0, 0)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector(2, amps / np.linalg.norm(amps))
        term = ControlTerm("x_rotation", (0,), np.pi / 2)
        out = state
        for _ in range(20):
            out, events = trajectory_substep(out, (term,), 0.05, ZERO_NOISE, False, rng)
            assert events == []
        expected = schedule_net_unitary(GateSchedule(2, (0, 1), (), (Step((term,)),))).matrix
        assert np.linalg.norm(out.amplitudes - expected @ state.amplitudes) < 1e-10
        assert abs(out.norm() - 1.0) < 1e-12

    def test_rejects_oversized_substep(self):
        state = StateVector.basis(1, 0)
        with pytest.raises(ValueError):
            trajectory_substep(state, (), 1.0, NoiseParams(2.0, 0, 0), False, trajectory_stream(0, 0))

    def test_flip_events_recorded(self):
        state = StateVector.basis(1, 0)
        rng = trajectory_stream(1, 1)
        flips = 0
        for _ in range(3000):
            state, events = trajectory_substep(state, (), 1.0, NoiseParams(5e-2, 0, 0), False, rng)
            for q, kind in events:
                assert kind == JUMP_BIT_FLIP and q == 0
                flips += 1
        p = 1 - np.exp(-5e-2)
        assert abs(flips - 3000 * p) < 3 * np.sqrt(3000 * p * (1 - p))


class TestPoissonStatistics:
    def test_flip_count_matches_poisson(self):
        # constant-rate jump process: counts over 1e4 unit steps at rate
        # 1e-3 are Poisson with mean 10 up to the one-jump-per-step cutoff
        sched = idle_schedule(1, 10_000)
        noise = NoiseParams(1e-3, 0.0, 0.0)
        acc, recs = run_ensemble(
            StateVector.basis(1, 0), 1, sched, noise, 500, master_seed=3, store="scalar",
            record=True, n_sub=1,
        )
        counts = np.array([len(r.jumps) for r in recs])
        assert abs(counts.mean() - 10.0) < 3 * np.sqrt(10.0 / 500)
        # dispersion consistent with Poisson: var/mean near 1
        assert 0.8 < counts.var() / counts.mean() < 1.2
        assert all(r.times_ordered() for r in recs)


class TestCoolingDecay:
    def test_excited_ancilla_decays_exponentially(self):
        # P(still excited after t) = exp(-A t) at zero reservoir occupancy
        sched = cooling_schedule(2, (1,))
        noise = NoiseParams(0.0, 3.0, 0.0)
        init = StateVector.from_bits("01")
        acc, _ = run_ensemble(init, 1, sched, noise, 3000, master_seed=11, store="scalar")
        p_exc = 1 - acc.mean_f2_anc()[0, 0]
        expect = np.exp(-3.0)
        assert abs(p_exc - expect) < 3 * np.sqrt(expect * (1 - expect) / 3000)

    def test_cooling_superposition_reweights_amplitudes(self):
        # no-jump branch must shift weight toward the ground state
        sched = cooling_schedule(1, (0,))
        noise = NoiseParams(0.0, 1.0, 0.0)
        init = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        acc, _ = run_ensemble(init, 1, sched, noise, 4000, master_seed=12, store="scalar")
        # master equation: p_exc(1) = 0.5 * exp(-A) at n_c = 0
        expect = 0.5 * np.exp(-1.0)
        p_exc = 1 - acc.mean_f2_anc()[0, 0]
        assert abs(p_exc - expect) < 3 * np.sqrt(expect * (1 - expect) / 4000)


class TestRunRound:
    def test_fresh_ancilla_zero_noise_identity(self):
        out, samples, _ = run_round(
            StateVector.basis(6, 0), MEASURED, ZERO_NOISE, trajectory_stream(0, 0)
        )
        assert np.all(np.abs(samples[:, 0] - 1) < 1e-9)
        # ancillas pass through superpositions mid-gate but end clean
        assert abs(samples[0, 1] - 1) < 1e-9 and abs(samples[-1, 1] - 1) < 1e-9
        assert abs(out.amplitudes[0] - 1) < 1e-9 or abs(abs(out.amplitudes[0]) - 1) < 1e-9

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_single_flip_corrected(self, schedule):
        base = StateVector.basis(schedule.n_qubits, 0)
        for q in schedule.data_qubits:
            state = apply_single_qubit_unitary(base, q, PAULI_X)
            _, samples, _ = run_round(state, schedule, ZERO_NOISE, trajectory_stream(0, 0))
            assert abs(samples[-1, 0] - 1.0) < 1e-9

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_double_flip_miscorrected(self, schedule):
        base = StateVector.basis(schedule.n_qubits, 0)
        pairs = [(0, 1), (0, 2), (1, 2)]
        for qa, qb in pairs:
            state = apply_single_qubit_unitary(base, qa, PAULI_X)
            state = apply_single_qubit_unitary(state, qb, PAULI_X)
            out, samples, _ = run_round(state, schedule, ZERO_NOISE, trajectory_stream(0, 0))
            assert samples[-1, 0] < 1e-9
            # data register lands on the complementary codeword
            n = schedule.n_qubits
            pop = np.abs(out.amplitudes.reshape(8, 2 ** (n - 3)))[7].sum()
            assert abs(pop - 1.0) < 1e-9


class TestSeedDeterminism:
    def test_identical_runs_bit_identical(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        acc1, recs1 = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, noise, 8, master_seed=99, record=True
        )
        acc2, recs2 = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, noise, 8, master_seed=99, record=True
        )
        for a, b in zip(recs1, recs2):
            assert a.jumps == b.jumps and a.outcomes == b.outcomes
        assert np.array_equal(acc1.f2_data, acc2.f2_data)
        assert np.array_equal(acc1.rho_data, acc2.rho_data)

    def test_trajectory_independent_of_batch(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        _, big = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, noise, 6, master_seed=5, record=True
        )
        _, solo = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, noise, 1, master_seed=5,
            traj_indices=[3], record=True,
        )
        assert solo[0].jumps == big[3].jumps
        assert solo[0].outcomes == big[3].outcomes

    def test_scalar_path_consumes_same_stream(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        rng = trajectory_stream(7, 5)
        state = StateVector.basis(6, 0)
        rec = tq.TrajectoryRecord(7, 5)
        grids = []
        for rnd in range(2):
            state, samples, rec = run_round(state, MEASURED, noise, rng, t0=16 * rnd, record=rec)
            grids.append(samples)
        acc, recs = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, noise, 1, master_seed=7,
            traj_indices=[5], record=True,
        )
        assert recs[0].jumps == rec.jumps
        assert recs[0].outcomes == rec.outcomes
        for rnd, samples in enumerate(grids):
            assert np.max(np.abs(samples[:, 0] - acc.f2_data[rnd])) < 1e-12
            assert np.max(np.abs(samples[:, 1] - acc.f2_anc[rnd])) < 1e-12

    def test_cold_coupling_off_equals_zero_rate(self):
        base = dict(gamma_h=2e-3, n_c=0.3)
        off = NoiseParams(Gamma_c=5.0, cooling_gate="off", **base)
        zero = NoiseParams(Gamma_c=0.0, cooling_gate="window", **base)
        acc_off, rec_off = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, off, 16, master_seed=8, record=True
        )
        acc_zero, rec_zero = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, zero, 16, master_seed=8, record=True
        )
        for a, b in zip(rec_off, rec_zero):
            assert a.jumps == b.jumps and a.outcomes == b.outcomes
        assert np.array_equal(acc_off.f2_data, acc_zero.f2_data)
        assert np.array_equal(acc_off.rho_data, acc_zero.rho_data)


class TestAccumulator:
    def test_single_trajectory_projector(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 1, MEASURED, noise, 1, master_seed=4, store="full"
        )
        rho = acc.mean_rho("total", 0, -1)
        evals = np.linalg.eigvalsh(rho.elements)
        assert abs(evals[-1] - 1.0) < 1e-10  # still a pure projector

    def test_mean_trace_one(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, noise, 40, master_seed=6, store="full"
        )
        for rnd in range(2):
            for which in ("data", "ancilla", "total"):
                tr = np.trace(acc.mean_rho(which, rnd, -1).elements).real
                assert abs(tr - 1.0) < 1e-10

    def test_merge_matches_joint_run(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        whole, _ = run_ensemble(
            StateVector.basis(6, 0), 1, MEASURED, noise, 10, master_seed=13
        )
        part_a, _ = run_ensemble(
            StateVector.basis(6, 0), 1, MEASURED, noise, 6, master_seed=13,
            traj_indices=range(6),
        )
        part_b, _ = run_ensemble(
            StateVector.basis(6, 0), 1, MEASURED, noise, 4, master_seed=13,
            traj_indices=range(6, 10),
        )
        ab = part_a.merge(part_b)
        ba = part_b.merge(part_a)
        assert ab.count == ba.count == whole.count
        assert np.allclose(ab.f2_data, whole.f2_data, atol=1e-12)
        assert np.allclose(ba.f2_data, ab.f2_data, atol=1e-12)
        assert np.allclose(ab.rho_data, whole.rho_data, atol=1e-12)

    def test_merge_rejects_incompatible(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        a, _ = run_ensemble(StateVector.basis(6, 0), 1, MEASURED, noise, 2, master_seed=1)
        b, _ = run_ensemble(StateVector.basis(6, 0), 2, MEASURED, noise, 2, master_seed=1)
        with pytest.raises(ValueError):
            a.merge(b)


class TestMasterEquationOracle:
    def test_unitary_limit_matches_compiled_round(self):
        rng = np.random.default_rng(14)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        state = StateVector(5, amps / np.linalg.norm(amps))
        out = evolve_master_equation(state.projector(), MEASUREMENT_FREE, ZERO_NOISE)
        u = schedule_net_unitary(MEASUREMENT_FREE).matrix
        expect = u @ state.projector().elements @ u.conj().T
        assert np.max(np.abs(out.rho_steps[0, -1] - expect)) < 1e-8

    def test_trace_and_hermiticity_preserved(self):
        noise = NoiseParams(1e-2, 3.0, 1e-2)
        rho0 = StateVector.basis(6, 0).projector()
        out = evolve_master_equation(rho0, MEASURED, noise)
        final = out.rho_steps[0, -1]
        assert abs(np.trace(final).real - 1.0) < 1e-8
        assert np.max(np.abs(final - final.conj().T)) < 1e-10

    def test_bit_flip_channel_analytic(self):
        # single qubit, no controls: populations relax to 1/2 at rate 2*gamma
        gamma = 0.05
        sched = idle_schedule(1, 10)
        out = evolve_master_equation(
            StateVector.basis(1, 0).projector(), sched, NoiseParams(gamma, 0, 0)
        )
        for step in range(10):
            t = step + 1.0
            p0 = out.rho_steps[0, step][0, 0].real
            assert abs(p0 - 0.5 * (1 + np.exp(-2 * gamma * t))) < 1e-8

    def test_bit_flip_channel_preserves_x_eigenstate(self):
        sched = idle_schedule(1, 5)
        plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        out = evolve_master_equation(plus.projector(), sched, NoiseParams(0.1, 0, 0))
        assert np.max(np.abs(out.rho_steps[0, -1] - plus.projector().elements)) < 1e-8

    def test_cooling_detailed_balance(self):
        # steady excited population n_c / (2 n_c + 1) per ancilla
        n_c = 0.3
        sched = cooling_schedule(1, (0,), n_steps=30)
        out = evolve_master_equation(
            StateVector.basis(1, 1).projector(), sched, NoiseParams(0.0, 2.0, n_c)
        )
        p_exc = out.rho_steps[0, -1][1, 1].real
        assert abs(p_exc - n_c / (2 * n_c + 1)) < 1e-8

    def test_oracle_measurement_is_ensemble_limit(self):
        # heavier noise for signal; one round, modest ensemble
        noise = NoiseParams(1e-2, 3.0, 1e-2)
        psi = StateVector.basis(6, 0)
        oracle = evolve_master_equation(psi.projector(), MEASURED, noise)
        acc, _ = run_ensemble(psi, 1, MEASURED, noise, 2000, master_seed=21, store="full",
                              per_step_rho=False)
        td = trace_distance(acc.mean_rho("total", 0), oracle.rho(0))
        assert td < 5 / np.sqrt(2000)


class TestMonteCarloConvergence:
    def test_gap_shrinks_like_inverse_sqrt(self):
        # trace distance to the oracle at growing trajectory counts; the
        # log-log slope should sit near -1/2
        noise = NoiseParams(1e-2, 3.0, 1e-2)
        psi = StateVector.basis(6, 0)
        oracle = evolve_master_equation(psi.projector(), MEASURED, noise).rho(0)
        sizes = (500, 2000, 8000)
        gaps = []
        for k, n in enumerate(sizes):
            tds = []
            for rep in range(2):
                acc, _ = run_ensemble(
                    psi, 1, MEASURED, noise, n, master_seed=31 + k,
                    traj_indices=range(rep * n, (rep + 1) * n),
                    store="full", per_step_rho=False,
                )
                tds.append(trace_distance(acc.mean_rho("total", 0), oracle))
            gaps.append(np.mean(tds))
        slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
        assert -0.65 < slope < -0.35, (gaps, slope)
