import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoqec as tq
from thermoqec import dynamics
from thermoqec.compiler import (
    HADAMARD_PULSE,
    PUSHING_GATE,
    X_ROTATION,
    Z_ROTATION,
    ControlTerm,
    GateSchedule,
    Step,
    schedule_net_unitary,
    step_unitary,
    term_generator,
)
from thermoqec.dynamics import (
    JUMP_BIT_FLIP,
    JUMP_COOL,
    JUMP_HEAT,
    EnsembleAccumulator,
    NoiseParams,
    _plain_groups,
    _run_batch,
    _SchedulePlan,
    _SplitPlan,
    _StreamBank,
    _symmetric_qubits,
    evolve_master_equation,
    run_ensemble,
    trajectory_stream,
)
from thermoqec.metrics import compute_step_metrics
from thermoqec.qstate import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    StateVector,
    bit_mask,
    block_eigvalsh,
    mean_entropies,
    partial_trace,
    pattern_blocks,
    trace_distance,
)

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


def one_round(state, schedule, noise, master_seed=0, index=0, store="full", n_sub=dynamics.DEFAULT_N_SUB):
    """Trajectory `index` of a run seeded with `master_seed` through one
    round: (accumulator, record)."""
    acc, recs = run_ensemble(
        state, 1, schedule, noise, 1, master_seed=master_seed, traj_indices=[index], record=True, store=store,
        n_sub=n_sub,
    )
    return acc, recs[0]


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

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            NoiseParams(0, 1, 0, cooling_gate="sometimes")
        with pytest.raises(ValueError):
            NoiseParams(0, 1, 0, cooling_gate="off")  # Gamma_c = 0 switches the cold coupling off
        with pytest.raises(ValueError):
            NoiseParams(0, 1, 0, cooling_gate=(1,) * 16)  # per-step sequences are not a policy


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
        assert all(times == sorted(times) for times in ([t for t, _, _ in r.jumps] for r in recs))
        assert all(q == 0 and kind == JUMP_BIT_FLIP for r in recs for _, q, kind in r.jumps)


class TestTrajectorySubstep:
    def test_flip_events_recorded(self):
        # one trajectory, 3000 unit substeps at rate 5e-2: each substep
        # flips the qubit with probability 1 - exp(-5e-2), and every flip
        # lands in the record as a JUMP_BIT_FLIP on qubit 0
        _, record = one_round(
            StateVector.basis(1, 0), idle_schedule(1, 3000), NoiseParams(5e-2, 0, 0), master_seed=1, index=1,
            store="scalar", n_sub=1,
        )
        assert record.jumps and all(q == 0 and kind == JUMP_BIT_FLIP for _, q, kind in record.jumps)
        times = [t for t, _, _ in record.jumps]
        assert times == sorted(times)
        p = 1 - np.exp(-5e-2)
        assert abs(len(record.jumps) - 3000 * p) < 3 * np.sqrt(3000 * p * (1 - p))


class TestSubstepGuard:
    # 2 qubits at n_sub = 4: the bound n_qubits * gamma_h / n_sub < 1 is gamma_h < 2
    SCHEDULE = idle_schedule(2, 1)

    def run(self, driver, gamma_h):
        return driver(StateVector.basis(2, 0), 1, self.SCHEDULE, NoiseParams(gamma_h, 0.0, 0.0), 3, n_sub=4)

    @pytest.mark.parametrize("driver", [run_ensemble], ids=["ensemble"])
    def test_rejects_substep_too_coarse_for_one_flip(self, driver):
        with pytest.raises(ValueError, match="substep"):
            self.run(driver, 2.0)

    @pytest.mark.parametrize("driver", [run_ensemble], ids=["ensemble"])
    def test_runs_just_under_the_bound(self, driver):
        self.run(driver, 1.99)

    @pytest.mark.parametrize(
        "schedule", [SCHEDULE, MEASURED, MEASUREMENT_FREE], ids=["idle", "measured", "mf"]
    )
    def test_raises_before_any_work(self, monkeypatch, schedule):
        # with classical qubits (idle, measured) and without (mf): no
        # accumulator and no stream is built
        def no_work(*args, **kwargs):
            raise AssertionError("the kernel started before its substep guard")

        monkeypatch.setattr(dynamics, "EnsembleAccumulator", no_work)
        monkeypatch.setattr(dynamics, "_StreamBank", no_work)
        noise = NoiseParams(2.0, 0.0, 0.0)  # n_qubits * gamma_h / n_sub >= 1
        with pytest.raises(ValueError, match="substep"):
            run_ensemble(StateVector.basis(schedule.n_qubits, 0), 1, schedule, noise, 3, n_sub=4)


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
    # a random data state and a ground-state ancilla under one step of a
    # pushing gate and an x rotation on the data qubits
    CLOSED = GateSchedule(4, (0, 1, 2), (3,), (Step((
        ControlTerm(PUSHING_GATE, (0, 1), alphas=(0.1, 0.7, -0.4, 1.3)),
        ControlTerm(X_ROTATION, (2,), 0.9),
    )),))

    @pytest.mark.parametrize(
        "noise", [ZERO_NOISE, NoiseParams(0.0, 3.0, 0.0, cooling_gate="always")], ids=["plain", "cooling"]
    )
    def test_closed_system_matches_net_unitary(self, noise):
        # with cooling on, the step runs all n_sub substeps; at n_c = 0 the
        # ground-state ancilla never jumps and its no-jump factor is 1
        rng = np.random.default_rng(9)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = np.kron(amps / np.linalg.norm(amps), [1.0, 0.0])
        acc, rec = one_round(StateVector(4, psi), self.CLOSED, noise)
        assert rec.jumps == []
        # the idle ancilla is a classical qubit unless the cold coupling acts on it
        assert acc.classical == ((3,) if noise.Gamma_c == 0 else ())
        expected = schedule_net_unitary(self.CLOSED).matrix @ psi
        assert np.abs(acc.mean_rho("total", 0).elements - np.outer(expected, expected.conj())).max() < 1e-12

    def test_fresh_ancilla_zero_noise_identity(self):
        acc, _ = one_round(StateVector.basis(6, 0), MEASURED, ZERO_NOISE)
        assert np.all(np.abs(acc.f2_data[0] - 1) < 1e-9)
        # ancillas pass through superpositions mid-gate but end clean
        assert abs(acc.f2_anc[0, 0] - 1) < 1e-9 and abs(acc.f2_anc[0, -1] - 1) < 1e-9
        assert abs(acc.mean_rho("total", 0).elements[0, 0] - 1) < 1e-9

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_single_flip_corrected(self, schedule):
        n = schedule.n_qubits
        for q in schedule.data_qubits:
            acc, _ = one_round(StateVector.basis(n, bit_mask(q, n)), schedule, ZERO_NOISE, store="scalar")
            assert abs(acc.f2_data[0, -1] - 1.0) < 1e-9

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_double_flip_miscorrected(self, schedule):
        n = schedule.n_qubits
        pairs = [(0, 1), (0, 2), (1, 2)]
        for qa, qb in pairs:
            acc, _ = one_round(StateVector.basis(n, bit_mask(qa, n) ^ bit_mask(qb, n)), schedule, ZERO_NOISE)
            assert acc.f2_data[0, -1] < 1e-9
            # data register lands on the complementary codeword
            pop = acc.mean_rho("total", 0).elements.diagonal().real.reshape(8, 2 ** (n - 3))[7].sum()
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
        # the store mode changes what is summed, never what is drawn
        noise = NoiseParams(2e-2, 3.0, 1e-2)
        for schedule in (MEASURED, MEASUREMENT_FREE):
            (acc_s, recs_s), (acc_f, recs_f) = (
                run_ensemble(
                    StateVector.basis(schedule.n_qubits, 0), 3, schedule, noise, 6, master_seed=7, store=store,
                    record=True,
                )
                for store in ("scalar", "full")
            )
            assert sum(len(r.jumps) for r in recs_s) > 0
            for a, b in zip(recs_s, recs_f):
                assert a.jumps == b.jumps and a.outcomes == b.outcomes
            assert np.array_equal(acc_s.f2_data, acc_f.f2_data) and np.array_equal(acc_s.f2_anc, acc_f.f2_anc)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_stream_key_outside_64_bits_rejected(self, seed, index):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
            trajectory_stream(seed, index)

    def test_stream_key_at_64_bit_edge(self):
        top = 2**64 - 1
        assert trajectory_stream(top, top).random() != trajectory_stream(top, 0).random()


class TestPlainDrawOrder:
    """With Gamma_c = 0 every step is plain, so each trajectory's flips follow
    from its own stream alone, read in the documented order: per step n_sub
    hot uniforms, then one qubit pick per flip, then one uniform if the step
    measures."""

    @staticmethod
    def read_flips(master_seed, index, schedule, gamma_h, n_sub, rounds):
        n = schedule.n_qubits
        p_hot = 1.0 - np.exp(-n * gamma_h / n_sub)
        stream = trajectory_stream(master_seed, index)
        flips = []
        for rnd in range(rounds):
            for s, step in enumerate(schedule.steps):
                for k in np.flatnonzero(stream.random(n_sub) < p_hot):
                    q = min(int(stream.random() * n), n - 1)
                    flips.append((rnd * len(schedule) + s + (k + 1) * (1.0 / n_sub), q, JUMP_BIT_FLIP))
                if step.measure is not None:
                    stream.random()
        return flips

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    @pytest.mark.parametrize("gamma_h, n_sub", [(0.3, 20), (0.5, 3), (0.05, 1), (0.2, 600)])
    def test_jumps_follow_the_documented_order(self, schedule, gamma_h, n_sub):
        noise = NoiseParams(gamma_h, 0.0, 0.0)
        init = StateVector.basis(schedule.n_qubits, 0)
        if schedule.n_qubits * gamma_h / n_sub >= 1:
            with pytest.raises(ValueError, match="substep"):
                run_ensemble(init, 2, schedule, noise, 3, master_seed=8, n_sub=n_sub)
            return
        _, records = run_ensemble(init, 2, schedule, noise, 3, master_seed=8, n_sub=n_sub, record=True)
        assert sum(len(rec.jumps) for rec in records) > 0
        for k, rec in enumerate(records):
            assert rec.jumps == self.read_flips(8, k, schedule, gamma_h, n_sub, 2)

    @pytest.mark.parametrize("gamma_h, n_sub", [(0.3, 20), (0.5, 3), (0.05, 1)])
    def test_states_follow_the_substep_walk(self, gamma_h, n_sub):
        # each trajectory's round-end state, not only its jumps, is that of
        # the scalar walk (at Gamma_c = 0: substep unitaries, each flip after
        # its substep), whether or not the flip commutes with its step
        schedule, noise, rounds = MEASUREMENT_FREE, NoiseParams(gamma_h, 0.0, 0.0), 2
        rng = np.random.default_rng(7)
        amps = rng.normal(size=2**schedule.n_qubits) + 1j * rng.normal(size=2**schedule.n_qubits)
        init = StateVector(schedule.n_qubits, amps / np.linalg.norm(amps))
        for k in range(4):
            acc, records = run_ensemble(
                init, rounds, schedule, noise, 1, master_seed=8, traj_indices=[k], n_sub=n_sub, store="full",
                record=True,
            )
            jumps, _, ends = TestCooledDrawOrder.walk(init.amplitudes, 8, k, schedule, noise, n_sub, rounds)
            assert records[0].jumps == jumps
            assert np.abs(acc.rho_total[:, -1] - ends).max() < 1e-12


class TestCooledDrawOrder:
    """Cooled steps read, per the "Random streams" paragraph of the
    `dynamics` module docstring: n_sub hot uniforms, n_sub survival uniforms, then substep by
    substep the qubit pick of that substep's flip and the channel choice of
    its cold jump; a measuring step ends with one uniform. `walk` takes one
    trajectory through every substep of every step with plain scalar code,
    and the kernel must give the same jumps and round-end states."""

    ROUNDS = 2
    N_TRAJ = 4

    @staticmethod
    def walk(psi, master_seed, index, schedule, noise, n_sub, rounds):
        """(jumps, outcomes, round-end states) of one trajectory."""
        n, anc = schedule.n_qubits, schedule.ancilla_qubits
        idx = np.arange(2**n)
        dt = 1.0 / n_sub
        bits = np.array([(idx >> (n - 1 - a)) & 1 for a in anc])  # (n_anc, dim)
        a_rate, b_rate = noise.rate_down, noise.rate_up
        decay = np.exp(-0.5 * dt * (a_rate * bits + b_rate * (1 - bits)).sum(axis=0))
        p_hot = 1.0 - np.exp(-n * noise.gamma_h * dt)
        cooled = noise.cooling_profile(schedule) & (noise.Gamma_c > 0)
        stream = trajectory_stream(master_seed, index)
        jumps, outcomes, ends = [], [], []
        for rnd in range(rounds):
            for s, step in enumerate(schedule.steps):
                t = rnd * len(schedule) + s
                u_sub = step_unitary(step, n, scale=dt)
                hot = stream.random(n_sub) < p_hot
                u3 = stream.random(n_sub) if cooled[s] else None
                for k in range(n_sub):
                    psi = u_sub @ psi
                    if hot[k]:
                        q = min(int(stream.random() * n), n - 1)
                        psi = psi[idx ^ bit_mask(q, n)]
                        jumps.append((t + (k + 1) * dt, q, JUMP_BIT_FLIP))
                    if not cooled[s]:
                        continue
                    pre = psi
                    psi = pre * decay
                    survival = float(np.vdot(psi, psi).real)
                    psi = psi / np.sqrt(survival)
                    if u3[k] >= survival:
                        occ = bits @ np.abs(pre) ** 2
                        weights = np.concatenate([a_rate * occ, b_rate * (1 - occ)])
                        total = weights.sum()
                        c = min(int((np.cumsum(weights) < stream.random() * total).sum()), len(weights) - 1)
                        if total >= 1e-300:
                            a, cool = c % len(anc), c < len(anc)
                            landed = pre[idx ^ bit_mask(anc[a], n)] * (1 - bits[a] if cool else bits[a])
                            psi = landed / np.linalg.norm(landed)
                            jumps.append((t + (k + 1) * dt, anc[a], JUMP_COOL if cool else JUMP_HEAT))
                if step.measure is not None:
                    m = len(step.measure)
                    pattern = sum(((idx >> (n - 1 - q)) & 1) << (m - 1 - p) for p, q in enumerate(step.measure))
                    probs = np.bincount(pattern, weights=np.abs(psi) ** 2, minlength=2**m)
                    u = stream.random() * probs.sum()
                    o = min(int((np.cumsum(probs) < u).sum()), 2**m - 1)
                    psi = np.where(pattern == o, psi, 0)
                    psi = psi / np.linalg.norm(psi)
                    outcomes.append(tuple((o >> (m - 1 - p)) & 1 for p in range(m)))
                if step.correction is not None:
                    mask = sum(bit_mask(q, n) for q in step.correction[outcomes[-1]])
                    psi = psi[idx ^ mask]
            ends.append(np.outer(psi, psi.conj()))
        return jumps, outcomes, ends

    def check(self, schedule, noise, n_sub, master_seed=4):
        rng = np.random.default_rng(master_seed)
        amps = rng.normal(size=2**schedule.n_qubits) + 1j * rng.normal(size=2**schedule.n_qubits)
        init = StateVector(schedule.n_qubits, amps / np.linalg.norm(amps))
        acc, records = run_ensemble(
            init, self.ROUNDS, schedule, noise, self.N_TRAJ, master_seed=master_seed, n_sub=n_sub, store="full",
            record=True,
        )
        rho_end = np.zeros_like(acc.rho_total[:, -1])
        for k, rec in enumerate(records):
            jumps, outcomes, ends = self.walk(
                init.amplitudes, master_seed, k, schedule, noise, n_sub, self.ROUNDS
            )
            assert rec.jumps == jumps
            assert rec.outcomes == outcomes
            rho_end += ends
        assert np.abs(acc.rho_total[:, -1] - rho_end).max() < 1e-12
        return [jump for rec in records for jump in rec.jumps]

    @pytest.mark.parametrize("n_sub", [1, 3, 20, 600])
    @pytest.mark.parametrize("Gamma_c, n_c", [(3.0, 0.0), (3.0, 0.5), (30.0, 0.0), (30.0, 0.5)])
    @pytest.mark.parametrize(
        "schedule, cooling",
        [(MEASURED, "window"), (MEASUREMENT_FREE, "window"), (MEASURED, "always")],
        ids=["measured-window", "mf-window", "measured-always"],
    )
    def test_jumps_follow_the_documented_order(self, schedule, cooling, Gamma_c, n_c, n_sub):
        # a hot-flip rate that puts flips inside the window, under the
        # substep guard n_qubits * gamma_h / n_sub < 1
        gamma_h = 0.1 if n_sub == 1 else 0.3
        jumps = self.check(schedule, NoiseParams(gamma_h, Gamma_c, n_c, cooling_gate=cooling), n_sub)
        in_window = [kind for t, _, kind in jumps if np.ceil(t - 1e-9) % len(schedule) == 1]
        assert JUMP_BIT_FLIP in in_window and JUMP_COOL in in_window
        # a window of one substep holds one cold jump at most, and the eight
        # windows of a one-substep run may all cool
        assert (JUMP_HEAT in in_window) == (n_c > 0) or n_sub == 1

    @pytest.mark.parametrize("n_sub", [20, 600])
    def test_extreme_cooling_raises_no_float_warning(self, n_sub):
        # at Gamma_c = 1000 a substep's survival can be below 1e-100
        noise = NoiseParams(0.3, 1000.0, 0.5)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for schedule in (MEASURED, MEASUREMENT_FREE):
                self.check(schedule, noise, n_sub)

    def test_zero_survival_raises_no_float_warning(self):
        # at Gamma_c = 1e4 and n_c = 0.5 every basis state's one-substep
        # survival, exp(-0.05 * R) with R >= 1.5e4, underflows to 0, so a row
        # jumps on every cooled substep. The decay factors' own harmless
        # underflow is why numpy's default errstate is kept.
        noise = NoiseParams(0.3, 1e4, 0.5, cooling_gate="always")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc, _ = run_ensemble(StateVector.basis(6, 0), 2, MEASURED, noise, 20, master_seed=1, store="full")
        assert np.isfinite(acc.rho_total).all() and np.isfinite(acc.s_total).all()


class TestSplitDrawOrder:
    """Runs of the measured round from states with classical qubits, so that
    rows hold a pattern of them and amplitudes on the other qubits, against
    `TestCooledDrawOrder.walk` on the whole register: the data register's
    ground state with random ancilla amplitudes (classical qubits 0, 1, 2)
    and the qubit-1 superposition (0, 2). The flip rate puts data flips in
    pushing-gate steps, which replay in the whole register. The round cut
    before its measurement ends on states whose ancilla phases depend on
    the data pattern, which the measurement would project away."""

    ROUNDS = 2
    N_TRAJ = 4
    UNMEASURED = GateSchedule(6, MEASURED.data_qubits, MEASURED.ancilla_qubits, MEASURED.steps[:14])

    @staticmethod
    def initial(kind):
        if kind == "superposed":
            return TestClassicalQubits.superposed(1), (0, 2)
        rng = np.random.default_rng(5)
        anc = rng.normal(size=8) + 1j * rng.normal(size=8)
        return StateVector(6, np.kron(np.eye(8)[0], anc / np.linalg.norm(anc))), (0, 1, 2)

    @pytest.mark.parametrize("n_sub", [3, 20])
    @pytest.mark.parametrize("cooling", ["window", "always"])
    @pytest.mark.parametrize("kind", ["data-ground", "superposed"])
    @pytest.mark.parametrize("schedule", [MEASURED, UNMEASURED], ids=["measured", "cut"])
    def test_split_state_follows_the_walk(self, schedule, kind, cooling, n_sub):
        init, classical = self.initial(kind)
        # held on through every step, the cold coupling is weaker, or its
        # jumps would leave every ancilla in a basis state at the round end
        noise = NoiseParams(0.3, 3.0 if cooling == "window" else 0.1, 0.5, cooling_gate=cooling)
        acc, records = run_ensemble(
            init, self.ROUNDS, schedule, noise, self.N_TRAJ, master_seed=4, n_sub=n_sub, store="full", record=True
        )
        assert acc.classical == classical
        rho_end = np.zeros((self.ROUNDS, 64, 64), dtype=complex)
        for k, rec in enumerate(records):
            jumps, outcomes, ends = TestCooledDrawOrder.walk(init.amplitudes, 4, k, schedule, noise, n_sub, self.ROUNDS)
            assert rec.jumps == jumps
            assert rec.outcomes == outcomes
            rho_end += ends
        for rnd in range(self.ROUNDS):
            assert np.abs(acc.mean_rho("total", rnd).elements * self.N_TRAJ - rho_end[rnd]).max() < 1e-12
        kinds = {(q in classical, kind) for rec in records for _, q, kind in rec.jumps}
        assert {(True, JUMP_BIT_FLIP), (False, JUMP_BIT_FLIP), (False, JUMP_COOL)} <= kinds


class TestPropagators:
    """The kernel's one table of step propagators, `_SchedulePlan.propagators`,
    and the flips that commute with their step, `_SchedulePlan.commutes`."""

    @staticmethod
    def distinct(schedule):
        """One step index per distinct term set."""
        return list({step.terms: s for s, step in enumerate(schedule.steps) if step.terms}.values())

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_whole_step_is_the_step_unitary(self, schedule):
        plan = _SchedulePlan(schedule, ZERO_NOISE, n_sub=20)
        for s, step in enumerate(schedule.steps):
            if step.terms:
                assert np.array_equal(plan.propagators[s].unitary, step_unitary(step, schedule.n_qubits))
            else:
                assert plan.propagators[s] is None

    @pytest.mark.parametrize("n_sub", [7, 20])
    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_gaps_are_scaled_step_unitaries(self, schedule, n_sub):
        plan = _SchedulePlan(schedule, ZERO_NOISE, n_sub=n_sub)
        basis = np.eye(plan.dim, dtype=complex)
        for s in self.distinct(schedule):
            prop = plan.propagators[s]
            for m in range(n_sub + 1):
                gap = np.column_stack([prop.gap(e, m / n_sub) for e in basis])
                exact = step_unitary(schedule.steps[s], schedule.n_qubits, scale=m / n_sub)
                assert np.abs(gap - exact).max() < 1e-12

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_gaps_compose(self, schedule):
        rng = np.random.default_rng(3)
        plan = _SchedulePlan(schedule, ZERO_NOISE, n_sub=20)
        psi = rng.normal(size=plan.dim) + 1j * rng.normal(size=plan.dim)
        psi /= np.linalg.norm(psi)
        for s in self.distinct(schedule):
            prop = plan.propagators[s]
            for a, b in [(0.05, 0.35), (0.5, 0.5), (0.0, 1.0), (0.95, 0.05)]:
                assert np.abs(prop.gap(prop.gap(psi, a), b) - prop.gap(psi, a + b)).max() < 1e-12

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_commuting_flips_leave_the_step_unchanged(self, schedule):
        # X_q commutes with the generator exactly when it commutes with every
        # part of the step; a generic fraction rules out a full-step unitary
        # that commutes by accident
        n = schedule.n_qubits
        plan = _SchedulePlan(schedule, ZERO_NOISE, n_sub=20)
        assert plan.commutes.any() and not plan.commutes.all()
        for s, step in enumerate(schedule.steps):
            for q in range(n):
                perm = np.arange(2**n) ^ bit_mask(q, n)
                same = [
                    np.abs(u[np.ix_(perm, perm)] - u).max() < 1e-12
                    for u in (step_unitary(step, n, scale) for scale in (1.0, 0.37))
                ]
                assert all(same) == plan.commutes[s, q]

    def test_fine_substeps_stay_small(self, monkeypatch):
        # a measured run at n_sub = 600 holds one table entry per distinct
        # term set, whatever its flips' gaps
        plans = []

        class KeptPlan(_SchedulePlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

        monkeypatch.setattr(dynamics, "_SchedulePlan", KeptPlan)
        noise = NoiseParams(0.2, 3.0, 0.05)
        init = StateVector.basis(MEASURED.n_qubits, 0)
        tracemalloc.start()
        try:
            _, records = run_ensemble(init, 2, MEASURED, noise, 3, master_seed=8, n_sub=600, record=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(rec.jumps) for rec in records) > 0
        assert peak < 64 * 2**20
        entries = {id(prop) for prop in plans[0].propagators if prop is not None}
        assert len(entries) == len(self.distinct(MEASURED))


class TestClassicalQubits:
    """The qubits no step mixes, `_SchedulePlan.classical`, and the block
    layouts that the entropies and the oracle's positivity check take from
    them."""

    NOISE = NoiseParams(5e-2, 3.0, 0.1)

    @staticmethod
    def superposed(qubit, n=6):
        """(|0...0> + X_qubit |0...0>) / sqrt(2)."""
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = amps[bit_mask(qubit, n)] = 2**-0.5
        return StateVector(n, amps)

    def test_measured_data_qubits_are_classical(self):
        assert _SchedulePlan(MEASURED, ZERO_NOISE, 20).classical == (0, 1, 2)
        assert _SchedulePlan(MEASUREMENT_FREE, ZERO_NOISE, 20).classical == ()

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_per_term_test_matches_dense_unitaries(self, schedule):
        # Z_q commutes with the generator exactly when it commutes with every
        # part of the step; a generic fraction rules out a full-step unitary
        # that commutes by accident
        n = schedule.n_qubits
        signs = 1 - 2 * ((np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1)  # (dim, n): Z_q's diagonal
        keeps = _symmetric_qubits(schedule, PAULI_Z)
        for s, step in enumerate(schedule.steps):
            for q, z in enumerate(signs.T):
                same = [
                    np.abs(z[:, None] * u * z[None, :] - u).max() < 1e-12
                    for u in (step_unitary(step, n, scale) for scale in (1.0, 0.37))
                ]
                assert all(same) == keeps[s, q]
        assert _SchedulePlan(schedule, ZERO_NOISE, 20).classical == tuple(np.flatnonzero(keeps.all(axis=0)))

    def test_x_rotation_on_a_data_qubit_drops_it(self):
        steps = (*MEASURED.steps, Step((ControlTerm(X_ROTATION, (1,), 0.3),)))
        schedule = GateSchedule(6, MEASURED.data_qubits, MEASURED.ancilla_qubits, steps)
        assert _SchedulePlan(schedule, ZERO_NOISE, 20).classical == (0, 2)

    def test_superposed_initial_state_drops_its_qubit(self):
        acc, _ = run_ensemble(self.superposed(1), 1, MEASURED, self.NOISE, 4, store="full")
        assert acc.classical == (0, 2)
        crossed = (np.arange(64)[:, None] ^ np.arange(64)[None, :]) & bit_mask(1, 6) != 0
        totals = np.array([acc.mean_rho("total", 0, s).elements for s in range(len(MEASURED))])
        assert np.any(totals[:, crossed])  # the run keeps qubit 1's coherence
        basis, _ = run_ensemble(StateVector.basis(6, 5), 1, MEASURED, self.NOISE, 4, store="full")
        assert basis.classical == (0, 1, 2)

    @pytest.mark.parametrize(
        "schedule, shapes",
        [(MEASURED, [(8, 8), (8, 1), (1, 8)]), (MEASUREMENT_FREE, [(1, 32), (1, 8), (1, 4)])],
        ids=["measured", "mf"],
    )
    def test_register_layouts(self, monkeypatch, schedule, shapes):
        # total, data and ancilla registers, in the accumulator's order
        seen = []

        def recording(blocks, count):
            seen.append(blocks.shape[2:4])
            return mean_entropies(blocks, count)

        monkeypatch.setattr(dynamics, "mean_entropies", recording)
        run_ensemble(StateVector.basis(schedule.n_qubits, 0), 1, schedule, self.NOISE, 2, store="full")
        assert seen == shapes

    @pytest.mark.parametrize("cooling", ["window", "always"])
    def test_split_run_matches_dense_run(self, monkeypatch, cooling):
        # the run forced dense (no classical qubit: rows of 64 amplitudes and
        # one 64x64 block) multiplies, samples and sums other arrays, so the
        # two agree to rounding: every held step's whole-register mean, the
        # entropies and f2, with and without matrix sums
        noise = NoiseParams(5e-2, 3.0, 0.1, cooling_gate=cooling)

        def runs():
            return {
                store: run_ensemble(StateVector.basis(6, 0), 3, MEASURED, noise, 30, master_seed=11, store=store)[0]
                for store in ("full", "scalar")
            }

        split = runs()

        class DensePlan(_SchedulePlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.classical = ()

        monkeypatch.setattr(dynamics, "_SchedulePlan", DensePlan)
        dense = runs()
        assert split["full"].classical == (0, 1, 2) and dense["full"].classical == ()
        assert split["full"].rho_total.shape[2:] == (64, 8) and dense["full"].rho_total.shape[2:] == (64, 64)
        for rnd in range(3):
            for step in range(len(MEASURED)):
                a, b = (acc.mean_rho("total", rnd, step).elements for acc in (split["full"], dense["full"]))
                assert np.abs(a - b).max() < 1e-12
        for name in ("s_total", "s_data", "s_anc"):
            assert np.abs(getattr(split["full"], name) - getattr(dense["full"], name)).max() < 1e-12, name
        for store in ("full", "scalar"):
            for mean in ("mean_f2_data", "mean_f2_anc"):
                assert np.abs(getattr(split[store], mean)() - getattr(dense[store], mean)()).max() < 1e-12
        assert split["full"].s_total.max() > 0.5 and split["full"].s_data.max() > 0.1  # the run is noisy

    def test_kernel_classical_sets(self):
        # the plan's classical qubits that the initial state leaves
        # unsuperposed; a qubit that a measurement or the cold coupling acts
        # on is not one
        noise = NoiseParams(1e-3, 3.0, 0.01)
        for schedule, expect in ((MEASURED, (0, 1, 2)), (MEASUREMENT_FREE, ())):
            acc, _ = run_ensemble(StateVector.basis(schedule.n_qubits, 0), 1, schedule, noise, 2, store="scalar")
            assert acc.classical == expect
        measured = GateSchedule(4, (0, 1, 2, 3), (), (Step(measure=(0,)),))
        assert _SchedulePlan(measured, ZERO_NOISE, 20).classical == (1, 2, 3)

    def oracle_layouts(self, monkeypatch, inputs, schedule=MEASURED):
        """The distinct layouts of the oracle's positivity checks."""
        seen = set()

        def recording(stack, tol, layout=None):
            seen.add(None if layout is None else tuple(map(tuple, layout.tolist())))
            return block_eigvalsh(stack, tol, layout)

        monkeypatch.setattr(dynamics, "block_eigvalsh", recording)
        evolve_master_equation(inputs, schedule, self.NOISE, rounds=2)
        return seen

    def test_oracle_checks_in_the_plan_layout(self, monkeypatch):
        def blocks(n, qubits):
            return {tuple(map(tuple, pattern_blocks(n, qubits).tolist()))}

        basis = StateVector.basis(6, 0).projector()
        assert self.oracle_layouts(monkeypatch, basis) == blocks(6, [0, 1, 2])
        assert self.oracle_layouts(monkeypatch, [basis, self.superposed(1).projector()]) == blocks(6, [0, 2])
        mixed = random_mixed_state(6, np.random.default_rng(2))
        assert self.oracle_layouts(monkeypatch, [basis, mixed]) == blocks(6, [])
        mf = StateVector.basis(5, 0).projector()
        assert self.oracle_layouts(monkeypatch, mf, MEASUREMENT_FREE) == blocks(5, [])

    def test_directly_built_accumulator_is_dense(self):
        direct = EnsembleAccumulator(1, len(MEASURED), 6, (0, 1, 2), (3, 4, 5))
        assert direct.classical == ()  # built directly: dense layouts


class _CountingBank(_StreamBank):
    def __init__(self, gens):
        self.refills = np.zeros(len(gens), dtype=np.int64)
        super().__init__(gens)

    def _refill(self, rows):
        self.refills[rows] += 1
        super()._refill(rows)


class TestStreamBank:
    CHUNK = _StreamBank.chunk

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
                st.one_of(st.integers(1, 30), st.integers(CHUNK - 30, CHUNK), st.integers(1, CHUNK)),
                st.sampled_from(["draw", "peek"]),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_rows_read_their_streams_in_order(self, calls):
        # reads of up to a chunk, many of them across a half boundary, hand
        # each row the consecutive uniforms of its own Philox stream; a peek
        # shows the uniforms the next draw reads and consumes none
        bank = _CountingBank([trajectory_stream(11, k) for k in range(3)])
        streams = [trajectory_stream(11, k).random(16 * 3 * self.CHUNK) for k in range(3)]
        drawn = [[] for _ in range(3)]
        for rows, count, kind in calls:
            read = bank.refills * bank.chunk + bank.pos
            if kind == "peek":
                vals = bank.peek(np.array(rows), count)
                assert np.array_equal(bank.refills * bank.chunk + bank.pos, read)
                for r, v in zip(rows, vals):
                    assert np.array_equal(v, streams[r][read[r] : read[r] + count])
            else:
                vals = bank.draw(np.array(rows), count)
                for r, v in zip(rows, vals):
                    drawn[r].append(v)
            assert vals.shape == (len(rows), count)
        for k in range(3):
            got = np.concatenate(drawn[k]) if drawn[k] else np.empty(0)
            assert np.array_equal(got, streams[k][: got.size])
            assert got.size == bank.refills[k] * bank.chunk + bank.pos[k]

    def test_peek_past_a_chunk_raises(self):
        # and so does a draw, which consumes nothing when it is refused
        bank = _StreamBank([trajectory_stream(11, k) for k in range(2)])
        rows = np.arange(2)
        assert bank.peek(rows, self.CHUNK).shape == (2, self.CHUNK)
        with pytest.raises(ValueError, match="at most chunk"):
            bank.peek(rows, self.CHUNK + 1)
        with pytest.raises(ValueError, match="at most chunk"):
            bank.draw(rows, self.CHUNK + 1)
        assert np.array_equal(bank.draw(rows, self.CHUNK)[0], trajectory_stream(11, 0).random(self.CHUNK))


class TestPlainGroups:
    @pytest.mark.parametrize("n_sub", [1, 3, 20, 600])
    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_groups_end_at_measurements_and_fit_a_chunk(self, schedule, n_sub):
        chunk = max(_StreamBank.chunk, 2 * n_sub)
        plan = _SchedulePlan(schedule, NoiseParams(0.01, 3.0, 0.05), n_sub)
        groups = _plain_groups(plan, chunk)
        steps = [s for group in groups.values() for s in group]
        assert steps == [s for s in range(len(schedule)) if not plan.cooling_on[s]]
        for first, group in groups.items():
            assert group == list(range(first, first + len(group)))
            assert all(schedule.steps[s].measure is None for s in group[:-1])
            assert 2 * n_sub * len(group) <= chunk
        always = _SchedulePlan(schedule, NoiseParams(0.01, 3.0, 0.05, cooling_gate="always"), n_sub)
        assert _plain_groups(always, chunk) == {}


class TestAccumulator:
    def test_single_trajectory_projector(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 1, MEASURED, noise, 1, master_seed=4, store="full"
        )
        rho = acc.mean_rho("total", 0, -1)
        evals = np.linalg.eigvalsh(rho.elements)
        assert abs(evals[-1] - 1.0) < 1e-10  # still a pure projector

    @pytest.mark.parametrize("cooling", ["window", "always"])
    def test_data_register_stays_classical(self, cooling):
        # the measured round uses data qubits only as controls and bit flips
        # map basis states to basis states, so every total matrix has exact
        # zeros between different data patterns (the blocks the entropies
        # are split into)
        noise = NoiseParams(5e-2, 3.0, 0.1, cooling_gate=cooling)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, noise, 30, master_seed=11, store="full"
        )
        data = np.arange(64) >> 3  # data qubits 0-2 are the high bits
        across = data[:, None] != data[None, :]
        within = ~across & ~np.eye(64, dtype=bool)
        totals = np.array([[acc.mean_rho("total", r, s).elements for s in range(len(MEASURED))] for r in range(2)])
        assert not np.any(totals[..., across])
        assert np.any(totals[..., 8:, 8:])  # data errors happened
        assert np.any(totals[..., within])  # ancilla coherences inside the blocks

    # ancilla qubit 0 leads the basis index; the data register follows in
    # either order
    SCRAMBLED = [
        GateSchedule(3, data, (0,), (
            Step(cooling_window=True),
            Step((ControlTerm(X_ROTATION, (1,), 0.8), ControlTerm(PUSHING_GATE, (0, 2), alphas=(0.3, -0.2, 0.9, 1.1)))),
            Step((ControlTerm(HADAMARD_PULSE, (0,), 0.5), ControlTerm(X_ROTATION, (2,), 1.3))),
        ))
        for data in ((1, 2), (2, 1))
    ]

    @pytest.mark.parametrize(
        "schedule", [MEASURED, MEASUREMENT_FREE, *SCRAMBLED], ids=["measured", "mf", "anc-first", "anc-first-reversed"]
    )
    def test_reduced_matrices_are_partial_traces(self, schedule):
        # both stores that keep reductions, against the "full" run's total
        noise = NoiseParams(2e-2, 3.0, 0.1)
        init = StateVector.basis(schedule.n_qubits, 0)
        full, _ = run_ensemble(init, 2, schedule, noise, 20, master_seed=17, store="full")
        reduced, _ = run_ensemble(init, 2, schedule, noise, 20, master_seed=17, store="reduced")
        for rnd in range(2):
            for step in range(len(schedule)):
                total = full.mean_rho("total", rnd, step)
                for which, qubits in (("data", schedule.data_qubits), ("ancilla", schedule.ancilla_qubits)):
                    expect = partial_trace(total, qubits).elements
                    for acc in (full, reduced):
                        assert np.abs(acc.mean_rho(which, rnd, step).elements - expect).max() < 1e-12

    @pytest.mark.parametrize("store", ["full", "reduced"])
    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_batches_sum_to_one_batch(self, monkeypatch, schedule, store):
        # 10 trajectories in batches of 4, 4 and 2 against one batch
        noise = NoiseParams(2e-2, 3.0, 0.1)
        init = StateVector.basis(schedule.n_qubits, 0)
        one, _ = run_ensemble(init, 2, schedule, noise, 10, master_seed=19, store=store)
        monkeypatch.setattr(dynamics, "BATCH_SIZE", 4)
        split, _ = run_ensemble(init, 2, schedule, noise, 10, master_seed=19, store=store)
        assert split.count == one.count == 10
        for name in ("f2_data", "f2_anc", "rho_data", "rho_anc", "rho_total"):
            a, b = getattr(split, name), getattr(one, name)
            assert (a is None) == (b is None) == (name == "rho_total" and store == "reduced")
            if a is not None:
                assert np.abs(a - b).max() < 1e-12, name

    def test_matrix_sums_match_explicit_outer_products(self):
        # noiseless measurement-free round: every step is its unitary, so the
        # batch's states after each step are known without the kernel
        n, steps = MEASUREMENT_FREE.n_qubits, len(MEASUREMENT_FREE)
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(4, 2**n)) + 1j * rng.normal(size=(4, 2**n))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        acc = EnsembleAccumulator(1, steps, n, MEASUREMENT_FREE.data_qubits, MEASUREMENT_FREE.ancilla_qubits, "full")
        split = _SplitPlan(_SchedulePlan(MEASUREMENT_FREE, ZERO_NOISE, 4), ())
        bank = _StreamBank([np.random.default_rng(i) for i in range(4)])
        _run_batch(np.zeros(4, dtype=np.int64), psi.copy(), 1, split, bank, acc)
        u = np.eye(2**n, dtype=complex)
        for s, step in enumerate(MEASUREMENT_FREE.steps):
            u = step_unitary(step, n) @ u
            states = psi @ u.T
            expect = sum(np.outer(v, v.conj()) for v in states)
            assert np.abs(acc.rho_total[0, s] - expect).max() < 1e-12
            mean = DensityMatrix(n, expect / 4)
            for grid, qubits in (
                (acc.rho_data, MEASUREMENT_FREE.data_qubits),
                (acc.rho_anc, MEASUREMENT_FREE.ancilla_qubits),
            ):
                assert np.abs(grid[0, s] / 4 - partial_trace(mean, qubits).elements).max() < 1e-12

    def test_mean_trace_one(self):
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), 2, MEASURED, noise, 40, master_seed=6, store="full"
        )
        for rnd in range(2):
            for which in ("data", "ancilla", "total"):
                tr = np.trace(acc.mean_rho(which, rnd, -1).elements).real
                assert abs(tr - 1.0) < 1e-10

    def test_disjoint_runs_sum_to_the_joint_run(self):
        # streams are keyed by trajectory index, so runs over indices 0-5
        # and 6-9 hold the sums of the run over 0-9
        noise = NoiseParams(5e-3, 3.0, 1e-2)
        init = StateVector.basis(6, 0)
        whole, _ = run_ensemble(init, 1, MEASURED, noise, 10, master_seed=13, store="full")
        part_a, _ = run_ensemble(init, 1, MEASURED, noise, 6, master_seed=13, store="full", traj_indices=range(6))
        part_b, _ = run_ensemble(
            init, 1, MEASURED, noise, 4, master_seed=13, store="full", traj_indices=range(6, 10)
        )
        assert part_a.count + part_b.count == whole.count
        for name in ("f2_data", "f2_anc", "rho_data", "rho_anc", "rho_total"):
            a, b, joint = getattr(part_a, name), getattr(part_b, name), getattr(whole, name)
            assert np.abs(a + b - joint).max() < 1e-12, name

    def test_mean_rho_rejects_non_hermitian_sum(self):
        acc, _ = run_ensemble(StateVector.basis(6, 0), 1, MEASURED, ZERO_NOISE, 2, store="full")
        acc.rho_total[0, -1, 0, 1] += 1e-6 * acc.count
        with pytest.raises(ValueError, match="not Hermitian"):
            acc.mean_rho("total", 0)


class TestWindows:
    """The accumulator reduces its matrix sums one window of rounds at a time."""

    NOISE = NoiseParams(5e-2, 3.0, 0.1)

    def run(self, store, rounds=12, n_traj=10, reference=None, noise=NOISE):
        acc, _ = run_ensemble(
            StateVector.basis(6, 0), rounds, MEASURED, noise, n_traj, master_seed=31, store=store,
            reference=reference,
        )
        return acc

    @staticmethod
    def window_of(monkeypatch, store, rounds):
        # the window holds `rounds` rounds of all kept registers: the data
        # and ancilla 8x8 matrices and, with store "full", the 8 blocks of
        # 8x8 of the whole register
        cells = 2 * 8 * 8 + (8 * 8 * 8 if store == "full" else 0)
        monkeypatch.setattr(dynamics, "_WINDOW_BYTES", rounds * len(MEASURED) * cells * 16)

    @pytest.mark.parametrize("batch_size", [dynamics.BATCH_SIZE, 4], ids=["one_batch", "batches_of_4"])
    @pytest.mark.parametrize("store", ["full", "reduced"])
    def test_windows_match_one_window(self, monkeypatch, store, batch_size):
        oracle = evolve_master_equation(StateVector.basis(6, 0).projector(), MEASURED, self.NOISE, rounds=12)
        monkeypatch.setattr(dynamics, "BATCH_SIZE", batch_size)
        self.window_of(monkeypatch, store, 12)
        whole = self.run(store, reference=oracle.rho_end)
        assert whole.window == 12 and whole.window_start == 0
        self.window_of(monkeypatch, store, 5)
        split = self.run(store, reference=oracle.rho_end)
        assert split.window == 5 and split.window_start == 10  # windows of 5, 5 and 2 rounds
        assert split.rho_data.shape[0] == 5
        rows, expect = compute_step_metrics(split), compute_step_metrics(whole)
        assert len(rows) == len(expect) == 12 * 16
        for r, e in zip(rows, expect):
            assert (r.f2_data, r.f2_ancilla) == (e.f2_data, e.f2_ancilla)
            for name in ("s_total", "s_data", "s_ancilla"):
                a, b = getattr(r, name), getattr(e, name)
                assert abs(a - b) < 1e-12 or (np.isnan(a) and np.isnan(b) and store == "reduced")
        assert max(r.s_ancilla for r in rows) > 0.1  # the run is noisy
        if store == "full":
            dists = [trace_distance(whole.mean_rho("total", rnd), oracle.rho(rnd)) for rnd in range(12)]
            assert np.abs(split.trace_distances - dists).max() < 1e-12
            assert np.array_equal(whole.trace_distances, dists)
        else:
            assert split.trace_distances is None

    def test_mean_rho_of_a_dropped_window_raises(self, monkeypatch):
        self.window_of(monkeypatch, "full", 5)
        acc = self.run("full")
        assert abs(np.trace(acc.mean_rho("total", 11).elements) - 1) < 1e-12  # the held window
        with pytest.raises(ValueError, match="not in the held window of rounds 10-11"):
            acc.mean_rho("ancilla", 9, 3)

    def test_peak_memory_does_not_grow_with_rounds(self):
        # a whole-run grid of the measured round's blocks would take 160 KiB
        # per round; both runs fill a window of 51 rounds
        peaks = {}
        for n in (60, 240):
            tracemalloc.start()
            try:
                compute_step_metrics(self.run("full", rounds=n, n_traj=2, noise=NoiseParams(1e-3, 3.0, 0.01)))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[240] / peaks[60] - 1) < 0.25
        assert peaks[240] < 32 * 2**20


class TestMasterEquationOracle:
    def test_unitary_limit_matches_compiled_round(self):
        rng = np.random.default_rng(14)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        state = StateVector(5, amps / np.linalg.norm(amps))
        out = evolve_master_equation(state.projector(), MEASUREMENT_FREE, ZERO_NOISE)
        u = schedule_net_unitary(MEASUREMENT_FREE).matrix
        expect = u @ state.projector().elements @ u.conj().T
        assert np.max(np.abs(out.rho(0).elements - expect)) < 1e-8

    def test_trace_and_hermiticity_preserved(self):
        noise = NoiseParams(1e-2, 3.0, 1e-2)
        rho0 = StateVector.basis(6, 0).projector()
        out = evolve_master_equation(rho0, MEASURED, noise)
        final = out.rho(0).elements
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
            p0 = out.populations[0, step, 0]
            assert abs(p0 - 0.5 * (1 + np.exp(-2 * gamma * t))) < 1e-8

    def test_bit_flip_channel_preserves_x_eigenstate(self):
        sched = idle_schedule(1, 5)
        plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        out = evolve_master_equation(plus.projector(), sched, NoiseParams(0.1, 0, 0))
        assert np.max(np.abs(out.rho(0).elements - plus.projector().elements)) < 1e-8

    def test_cooling_detailed_balance(self):
        # steady excited population n_c / (2 n_c + 1) per ancilla
        n_c = 0.3
        sched = cooling_schedule(1, (0,), n_steps=30)
        out = evolve_master_equation(
            StateVector.basis(1, 1).projector(), sched, NoiseParams(0.0, 2.0, n_c)
        )
        p_exc = out.populations[0, -1, 1]
        assert abs(p_exc - n_c / (2 * n_c + 1)) < 1e-8

    def test_oracle_measurement_is_ensemble_limit(self):
        # heavier noise for signal; one round, modest ensemble
        noise = NoiseParams(1e-2, 3.0, 1e-2)
        psi = StateVector.basis(6, 0)
        oracle = evolve_master_equation(psi.projector(), MEASURED, noise)
        acc, _ = run_ensemble(psi, 1, MEASURED, noise, 2000, master_seed=21, store="full")
        td = trace_distance(acc.mean_rho("total", 0), oracle.rho(0))
        assert td < 5 / np.sqrt(2000)


    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rejects_rounds_below_one(self, rounds):
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            evolve_master_equation(StateVector.basis(6, 0).projector(), MEASURED, ZERO_NOISE, rounds=rounds)

    def test_rejects_empty_input_sequence(self):
        with pytest.raises(ValueError, match="no initial state given"):
            evolve_master_equation([], MEASURED, ZERO_NOISE)

    def test_lost_positivity_raises(self):
        # unitary steps keep the input's eigenvalue -0.1, on the last basis state
        rho = np.diag([1.1] + [0.0] * 62 + [-0.1]).astype(complex)
        with pytest.raises(RuntimeError, match="oracle lost positivity"):
            evolve_master_equation(DensityMatrix(6, rho), MEASURED, ZERO_NOISE)


class TestOracleResult:
    NOISE = NoiseParams(1e-2, 3.0, 1e-2)

    def test_populations_are_the_step_diagonals(self):
        psi = StateVector.basis(6, 0).projector()
        out = evolve_master_equation(psi, MEASURED, self.NOISE, rounds=2)
        assert np.array_equal(out.populations[:, -1], np.einsum("rii->ri", out.rho_end).real)
        # after step s: the round end of the schedule cut after step s (at
        # s = 0 a one-step schedule)
        for s in range(len(MEASURED)):
            cut = GateSchedule(6, MEASURED.data_qubits, MEASURED.ancilla_qubits, MEASURED.steps[: s + 1])
            end = evolve_master_equation(psi, cut, self.NOISE).rho_end[0]
            assert np.array_equal(out.populations[0, s], end.diagonal().real)

    def test_f2_series_sums_ground_populations(self):
        out = evolve_master_equation(StateVector.basis(6, 0).projector(), MEASURED, self.NOISE, rounds=2)
        idx = np.arange(64)
        data_ground, anc_ground = idx < 8, idx % 8 == 0  # data qubits 0-2 are the high bits
        f2 = out.f2_series()
        assert f2.shape == (2, len(MEASURED), 2)
        assert np.abs(f2[..., 0] - out.populations[..., data_ground].sum(axis=2)).max() < 1e-15
        assert np.abs(f2[..., 1] - out.populations[..., anc_ground].sum(axis=2)).max() < 1e-15

    @pytest.mark.parametrize("schedule", [MEASURED, MEASUREMENT_FREE], ids=["measured", "mf"])
    def test_size_grows_by_round_end_state_and_step_populations(self, schedule):
        def nbytes(rounds):
            rho = StateVector.basis(schedule.n_qubits, 0).projector()
            out = evolve_master_equation(rho, schedule, ZERO_NOISE, rounds)
            return sum(v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray))

        dim, steps = 2**schedule.n_qubits, len(schedule)
        assert nbytes(3) - nbytes(1) == 2 * (dim**2 * 16 + steps * dim * 8)

    def test_builds_no_kernel_propagators(self, monkeypatch):
        def no_unitaries(*args, **kwargs):
            raise AssertionError("oracle built a step unitary")

        def no_split(*args):
            raise AssertionError("oracle built the kernel's split tables")

        def no_propagators(plan):
            raise AssertionError("oracle built the kernel's propagator table")

        monkeypatch.setattr(dynamics, "step_unitary", no_unitaries)
        monkeypatch.setattr(dynamics, "step_eigenbasis", no_unitaries)
        monkeypatch.setattr(dynamics, "_SplitPlan", no_split)
        monkeypatch.setattr(_SchedulePlan, "propagators", property(no_propagators))
        evolve_master_equation(StateVector.basis(6, 0).projector(), MEASURED, self.NOISE)

    @pytest.mark.parametrize("cooling", ["window", "always"])
    def test_kernel_builds_no_oracle_channels(self, monkeypatch, cooling):
        def no_channels(plan):
            raise AssertionError("kernel built the oracle's channel table")

        monkeypatch.setattr(_SchedulePlan, "channels", property(no_channels))
        noise = NoiseParams(1e-2, 3.0, 5e-2, cooling_gate=cooling)
        for schedule in (MEASURED, MEASUREMENT_FREE):
            run_ensemble(StateVector.basis(schedule.n_qubits, 0), 2, schedule, noise, 20, store="full")


def random_mixed_state(n: int, rng) -> DensityMatrix:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


class TestStackedOracle:
    """A sequence of initial states runs as one stack; each member gets its
    own single-input result, bit for bit."""

    @pytest.mark.parametrize(
        "schedule, cooling",
        [(MEASURED, "window"), (MEASURED, "always"), (MEASUREMENT_FREE, "window")],
        ids=["measured-window", "measured-always", "mf"],
    )
    def test_members_equal_single_runs(self, schedule, cooling):
        noise = NoiseParams(1e-2, 3.0, 5e-2, cooling_gate=cooling)
        n, dim, steps = schedule.n_qubits, 2**schedule.n_qubits, len(schedule)
        rng = np.random.default_rng(52)
        inputs = [random_mixed_state(n, rng), StateVector.basis(n, 0).projector()]
        inputs += [random_mixed_state(n, rng), StateVector.basis(n, dim - 3).projector()]
        stacked = evolve_master_equation(inputs, schedule, noise, rounds=2)
        assert stacked.rho_end.shape == (2, 4, dim, dim)
        assert stacked.populations.shape == (2, steps, 4, dim)
        assert stacked.f2_series().shape == (2, steps, 4, 2)
        for k, rho in enumerate(inputs):
            one = evolve_master_equation(rho, schedule, noise, rounds=2)
            assert np.array_equal(stacked.rho_end[:, k], one.rho_end)
            assert np.array_equal(stacked.populations[:, :, k], one.populations)
            assert np.array_equal(stacked.f2_series()[:, :, k], one.f2_series())

    def test_rejects_dimension_mismatch(self):
        five = StateVector.basis(5, 0).projector()
        with pytest.raises(ValueError, match="does not match the schedule"):
            evolve_master_equation(five, MEASURED, ZERO_NOISE)
        with pytest.raises(ValueError, match="does not match the schedule"):
            evolve_master_equation([StateVector.basis(6, 0).projector(), five], MEASURED, ZERO_NOISE)


def fresh_step_channels(step: Step, n: int, noise: NoiseParams, cooled: set[int]) -> list:
    """One step's (qubits, channel) factors, every group's generator built
    and exponentiated anew: the per-step construction the plan's shared
    table replaces."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    grouped = {q for term in step.terms for q in term.qubits}
    groups = [(term.qubits, term_generator(term)) for term in step.terms]
    groups += [((q,), np.zeros((2, 2))) for q in range(n) if q not in grouped]
    factors = []
    for qubits, h in groups:
        k = len(qubits)
        eye = np.eye(2**k)
        gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for i, q in enumerate(qubits):
            jumps = [(noise.gamma_h, PAULI_X)]
            if q in cooled:
                jumps += [(noise.rate_down, lower), (noise.rate_up, lower.T)]
            for rate, op in jumps:
                op = np.kron(np.kron(np.eye(2**i), op), np.eye(2 ** (k - 1 - i)))
                odo = op.conj().T @ op
                gen += rate * (np.kron(op, op.conj()) - 0.5 * np.kron(odo, eye) - 0.5 * np.kron(eye, odo.T))
        factors.append((qubits, dynamics._expm(gen).reshape((2,) * 4 * k)))
    return factors


class TestChannelTable:
    """The oracle's step channels, `_SchedulePlan.channels`: one array per
    distinct (term, cooled qubits) group, shared by every step."""

    NOISE = NoiseParams(1e-2, 3.0, 5e-2)

    @pytest.mark.parametrize(
        "schedule, distinct", [(MEASURED, 16), (MEASUREMENT_FREE, 28)], ids=["measured", "mf"]
    )
    def test_equal_keys_share_one_array(self, schedule, distinct):
        plan = _SchedulePlan(schedule, self.NOISE, n_sub=1)
        assert len(plan.channels) == len(schedule)
        anc = set(schedule.ancilla_qubits)
        by_key: dict = {}
        for s, (step, factors) in enumerate(zip(schedule.steps, plan.channels)):
            terms = {term.qubits: term for term in step.terms}
            cooled = anc if plan.cooling_on[s] else set()
            assert sorted(q for qubits, _ in factors for q in qubits) == list(range(schedule.n_qubits))
            for qubits, chan in factors:
                key = (terms.get(qubits), tuple(q in cooled for q in qubits))
                assert by_key.setdefault(key, chan) is chan
        assert len(by_key) == distinct
        assert len({id(chan) for chan in by_key.values()}) == distinct
        assert plan.channels is plan.channels  # built once per plan

    @pytest.mark.parametrize(
        "schedule, cooling",
        [(MEASURED, "window"), (MEASURED, "always"), (MEASUREMENT_FREE, "window")],
        ids=["measured-window", "measured-always", "mf"],
    )
    def test_oracle_equals_fresh_per_step_channels(self, monkeypatch, schedule, cooling):
        noise = NoiseParams(1e-2, 3.0, 5e-2, cooling_gate=cooling)
        rho = random_mixed_state(schedule.n_qubits, np.random.default_rng(61))
        shared = evolve_master_equation(rho, schedule, noise, rounds=2)

        class FreshChannels:
            """Step s's channels built anew on every read."""

            def __init__(self, plan):
                self.plan = plan

            def __getitem__(self, s):
                cooled = set(schedule.ancilla_qubits) if self.plan.cooling_on[s] else set()
                return fresh_step_channels(schedule.steps[s], schedule.n_qubits, noise, cooled)

        monkeypatch.setattr(_SchedulePlan, "channels", property(FreshChannels))
        ref = evolve_master_equation(rho, schedule, noise, rounds=2)
        assert np.array_equal(shared.rho_end, ref.rho_end)
        assert np.array_equal(shared.populations, ref.populations)


def eigen_exponential(g: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(g)
    return (v * np.exp(w)) @ np.linalg.inv(v)


class TestExpm:
    """`_expm`, the oracle's scaling-and-squaring Taylor exponential."""

    def relative_error(self, g):
        ref = eigen_exponential(g)
        return np.abs(dynamics._expm(g) - ref).max() / np.abs(ref).max()

    @pytest.mark.parametrize("scale", [0.1, 1.0, 8.0])
    def test_random_diagonalisable_matrix(self, scale):
        rng = np.random.default_rng(71)
        v = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        w = scale * (rng.normal(size=16) + 1j * rng.normal(size=16))
        g = (v * w) @ np.linalg.inv(v)
        assert self.relative_error(g) < 1e-12

    @pytest.mark.parametrize("x", [0.1, 0.3, -0.5, 0.5])
    def test_series_alone_at_small_norm(self, x):
        # norm <= 1/2 takes no squaring, so the series' degree alone sets the
        # error: exp(x I) must be exp(x) to the last bits
        got = dynamics._expm(x * np.eye(4, dtype=complex))
        assert np.abs(got - np.exp(x) * np.eye(4)).max() <= 1e-15 * np.exp(x)

    @pytest.mark.parametrize("terms", [(), (ControlTerm(PUSHING_GATE, (0, 1), alphas=(0.3, -1.1, 0.7, 2.0)),)])
    def test_stiff_step_lindbladian(self, terms):
        # two cooled qubits at Gamma_c = 1000: an infinity-norm of thousands,
        # so the series runs after a dozen halvings and squares back up; the
        # reference is a 40-digit exponential
        mpmath = pytest.importorskip("mpmath")
        noise = NoiseParams(2e-2, 1000.0, 0.1)
        g = dense_step_generator(Step(terms=terms), 2, noise, (0, 1))
        assert np.linalg.norm(g, np.inf) > 2**11
        with mpmath.workdps(40):
            ref = np.array(mpmath.expm(mpmath.matrix(g.tolist())).tolist(), dtype=complex)
        assert np.abs(dynamics._expm(g) - ref).max() / np.abs(ref).max() < 1e-12


def dense_step_generator(step: Step, n: int, noise: NoiseParams, cooled) -> np.ndarray:
    """Lindbladian of one step on the whole register, acting on the
    column-stacked vec(rho): vec(A rho B) = (B^T kron A) vec(rho)."""
    dim = 2**n
    idx = np.arange(dim)
    eye = np.eye(dim)

    def embed(op, q):
        return np.kron(np.kron(np.eye(2**q), op), np.eye(2 ** (n - 1 - q)))

    h = np.zeros((dim, dim), dtype=complex)
    generators = {X_ROTATION: PAULI_X, Z_ROTATION: PAULI_Z, HADAMARD_PULSE: HADAMARD}
    for term in step.terms:
        if term.kind == PUSHING_GATE:
            a, b = ((idx >> (n - 1 - q)) & 1 for q in term.qubits)
            h += np.diag(np.asarray(term.alphas)[2 * a + b])
        else:
            h += term.strength * embed(generators[term.kind], term.qubits[0])
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    jumps = [(noise.gamma_h, embed(PAULI_X, q)) for q in range(n)]
    for q in cooled:
        lower = embed(np.array([[0, 1], [0, 0]], dtype=complex), q)  # excited -> ground
        jumps += [(noise.rate_down, lower), (noise.rate_up, lower.T)]
    for rate, op in jumps:
        odo = op.conj().T @ op
        gen += rate * (np.kron(op.conj(), op) - 0.5 * np.kron(eye, odo) - 0.5 * np.kron(odo.T, eye))
    return gen


class TestDenseGeneratorCrossCheck:
    """The oracle's step map against the exponential of the dense 1024x1024
    Lindbladian of the whole measurement-free register, with no grouping."""

    @pytest.mark.parametrize(
        "s, kinds", [(0, set()), (1, {HADAMARD_PULSE}), (2, {PUSHING_GATE})],
        ids=["cooling-window", "hadamard", "pushing-gate"],
    )
    def test_step_map_matches_dense_exponential(self, s, kinds):
        step = MEASUREMENT_FREE.steps[s]
        assert {term.kind for term in step.terms} == kinds
        sched = GateSchedule(5, MEASUREMENT_FREE.data_qubits, MEASUREMENT_FREE.ancilla_qubits, (step,))
        # cooling on throughout, so cooled ancillas also sit inside term groups
        noise = NoiseParams(2e-2, 3.0, 0.1, cooling_gate="always")
        rng = np.random.default_rng(40 + s)
        a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real

        gen = dense_step_generator(step, 5, noise, sched.ancilla_qubits) / 16
        v = rho.flatten(order="F")
        for _ in range(16):  # exp(L) = exp(L/16)^16, each slice by its Taylor series
            term = total = v
            k = 0
            while np.abs(term).max() > 1e-18:
                k += 1
                term = gen @ term / k
                total = total + term
            v = total
        expect = v.reshape(32, 32, order="F")

        out = evolve_master_equation(DensityMatrix(5, rho), sched, noise).rho(0).elements
        assert np.abs(out - expect).max() < 1e-12


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
                    store="full",
                )
                tds.append(trace_distance(acc.mean_rho("total", 0), oracle))
            gaps.append(np.mean(tds))
        slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
        assert -0.65 < slope < -0.35, (gaps, slope)
