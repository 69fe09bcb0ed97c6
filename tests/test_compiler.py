import numpy as np
import pytest

from thermoqec.compiler import (
    HADAMARD_PULSE,
    PUSHING_GATE,
    ControlTerm,
    GateSchedule,
    Step,
    build_measured_round,
    build_measurement_free_round,
    canonical_cnot,
    canonical_toffoli,
    compile_cnot,
    compile_toffoli,
    dump_schedule,
    phase_aligned_distance,
    schedule_net_unitary,
    step_unitary,
    term_generator,
)
from thermoqec.qstate import HADAMARD

TOL = 1e-9


def fragment_unitary(steps, n):
    sched = GateSchedule(n, tuple(range(n)), (), tuple(steps))
    return schedule_net_unitary(sched).matrix


class TestControlTerm:
    def test_disjointness_enforced(self):
        t1 = ControlTerm(HADAMARD_PULSE, (0,), np.pi / 2)
        t2 = ControlTerm(PUSHING_GATE, (0, 1), alphas=(0, 0, 0, np.pi))
        with pytest.raises(ValueError):
            Step((t1, t2))

    def test_pushing_gate_needs_two_qubits(self):
        with pytest.raises(ValueError):
            ControlTerm(PUSHING_GATE, (0,), alphas=(0, 0, 0, 0))
        with pytest.raises(ValueError):
            ControlTerm(PUSHING_GATE, (1, 1), alphas=(0, 0, 0, 0))

    def test_single_qubit_kinds_take_one_qubit(self):
        with pytest.raises(ValueError):
            ControlTerm(HADAMARD_PULSE, (0, 1), np.pi / 2)

    def test_hadamard_exponential_is_hadamard(self):
        # H_i squares to 1, so exp(-i pi/2 H) = -i H
        u = step_unitary(Step((ControlTerm(HADAMARD_PULSE, (0,), np.pi / 2),)), 1)
        assert np.allclose(u, -1j * HADAMARD, atol=1e-12)


class TestStepUnitary:
    @staticmethod
    def dense_hamiltonian(step, n):
        """The step's Hamiltonian on the whole register, each term's generator
        embedded with dense Kronecker products."""
        h = np.zeros((2**n, 2**n), dtype=complex)
        for term in step.terms:
            # move the term's qubits to the front, embed, and move them back
            rest = [q for q in range(n) if q not in term.qubits]
            k = len(term.qubits)
            big = np.kron(term_generator(term), np.eye(2 ** (n - k))).reshape((2,) * 2 * n)
            order = np.argsort([*term.qubits, *rest])
            h += big.transpose([*order, *(n + order)]).reshape(2**n, 2**n)
        return h

    @pytest.mark.parametrize("build", [build_measured_round, build_measurement_free_round])
    def test_matches_the_dense_exponential(self, build):
        # the product of closed forms is exp(-i * scale * H) of the dense
        # Hamiltonian, at any fraction of the step
        sched = build()
        n = sched.n_qubits
        for step in {st.terms: st for st in sched.steps}.values():
            w, v = np.linalg.eigh(self.dense_hamiltonian(step, n))
            for scale in (1.0, 0.35, 1 / 600):
                expect = (v * np.exp(-1j * scale * w)) @ v.conj().T
                assert np.abs(step_unitary(step, n, scale) - expect).max() < 1e-12

    def test_pushing_gate_on_reversed_qubits(self):
        # alphas index the pair's bits (a, b) of its first and second qubit,
        # whichever of the two is more significant in the register
        alphas = (0.1, 0.7, -0.4, 1.3)
        u = step_unitary(Step((ControlTerm(PUSHING_GATE, (2, 0), alphas=alphas),)), 3)
        idx = np.arange(8)
        a, b = idx & 1, idx >> 2
        assert np.array_equal(u, np.diag(np.exp(-1j * np.asarray(alphas)[2 * a + b])))


class TestCnot:
    def test_matches_canonical(self):
        u = fragment_unitary(compile_cnot(0, 1), 2)
        assert phase_aligned_distance(u, canonical_cnot(2, 0, 1)) < TOL

    def test_reversed_orientation(self):
        u = fragment_unitary(compile_cnot(1, 0), 2)
        assert phase_aligned_distance(u, canonical_cnot(2, 1, 0)) < TOL

    def test_control_off(self):
        u = fragment_unitary(compile_cnot(0, 1), 2)
        out = u @ np.array([1, 0, 0, 0], dtype=complex)
        assert abs(abs(out[0]) - 1.0) < TOL

    def test_control_on(self):
        u = fragment_unitary(compile_cnot(0, 1), 2)
        out = u @ np.array([0, 0, 1, 0], dtype=complex)  # |10>
        assert abs(abs(out[3]) - 1.0) < TOL  # -> |11>

    def test_rejects_equal_qubits(self):
        with pytest.raises(ValueError):
            compile_cnot(2, 2)

    def test_embedded_in_larger_register(self):
        u = fragment_unitary(compile_cnot(4, 1), 5)
        assert phase_aligned_distance(u, canonical_cnot(5, 4, 1)) < TOL


class TestToffoli:
    def test_matches_canonical(self):
        u = fragment_unitary(compile_toffoli(0, 1, 2), 3)
        assert phase_aligned_distance(u, canonical_toffoli(3, 0, 1, 2)) < TOL

    def test_scrambled_qubits(self):
        u = fragment_unitary(compile_toffoli(2, 0, 1), 3)
        assert phase_aligned_distance(u, canonical_toffoli(3, 2, 0, 1)) < TOL

    def test_both_controls_on(self):
        u = fragment_unitary(compile_toffoli(0, 1, 2), 3)
        out = u @ np.eye(8, dtype=complex)[6]  # |110>
        assert abs(abs(out[7]) - 1.0) < TOL

    def test_one_control_off(self):
        u = fragment_unitary(compile_toffoli(0, 1, 2), 3)
        out = u @ np.eye(8, dtype=complex)[2]  # |010>
        assert abs(abs(out[2]) - 1.0) < TOL

    def test_rejects_repeated_qubits(self):
        with pytest.raises(ValueError):
            compile_toffoli(0, 1, 1)

    def test_step_count(self):
        assert len(compile_toffoli(0, 1, 2)) == 17


class TestMeasuredRound:
    def test_sixteen_steps(self):
        assert len(build_measured_round()) == 16

    def test_cooling_window_first(self):
        sched = build_measured_round()
        assert sched.steps[0].cooling_window
        assert not any(s.cooling_window for s in sched.steps[1:])

    def test_markers(self):
        sched = build_measured_round()
        assert sched.steps[14].measure == (3, 4, 5)
        assert sched.steps[15].correction is not None
        assert len(sched.steps[15].correction) == 8

    def test_gate_block_matches_cnot_network(self):
        sched = build_measured_round()
        u = schedule_net_unitary(sched, stop=14).matrix
        canon = np.eye(64, dtype=complex)
        for c, t in [(0, 3), (1, 4), (2, 5), (3, 4), (3, 5)]:
            canon = canonical_cnot(6, c, t) @ canon
        assert phase_aligned_distance(u, canon) < TOL

    def test_net_unitary_stops_at_measurement(self):
        with pytest.raises(ValueError):
            schedule_net_unitary(build_measured_round())

    def test_correction_lookup_majority_logic(self):
        corr = build_measured_round().steps[15].correction
        # syndrome bits (m2, m3) = (d1^d2, d1^d3); m1 recorded but unused
        for m1 in (0, 1):
            assert corr[(m1, 0, 0)] == ()
            assert corr[(m1, 1, 1)] == (0,)
            assert corr[(m1, 1, 0)] == (1,)
            assert corr[(m1, 0, 1)] == (2,)


class TestMeasurementFreeRound:
    def test_sixtyeight_steps(self):
        assert len(build_measurement_free_round()) == 68

    def test_no_measurement_markers(self):
        sched = build_measurement_free_round()
        assert all(s.measure is None and s.correction is None for s in sched.steps)

    def test_matches_canonical_network(self):
        sched = build_measurement_free_round()
        u = schedule_net_unitary(sched).matrix
        idx = np.arange(32)
        x3 = np.zeros((32, 32), dtype=complex)
        x3[idx ^ 2, idx] = 1.0
        x4 = np.zeros((32, 32), dtype=complex)
        x4[idx ^ 1, idx] = 1.0
        canon = np.eye(32, dtype=complex)
        for c, t in [(0, 3), (2, 4), (1, 3), (1, 4)]:
            canon = canonical_cnot(5, c, t) @ canon
        canon = x4 @ canon
        canon = canonical_toffoli(5, 3, 4, 0) @ canon
        canon = x4 @ canon
        canon = canonical_toffoli(5, 3, 4, 1) @ canon
        canon = x3 @ canon
        canon = canonical_toffoli(5, 3, 4, 2) @ canon
        canon = x3 @ canon
        assert phase_aligned_distance(u, canon) < TOL

    def test_corrects_any_single_data_flip(self):
        sched = build_measurement_free_round()
        u = schedule_net_unitary(sched).matrix
        for q in range(3):
            z = 1 << (4 - q)  # single data error, ancillas ground
            out = u @ np.eye(32, dtype=complex)[z]
            data = np.argmax(np.abs(out)) >> 2
            assert data == 0

    def test_weight_two_goes_to_complement(self):
        sched = build_measurement_free_round()
        u = schedule_net_unitary(sched).matrix
        for pair in ((0, 1), (0, 2), (1, 2)):
            z = sum(1 << (4 - q) for q in pair)
            out = u @ np.eye(32, dtype=complex)[z]
            data = np.argmax(np.abs(out)) >> 2
            assert data == 7


class TestScheduleInfrastructure:
    def test_empty_schedule_identity(self):
        sched = GateSchedule(2, (0, 1), (), ())
        assert np.allclose(schedule_net_unitary(sched).matrix, np.eye(4))

    def test_single_step_x_rotation(self):
        term = ControlTerm("x_rotation", (0,), np.pi / 2)
        sched = GateSchedule(1, (0,), (), (Step((term,)),))
        u = schedule_net_unitary(sched).matrix
        assert phase_aligned_distance(u, np.array([[0, 1], [1, 0]], dtype=complex)) < TOL

    def test_schedule_determinism(self):
        a, b = build_measured_round(), build_measured_round()
        assert a == b
        c, d = build_measurement_free_round(), build_measurement_free_round()
        assert c == d

    def test_transversal_block_is_triple_cnot(self):
        sched = build_measured_round()
        u = schedule_net_unitary(GateSchedule(6, (0, 1, 2), (3, 4, 5), sched.steps[2:6])).matrix
        canon = np.eye(64, dtype=complex)
        for c, t in [(0, 3), (1, 4), (2, 5)]:
            canon = canonical_cnot(6, c, t) @ canon
        assert phase_aligned_distance(u, canon) < TOL

    def test_cooling_window_must_lead(self):
        cool = Step(cooling_window=True)
        with pytest.raises(ValueError):
            GateSchedule(2, (0,), (1,), (Step(), cool))

    def test_dump_lists_all_steps(self):
        sched = build_measured_round()
        text = dump_schedule(sched)
        assert len(text.splitlines()) == 17
        assert "MEASURE" in text and "CORRECT" in text and "COOL" in text


FLIP_1 = {(0,): (), (1,): (0,)}  # a one-bit correction that flips qubit 0 on outcome 1


class TestScheduleValidation:
    """Bad qubit indices and markers are rejected when the schedule is built,
    so neither the trajectory kernel nor the oracle meets them."""

    @pytest.mark.parametrize(
        "data, ancilla",
        [((0, 3), ()), ((0, -1), ()), ((0, 1), (4,)), ((0, 0), (1,)), ((0, 1), (1, 2)), ((0,), (1, 1))],
        ids=["data-out-of-range", "data-negative", "ancilla-out-of-range", "repeated", "shared", "ancilla-repeated"],
    )
    def test_rejects_bad_registers(self, data, ancilla):
        with pytest.raises(ValueError, match="register qubits"):
            GateSchedule(3, data, ancilla, ())

    @pytest.mark.parametrize("qubits", [(5,), (-1,), (0, 0)], ids=["out-of-range", "negative", "repeated"])
    def test_rejects_bad_measured_qubits(self, qubits):
        with pytest.raises(ValueError, match="measured qubits"):
            GateSchedule(2, (0, 1), (), (Step(measure=qubits),))

    @pytest.mark.parametrize(
        "steps",
        [
            (Step(correction=FLIP_1),),
            (Step(measure=(1,)), Step(correction=FLIP_1), Step(correction=FLIP_1)),
        ],
        ids=["no-measurement", "second-correction"],
    )
    def test_rejects_correction_without_measurement(self, steps):
        with pytest.raises(ValueError, match="correction marker before any measurement"):
            GateSchedule(2, (0,), (1,), steps)

    @pytest.mark.parametrize(
        "correction",
        [{(0, 0): (), (0, 1): (), (1, 0): (), (1, 1): ()}, {(0,): ()}, {0: (), 1: (0,)}],
        ids=["two-bit-keys", "missing-pattern", "not-tuples"],
    )
    def test_rejects_keys_other_than_the_measured_patterns(self, correction):
        with pytest.raises(ValueError, match="correction keys"):
            GateSchedule(2, (0,), (1,), (Step(measure=(1,)), Step(correction=correction)))

    @pytest.mark.parametrize("flips", [(7,), (-1,), (0, 0)], ids=["out-of-range", "negative", "repeated"])
    def test_rejects_bad_flip_qubits(self, flips):
        with pytest.raises(ValueError, match="flip qubits"):
            GateSchedule(2, (0,), (1,), (Step(measure=(1,), correction={(0,): (), (1,): flips}),))

    def test_accepts_correction_after_its_measurement(self):
        # in the measurement's own step, or later with idle steps between
        GateSchedule(2, (0,), (1,), (Step(measure=(1,), correction=FLIP_1),))
        GateSchedule(2, (0,), (1,), (Step(measure=(1,)), Step(), Step(correction=FLIP_1), Step(measure=(1,))))
