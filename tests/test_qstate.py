import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoqec.compiler import HADAMARD_PULSE, PUSHING_GATE, X_ROTATION, ControlTerm, GateSchedule, Step, step_unitary
from thermoqec.dynamics import NoiseParams, run_ensemble
from thermoqec.qstate import (
    HADAMARD,
    DensityMatrix,
    StateVector,
    block_eigvalsh,
    partial_trace,
    pattern_blocks,
    squared_fidelity,
    trace_distance,
    von_neumann_entropy,
)


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_density(n, rng, rank=2):
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    w = rng.random(rank)
    w /= w.sum()
    for k in range(rank):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        mat += w[k] * np.outer(v, v.conj())
    return DensityMatrix(n, mat)


class TestStateVector:
    def test_basis_ordering_msb(self):
        # qubit 0 is the most significant bit of the index
        s = StateVector.from_bits("100")
        assert s.amplitudes[4] == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))


def apply_term(state, term):
    """`state` after one step of a single control term: the compiler's
    embedding of the term's unitary into the register."""
    return StateVector(state.n_qubits, step_unitary(Step((term,)), state.n_qubits) @ state.amplitudes)


def measure(state, qubits, n_traj, seed):
    """Outcomes of the trajectory kernel's projective measurement of `qubits`
    (one noiseless step with a measurement marker), one per trajectory."""
    n = state.n_qubits
    sched = GateSchedule(n, tuple(range(n)), (), (Step(measure=tuple(qubits)),))
    _, recs = run_ensemble(
        state, 1, sched, NoiseParams(0.0, 0.0, 0.0), n_traj, master_seed=seed, store="scalar", record=True
    )
    return [r.outcomes[0] for r in recs]


class TestSingleQubitUnitary:
    def test_identity(self):
        rng = np.random.default_rng(0)
        s = random_state(3, rng)
        out = apply_term(s, ControlTerm(X_ROTATION, (1,), 0.0))
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_flip_basis_state(self):
        # exp(-i pi/2 X) = -i X
        out = apply_term(StateVector.basis(6, 0), ControlTerm(X_ROTATION, (0,), np.pi / 2))
        assert abs(out.amplitudes[32] + 1j) < 1e-15  # |100000>

    def test_hadamard_single_qubit(self):
        out = apply_term(StateVector.basis(1, 0), ControlTerm(HADAMARD_PULSE, (0,), np.pi / 2))
        assert np.allclose(out.amplitudes, -1j * HADAMARD[:, 0])

    def test_rejects_bad_qubit(self):
        with pytest.raises(ValueError):
            GateSchedule(2, (0, 1), (), (Step((ControlTerm(X_ROTATION, (5,), 0.0),)),))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 2**31 - 1))
    def test_norm_preserved(self, q, seed):
        rng = np.random.default_rng(seed)
        s = random_state(6, rng)
        out = apply_term(s, ControlTerm(X_ROTATION, (q,), rng.uniform(0, 2 * np.pi)))
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12


class TestTwoQubitPhase:
    """The pushing gate: exp(-i * alpha_ab) keyed on the bits a, b of its
    two qubits, alphas = (alpha_00, alpha_01, alpha_10, alpha_11)."""

    def test_zero_phases_identity(self):
        rng = np.random.default_rng(1)
        s = random_state(4, rng)
        out = apply_term(s, ControlTerm(PUSHING_GATE, (0, 3), alphas=(0, 0, 0, 0)))
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_controlled_z_on_bell(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        out = apply_term(bell, ControlTerm(PUSHING_GATE, (0, 1), alphas=(0, 0, 0, np.pi)))
        assert np.allclose(out.amplitudes, np.array([1, 0, 0, -1]) / np.sqrt(2))

    def test_uniform_phase_is_global(self):
        rng = np.random.default_rng(2)
        s = random_state(3, rng)
        out = apply_term(s, ControlTerm(PUSHING_GATE, (1, 2), alphas=(np.pi / 2,) * 4))
        # amplitude bookkeeping: every basis state picks up exp(-i pi/2) = -i
        assert np.allclose(out.amplitudes, -1j * s.amplitudes)
        fid = abs(np.vdot(s.amplitudes, out.amplitudes)) ** 2
        assert abs(fid - 1.0) < 1e-12

    def test_rejects_equal_qubits(self):
        with pytest.raises(ValueError):
            ControlTerm(PUSHING_GATE, (1, 1), alphas=(0, 0, 0, 0))


class TestMeasurement:
    def test_eigenstate_deterministic(self):
        s = StateVector.from_bits("0110")
        assert measure(s, [0], 20, seed=3) == [(0,)] * 20
        sched = GateSchedule(4, (0, 1, 2, 3), (), (Step(measure=(0,)),))
        acc, _ = run_ensemble(
            s, 1, sched, NoiseParams(0.0, 0.0, 0.0), 1, master_seed=3, traj_indices=[0], store="full"
        )
        assert np.abs(acc.mean_rho("total", 0).elements - s.projector().elements).max() < 1e-12

    def test_bell_statistics(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        outcomes = measure(bell, [0, 1], 2000, seed=4)
        counts = {(0, 0): 0, (1, 1): 0}
        for o in outcomes:
            assert o in counts
            counts[o] += 1
        # chi-square against 50/50 at the 3.84 (95%) threshold scaled up
        chi2 = sum((c - 1000) ** 2 / 1000 for c in counts.values())
        assert chi2 < 15

    def test_born_rule_from_amplitude_table(self):
        # fixed 3-ancilla amplitude table; empirical frequencies within 3 sigma
        amps = np.sqrt(np.array([0.4, 0.3, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03]))
        s = StateVector(3, amps.astype(complex))
        n = 4000
        freq = np.zeros(8)
        for bits in measure(s, [0, 1, 2], n, seed=5):
            freq[bits[0] * 4 + bits[1] * 2 + bits[2]] += 1
        freq /= n
        p = amps**2
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3 * sigma + 1e-9)


class TestPartialTrace:
    def test_keep_everything(self):
        rng = np.random.default_rng(6)
        rho = random_density(2, rng)
        out = partial_trace(rho, [0, 1])
        assert np.allclose(out.elements, rho.elements, atol=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(7)
        a = random_density(1, rng)
        b = random_density(2, rng)
        joint = DensityMatrix(3, np.kron(a.elements, b.elements))
        assert np.allclose(partial_trace(joint, [0]).elements, a.elements, atol=1e-12)
        assert np.allclose(partial_trace(joint, [1, 2]).elements, b.elements, atol=1e-12)

    def test_bell_reduction_maximally_mixed(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2)).projector()
        red = partial_trace(bell, [0])
        assert np.allclose(red.elements, np.eye(2) / 2, atol=1e-12)

    def test_keep_order_swaps_qubits(self):
        rng = np.random.default_rng(8)
        a = random_density(1, rng)
        b = random_density(1, rng)
        joint = DensityMatrix(2, np.kron(a.elements, b.elements))
        swapped = partial_trace(joint, [1, 0])
        assert np.allclose(swapped.elements, np.kron(b.elements, a.elements), atol=1e-12)

    def test_rejects_empty_keep(self):
        with pytest.raises(ValueError):
            partial_trace(DensityMatrix.maximally_mixed(2), [])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_product_property(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density(2, rng)
        b = random_density(1, rng)
        joint = DensityMatrix(3, np.kron(a.elements, b.elements))
        assert np.max(np.abs(partial_trace(joint, [0, 1]).elements - a.elements)) < 1e-12


class TestFidelityEntropy:
    def test_pure_state_match(self):
        rng = np.random.default_rng(9)
        s = random_state(3, rng)
        assert abs(squared_fidelity(s.projector(), s) - 1.0) < 1e-12

    def test_maximally_mixed_three_qubits(self):
        rho = DensityMatrix.maximally_mixed(3)
        assert abs(squared_fidelity(rho, StateVector.basis(3, 0)) - 1 / 8) < 1e-12

    def test_codeword_mixture_is_half(self):
        p0 = StateVector.from_bits("000").projector().elements
        p7 = StateVector.from_bits("111").projector().elements
        rho = DensityMatrix(3, 0.5 * p0 + 0.5 * p7)
        assert abs(squared_fidelity(rho, StateVector.from_bits("000")) - 0.5) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    def test_fidelity_linear_in_rho(self, seed, a):
        rng = np.random.default_rng(seed)
        r1 = random_density(2, rng)
        r2 = random_density(2, rng)
        target = random_state(2, rng)
        mix = DensityMatrix(2, a * r1.elements + (1 - a) * r2.elements)
        lhs = squared_fidelity(mix, target)
        rhs = a * squared_fidelity(r1, target) + (1 - a) * squared_fidelity(r2, target)
        assert abs(lhs - rhs) < 1e-12

    def test_entropy_pure_state(self):
        rng = np.random.default_rng(10)
        s = random_state(3, rng)
        assert abs(von_neumann_entropy(s.projector())) < 1e-9

    def test_entropy_maximally_mixed(self):
        assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(1)) - 1.0) < 1e-12
        assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(3)) - 3.0) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_entropy_subadditive(self, seed):
        rng = np.random.default_rng(seed)
        # ensemble of a few pure 4-qubit states, split 2|2
        dim = 16
        mat = np.zeros((dim, dim), dtype=complex)
        for _ in range(3):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            mat += np.outer(v, v.conj()) / 3
        rho = DensityMatrix(4, mat)
        s_total = von_neumann_entropy(rho)
        s_a = von_neumann_entropy(partial_trace(rho, [0, 1]))
        s_b = von_neumann_entropy(partial_trace(rho, [2, 3]))
        assert s_total <= s_a + s_b + 1e-9

    def test_trace_distance_basics(self):
        a = StateVector.from_bits("00").projector()
        b = StateVector.from_bits("11").projector()
        assert abs(trace_distance(a, b) - 1.0) < 1e-12
        assert trace_distance(a, a) < 1e-12


def hidden_block_stack(rng, m, s, k):
    """(k, d, d) stack of PSD matrices, d = m * s, block-diagonal in m blocks
    of size s under one random basis permutation, and its (m, s) layout.
    Some blocks are tridiagonal and some are zero in some matrices."""
    d = m * s
    stack = np.zeros((k, d, d), dtype=complex)
    for b in range(m):
        a = rng.normal(size=(k, s, s)) + 1j * rng.normal(size=(k, s, s))
        if rng.random() < 0.5:
            a = np.tril(np.triu(a, -1))  # lower bidiagonal: a a^H is tridiagonal
        block = a @ a.conj().swapaxes(1, 2) / (d * s)
        block[rng.random(k) < 0.3] = 0.0
        stack[:, b * s : (b + 1) * s, b * s : (b + 1) * s] = block
    perm = rng.permutation(d)
    layout = np.sort(np.argsort(perm).reshape(m, s), axis=1)  # where each block's states went
    return stack[:, perm][:, :, perm], layout


class TestPatternBlocks:
    def test_blocks_share_the_pattern_of_the_qubits(self):
        assert pattern_blocks(3, [0]).tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert pattern_blocks(3, [2, 0]).tolist() == [[0, 2], [4, 6], [1, 3], [5, 7]]
        assert pattern_blocks(2, [0, 1]).tolist() == [[0], [1], [2], [3]]

    def test_no_qubits_is_one_dense_block(self):
        assert pattern_blocks(3, []).tolist() == [list(range(8))]


class TestBlockEigvalsh:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 8), st.integers(1, 4))
    def test_hidden_blocks_match_whole_matrix(self, seed, m, s, k):
        rng = np.random.default_rng(seed)
        stack, layout = hidden_block_stack(rng, m, s, k)
        got = np.sort(block_eigvalsh(stack, 1e-12, layout), axis=1)
        assert got.shape == (k, m * s)
        assert np.abs(got - np.linalg.eigvalsh(stack)).max() <= 1e-12

    def test_dense_input_is_one_whole_matrix_call(self):
        rng = np.random.default_rng(3)
        stack, layout = hidden_block_stack(rng, 1, 16, 3)
        stack[:, 0, 1:] = stack[:, 1:, 0] = 1e-3  # couple every state to state 0
        assert layout.tolist() == [list(range(16))]
        for dense in (None, layout):
            assert np.array_equal(block_eigvalsh(stack, 1e-12, dense), np.linalg.eigvalsh(stack))

    def test_diagonal_input_gives_the_diagonal(self):
        diag = np.array([[0.5, 0.0, 0.25, 0.25], [0.0, 1.0, 0.0, 0.0]])
        stack = np.stack([np.diag(row) for row in diag]).astype(complex)
        assert np.array_equal(block_eigvalsh(stack, 1e-12, pattern_blocks(2, [0, 1])), diag)

    def test_four_dimensional_stack_matches_per_matrix(self):
        # blocks of 2 along the diagonal: the blocks of the patterns of qubits 0 and 1
        rng = np.random.default_rng(5)
        stack = np.zeros((3, 4, 8, 8), dtype=complex)  # (r, k, d, d)
        for r in range(3):
            for b in range(4):
                stack[r, :, 2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = hidden_block_stack(rng, 1, 2, 4)[0]
        got = np.sort(block_eigvalsh(stack, 1e-12, pattern_blocks(3, [0, 1])), axis=-1)
        want = np.array([[np.linalg.eigvalsh(m) for m in row] for row in stack])
        assert got.shape == (3, 4, 8)
        assert np.abs(got - want).max() <= 1e-12

    def test_entries_outside_the_blocks_are_not_read(self):
        stack = np.stack([np.diag([0.4, 0.3, 0.2, 0.1])] * 2).astype(complex)
        stack[:, 0, 1] = stack[:, 1, 0] = 0.05
        stack[1, 0, 2] = 1.0  # joins two blocks, and is not Hermitian
        got = block_eigvalsh(stack, 1e-9, pattern_blocks(2, [0]))
        want = np.concatenate([np.linalg.eigvalsh(stack[0, :2, :2]), [0.1, 0.2]])
        assert np.abs(got - want).max() <= 1e-15

    def test_asymmetric_block_entry_rejected(self):
        stack = np.stack([np.diag([0.4, 0.3, 0.2, 0.1])] * 2).astype(complex)
        stack[:, 0, 1] = stack[:, 1, 0] = 0.05  # blocks {0, 1}, {2, 3}
        stack[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            block_eigvalsh(stack, 1e-9, pattern_blocks(2, [0]))

    def test_imaginary_size_one_entry_rejected(self):
        stack = np.stack([np.diag([0.5, 0.25, 0.25, 0.0]), np.diag([1.0, 0.0, 0.0, 0.0])]).astype(complex)
        stack[1, 2, 2] += 1e-6j
        with pytest.raises(ValueError, match="not Hermitian"):
            block_eigvalsh(stack, 1e-9, pattern_blocks(2, [0, 1]))
