"""State-vector and density-matrix algebra for small qubit registers.

Convention used throughout the package: qubit 0 is the most significant bit
of the computational-basis index, so for an n-qubit register the basis state
|b0 b1 ... b_{n-1}> has index sum_k b_k * 2**(n-1-k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-12
EIG_FLOOR = -1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def bit_mask(qubit: int, n_qubits: int) -> int:
    return 1 << (n_qubits - 1 - qubit)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({2**self.n_qubits},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state vector not normalized: |psi| = {norm}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        """State |bits> with qubit 0 the leftmost character."""
        n = len(bits)
        return cls.basis(n, int(bits, 2))

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace operator on an n-qubit register."""

    n_qubits: int
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = 2**self.n_qubits
        mat = np.asarray(self.elements, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-9:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "elements", mat)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        return cls(n_qubits, np.eye(dim, dtype=complex) / dim)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over the kept qubits (in the order given)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError("kept qubits must be distinct")
    n = rho.n_qubits
    drop = [q for q in range(n) if q not in keep]
    tensor = rho.elements.reshape([2] * (2 * n))
    # trace out the dropped qubits pairwise (row axis q, column axis n+q)
    for count, q in enumerate(sorted(drop)):
        row = q - count
        col = row + (n - count)
        tensor = np.trace(tensor, axis1=row, axis2=col)
    m = len(keep)
    remaining = [q for q in range(n) if q in keep]
    perm = [remaining.index(q) for q in keep]
    tensor = tensor.transpose(perm + [m + p for p in perm])
    dim = 2**m
    return DensityMatrix(m, tensor.reshape(dim, dim))


def squared_fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """Overlap <target| rho |target>, clamped to [0, 1]."""
    if rho.n_qubits != target.n_qubits:
        raise ValueError("dimension mismatch between state and density matrix")
    v = target.amplitudes
    val = np.vdot(v, rho.elements @ v).real
    if val < EIG_FLOOR or val > 1 + 1e-10:
        raise ValueError(f"fidelity {val} outside [0, 1] beyond tolerance")
    return float(min(max(val, 0.0), 1.0))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -tr(rho log2 rho) in bits; eigenvalues below 1e-14 contribute zero."""
    mat = rho.elements
    if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL * mat.shape[0]:
        raise ValueError("entropy requires a Hermitian matrix")
    evals = np.linalg.eigvalsh(mat)
    if evals.min() < EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {evals.min()} below tolerance")
    evals = evals[evals > 1e-14]
    return float(-np.sum(evals * np.log2(evals)))


def basis_patterns(n_qubits: int, qubits) -> np.ndarray:
    """The bits of `qubits` in each n-qubit basis index, packed first qubit
    first (most significant)."""
    idx = np.arange(2**n_qubits)
    pattern = np.zeros_like(idx)
    for q in qubits:
        pattern = 2 * pattern + ((idx >> (n_qubits - 1 - q)) & 1)
    return pattern


def pattern_blocks(n_qubits: int, qubits) -> np.ndarray:
    """Block layout of the n-qubit matrices that couple no two basis states
    whose bits on `qubits` differ: a (2**c, 2**(n - c)) array, for c
    `qubits`, whose row p holds, ascending, the basis states whose pattern
    (`basis_patterns`) is p. No qubits give one dense block."""
    return np.argsort(basis_patterns(n_qubits, qubits), kind="stable").reshape(2 ** len(qubits), -1)


def gather_blocks(stack: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """The (..., m, s, s) diagonal blocks of a (..., d, d) stack in an (m, s)
    `layout` (see `pattern_blocks`); a layout of one block of all d states is
    a view of the stack."""
    if layout.shape[1] == stack.shape[-1]:
        return stack[..., None, :, :]
    return stack[..., layout[:, :, None], layout[:, None, :]]


def block_eigvalsh(stack: np.ndarray, tol: float, layout: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of every matrix of a (..., d, d) Hermitian stack whose
    matrices couple no two blocks of `layout`, an (m, s) array whose rows
    are the basis states of its m blocks (see `pattern_blocks`); None is one
    dense block.

    The blocks are gathered from the stack (`gather_blocks`) and solved by
    `_blocks_eigvalsh`; entries outside the blocks are not read. The (..., d)
    result holds each matrix's eigenvalues grouped by block in the layout's
    order, ascending within a block.
    """
    blocks = stack[..., None, :, :] if layout is None else gather_blocks(stack, layout)
    return _blocks_eigvalsh(blocks, tol).reshape(stack.shape[:-1])


def _blocks_eigvalsh(blocks: np.ndarray, tol: float) -> np.ndarray:
    """Eigenvalues of a (..., m, s, s) stack of Hermitian blocks as a
    (..., m * s) array: each block is checked to be Hermitian within `tol`
    (2 |Im| of a size-1 block's entry), symmetrised and solved in one stacked
    `np.linalg.eigvalsh` call; a size-1 block is its entry."""
    if blocks.shape[-1] == 1:
        entries = blocks[..., 0, 0]
        if 2 * np.abs(entries.imag).max() > tol:
            raise ValueError("density matrix is not Hermitian")
        return entries.real
    adj = blocks.conj().swapaxes(-1, -2)
    if np.abs(blocks - adj).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    adj += blocks  # in place: the symmetrised sum
    return 0.5 * np.linalg.eigvalsh(adj).reshape(blocks.shape[:-3] + (-1,))


# Bytes of blocks per eigensolver call in `mean_entropies`: a chunk is a few
# rounds of the grid's steps, or a few steps of one round when a round's
# blocks exceed the bound. Only the eigenvalues are divided by the trajectory
# count, so no chunk is scaled. The bound keeps each chunk's temporaries
# small: with a whole round of 64x64 matrices (1 MiB) per call, each round's
# temporaries grew glibc's heap past its trim threshold, so every round
# faulted its pages in again (about 100,000 page faults and 0.25 s of a 1.5 s
# `fig4a_iii` run at 50 trajectories on a 2-core x86-64 host).
_BLOCK_BYTES = 2**18


def mean_entropies(blocks: np.ndarray, count: int) -> np.ndarray:
    """Entropies -tr(rho log2 rho) in bits of the mean density matrices of a
    (rounds, steps, m, s, s) grid of block sums over `count` trajectories,
    each matrix held as its m diagonal blocks of size s (`gather_blocks`
    takes them from dense matrices), as a (rounds, steps) array clamped at
    +0.

    The blocks are solved a few rounds (or, for large blocks, a few steps of
    one round) at a time, and the eigenvalues are divided by `count` after
    the solve. Unit trace is checked within 1e-8, Hermiticity within 1e-9
    and eigenvalues against EIG_FLOOR, all on the mean; eigenvalues at or
    below 1e-14 contribute zero."""
    tr = blocks.diagonal(0, -2, -1).real.sum(axis=(-2, -1)) / count
    bad = np.abs(tr - 1.0) > 1e-8
    if np.any(bad):
        raise ValueError(f"density matrix trace is {tr[bad][0]}, expected 1")
    rounds, steps = blocks.shape[:2]
    per_chunk = max(1, _BLOCK_BYTES // (blocks[0, 0].size * np.dtype(complex).itemsize))
    width = min(steps, per_chunk)
    height = max(1, per_chunk // width)
    ents = np.empty((rounds, steps))
    for s0 in range(0, steps, width):
        steps_in = slice(s0, s0 + width)  # a slice: no copies of whole matrices
        for r0 in range(0, rounds, height):
            evals = _blocks_eigvalsh(blocks[r0 : r0 + height, steps_in], 1e-9 * count) / count
            low = evals.min()
            if low < EIG_FLOOR:
                raise ValueError(f"negative eigenvalue {low} below tolerance")
            p = np.where(evals > 1e-14, evals, 1.0)  # a dropped eigenvalue adds 1 * log2(1) = 0
            ents[r0 : r0 + height, steps_in] = -(p * np.log2(p)).sum(axis=-1)
    return np.where(ents > 0.0, ents, 0.0)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("dimension mismatch")
    evals = np.linalg.eigvalsh(a.elements - b.elements)
    return float(0.5 * np.sum(np.abs(evals)))
