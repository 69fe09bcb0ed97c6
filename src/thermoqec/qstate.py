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


def block_layout(pattern: np.ndarray) -> list[np.ndarray]:
    """Exact diagonal-block layout of a (d, d) boolean nonzero pattern.

    The pattern's entries link basis states; each connected component of
    those links is a block that no matrix with this pattern couples to the
    rest, so such a matrix's eigenvalues are those of its blocks together
    (the split is a permutation similarity). Returns one (m, s) array per
    block size s, in ascending s, whose rows are the basis states of the m
    blocks of that size: blocks in the order of their lowest state, states
    ascending within a block. A connected pattern gives [arange(d)[None]].
    """
    link = pattern | pattern.T
    np.fill_diagonal(link, True)
    # transitive closure by repeated squaring; the links only grow, so an
    # unchanged count means nothing changed
    links = np.count_nonzero(link)
    while links < link.size:
        reach = link.astype(np.float64)
        link = reach @ reach > 0
        grown = np.count_nonzero(link)
        if grown == links:
            break
        links = grown
    root = np.argmax(link, axis=1)  # the lowest basis state of each state's component
    if not root.any():
        return [np.arange(len(root))[None]]
    size = np.bincount(root, minlength=len(root))[root]
    order = np.lexsort((root, size))  # states grouped by block size, then by block
    states_per_size = np.bincount(size)
    layout = []
    start = 0
    for s in np.flatnonzero(states_per_size):
        stop = start + states_per_size[s]
        layout.append(order[start:stop].reshape(-1, s))
        start = stop
    return layout


def nonzero_union(stack: np.ndarray) -> np.ndarray:
    """Boolean (..., d, d) pattern of the entries of a complex (n, ..., d, d)
    stack that are nonzero in some of its n members (-0.0 is zero, nan is
    not): one or of the members' bit patterns, without the sign bit."""
    bits = np.bitwise_or.reduce(np.ascontiguousarray(stack, dtype=complex).view(np.uint64), axis=0)
    bits = bits.reshape(bits.shape[:-1] + (-1, 2))
    return ((bits[..., 0] | bits[..., 1]) & np.uint64(2**63 - 1)) != 0


def block_eigvalsh(stack: np.ndarray, tol: float, layout: list[np.ndarray] | None = None) -> np.ndarray:
    """Eigenvalues of every matrix of a (..., d, d) Hermitian stack, solved
    block by block in a `block_layout`, by default that of the stack's
    `nonzero_union` over all its matrices.

    Each block is gathered from the stack (a connected layout needs no
    gather), checked to be Hermitian within `tol` (2 |Im| of a size-1
    block's entry), symmetrised, and solved with one stacked
    `np.linalg.eigvalsh` call per block size; a size-1 block is its entry.
    The (..., d) result holds each matrix's eigenvalues grouped by block in
    the layout's order: sorted only when the layout is connected.
    """
    d = stack.shape[-1]
    if layout is None:
        layout = block_layout(nonzero_union(stack.reshape((-1, d, d))))
    evals = np.empty(stack.shape[:-1])
    start = 0
    for idx in layout:
        stop = start + idx.size
        if idx.shape[1] == 1:
            entries = stack[..., idx[:, 0], idx[:, 0]]
            if 2 * np.abs(entries.imag).max() > tol:
                raise ValueError("density matrix is not Hermitian")
            evals[..., start:stop] = entries.real
        else:
            blocks = stack if idx.shape[1] == d else stack[..., idx[:, :, None], idx[:, None, :]]
            adj = blocks.conj().swapaxes(-1, -2)
            if np.abs(blocks - adj).max() > tol:
                raise ValueError("density matrix is not Hermitian")
            adj += blocks  # in place: the symmetrised sum
            evals[..., start:stop] = 0.5 * np.linalg.eigvalsh(adj).reshape(evals.shape[:-1] + (-1,))
        start = stop
    return evals


# Bytes of gathered blocks per `block_eigvalsh` call in `mean_entropies`: a
# chunk is a few rounds of one run of equal-layout steps, or a few of its
# steps of one round when a round's blocks exceed the bound. Only the
# eigenvalues are divided by the trajectory count, so no chunk is scaled.
# The bound keeps each chunk's temporaries small: with a whole round of 64x64
# matrices (1 MiB) per call, each round's temporaries grew glibc's heap past
# its trim threshold, so every round faulted its pages in again (about
# 100,000 page faults and 0.25 s of a 1.5 s `fig4a_iii` run at 50
# trajectories on a 2-core x86-64 host).
_BLOCK_BYTES = 2**18


def _same_layout(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return a is b or len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def mean_entropies(grid: np.ndarray, count: int, layouts: dict) -> np.ndarray:
    """Entropies -tr(rho log2 rho) in bits of the mean density matrices of a
    (rounds, steps, d, d) grid of sums over `count` trajectories, as a
    (rounds, steps) array clamped at +0.

    Each step is solved in the `block_layout` of the union of its nonzeros
    over the grid's rounds; `layouts`, a dict the caller keeps, caches the
    layouts by pattern bytes across calls. Each run of consecutive steps
    with equal layouts is solved by `block_eigvalsh`, a few rounds (or, for
    large blocks, a few steps of one round) at a time, and the eigenvalues
    are divided by `count` after the solve. Unit trace is checked within 1e-8, Hermiticity within 1e-9
    and eigenvalues against EIG_FLOOR, all on the mean; eigenvalues at or
    below 1e-14 contribute zero."""
    tr = grid.diagonal(0, -2, -1).real.sum(axis=-1) / count
    bad = np.abs(tr - 1.0) > 1e-8
    if np.any(bad):
        raise ValueError(f"density matrix trace is {tr[bad][0]}, expected 1")
    rounds, steps = grid.shape[:2]
    step_layouts = []
    for pattern in nonzero_union(grid):
        key = pattern.tobytes()  # many steps, windows and registers share a pattern
        if key not in layouts:
            layouts[key] = block_layout(pattern)
        step_layouts.append(layouts[key])
    starts = [s for s in range(steps) if s == 0 or not _same_layout(step_layouts[s], step_layouts[s - 1])]
    ents = np.empty((rounds, steps))
    for first, end in zip(starts, starts[1:] + [steps]):  # runs of steps with equal layouts
        layout = step_layouts[first]
        unit = sum(idx.size * idx.shape[1] for idx in layout) * np.dtype(complex).itemsize
        per_chunk = max(1, _BLOCK_BYTES // unit)
        width = min(end - first, per_chunk)
        height = max(1, per_chunk // width)
        for s0 in range(first, end, width):
            steps_in = slice(s0, min(s0 + width, end))  # a slice: no copies of whole matrices
            for r0 in range(0, rounds, height):
                chunk = grid[r0 : r0 + height, steps_in]
                evals = block_eigvalsh(chunk, 1e-9 * count, layout) / count
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
