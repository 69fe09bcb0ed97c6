"""Compile CNOT, Toffoli and full error-correction rounds into schedules of
the native control terms (x/z rotations, Hadamard pulses, two-qubit pushing
gates), and rebuild their net unitaries for verification.

A schedule is an ordered list of equal-duration steps. Within one step every
active term acts on its own qubits (pairwise disjoint sets), so the step
unitary is the commuting product exp(-i * strength * generator) over terms.
Pushing-gate steps multiply the amplitude of basis state |ab> on the qubit
pair by exp(-i * alpha_ab).

Derived circuit identities used here:
  * CNOT(c, t) = [H t][P(c,t; pi/4, -pi/4, -pi/4, pi/4)][Z(-pi/4) on c and t][H t]
    (4 steps; the two z-corrections share a step). The pushing gate together
    with the corrections is a controlled-Z up to global phase.
  * controlled-V with V = H S H (so V^2 = X) is [H t][P(c,t; 0,0,0,-pi/2)][H t].
  * Toffoli(c1, c2, t) = CV(c2,t) CX(c1,c2) CVdag(c2,t) CX(c1,c2) CV(c1,t),
    17 steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qstate import HADAMARD, PAULI_X, PAULI_Z, bit_mask

X_ROTATION = "x_rotation"
Z_ROTATION = "z_rotation"
HADAMARD_PULSE = "hadamard"
PUSHING_GATE = "pushing_gate"

_KINDS = (X_ROTATION, Z_ROTATION, HADAMARD_PULSE, PUSHING_GATE)
_GENERATORS = {X_ROTATION: PAULI_X, Z_ROTATION: PAULI_Z, HADAMARD_PULSE: HADAMARD}

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class ControlTerm:
    """One native control field held constant for one step.

    strength is the dimensionless angle (field amplitude times the step
    duration) multiplying the generator in the exponent.
    """

    kind: str
    qubits: tuple[int, ...]
    strength: float = 0.0
    alphas: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown control term kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.kind == PUSHING_GATE:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("pushing gate acts on exactly 2 distinct qubits")
            if self.alphas is None or len(self.alphas) != 4:
                raise ValueError("pushing gate requires 4 phase parameters")
            object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        else:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} acts on exactly 1 qubit")
            if self.alphas is not None:
                raise ValueError("alphas are only meaningful for the pushing gate")


@dataclass(frozen=True)
class Step:
    """One schedule step: a set of disjoint control terms plus markers."""

    terms: tuple[ControlTerm, ...] = ()
    cooling_window: bool = False
    measure: tuple[int, ...] | None = None
    correction: dict | None = None  # measured-bit pattern -> data qubits to flip
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        seen: set[int] = set()
        for term in self.terms:
            for q in term.qubits:
                if q in seen:
                    raise ValueError(f"qubit {q} appears in two terms of one step")
                seen.add(q)
        if self.measure is not None:
            object.__setattr__(self, "measure", tuple(self.measure))


@dataclass(frozen=True)
class GateSchedule:
    """Full register schedule: ordered steps plus the data/ancilla split."""

    n_qubits: int
    data_qubits: tuple[int, ...]
    ancilla_qubits: tuple[int, ...]
    steps: tuple[Step, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            for term in step.terms:
                if any(q >= self.n_qubits or q < 0 for q in term.qubits):
                    raise ValueError("term qubit index out of range")
        cooled = [i for i, s in enumerate(self.steps) if s.cooling_window]
        if cooled and cooled != list(range(len(cooled))):
            raise ValueError("cooling window steps must sit at the start of the round")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class CompiledUnitary:
    """Dense net unitary of a schedule fragment, for verification."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dim = m.shape[0]
        if m.shape != (dim, dim):
            raise ValueError("compiled unitary must be square")
        if np.linalg.norm(m.conj().T @ m - np.eye(dim)) > UNITARY_TOL * dim:
            raise ValueError("compiled matrix is not unitary")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def term_unitary(term: ControlTerm, n_qubits: int) -> np.ndarray:
    """Dense unitary of a single term on the full register."""
    return _term_matrix(term, n_qubits, scale=1.0)


def _embed(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """A single-qubit operator acting on `qubit` of the full register."""
    left = np.eye(2**qubit, dtype=complex)
    right = np.eye(2 ** (n_qubits - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def _pushing_phases(term: ControlTerm, n_qubits: int) -> np.ndarray:
    """Pushing-gate phase alpha_ab of every basis state (the diagonal of its
    generator), with (a, b) the bits of the term's qubit pair."""
    i, j = term.qubits
    idx = np.arange(2**n_qubits)
    a = (idx >> (n_qubits - 1 - i)) & 1
    b = (idx >> (n_qubits - 1 - j)) & 1
    return np.asarray(term.alphas)[2 * a + b]


def _term_matrix(term: ControlTerm, n_qubits: int, scale: float) -> np.ndarray:
    if term.kind == PUSHING_GATE:
        return np.diag(np.exp(-1j * scale * _pushing_phases(term, n_qubits)))
    g = _GENERATORS[term.kind]
    theta = scale * term.strength
    u2 = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * g
    return _embed(u2, term.qubits[0], n_qubits)


def step_hamiltonian(step: Step, n_qubits: int) -> np.ndarray | None:
    """Hermitian generator of one step (sum of angle * generator terms), or
    None for a step without control terms."""
    if not step.terms:
        return None
    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for term in step.terms:
        if term.kind == PUSHING_GATE:
            h += np.diag(_pushing_phases(term, n_qubits).astype(complex))
        else:
            h += term.strength * _embed(_GENERATORS[term.kind], term.qubits[0], n_qubits)
    return h


def step_unitary(step: Step, n_qubits: int, scale: float = 1.0) -> np.ndarray:
    """Product of the step's (commuting) term unitaries, scaled by a fraction
    of the step duration."""
    u = np.eye(2**n_qubits, dtype=complex)
    for term in step.terms:
        u = _term_matrix(term, n_qubits, scale) @ u
    return u


def schedule_net_unitary(schedule: GateSchedule, stop: int | None = None) -> CompiledUnitary:
    """Net unitary of steps [0, stop); raises if a measurement marker is hit."""
    steps = schedule.steps[: len(schedule.steps) if stop is None else stop]
    u = np.eye(2**schedule.n_qubits, dtype=complex)
    for step in steps:
        if step.measure is not None:
            raise ValueError("schedule fragment contains a measurement marker")
        u = step_unitary(step, schedule.n_qubits) @ u
    return CompiledUnitary(u)


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between u and v after optimal global-phase alignment."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-300 else 1.0
    return float(np.linalg.norm(u - phase * v))


def canonical_cnot(n: int, control: int, target: int) -> np.ndarray:
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for z in range(dim):
        if (z >> (n - 1 - control)) & 1:
            mat[z ^ bit_mask(target, n), z] = 1.0
        else:
            mat[z, z] = 1.0
    return mat


def canonical_toffoli(n: int, c1: int, c2: int, target: int) -> np.ndarray:
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for z in range(dim):
        if ((z >> (n - 1 - c1)) & 1) and ((z >> (n - 1 - c2)) & 1):
            mat[z ^ bit_mask(target, n), z] = 1.0
        else:
            mat[z, z] = 1.0
    return mat


def _h(q: int) -> ControlTerm:
    return ControlTerm(HADAMARD_PULSE, (q,), np.pi / 2)


def _x_flip(q: int) -> ControlTerm:
    return ControlTerm(X_ROTATION, (q,), np.pi / 2)


def compile_cnot(control: int, target: int) -> list[Step]:
    """4-step CNOT fragment built from one pushing gate.

    The z-corrections have angle pi/4 as generator coefficients, i.e. Z(pi/2)
    rotations in the half-angle circuit convention, matching the pushing-gate
    phases alpha_00 - alpha_10 = alpha_00 - alpha_01 = pi/2.
    """
    if control == target:
        raise ValueError("control and target must differ")
    quarter = np.pi / 4
    return [
        Step((_h(target),), label=f"H q{target}"),
        Step(
            (ControlTerm(PUSHING_GATE, (control, target), alphas=(quarter, -quarter, -quarter, quarter)),),
            label=f"P q{control},q{target}",
        ),
        Step(
            (
                ControlTerm(Z_ROTATION, (control,), -quarter),
                ControlTerm(Z_ROTATION, (target,), -quarter),
            ),
            label=f"Z corrections q{control},q{target}",
        ),
        Step((_h(target),), label=f"H q{target}"),
    ]


def _compile_controlled_v(control: int, target: int, dagger: bool = False) -> list[Step]:
    """3-step controlled-V (V = H S H) from a single pushing gate."""
    alpha = np.pi / 2 if dagger else -np.pi / 2
    tag = "Vdag" if dagger else "V"
    return [
        Step((_h(target),), label=f"H q{target}"),
        Step(
            (ControlTerm(PUSHING_GATE, (control, target), alphas=(0.0, 0.0, 0.0, alpha)),),
            label=f"C{tag} phase q{control},q{target}",
        ),
        Step((_h(target),), label=f"H q{target}"),
    ]


def compile_toffoli(c1: int, c2: int, target: int) -> list[Step]:
    """17-step Toffoli fragment from controlled-V blocks and two CNOTs."""
    if len({c1, c2, target}) != 3:
        raise ValueError("toffoli requires three distinct qubits")
    steps: list[Step] = []
    steps += _compile_controlled_v(c2, target)
    steps += compile_cnot(c1, c2)
    steps += _compile_controlled_v(c2, target, dagger=True)
    steps += compile_cnot(c1, c2)
    steps += _compile_controlled_v(c1, target)
    return steps


def _parallel(fragments: list[list[Step]], label: str = "") -> list[Step]:
    """Merge equally long fragments acting on disjoint qubits step by step."""
    length = len(fragments[0])
    if any(len(f) != length for f in fragments):
        raise ValueError("parallel fragments must have equal length")
    merged = []
    for k in range(length):
        terms: list[ControlTerm] = []
        for frag in fragments:
            terms.extend(frag[k].terms)
        merged.append(Step(tuple(terms), label=label or fragments[0][k].label))
    return merged


# Correction lookup for the measured protocol. The decode block maps the
# ancilla register to (d1, d1^d2, d1^d3); the flip decision uses the two
# parity bits only, the first bit is recorded but unused.
_MEASURED_CORRECTION = {}
for _m1 in (0, 1):
    for _m2 in (0, 1):
        for _m3 in (0, 1):
            _flips = {(0, 0): (), (1, 1): (0,), (1, 0): (1,), (0, 1): (2,)}[(_m2, _m3)]
            _MEASURED_CORRECTION[(_m1, _m2, _m3)] = _flips


def build_measured_round() -> GateSchedule:
    """One 16-step round of the measured protocol on 3 data + 3 ancilla qubits.

    Layout: cooling window, ancilla preparation slot, transversal CNOT block
    (three CNOTs on disjoint pairs packed into 4 steps), two decode CNOTs,
    measurement of all three ancillas, classically controlled correction.
    """
    steps: list[Step] = [Step(cooling_window=True, label="cooling window")]
    steps.append(Step(label="ancilla preparation"))
    steps += _parallel(
        [compile_cnot(0, 3), compile_cnot(1, 4), compile_cnot(2, 5)],
        label="transversal CNOT",
    )
    steps += compile_cnot(3, 4)
    steps += compile_cnot(3, 5)
    steps.append(Step(measure=(3, 4, 5), label="syndrome measurement"))
    steps.append(Step(correction=dict(_MEASURED_CORRECTION), label="conditional correction"))
    return GateSchedule(6, (0, 1, 2), (3, 4, 5), tuple(steps))


def build_measurement_free_round() -> GateSchedule:
    """One 68-step measurement-free round on 3 data + 2 ancilla qubits.

    Syndrome wiring a1 = d1^d2, a2 = d2^d3 via four CNOTs (the disjoint first
    pair shares steps), then three Toffoli corrections with zero-controls
    realized by x-flip conjugation. The ancillas are left to be reset by the
    next round's cooling window.
    """
    steps: list[Step] = [Step(cooling_window=True, label="cooling window")]
    steps += _parallel([compile_cnot(0, 3), compile_cnot(2, 4)], label="syndrome CNOT pair")
    steps += compile_cnot(1, 3)
    steps += compile_cnot(1, 4)
    # toffoli firing on (a1, a2) = (1, 0) flips d1
    steps.append(Step((_x_flip(4),), label="X q4"))
    steps += compile_toffoli(3, 4, 0)
    steps.append(Step((_x_flip(4),), label="X q4"))
    # (1, 1) flips d2
    steps += compile_toffoli(3, 4, 1)
    # (0, 1) flips d3
    steps.append(Step((_x_flip(3),), label="X q3"))
    steps += compile_toffoli(3, 4, 2)
    steps.append(Step((_x_flip(3),), label="X q3"))
    return GateSchedule(5, (0, 1, 2), (3, 4), tuple(steps))


def dump_schedule(schedule: GateSchedule) -> str:
    """Human-readable step listing (debugging aid, not a stability contract)."""
    lines = [
        f"register: {schedule.n_qubits} qubits, data {schedule.data_qubits}, "
        f"ancilla {schedule.ancilla_qubits}, {len(schedule)} steps"
    ]
    for k, step in enumerate(schedule.steps):
        parts = []
        if step.cooling_window:
            parts.append("COOL")
        if step.measure is not None:
            parts.append(f"MEASURE{step.measure}")
        if step.correction is not None:
            parts.append("CORRECT")
        for term in step.terms:
            if term.kind == PUSHING_GATE:
                al = ",".join(f"{a:+.3f}" for a in term.alphas)
                parts.append(f"P{term.qubits}[{al}]")
            else:
                parts.append(f"{term.kind}{term.qubits}({term.strength:+.3f})")
        body = " ".join(parts) if parts else "idle"
        lines.append(f"step {k:2d}: {body}" + (f"   # {step.label}" if step.label else ""))
    return "\n".join(lines)
