"""Evolution of the register under a gate schedule coupled to both reservoirs.

Two routes are provided, both reading one table of schedule-derived
operators (`_SchedulePlan`: cooling windows, measurement projectors,
correction permutations, ground-pattern masks, the hot channel's flips, the
classical qubits that fix the kernel's state and every density matrix's
block layout, and two tables built on request: the kernel's step
propagators `propagators[s]`, built once per distinct control-term set and
shared by every step with that set, which hold the full-step unitary, an
exact product of the terms' closed forms, and, from the set's first replay,
the eigenbasis of the step's generator, which gives any part of the step;
and the oracle's step channels `channels[s]`, built on its first request
once per distinct (term, cooled qubits) group and shared by every step with
that group):

* a quantum-trajectory Monte Carlo engine (pure states, stochastic jumps)
  with one batched kernel, which `run_ensemble` runs on all its
  trajectories as one batch, reading its tables over the basis from a
  `_SplitPlan` of the schedule plan, and
* the exact master-equation propagator, used as the oracle: within a step
  the Lindbladian is a sum of commuting terms on disjoint qubit groups, so
  each step's map is a tensor product of small exact channels. It takes one
  initial state or a sequence of them, evolved as one stack, and returns
  each round's final density matrix and the basis populations after every
  step (`OracleResult`).

Noise model per unit time (tau = 1 per schedule step):
  * every qubit suffers sigma_x jumps at rate gamma_h,
  * while the cold coupling is on, each ancilla relaxes at rate
    A = Gamma_c * (n_c + 1) and is excited at rate B = Gamma_c * n_c.

Between jumps the trajectory evolves under the control Hamiltonian with a
non-Hermitian decay; the bit-flip channel contributes only a global norm
decay (sigma_x is unitary), so its no-jump branch is pure renormalization,
while the cold channels weight amplitudes by the diagonal factor
exp(-dt/2 * (A on excited + B on ground ancilla components)).

A step is cut into n_sub substeps (dt = 1/n_sub), each holding at most one
bit flip and at most one cold jump, after the flip; the kernel therefore
rejects n_qubits * gamma_h * dt >= 1. A substep flips with the exact
probability 1 - exp(-n_qubits * gamma_h * dt), and takes a cold jump when
its survival uniform is at least the substep's no-jump survival, the
squared norm left after the cold decay (for a normalised state), rather
than the first-order product rate*dt, so single-channel decay statistics
carry no substep bias. The cold coupling follows NoiseParams' cooling_gate:
the schedule's cooling windows ("window") or every step ("always");
Gamma_c = 0 switches it off.

Measurement and correction markers act at the end of their step, after the
step's noise evolution: the readout of step s sees s full steps of error
exposure, and the conditioned correction lands one step later, so errors
striking between readout and correction escape until the next round.
`GateSchedule` checks when it is built that every correction follows, within
the round and with no correction between, a measurement of as many bits, so
both routes always hold an outcome to correct on: the kernel one measured
pattern per row, the oracle one conditional state per pattern.

Random streams: trajectory k of a run seeded with master_seed draws from a
counter-based Philox generator keyed by (master_seed, k), so every
trajectory is reproducible in isolation and results do not depend on batch
composition. Per step, each trajectory consumes `n_sub` uniforms for the
bit-flip channel, one per substep. Without cold coupling it then takes one
qubit pick per flip, in flip order. With cold coupling it takes `n_sub`
uniforms against the no-jump survival, then, substep by substep, the qubit
pick of that substep's flip and the channel choice of its cold jump. Last
comes one uniform if the step measures. Each trajectory reads its stream
through a buffer of two halves of `_StreamBank.chunk` uniforms (at least
1024, and at least a plain step's worst case of 2 * n_sub): once a row has
read past its first half, the second half moves forward and a fresh chunk
is drawn behind it.

Steps without cold coupling ("plain" steps) come in groups of consecutive
steps whose worst-case draws fit one chunk, and a group ends at a step that
measures, whose marker reads its own uniform as it does after a cooled
step. A group's draws do not depend on the state, so they are read before
its first step, in one peek at every row's next uniforms: a row without a
hot hit reads `n_sub` uniforms per step, and only the rows with a flip are
parsed, over their hits, for flip substeps and qubit picks. Each plain
step then applies the exact full-step unitary to every row.
A flip of qubit q whose X_q commutes with the step's generator (q in no
term, or a term that flipping q's bit leaves unchanged) commutes with every
part of the step, so it permutes the row's product at the step's end. A row
with any other flip replays those flips' substep interleaving from its
pre-step state, placed in the whole register, one eigenbasis propagation
per gap between them, and then takes its commuting flips. The uniforms and
their order are those of the per-step contract above, so the sampled
distribution is unchanged.

Steps with cold coupling and no control terms (every cooling window) go
from event to event with the same draws. Their no-jump evolution is
diagonal, so one product with a table of decay powers gives each row's
survival for every substep ahead; each row jumps straight to its next flip
or to the first substep whose survival uniform reaches its survival, all
rows' events are applied at once, and a row with no further event ends the
step in closed form. Steps with cold coupling and control terms (only
under "always") advance all rows by one substep's unitary and the decay
per substep. Both paths apply a cold jump through one helper.

The kernel's state is split on the classical qubits: the qubits whose Z_q
commutes with every step's generator, on which no measurement and no cold
coupling acts, and which the initial state does not superpose (its one
classical set, `EnsembleAccumulator.classical`). No step mixes their basis
and bit flips and corrections map basis states to basis states, so every
trajectory stays on one pattern of them: a row is that `pattern` and `amp`,
its 2^q amplitudes on the sub-basis of the q other qubits. Every table the
kernel reads works per pattern (`_SplitPlan`): a step's unitary is its
2^c diagonal blocks, one product `amp @ block.T` where all are equal (10
of the measured round's 12 steps with terms) and each row's own block
otherwise; a flip or correction is an XOR of the pattern and a permutation
of `amp`; the decay factors, ancilla occupations and measurement projectors
are the same on every pattern, so they are tables over the sub-basis. The
measured round from a basis state has the data qubits as its classical
set, 8 amplitudes per row; the measurement-free round has none, so it runs
with one pattern of all 32 amplitudes.

Per step the kernel keeps two samples: the basis populations summed over
the batch and, unless the store is "scalar", the batch's Gram matrix of
each pattern, the sum of amp^T @ conj(amp) over its rows, both from the
rows laid out in the register's block order. Once per round the
populations give the f2 sums, and each register the store keeps adds the
partial trace of the round's Gram blocks, one stack per step, to the
round's row of its blocks in the accumulator's window (on the measured
round the whole register is 8 blocks of 8x8, the data register 8 of 1x1);
the round-end matrices are those of the last step. A window holds as many
rounds as fit `_WINDOW_BYTES` of all kept registers together (56 rounds of
the measured round's); the batch runs through each window, which is then
reduced to its entropies and reused, so whatever its rounds x steps a run
holds one 16 KiB stream buffer per trajectory plus one 8 MiB window.

The entropies solve every register's blocks directly, and the oracle's
positivity check solves its matrices in one block per pattern of their
classical qubits: the plan's classical qubits on which every input is
block-diagonal. Flips, jumps, measurements and corrections keep that
structure, so the entries between blocks are exact zeros. The
measurement-free round has no classical qubit, and its matrices are solved
dense.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .compiler import ControlTerm, GateSchedule, Step, step_eigenbasis, step_unitary, term_generator
from .qstate import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    StateVector,
    basis_patterns,
    bit_mask,
    block_eigvalsh,
    gather_blocks,
    mean_entropies,
    pattern_blocks,
    trace_distance,
)

DEFAULT_N_SUB = 20
_WINDOW_BYTES = 2**23  # matrix sums of all kept registers per window of rounds
_PARSE_ROWS = 256  # rows per window block when reading a group's draws

JUMP_BIT_FLIP = "bit_flip"
JUMP_COOL = "cool"
JUMP_HEAT = "heat"

COOLING_MODES = ("window", "always")  # NoiseParams.cooling_gate policies


@dataclass(frozen=True)
class NoiseParams:
    """Reservoir parameters; rates are per schedule step (tau = 1).

    cooling_gate selects when the cold coupling is active: "window" follows
    the schedule's cooling-window markers and "always" keeps it on for every
    step.

    The trajectory kernel needs substeps fine enough for at most one bit
    flip each: it rejects n_qubits * gamma_h / n_sub >= 1.
    """

    gamma_h: float
    Gamma_c: float
    n_c: float
    cooling_gate: str = "window"

    def __post_init__(self):
        for name in ("gamma_h", "Gamma_c", "n_c"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        if self.cooling_gate not in COOLING_MODES:
            raise ValueError(f"unknown cooling_gate policy {self.cooling_gate!r}")

    @property
    def rate_down(self) -> float:
        return self.Gamma_c * (self.n_c + 1.0)

    @property
    def rate_up(self) -> float:
        return self.Gamma_c * self.n_c

    def cooling_profile(self, schedule: GateSchedule) -> np.ndarray:
        """Per-step boolean p(t) resolved against a schedule."""
        if self.cooling_gate == "window":
            return np.array([s.cooling_window for s in schedule.steps], dtype=bool)
        return np.ones(len(schedule), dtype=bool)


@dataclass
class TrajectoryRecord:
    """Jump and measurement history of one trajectory."""

    master_seed: int
    index: int
    jumps: list[tuple[float, int, str]] = field(default_factory=list)
    outcomes: list[tuple[int, ...]] = field(default_factory=list)


def trajectory_stream(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based random stream for one trajectory of one run, keyed by
    (master_seed, index); both must lie in [0, 2**64)."""
    if not (0 <= master_seed < 2**64 and 0 <= index < 2**64):
        raise ValueError(f"seed {master_seed} and index {index} must lie in [0, 2**64)")
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _StepPropagators:
    """The trajectory kernel's propagators of one distinct control-term set:
    the full-step unitary (`step_unitary`, scale 1); where a step with this
    set is cooled, one substep's unitary (`step_unitary`, scale 1/n_sub);
    and, built on the first replay gap, the eigenbasis of the step
    generator, which gives any part of the step without storing it (`gap`).
    """

    def __init__(self, step: Step, n_qubits: int, dt: float, cooled: bool):
        self.step = step
        self.n_qubits = n_qubits
        self.unitary = step_unitary(step, n_qubits)
        self.substep = step_unitary(step, n_qubits, scale=dt) if cooled else None

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V, V^dagger, lam) with generator H = V diag(lam) V^dagger."""
        vecs, lam = step_eigenbasis(self.step, self.n_qubits)
        return vecs, vecs.conj().T.copy(), lam

    def gap(self, psi: np.ndarray, fraction: float) -> np.ndarray:
        """The state `psi` evolved through `fraction` of the step."""
        vecs, vecs_h, lam = self.eigenbasis
        return vecs @ (np.exp(-1j * fraction * lam) * (vecs_h @ psi))


def _symmetric_qubits(schedule: GateSchedule, pauli: np.ndarray) -> np.ndarray:
    """Per step and qubit q, whether the Pauli `pauli` on q commutes with the
    step's generator (and so with every part of the step): q is in no term,
    or conjugating its term's generator by `pauli` on q leaves it unchanged.
    For X_q, flipping q's bit leaves the term unchanged, as for x rotations
    and pushing phases symmetric in q; for Z_q, the term does not mix q's
    basis states, as for pushing phases and z rotations. Each distinct term
    is tested once."""
    ops = {1: [pauli], 2: [np.kron(pauli, np.eye(2)), np.kron(np.eye(2), pauli)]}  # on each qubit of a term
    tested = {}
    for term in {term for step in schedule.steps for term in step.terms}:
        g = term_generator(term)
        tested[term] = [np.array_equal(op @ g @ op, g) for op in ops[len(term.qubits)]]
    out = np.ones((len(schedule), schedule.n_qubits), dtype=bool)
    for s, step in enumerate(schedule.steps):
        for term in step.terms:
            out[s, list(term.qubits)] = tested[term]
    return out


class _SchedulePlan:
    """Precomputed arrays for evolving one schedule under one noise setting:
    cooling windows, the hot channel's flip probability and permutations,
    measurement projectors and correction permutations over the whole
    register, the ground masks, the `classical` qubits, the trajectory
    kernel's step propagators (`propagators`; the oracle reads none) and the
    oracle's step channels (`channels`; the kernel reads none). The kernel
    reads its tables over the basis from a `_SplitPlan` of this plan.

    The `classical` qubits are those whose Z_q commutes with every step's
    generator and on which no measurement and no cold coupling act: no step
    mixes their basis, and every decay factor, ancilla occupation and
    measurement projector reads the same on each of their patterns (see the
    module docstring)."""

    def __init__(self, schedule: GateSchedule, noise: NoiseParams, n_sub: int):
        if n_sub < 1:
            raise ValueError("n_sub must be at least 1")
        self.schedule = schedule
        self.noise = noise
        self.n_sub = n_sub
        self.dt = 1.0 / n_sub
        n = schedule.n_qubits
        self.n_qubits = n
        self.dim = 2**n
        idx = np.arange(self.dim)

        profile = noise.cooling_profile(schedule)
        active = noise.Gamma_c > 0 and len(schedule.ancilla_qubits) > 0
        self.cooling_on = profile & active

        # hot channel: state-independent flip probability per substep, and
        # per step and qubit whether the flip commutes with the step
        self.p_hot = 1.0 - np.exp(-n * noise.gamma_h * self.dt)
        self.flip_perms = np.stack([idx ^ bit_mask(q, n) for q in range(n)])
        self.commutes = _symmetric_qubits(schedule, PAULI_X)
        acted = {q for step in schedule.steps for q in step.measure or ()}
        if self.cooling_on.any():
            acted.update(schedule.ancilla_qubits)
        symmetric = np.flatnonzero(_symmetric_qubits(schedule, PAULI_Z).all(axis=0)).tolist()
        self.classical = tuple(q for q in symmetric if q not in acted)

        # measurement projectors (row = measured pattern) and, per measured
        # pattern, the basis permutation of its correction's flip set
        self.measure_onehot: list[np.ndarray | None] = []
        self.corr_perms: list[np.ndarray | None] = []
        for step in schedule.steps:
            onehot = perms = None
            if step.measure is not None:
                onehot = np.zeros((2 ** len(step.measure), self.dim))
                onehot[basis_patterns(n, step.measure), idx] = 1.0
            if step.correction is not None:
                k = len(next(iter(step.correction)))
                flips = [step.correction[_pattern_bits(p, k)] for p in range(2**k)]
                masks = np.array([sum(bit_mask(q, n) for q in f) for f in flips], dtype=np.int64)
                perms = idx[None, :] ^ masks[:, None]
            self.measure_onehot.append(onehot)
            self.corr_perms.append(perms)

        # ground patterns of the data and ancilla registers
        self.data_ground = basis_patterns(n, schedule.data_qubits) == 0
        self.anc_ground = basis_patterns(n, schedule.ancilla_qubits) == 0

    def classical_in(self, states: np.ndarray) -> tuple[int, ...]:
        """The classical qubits on which every matrix of a (..., dim, dim)
        stack of initial states is block-diagonal: no nonzero entry joins
        basis states whose bits on the qubit differ."""
        idx = np.arange(self.dim)
        coupled = np.any(states != 0, axis=tuple(range(states.ndim - 2)))
        crossed = idx[:, None] ^ idx[None, :]
        return tuple(q for q in self.classical if not coupled[crossed & bit_mask(q, self.n_qubits) != 0].any())

    @cached_property
    def propagators(self) -> list[_StepPropagators | None]:
        """The kernel's propagators of each step (None for a step without
        terms), built on first request once per distinct term set and shared
        by every step with that set, so the table holds O(term sets * dim^2)
        whatever n_sub."""
        cooled = {step.terms for step, on in zip(self.schedule.steps, self.cooling_on) if on}
        built: dict = {}
        table = []
        for step in self.schedule.steps:
            prop = None
            if step.terms:
                prop = built.get(step.terms)
                if prop is None:
                    prop = built[step.terms] = _StepPropagators(step, self.n_qubits, self.dt, step.terms in cooled)
            table.append(prop)
        return table

    @cached_property
    def channels(self) -> list[list[tuple[tuple[int, ...], np.ndarray]]]:
        """The oracle's exact map of each step as (qubits, channel) factors on
        disjoint groups: each term's qubits form a group and every other
        qubit one of its own. Built on first request, one channel per
        distinct (term, or None for an idle qubit; cooled flag of each of the
        group's qubits), shared by every group with that key."""
        anc = set(self.schedule.ancilla_qubits)
        built: dict = {}
        table = []
        for s, step in enumerate(self.schedule.steps):
            cooled = anc if self.cooling_on[s] else set()
            grouped = {q for term in step.terms for q in term.qubits}
            groups = [(term.qubits, term) for term in step.terms]
            groups += [((q,), None) for q in range(self.n_qubits) if q not in grouped]
            factors = []
            for qubits, term in groups:
                key = (term, tuple(q in cooled for q in qubits))
                chan = built.get(key)
                if chan is None:
                    chan = built[key] = _group_channel(*key, self.noise)
                factors.append((qubits, chan))
            table.append(factors)
        return table


class _SplitPlan:
    """The trajectory kernel's tables for its split state over `classical`,
    a subset of a plan's classical qubits: a row is the `pattern` of those
    qubits and `amp`, its amplitudes on the sub-basis of the other qubits.
    `layout` (`qstate.pattern_blocks`) holds the register index of each
    (pattern, sub-basis state).

    * `unitaries[s]` and `substeps[s]`, step s's full-step and (where the
      step is cooled) one-substep unitary on the patterns: one (size, size)
      block where every pattern's block is the same, else the
      (patterns, size, size) stack of them (None for a step without terms);
    * the flip of each qubit (`flip_xor`, `flip_perms`) and each measured
      pattern's correction (`corrections[s]`) as an XOR of the pattern and a
      permutation of the sub-basis;
    * the measurement projectors, ancilla occupations and permutations and
      cold decay factors over the sub-basis, the same on every pattern, as
      no measurement or cold coupling acts on a classical qubit;
    * the ground masks over `layout`.

    Building it applies the kernel's substep guard, n_qubits * gamma_h *
    dt < 1, so that a substep holds at most one bit flip.
    """

    def __init__(self, plan: _SchedulePlan, classical: tuple[int, ...]):
        n = plan.n_qubits
        if n * plan.noise.gamma_h * plan.dt >= 1.0:
            raise ValueError("substep too large for the bit-flip rate: need n_qubits * gamma_h / n_sub < 1")
        self.plan = plan
        self.classical = classical
        self.layout = layout = pattern_blocks(n, classical)
        patterns, size = layout.shape
        pattern_of, sub_of = np.empty((2, plan.dim), dtype=np.int64)
        pattern_of[layout] = np.arange(patterns)[:, None]
        sub_of[layout] = np.arange(size)
        base = layout[0]  # the sub-basis, as register indices of pattern 0

        def split(masks):
            """(pattern XORs, sub-basis permutations) of flips by bit masks."""
            masks = np.asarray(masks, dtype=np.int64).reshape(-1)
            return pattern_of[masks], sub_of[base[None, :] ^ masks[:, None]]

        def blocks(u):
            if u is None:
                return None
            stack = gather_blocks(u, layout)  # one pattern: a view of u
            return stack[0] if (stack == stack[0]).all() else stack

        self.flip_xor, self.flip_perms = split([bit_mask(q, n) for q in range(n)])
        self.corrections = [None if perms is None else split(perms[:, 0]) for perms in plan.corr_perms]
        self.measure_onehot = [None if onehot is None else onehot[:, base] for onehot in plan.measure_onehot]
        table = {prop: (blocks(prop.unitary), blocks(prop.substep)) for prop in plan.propagators if prop is not None}
        self.unitaries = [None if prop is None else table[prop][0] for prop in plan.propagators]
        self.substeps = [None if prop is None else table[prop][1] for prop in plan.propagators]

        # cold channels: per-ancilla occupations and the no-jump decay factor
        anc = plan.schedule.ancilla_qubits
        self.anc_bits = np.array([(base >> (n - 1 - a)) & 1 for a in anc], dtype=float).reshape(-1, size)
        self.anc_perms = split([bit_mask(a, n) for a in anc])[1]
        noise = plan.noise
        self.cool_rates = (noise.rate_down * self.anc_bits + noise.rate_up * (1.0 - self.anc_bits)).sum(axis=0)
        self.cool_decay = np.exp(-0.5 * plan.dt * self.cool_rates)

        self.data_ground = plan.data_ground[layout]
        self.anc_ground = plan.anc_ground[layout]

    @cached_property
    def decay_table(self) -> tuple[np.ndarray, np.ndarray]:
        """No-jump factors of the cold channels over m = 0..n_sub substeps,
        on amplitudes and on norms, each of shape (n_sub + 1, size); built on
        first request (powers far below the smallest double are 0)."""
        plan = self.plan
        with np.errstate(under="ignore"):
            amp = np.exp(-0.5 * plan.dt * np.arange(plan.n_sub + 1)[:, None] * self.cool_rates)
            return amp, amp * amp


def _propagate(amp: np.ndarray, pattern: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Rows `amp` on patterns `pattern` through a (sub)step's `blocks`: one
    product where all patterns share one block, else each row's own."""
    if blocks.ndim == 2:
        return amp @ blocks.T
    return np.matmul(blocks[pattern], amp[:, :, None])[:, :, 0]


def _pattern_bits(pattern: int, k: int) -> tuple[int, ...]:
    """Inverse of the packing: the k bits of a measured pattern."""
    return tuple((int(pattern) >> (k - 1 - p)) & 1 for p in range(k))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


class _StreamBank:
    """Per-trajectory buffers of two `chunk`-uniform halves, one generator
    per row, read through one window view of `chunk` uniforms.

    Before a read, a row whose position has passed its first half is
    refilled in place: the second half moves forward, one fresh chunk is
    drawn behind it and the position drops by `chunk`. `peek` copies each
    row's next `count <= chunk` uniforms out of the view; `draw` is a peek
    that also moves the rows past them. Each generator advances by whole
    chunks, and the uniforms handed to a row equal refills * chunk + pos.
    """

    chunk = 1024

    def __init__(self, gens, chunk: int = chunk):
        self.gens = list(gens)
        self.chunk = chunk
        self.buf = np.empty((len(self.gens), 2 * self.chunk))
        for r, g in enumerate(self.gens):
            self.buf[r] = g.random(2 * self.chunk)
        self.pos = np.zeros(len(self.gens), dtype=np.int64)
        self.windows = np.lib.stride_tricks.sliding_window_view(self.buf, self.chunk, axis=1)

    def _refill(self, rows):
        c = self.chunk
        for r in rows.tolist():
            self.buf[r, :c] = self.buf[r, c:]
            self.gens[r].random(out=self.buf[r, c:])
        self.pos[rows] -= c

    def peek(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next `count <= chunk` uniforms of each of the distinct `rows`,
        shape (len(rows), count), without consuming them."""
        if count > self.chunk:
            raise ValueError(f"a read takes at most chunk = {self.chunk} uniforms, not {count}")
        spent = rows[self.pos[rows] >= self.chunk]
        if spent.size:
            self._refill(spent)
        return self.windows[rows, self.pos[rows], :count]

    def draw(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next `count <= chunk` uniforms of each of the distinct `rows`,
        shape (len(rows), count)."""
        vals = self.peek(rows, count)
        self.pos[rows] += count
        return vals


_KEPT = {"scalar": (), "reduced": ("data", "ancilla"), "full": ("total", "data", "ancilla")}  # registers per store


class _Register(NamedTuple):
    """A kept register of `EnsembleAccumulator`: its qubits, their block
    layout, its block sums and its entropies."""

    qubits: tuple[int, ...]
    layout: np.ndarray
    grid: np.ndarray
    entropies: np.ndarray


@dataclass
class EnsembleAccumulator:
    """Sums of trajectory projectors and scalar overlaps over `count`
    trajectories, for every step of every round.

    Scalar samples (populations of the data/ancilla ground patterns) are
    kept for all rounds. Density-matrix sums are kept for the registers that
    `store` names (`registers`): "scalar" none, "reduced" the data and
    ancilla registers, "full" those and the whole register. Each register's
    sums (`rho_total`, `rho_data`, `rho_anc`) are kept in the block layout
    of the `classical` qubits among its own qubits (`run_ensemble` passes
    its kernel's set; built directly, an accumulator has none): (window,
    steps, patterns * size, size), the blocks of one matrix stacked in
    pattern order, so that with no classical qubit they are the dense
    matrices. `mean_rho` assembles a dense matrix from them.

    The grids hold one window of rounds, `window` rounds from
    `window_start`, at most `_WINDOW_BYTES` for all kept registers together:
    `reduce_window` solves each register's blocks for the held rounds'
    entropies (`s_total`, `s_data`, `s_anc`, (rounds, steps) arrays, nan
    where no matrix is kept) and, given `reference` round-end matrices and
    store "full", their round-end `trace_distances`; `next_window` drops the
    sums to hold the next rounds.
    """

    n_rounds: int
    n_steps: int
    n_qubits: int
    data_qubits: tuple[int, ...]
    ancilla_qubits: tuple[int, ...]
    store: str = "reduced"
    reference: np.ndarray | None = field(default=None, repr=False)
    classical: tuple[int, ...] = ()
    count: int = field(init=False, default=0)
    f2_data: np.ndarray = field(init=False)
    f2_anc: np.ndarray = field(init=False)
    rho_data: np.ndarray | None = field(init=False, default=None)
    rho_anc: np.ndarray | None = field(init=False, default=None)
    rho_total: np.ndarray | None = field(init=False, default=None)
    registers: dict[str, _Register] = field(init=False, repr=False)
    window: int = field(init=False)
    window_start: int = field(init=False, default=0)
    s_total: np.ndarray = field(init=False, repr=False)
    s_data: np.ndarray = field(init=False, repr=False)
    s_anc: np.ndarray = field(init=False, repr=False)
    trace_distances: np.ndarray | None = field(init=False, default=None)
    _reduced: bool = field(init=False, default=False, repr=False)

    def __post_init__(self):
        if self.store not in _KEPT:
            raise ValueError(f"unknown store mode {self.store!r}")
        shape = (self.n_rounds, self.n_steps)
        self.f2_data, self.f2_anc = np.zeros((2,) + shape)
        self.s_total, self.s_data, self.s_anc = np.full((3,) + shape, math.nan)
        table = {  # register: (its qubits, its sums' attribute, its entropies)
            "total": (tuple(range(self.n_qubits)), "rho_total", self.s_total),
            "data": (self.data_qubits, "rho_data", self.s_data),
            "ancilla": (self.ancilla_qubits, "rho_anc", self.s_anc),
        }
        layouts = {
            which: pattern_blocks(len(qubits), [i for i, q in enumerate(qubits) if q in self.classical])
            for which, (qubits, _, _) in table.items()
            if which in _KEPT[self.store]
        }
        cells = sum(layout.size * layout.shape[1] for layout in layouts.values())  # per step
        self.window = self.n_rounds
        if cells:
            per_round = self.n_steps * cells * np.dtype(complex).itemsize
            self.window = min(self.n_rounds, max(1, _WINDOW_BYTES // per_round))
        self.registers = {}
        for which, layout in layouts.items():
            qubits, name, entropies = table[which]
            grid = np.zeros((self.window, self.n_steps, layout.size, layout.shape[1]), dtype=complex)
            setattr(self, name, grid)
            self.registers[which] = _Register(qubits, layout, grid, entropies)
        if self.reference is not None and "total" in self.registers:
            d = 2**self.n_qubits
            if np.shape(self.reference) != (self.n_rounds, d, d):
                raise ValueError(f"reference must be {self.n_rounds} round-end ({d}, {d}) matrices")
            self.trace_distances = np.full(self.n_rounds, math.nan)

    def _held(self) -> range:
        """The rounds whose matrix sums the window holds."""
        return range(self.window_start, min(self.window_start + self.window, self.n_rounds))

    def reduce_window(self) -> None:
        """Reduce the held window's matrix sums to their entropies and, with a
        reference, their round-end trace distances; once per window. The
        sums stay readable until `next_window`."""
        if self._reduced:
            return
        held = self._held()
        for reg in self.registers.values():
            blocks = reg.grid[: len(held)].reshape((len(held), self.n_steps) + reg.layout.shape + (-1,))
            reg.entropies[held.start : held.stop] = mean_entropies(blocks, self.count)
        if self.trace_distances is not None:
            for rnd in held:
                ref = DensityMatrix(self.n_qubits, self.reference[rnd])
                self.trace_distances[rnd] = trace_distance(self.mean_rho("total", rnd), ref)
        self._reduced = True

    def next_window(self) -> None:
        """Reduce the held window if it is not yet, then drop its sums and
        hold the next `window` rounds."""
        self.reduce_window()
        self.window_start += self.window
        for reg in self.registers.values():
            reg.grid[...] = 0.0
        self._reduced = False

    # --- normalized views -------------------------------------------------

    def mean_f2_data(self) -> np.ndarray:
        return self.f2_data / self.count

    def mean_f2_anc(self) -> np.ndarray:
        return self.f2_anc / self.count

    def mean_rho(self, which: str, rnd: int, step: int = -1) -> DensityMatrix:
        """Ensemble-averaged density matrix of register `which` ("total",
        "data" or "ancilla") at (round, step), for a round the window holds,
        assembled from its blocks."""
        if which not in self.registers:
            raise ValueError(f"{which} matrices were not accumulated (store={self.store!r})")
        held = self._held()
        if rnd not in held:
            raise ValueError(
                f"round {rnd} is not in the held window of rounds {held.start}-{held.stop - 1}: "
                "its matrices were reduced to entropies and dropped"
            )
        reg = self.registers[which]
        blocks = reg.grid[rnd - self.window_start, step] / self.count
        mat = np.zeros((reg.layout.size,) * 2, dtype=complex)
        mat[reg.layout[:, :, None], reg.layout[:, None, :]] = blocks.reshape(reg.layout.shape + (-1,))
        return DensityMatrix(len(reg.qubits), mat)


def run_ensemble(
    initial: StateVector,
    rounds: int,
    schedule: GateSchedule,
    noise: NoiseParams,
    n_traj: int,
    master_seed: int = 0,
    n_sub: int = DEFAULT_N_SUB,
    store: str = "reduced",
    record: bool = False,
    traj_indices=None,
    reference=None,
):
    """Average `n_traj` independent trajectories over `rounds` rounds.

    Returns (EnsembleAccumulator, list[TrajectoryRecord] or None). The
    accumulator samples every step of every round, holding the matrix sums
    that `store` keeps. Results are deterministic given (master_seed,
    trajectory indices). All trajectories advance as one batch, one window
    of the accumulator's rounds at a time, and each window is reduced to its
    entropies before the next one starts: the run holds one 16 KiB stream
    buffer per trajectory (for `n_sub` up to 512) plus one 8 MiB window.
    `reference`, a (rounds, dim, dim) array of round-end density matrices
    such as an oracle's `rho_end`, gives with store "full" the
    accumulator's `trace_distances`.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if initial.n_qubits != schedule.n_qubits:
        raise ValueError("initial state dimension does not match the schedule")
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    if traj_indices is None:
        traj_indices = range(n_traj)
    indices = list(traj_indices)
    if len(indices) != n_traj:
        raise ValueError("traj_indices length must equal n_traj")
    plan = _SchedulePlan(schedule, noise, n_sub)
    amps = initial.amplitudes.astype(complex)
    split = _SplitPlan(plan, plan.classical_in(np.outer(amps, amps.conj())))
    acc = EnsembleAccumulator(
        rounds,
        len(schedule),
        schedule.n_qubits,
        schedule.data_qubits,
        schedule.ancilla_qubits,
        store,
        reference=reference,
        classical=split.classical,
    )
    records = [TrajectoryRecord(master_seed, int(i)) for i in indices] if record else None
    # the states and streams live through the whole run; a chunk holds a
    # step's draws even if every substep flips. The initial state lies on
    # one pattern of the split's classical qubits.
    chunk = max(_StreamBank.chunk, 2 * n_sub)
    start_pattern = basis_patterns(schedule.n_qubits, split.classical)[np.flatnonzero(amps)[0]]
    pattern = np.full(n_traj, start_pattern)
    amp = np.tile(amps[split.layout[start_pattern]], (n_traj, 1))
    bank = _StreamBank([trajectory_stream(master_seed, int(i)) for i in indices], chunk)
    acc.count = n_traj
    for start in range(0, rounds, acc.window):
        if start:
            acc.next_window()
        amp = _run_batch(pattern, amp, min(start + acc.window, rounds), split, bank, acc, records, start)
    del plan, split, pattern, amp, bank  # freed first, so the last reduction reuses their memory
    acc.reduce_window()
    return acc, records


def _plain_groups(plan: _SchedulePlan, chunk: int) -> dict[int, list[int]]:
    """Runs of steps without cold coupling, each closed after a step that
    measures and split into groups whose draws fit one chunk even if every
    substep flips; keyed by first step."""
    size = chunk // (2 * plan.n_sub)
    groups: dict[int, list[int]] = {}
    run: list[int] = []
    for s, step in enumerate(plan.schedule.steps):
        if plan.cooling_on[s]:
            run = []
        elif run and len(run) < size:
            run.append(s)
        else:
            run = groups[s] = [s]
        if step.measure is not None:
            run = []
    return groups


def _read_plain(bank: _StreamBank, plan: _SchedulePlan, steps: list[int]) -> dict[int, list]:
    """Read the draws of a group of steps without cold coupling for every
    row of `bank`, in the per-step order of the stream contract.

    Returns flips: flips[s] lists (row, substeps, qubits) for each row
    flipping in step s. Without flips a row reads `n_sub` hot uniforms per
    step; only rows with a flip are parsed one by one, over the hits of a
    window with room for a qubit pick on every substep.
    """
    n, n_sub = plan.n_qubits, plan.n_sub
    base = len(steps) * n_sub
    width = 2 * base
    flips: dict[int, list] = {s: [] for s in steps}
    for lo in range(0, len(bank.pos), _PARSE_ROWS):
        rows = np.arange(lo, min(lo + _PARSE_ROWS, len(bank.pos)))
        block = bank.peek(rows, width)
        hit_rows, hit_pos = np.divmod(np.flatnonzero(block < plan.p_hot), width)
        jumpers = np.unique(hit_rows[hit_pos < base])
        cuts = np.searchsorted(hit_rows, np.stack([jumpers, jumpers + 1])).tolist()
        hit_pos = hit_pos.tolist()
        for i, h, stop in zip(jumpers.tolist(), *cuts):
            u, shift = block[i], 0
            while h < stop and hit_pos[h] - shift < base:
                j = (hit_pos[h] - shift) // n_sub
                first = j * n_sub + shift
                end = first + n_sub
                ks = []
                while h < stop and hit_pos[h] < end:
                    ks.append(hit_pos[h] - first)
                    h += 1
                flips[steps[j]].append((lo + i, ks, [min(int(p * n), n - 1) for p in u[end : end + len(ks)].tolist()]))
                shift += len(ks)
                while h < stop and hit_pos[h] < end + len(ks):  # the qubit picks
                    h += 1
            bank.pos[lo + i] += shift
        bank.pos[rows] += base
    return flips


def _run_batch(pattern, amp, rounds, split: _SplitPlan, bank: _StreamBank, acc, records=None, start=0):
    """Advance the trajectories of split state (`pattern`, `amp`), one row
    each, drawing from the same row of `bank`, through rounds
    `start`..`rounds - 1`, which `acc`'s window must hold; `pattern` is
    updated in place and the final amplitudes are returned.

    Post-step samples are added to `acc`; jumps and measurement outcomes are
    appended to `records` when given.
    """
    plan = split.plan
    B = len(pattern)
    if start < acc.window_start or rounds > acc.window_start + acc.window:
        raise ValueError(f"rounds {start}-{rounds - 1} lie outside the accumulator's window")
    all_rows = np.arange(B)
    n_steps = len(plan.schedule)
    record = records is not None
    groups = _plain_groups(plan, bank.chunk)
    n_pat, size = split.layout.shape
    # populations after each step of the round in layout order, as (re, im)
    # column sums, and the ground-pattern columns that turn them into f2
    # sums; with more than one pattern, the rows are laid out in the
    # register's layout order (zero off their pattern) to take them
    pops = np.empty((n_steps, 2 * split.layout.size))
    ground = np.stack([split.data_ground.ravel(), split.anc_ground.ravel()], axis=1)
    ground = np.repeat(ground, 2, axis=0).astype(float)
    placed = np.zeros((B, n_pat, size), dtype=complex) if n_pat > 1 else None
    if acc.registers:
        gram = np.empty((n_steps, split.layout.size, size), dtype=complex)

    for rnd in range(start, rounds):
        for s, step in enumerate(plan.schedule.steps):
            t = rnd * n_steps + s

            prop = plan.propagators[s]
            if not plan.cooling_on[s]:
                if s in groups:
                    flips = _read_plain(bank, plan, groups[s])
                # every row takes the whole step on its pattern; the rows
                # that flipped replay their substep interleaving exactly in
                # the whole register, up to their last flip that does not
                # commute with the step (there is none without terms), and
                # end with the others
                new = amp if prop is None else _propagate(amp, pattern, split.unitaries[s])
                commutes = plan.commutes[s]
                for r, ks, qubits in flips[s]:
                    p = pattern[r]
                    psi, prev = None, 0
                    for k, q in zip(ks, qubits):
                        if not commutes[q]:
                            if psi is None:
                                psi = np.zeros(plan.dim, dtype=complex)
                                psi[split.layout[p]] = amp[r]
                            psi = prop.gap(psi, (k + 1 - prev) / plan.n_sub)[plan.flip_perms[q]]
                            p ^= split.flip_xor[q]
                            prev = k + 1
                        if record:
                            records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_BIT_FLIP))
                    if prev == 0:
                        row = new[r]
                    else:
                        if prev < plan.n_sub:
                            psi = prop.gap(psi, (plan.n_sub - prev) / plan.n_sub)
                        row = psi[split.layout[p]]
                    for q in qubits:
                        if commutes[q]:
                            row = row[split.flip_perms[q]]
                            p ^= split.flip_xor[q]
                    new[r], pattern[r] = row, p
                amp = new
            else:
                hot = bank.draw(all_rows, plan.n_sub) < plan.p_hot  # (B, n_sub)
                u3 = bank.draw(all_rows, plan.n_sub)
                if prop is None:
                    _cool_events(pattern, amp, split, bank, hot, u3, t, records)
                else:
                    amp = _cool_substeps(pattern, amp, split, bank, hot, u3, split.substeps[s], t, records)

            # marker operations at the end of the step
            if step.measure is not None:
                onehot = split.measure_onehot[s]
                probs = (np.abs(amp) ** 2) @ onehot.T
                total = probs.sum(axis=1, keepdims=True)
                if np.any(total < 1e-14):
                    raise ValueError("state with vanishing probability at measurement")
                cum = np.cumsum(probs, axis=1)
                u = bank.draw(all_rows, 1)[:, 0] * total[:, 0]
                outcome = (cum < u[:, None]).sum(axis=1)
                np.clip(outcome, 0, probs.shape[1] - 1, out=outcome)
                amp = amp * onehot[outcome]
                amp /= np.linalg.norm(amp, axis=1, keepdims=True)
                if record:
                    for r in range(B):
                        records[r].outcomes.append(_pattern_bits(outcome[r], len(step.measure)))
            if step.correction is not None:
                xor, perms = split.corrections[s]
                amp = amp[all_rows[:, None], perms[outcome]]
                pattern ^= xor[outcome]

            # post-step samples: populations, and the batch's Gram matrix
            # per pattern where a density matrix is kept
            rows = amp
            if placed is not None:
                placed.fill(0.0)
                placed[all_rows, pattern] = amp
                rows = placed.reshape(B, -1)
            f = rows.view(float)
            np.einsum("bk,bk->k", f, f, out=pops[s])
            if acc.registers:
                np.matmul(rows.T, amp.conj(), out=gram[s])

        # once per round: f2 sums, and each kept register's blocks into the
        # round's row of the window
        f2 = pops @ ground
        acc.f2_data[rnd] += f2[:, 0]
        acc.f2_anc[rnd] += f2[:, 1]
        for reg in acc.registers.values():
            reg.grid[rnd - acc.window_start] += _partial_trace(gram, split, reg.qubits)
    return amp


def _hot_flips(split: _SplitPlan, bank: _StreamBank, rows, psi, pattern, ks, t, records):
    """Bit flips of `rows` (amplitudes `psi`) at substeps `ks` of the step
    that starts at time `t`: reads each row's qubit pick, flips the rows'
    entries of the batch's `pattern` in place and returns the flipped
    amplitudes."""
    plan = split.plan
    n = plan.n_qubits
    qubits = np.minimum((bank.draw(rows, 1)[:, 0] * n).astype(np.int64), n - 1)
    if records is not None:
        for r, k, q in zip(rows.tolist(), ks.tolist(), qubits.tolist()):
            records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_BIT_FLIP))
    pattern[rows] ^= split.flip_xor[qubits]
    return psi[np.arange(len(rows))[:, None], split.flip_perms[qubits]]


def _cold_jumps(split: _SplitPlan, bank: _StreamBank, rows, pre, ks, t, records):
    """Cold jumps of `rows` at substeps `ks` of the step that starts at time
    `t`, from their normalised amplitudes `pre` before that substep's decay.

    Reads each row's channel choice and returns (landed, live): the
    renormalised amplitudes after the jump of the rows with an open channel,
    and the mask of those rows; a row without one keeps its decayed state.
    No classical qubit is an ancilla under cold coupling, so a jump keeps
    the row's pattern.
    """
    plan = split.plan
    anc_count = split.anc_bits.shape[0]
    occ = (np.abs(pre) ** 2) @ split.anc_bits.T
    chan = np.concatenate([plan.noise.rate_down * occ, plan.noise.rate_up * (1.0 - occ)], axis=1)
    totals = chan.sum(axis=1)
    u4 = bank.draw(rows, 1)[:, 0] * totals
    cidx = np.minimum((np.cumsum(chan, axis=1) < u4[:, None]).sum(axis=1), 2 * anc_count - 1)
    live = totals >= 1e-300
    cidx = cidx[live]
    a, cool = cidx % anc_count, cidx < anc_count
    # the jump flips ancilla a into the state it lands in: ground for
    # cooling, excited for heating
    lands = np.where(cool[:, None], 1.0 - split.anc_bits[a], split.anc_bits[a])
    psi = pre[np.flatnonzero(live)[:, None], split.anc_perms[a]] * lands
    if records is not None:
        for r, k, ai, c in zip(rows[live].tolist(), ks[live].tolist(), a.tolist(), cool.tolist()):
            q = plan.schedule.ancilla_qubits[ai]
            records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_COOL if c else JUMP_HEAT))
    return psi / np.linalg.norm(psi, axis=1)[:, None], live


def _cool_events(pattern, amp, split: _SplitPlan, bank: _StreamBank, hot, u3, t, records):
    """Advance every row of split state (`pattern`, `amp`), in place, through
    a cooled step without control terms, from event to event; `hot` marks
    each row's flip substeps and `u3` holds its survival uniforms.

    The no-jump evolution is diagonal here: from the start of substep c, a
    row's unnormalised norm after m more substeps is N_m = sum_i |psi_i|^2
    d_i^(2m), so the survival of substep c + m is N_(m+1) / N_m, for all m
    from one product with the decay table. Each row goes straight to its
    next event: its next flip, or the first substep whose survival uniform
    is at least its survival. All rows' events are applied at once, the
    qubit pick before the channel choice; a row with no further event ends
    the step in closed form. The uniforms read are those of the substep
    walk, in its order.
    """
    n_sub = split.plan.n_sub
    decay, norms = split.decay_table
    # each row's first flip substep at or after c, then strictly after c
    # (n_sub: none), for c = 0..n_sub-1
    first = np.minimum.accumulate(np.where(hot, np.arange(n_sub), n_sub)[:, ::-1], axis=1)[:, ::-1]
    next_flip = np.column_stack([first[:, 1:], np.full(len(first), n_sub)])
    offsets = np.arange(n_sub)
    rows = np.arange(len(amp))
    c = np.zeros(len(amp), dtype=np.int64)
    with np.errstate(under="ignore"):
        while rows.size:
            psi = amp[rows]
            flip = np.flatnonzero(hot[rows, c])
            if flip.size:
                psi[flip] = _hot_flips(split, bank, rows[flip], psi[flip], pattern, c[flip], t, records)
            norm = (psi.real**2 + psi.imag**2) @ norms.T  # (rows, n_sub + 1)
            # a norm that underflowed to 0 lies past the row's next event
            survival = np.divide(norm[:, 1:], norm[:, :-1], out=np.zeros((rows.size, n_sub)), where=norm[:, :-1] > 0)
            sub = c[:, None] + offsets
            stop = next_flip[rows, c]
            jump = (sub < stop[:, None]) & (u3[rows[:, None], np.minimum(sub, n_sub - 1)] >= survival)
            jumped = np.flatnonzero(jump.any(axis=1))
            m = stop - c
            m[jumped] = jump[jumped].argmax(axis=1)
            # every row to the start of its event's substep, or to its stop
            psi *= decay[m] / np.sqrt(norm[np.arange(rows.size), m])[:, None]
            if jumped.size:
                landed, live = _cold_jumps(split, bank, rows[jumped], psi[jumped], c[jumped] + m[jumped], t, records)
                stay = jumped[~live]  # no open channel: the decayed state
                psi[stay] *= split.cool_decay / np.sqrt(survival[stay, m[stay]])[:, None]
                psi[jumped[live]] = landed
                m[jumped] += 1
            amp[rows] = psi
            c += m
            going = c < n_sub
            rows, c = rows[going], c[going]


def _cool_substeps(pattern, amp, split: _SplitPlan, bank: _StreamBank, hot, u3, blocks, t, records):
    """Advance split state (`pattern`, `amp`) through a cooled step with
    control terms, all rows in lockstep over its substeps (`blocks` is one
    substep's control unitary on the patterns); returns the new amplitudes
    and updates `pattern` in place."""
    hot_k, hot_rows = np.nonzero(hot.T)
    cuts = np.searchsorted(hot_k, np.arange(split.plan.n_sub + 1)).tolist()
    for k in range(split.plan.n_sub):
        amp = _propagate(amp, pattern, blocks)
        flip = hot_rows[cuts[k] : cuts[k + 1]]
        if flip.size:
            amp[flip] = _hot_flips(split, bank, flip, amp[flip], pattern, np.full(flip.size, k), t, records)
        pre = amp
        decayed = amp * split.cool_decay
        survival = (decayed.real**2 + decayed.imag**2).sum(axis=1)
        # a survival that underflowed to 0 always jumps: its row is overwritten
        scale = np.sqrt(survival)[:, None]
        amp = np.divide(decayed, scale, out=np.zeros_like(decayed), where=scale > 0)
        jrows = np.nonzero(u3[:, k] >= survival)[0]
        if jrows.size:
            landed, live = _cold_jumps(split, bank, jrows, pre[jrows], np.full(jrows.size, k), t, records)
            amp[jrows[live]] = landed
    return amp


def _partial_trace(gram: np.ndarray, split: _SplitPlan, keep: Sequence[int]) -> np.ndarray:
    """Reduction to the qubits `keep` of a (k, patterns * size, size) stack
    of block sums in the layout of `split`, in the block layout of the
    classical qubits among `keep` (as `EnsembleAccumulator` keeps it): one
    einsum over the blocks, summing the diagonal of the other qubits (a
    classical qubit has one bit for row and column). Keeping every qubit
    returns the stack's blocks unchanged."""
    n, classical = split.plan.n_qubits, split.classical
    quantum = [q for q in range(n) if q not in classical]
    k = len(gram)
    tensor = gram.reshape((k,) + (2,) * (len(classical) + 2 * len(quantum)))
    # axis labels: 0 the stack, 1 + q qubit q's row (and a classical
    # qubit's column), n + 1 + q a quantum qubit's column; a traced qubit's
    # column shares its row's label
    cols = [n + 1 + q if q in keep else 1 + q for q in quantum]
    keep_c = [q for q in keep if q in classical]
    keep_q = [q for q in keep if q not in classical]
    labels = [1 + q for q in keep_c] + [1 + q for q in keep_q] + [n + 1 + q for q in keep_q]
    blocks = np.einsum(tensor, [0, *(1 + q for q in classical), *(1 + q for q in quantum), *cols], [0, *labels])
    return blocks.reshape(k, -1, 2 ** len(keep_q))


# ---------------------------------------------------------------------------
# master-equation oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleResult:
    """Round-end density matrices and per-step basis populations from the
    master-equation oracle.

    For one input state the arrays are (rounds, dim, dim) and (rounds,
    n_steps, dim); for a sequence of K inputs they gain a K axis after the
    rounds and steps axes: (rounds, K, dim, dim) and (rounds, n_steps, K,
    dim).
    """

    schedule: GateSchedule
    rho_end: np.ndarray  # the state at each round end
    populations: np.ndarray  # diagonal of the state after each step
    data_ground: np.ndarray = field(repr=False)  # the schedule plan's ground masks
    anc_ground: np.ndarray = field(repr=False)

    def rho(self, rnd: int) -> DensityMatrix:
        """The state at the end of round `rnd` (one input state)."""
        return DensityMatrix(self.schedule.n_qubits, self.rho_end[rnd])

    def f2_series(self) -> np.ndarray:
        """Columns [f2_data, f2_ancilla] per (round, step[, input])."""
        pop = self.populations
        return np.stack([pop[..., self.data_ground].sum(axis=-1), pop[..., self.anc_ground].sum(axis=-1)], axis=-1)


def _expm(g: np.ndarray) -> np.ndarray:
    """exp(g) of a small matrix: a Taylor series of g / 2**s, with s the
    fewest halvings that bring the infinity-norm to at most 1/2, squared s
    times. The series stops at the first degree m whose truncation bound
    norm**(m+1) / (m+1)! is below 2**-53."""
    norm = np.linalg.norm(g, np.inf)
    squarings = 0
    while norm > 0.5:
        norm /= 2
        squarings += 1
    g = g / 2**squarings
    out = term = np.eye(len(g), dtype=complex)
    k = 0
    while norm ** (k + 1) / math.factorial(k + 1) > 2.0**-53:
        k += 1
        term = term @ g / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _group_channel(term: ControlTerm | None, cooled: tuple[bool, ...], noise: NoiseParams) -> np.ndarray:
    """Exact one-step channel of one qubit group: a control term's qubits
    (an idle qubit for None) under the bit-flip dissipator, plus the cooling
    dissipators on the qubits flagged in `cooled`. It acts on the group's
    row-major vec(rho), reshaped to (2,)*4k."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|, the cooling jump
    h = np.zeros((2, 2)) if term is None else term_generator(term)
    k = len(cooled)
    eye = np.eye(2**k)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for i, cool in enumerate(cooled):
        jumps = [(noise.gamma_h, PAULI_X)]
        if cool:
            jumps += [(noise.rate_down, lower), (noise.rate_up, lower.T)]
        for rate, op in jumps:
            op = np.kron(np.kron(np.eye(2**i), op), np.eye(2 ** (k - 1 - i)))
            odo = op.conj().T @ op
            gen += rate * (np.kron(op, op.conj()) - 0.5 * np.kron(odo, eye) - 0.5 * np.kron(eye, odo.T))
    return _expm(gen).reshape((2,) * 4 * k)


def _apply_channels(r: np.ndarray, factors) -> np.ndarray:
    """Apply one step's group channels to a (..., dim, dim) stack of n-qubit
    density matrices."""
    n = r.shape[-1].bit_length() - 1
    lead = r.ndim - 2
    t = r.reshape(r.shape[:lead] + (2,) * 2 * n)
    for qubits, chan in factors:
        axes = [lead + q for q in qubits] + [lead + n + q for q in qubits]
        k2 = 2 * len(qubits)
        t = np.moveaxis(np.tensordot(chan, t, axes=(list(range(k2, 2 * k2)), axes)), list(range(k2)), axes)
    return t.reshape(r.shape)


def evolve_master_equation(
    rho: DensityMatrix | Sequence[DensityMatrix],
    schedule: GateSchedule,
    noise: NoiseParams,
    rounds: int = 1,
) -> OracleResult:
    """Propagate the full master equation exactly through `rounds` rounds,
    from one initial state or from each of a sequence of them at once.

    Within one step the control Hamiltonian is constant and its terms act on
    disjoint qubits, while the bit-flip and cooling dissipators act on single
    qubits, so the step's Lindbladian is a sum of commuting terms on
    disjoint groups and its propagator is the tensor product of the groups'
    exact channels (each a 4x4 or 16x16 superoperator exponential), applied
    to rho one group at a time. The channels, cooling windows, measurement
    projectors and corrections come from the same schedule plan as the
    trajectory kernel; the plan builds each channel once per distinct
    (term, cooled qubits) group, on this call's first request.
    Measurement and correction markers act at the end of their step as the
    deterministic sum-over-outcomes map. The state is one array whose
    leading axis is the outcome of the last uncorrected measurement (length
    1 outside a measure-to-correction span): a measurement splits the summed
    state into its per-outcome conditional parts along that axis, each part
    keeps evolving under the noise, and the correction applies each
    outcome's flip set to its own part and sums the axis away. The output is
    therefore the exact trajectory-ensemble limit, including errors that
    strike between measurement and correction. After every step the summed
    state is checked, read only, by `block_eigvalsh` in the blocks of the
    plan's classical qubits on which every input is block-diagonal:
    Hermitian within 1e-9 and no eigenvalue below -1e-6.

    The result keeps the state at each round end and the basis populations
    after every step; a sequence of K inputs adds a K axis after the rounds
    and steps axes (see `OracleResult`), and each member's values are those
    of its own single-input run.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    single = isinstance(rho, DensityMatrix)
    inputs = [rho] if single else list(rho)
    if not inputs:
        raise ValueError("no initial state given")
    n = schedule.n_qubits
    dim = 2**n
    if any(m.n_qubits != n for m in inputs):
        raise ValueError("density matrix dimension does not match the schedule")
    plan = _SchedulePlan(schedule, noise, n_sub=1)  # the oracle reads no per-substep entries

    k = len(inputs)
    r = np.stack([m.elements for m in inputs])[None]  # (outcomes, K, dim, dim)
    layout = pattern_blocks(n, plan.classical_in(r))
    rho_end = np.zeros((rounds, k, dim, dim), dtype=complex)
    populations = np.zeros((rounds, len(schedule), k, dim))
    for rnd in range(rounds):
        for s, step in enumerate(schedule.steps):
            r = _apply_channels(r, plan.channels[s])
            if step.measure is not None:
                p = plan.measure_onehot[s][:, None]  # (outcomes, 1, dim)
                r = p[..., :, None] * r.sum(axis=0)
                r *= p[..., None, :]  # in place: one split-state array, not two
            if step.correction is not None:
                perms = plan.corr_perms[s][:, None]  # (outcomes, 1, dim)
                outcome, member = np.arange(len(r))[:, None, None, None], np.arange(k)[:, None, None]
                r = r[outcome, member, perms[..., :, None], perms[..., None, :]].sum(axis=0, keepdims=True)
            total = r.sum(axis=0)
            low = block_eigvalsh(total, 1e-9, layout).min()
            if low < -1e-6:
                raise RuntimeError(f"oracle lost positivity (min eigenvalue {low})")
            populations[rnd, s] = total.diagonal(axis1=-2, axis2=-1).real
        rho_end[rnd] = r.sum(axis=0)
    if single:
        rho_end, populations = rho_end[:, 0], populations[:, :, 0]
    return OracleResult(schedule, rho_end, populations, plan.data_ground, plan.anc_ground)
