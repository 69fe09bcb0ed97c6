"""Evolution of the register under a gate schedule coupled to both reservoirs.

Two routes are provided, both reading one table of schedule-derived
operators (`_SchedulePlan`: cooling windows, measurement projectors,
correction permutations, ground-pattern masks, the kernel's jumps, and two
tables built on request: the kernel's propagators `power(s, m)`, step s's
control unitary over m substeps, an exact product of the terms' closed
forms; and the oracle's step channels `channels[s]`, built on its first
request once per distinct (term, cooled qubits) group and shared by every
step with that group):

* a quantum-trajectory Monte Carlo engine (pure states, stochastic jumps)
  with one batched kernel, which `run_ensemble` runs on batches of
  trajectories, and
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
step then applies the exact full-step unitary (`power(s, n_sub)`) to every
row in one product, and the rows that flipped replay their substep
interleaving from their pre-step state, one `power(s, gap)` per gap between
flips; the uniforms and their order are those of the per-step contract
above, so the sampled distribution is unchanged.

Steps with cold coupling and no control terms (every cooling window) go
from event to event with the same draws. Their no-jump evolution is
diagonal, so one product with a table of decay powers gives each row's
survival for every substep ahead; each row jumps straight to its next flip
or to the first substep whose survival uniform reaches its survival, all
rows' events are applied at once, and a row with no further event ends the
step in closed form. Steps with cold coupling and control terms (only
under "always") advance all rows by `power(s, 1)` and the decay per
substep. Both paths apply a cold jump through one helper.

Per step the kernel keeps two samples: the basis populations summed over
the batch and, where a density matrix is kept, the batch's Gram matrix
states^T @ conj(states). Once per round the populations give the f2 sums,
and the Gram matrices are added to the round's row of the accumulator's
window: to the whole-register sums (store "full") and, as partial traces,
to the data and ancilla reductions. A window holds as many rounds as fit
`_WINDOW_BYTES` of the largest kept register (8 rounds of the measured
round's 64x64 matrices); the batches advance together through each window,
which is then reduced to its entropies and reused, so a run's memory does
not grow with rounds x steps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .compiler import ControlTerm, GateSchedule, step_unitary, term_generator
from .qstate import PAULI_X, DensityMatrix, StateVector, bit_mask, block_eigvalsh, mean_entropies, trace_distance

DEFAULT_N_SUB = 20
BATCH_SIZE = 8192  # trajectories per kernel call; bounds the working memory
_WINDOW_BYTES = 2**23  # matrix sums of the largest kept register per window of rounds
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


class _SchedulePlan:
    """Precomputed arrays for evolving one schedule under one noise setting,
    the trajectory kernel's step propagators (`power`; the oracle reads
    none) and the oracle's step channels (`channels`; the kernel reads
    none)."""

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

        # hot channel: state-independent flip probability per substep
        self.p_hot = 1.0 - np.exp(-n * noise.gamma_h * self.dt)
        self.flip_perms = np.stack([idx ^ bit_mask(q, n) for q in range(n)])

        # cold channels: per-ancilla occupations and the no-jump decay factor
        anc = schedule.ancilla_qubits
        self.anc_bits = np.array([(idx >> (n - 1 - a)) & 1 for a in anc], dtype=float).reshape(-1, self.dim)
        self.anc_perms = np.array([idx ^ bit_mask(a, n) for a in anc], dtype=np.int64).reshape(-1, self.dim)
        self.cool_rates = (noise.rate_down * self.anc_bits + noise.rate_up * (1.0 - self.anc_bits)).sum(axis=0)
        self.cool_decay = np.exp(-0.5 * self.dt * self.cool_rates)

        # measurement projectors (row = measured pattern) and, per measured
        # pattern, the basis permutation of its correction's flip set
        self.measure_onehot: list[np.ndarray | None] = []
        self.corr_perms: list[np.ndarray | None] = []
        for step in schedule.steps:
            onehot = perms = None
            if step.measure is not None:
                onehot = np.zeros((2 ** len(step.measure), self.dim))
                onehot[_pattern_index(idx, step.measure, n), idx] = 1.0
            if step.correction is not None:
                k = len(next(iter(step.correction)))
                flips = [step.correction[_pattern_bits(p, k)] for p in range(2**k)]
                masks = np.array([sum(bit_mask(q, n) for q in f) for f in flips], dtype=np.int64)
                perms = idx[None, :] ^ masks[:, None]
            self.measure_onehot.append(onehot)
            self.corr_perms.append(perms)

        # ground patterns of the data and ancilla registers
        self.data_ground = _pattern_index(idx, schedule.data_qubits, n) == 0
        self.anc_ground = _pattern_index(idx, anc, n) == 0

        # each step's index among the distinct control-term sets (-1 for a
        # step without terms), so that `power` hashes no terms per call
        term_sets: dict = {}
        self.term_set = [term_sets.setdefault(s.terms, len(term_sets)) if s.terms else -1 for s in schedule.steps]
        self._powers: dict[tuple[int, int], np.ndarray] = {}

    @cached_property
    def decay_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """No-jump factors of the cold channels over m = 0..n_sub substeps,
        on amplitudes and on norms, each of shape (n_sub + 1, dim); built on
        first request (powers far below the smallest double are 0)."""
        with np.errstate(under="ignore"):
            amp = np.exp(-0.5 * self.dt * np.arange(self.n_sub + 1)[:, None] * self.cool_rates)
            return amp, amp * amp

    def power(self, s: int, m: int) -> np.ndarray | None:
        """Control unitary of step `s` over `m` of its substeps (None for a
        step without terms), built on first request from the terms' closed
        forms, shared by equal term sets; m = n_sub is exactly scale 1."""
        key = (self.term_set[s], m)
        if key[0] < 0:
            return None
        u = self._powers.get(key)
        if u is None:
            u = self._powers[key] = step_unitary(self.schedule.steps[s], self.n_qubits, scale=m / self.n_sub)
        return u

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


def _pattern_index(idx: np.ndarray, qubits, n: int) -> np.ndarray:
    """Bits of `qubits` in basis indices `idx`, packed first qubit first."""
    pat = np.zeros_like(idx)
    for pos, q in enumerate(qubits):
        pat |= ((idx >> (n - 1 - q)) & 1) << (len(qubits) - 1 - pos)
    return pat


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
            raise ValueError(f"a peek reads at most chunk = {self.chunk} uniforms, not {count}")
        spent = rows[self.pos[rows] >= self.chunk]
        if spent.size:
            self._refill(spent)
        return self.windows[rows, self.pos[rows], :count]

    def draw(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next `count` uniforms of each of the distinct `rows`, shape
        (len(rows), count)."""
        if count > self.chunk:  # a longer read comes in pieces
            return np.concatenate([self.draw(rows, self.chunk), self.draw(rows, count - self.chunk)], axis=1)
        vals = self.peek(rows, count)
        self.pos[rows] += count
        return vals


@dataclass
class EnsembleAccumulator:
    """Mergeable sums of trajectory projectors and scalar overlaps.

    Scalar samples (populations of the data/ancilla ground patterns) are
    kept for every step of every round. Density-matrix sums are kept
    according to `store`: "scalar" none, "reduced" data+ancilla reductions,
    "full" those plus the whole-register matrix; with per_step_rho=False
    only round-end samples. The matrix grids hold one window of rounds,
    `window` rounds from `window_start`, at most `_WINDOW_BYTES` for the
    largest register kept: `reduce_window` turns the held rounds' sums into
    their entropies (`s_total`, `s_data`, `s_anc`, (rounds, steps) arrays,
    nan where no matrix is kept) and, given `reference` round-end matrices
    and store "full", their round-end `trace_distances`; `next_window`
    drops the sums to hold the next rounds. Grids given to the constructor
    must hold every round in one window.
    """

    n_rounds: int
    n_steps: int
    n_qubits: int
    data_qubits: tuple[int, ...]
    ancilla_qubits: tuple[int, ...]
    store: str = "reduced"
    per_step_rho: bool = True
    count: int = 0
    f2_data: np.ndarray | None = None
    f2_anc: np.ndarray | None = None
    rho_data: np.ndarray | None = None
    rho_anc: np.ndarray | None = None
    rho_total: np.ndarray | None = None
    reference: np.ndarray | None = field(default=None, repr=False)
    window: int = field(init=False)
    window_start: int = field(init=False, default=0)
    s_total: np.ndarray = field(init=False, repr=False)
    s_data: np.ndarray = field(init=False, repr=False)
    s_anc: np.ndarray = field(init=False, repr=False)
    trace_distances: np.ndarray | None = field(init=False, default=None)
    _reduced: bool = field(init=False, default=False, repr=False)
    _layouts: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        if self.store not in ("scalar", "reduced", "full"):
            raise ValueError(f"unknown store mode {self.store!r}")
        shape = (self.n_rounds, self.n_steps)
        if self.f2_data is None:
            self.f2_data = np.zeros(shape)
        if self.f2_anc is None:
            self.f2_anc = np.zeros(shape)
        self.s_total, self.s_data, self.s_anc = np.full((3,) + shape, math.nan)
        steps = self.n_steps if self.per_step_rho else 1
        dims = {}  # the kept registers' matrix sizes
        if self.store != "scalar":
            dims = {"rho_data": 2 ** len(self.data_qubits), "rho_anc": 2 ** len(self.ancilla_qubits)}
        if self.store == "full":
            dims["rho_total"] = 2**self.n_qubits
        self.window = self.n_rounds
        if dims:
            per_round = steps * max(dims.values()) ** 2 * np.dtype(complex).itemsize
            self.window = min(self.n_rounds, max(1, _WINDOW_BYTES // per_round))
        for name, d in dims.items():
            grid = getattr(self, name)
            if grid is None:
                setattr(self, name, np.zeros((self.window, steps, d, d), dtype=complex))
            elif self.window < self.n_rounds or grid.shape != (self.n_rounds, steps, d, d):
                raise ValueError(f"{name} must hold all {self.n_rounds} rounds in one window of {self.window}")
        if self.reference is not None and self.rho_total is not None:
            d = 2**self.n_qubits
            if np.shape(self.reference) != (self.n_rounds, d, d):
                raise ValueError(f"reference must be {self.n_rounds} round-end ({d}, {d}) matrices")
            self.trace_distances = np.full(self.n_rounds, math.nan)

    def compatible(self, other: "EnsembleAccumulator") -> bool:
        return (
            self.n_rounds == other.n_rounds
            and self.n_steps == other.n_steps
            and self.n_qubits == other.n_qubits
            and self.data_qubits == other.data_qubits
            and self.ancilla_qubits == other.ancilla_qubits
            and self.store == other.store
            and self.per_step_rho == other.per_step_rho
        )

    def merge(self, other: "EnsembleAccumulator") -> "EnsembleAccumulator":
        """Combine two accumulators over disjoint trajectory sets, each still
        holding its first window; the result reduces its window anew."""
        if not self.compatible(other):
            raise ValueError("cannot merge incompatible accumulators")
        for acc in (self, other):
            if acc.window_start:
                raise ValueError(
                    f"cannot merge: rounds 0-{acc.window_start - 1} were reduced to entropies and their "
                    f"matrices dropped (window of {acc.window} rounds)"
                )
        out = EnsembleAccumulator(
            self.n_rounds,
            self.n_steps,
            self.n_qubits,
            self.data_qubits,
            self.ancilla_qubits,
            self.store,
            self.per_step_rho,
            reference=self.reference,
        )
        out.count = self.count + other.count
        out.f2_data = self.f2_data + other.f2_data
        out.f2_anc = self.f2_anc + other.f2_anc
        for name in ("rho_data", "rho_anc", "rho_total"):
            a, b = getattr(self, name), getattr(other, name)
            if a is not None:
                setattr(out, name, a + b)
        return out

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
        rows, steps = slice(held.start, held.stop), slice(None) if self.per_step_rho else slice(-1, None)
        for grid, ents in ((self.rho_total, self.s_total), (self.rho_data, self.s_data), (self.rho_anc, self.s_anc)):
            if grid is not None:
                ents[rows, steps] = mean_entropies(grid[: len(held)], self.count, self._layouts)
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
        for grid in (self.rho_data, self.rho_anc, self.rho_total):
            if grid is not None:
                grid[...] = 0.0
        self._reduced = False

    # --- normalized views -------------------------------------------------

    def mean_f2_data(self) -> np.ndarray:
        return self.f2_data / self.count

    def mean_f2_anc(self) -> np.ndarray:
        return self.f2_anc / self.count

    def _rho_step_index(self, step: int) -> int:
        if self.per_step_rho:
            return step
        if step not in (-1, self.n_steps - 1):
            raise ValueError("only round-end matrices were accumulated")
        return 0

    def mean_rho(self, which: str, rnd: int, step: int = -1) -> DensityMatrix:
        """Ensemble-averaged density matrix at (round, step), for a round the
        window holds."""
        grid = {"data": self.rho_data, "ancilla": self.rho_anc, "total": self.rho_total}[which]
        if grid is None:
            raise ValueError(f"{which} matrices were not accumulated (store={self.store!r})")
        held = self._held()
        if rnd not in held:
            raise ValueError(
                f"round {rnd} is not in the held window of rounds {held.start}-{held.stop - 1}: "
                "its matrices were reduced to entropies and dropped"
            )
        mat = grid[rnd - self.window_start, self._rho_step_index(step)] / self.count
        nq = {
            "data": len(self.data_qubits),
            "ancilla": len(self.ancilla_qubits),
            "total": self.n_qubits,
        }[which]
        return DensityMatrix(nq, mat)


def run_ensemble(
    initial: StateVector,
    rounds: int,
    schedule: GateSchedule,
    noise: NoiseParams,
    n_traj: int,
    master_seed: int = 0,
    n_sub: int = DEFAULT_N_SUB,
    store: str = "reduced",
    per_step_rho: bool = True,
    record: bool = False,
    traj_indices=None,
    reference=None,
):
    """Average `n_traj` independent trajectories over `rounds` rounds.

    Returns (EnsembleAccumulator, list[TrajectoryRecord] or None). Results
    are deterministic given (master_seed, trajectory indices) and do not
    depend on how trajectories are batched. The batches advance together,
    one window of the accumulator's rounds at a time, and each window is
    reduced to its entropies before the next one starts. `reference`, a
    (rounds, dim, dim) array of round-end density matrices such as an
    oracle's `rho_end`, gives with store "full" the accumulator's
    `trace_distances`.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    if traj_indices is None:
        traj_indices = range(n_traj)
    indices = list(traj_indices)
    if len(indices) != n_traj:
        raise ValueError("traj_indices length must equal n_traj")
    plan = _SchedulePlan(schedule, noise, n_sub)

    acc = EnsembleAccumulator(
        rounds,
        len(schedule),
        schedule.n_qubits,
        schedule.data_qubits,
        schedule.ancilla_qubits,
        store,
        per_step_rho,
        reference=reference,
    )
    records = [TrajectoryRecord(master_seed, int(i)) for i in indices] if record else None
    # every batch's states and streams live through the whole run; a chunk
    # holds a step's draws even if every substep flips
    chunk = max(_StreamBank.chunk, 2 * n_sub)
    batches = [indices[lo : lo + BATCH_SIZE] for lo in range(0, n_traj, BATCH_SIZE)]
    states = [np.tile(initial.amplitudes.astype(complex), (len(batch), 1)) for batch in batches]
    banks = [_StreamBank([trajectory_stream(master_seed, int(i)) for i in batch], chunk) for batch in batches]
    acc.count = n_traj
    for start in range(0, rounds, acc.window):
        if start:
            acc.next_window()
        stop = min(start + acc.window, rounds)
        for b in range(len(batches)):
            recs = records[b * BATCH_SIZE : (b + 1) * BATCH_SIZE] if record else None
            states[b] = _run_batch(states[b], stop, plan, banks[b], acc, recs, start)
    del plan, states, banks  # freed first, so the last reduction reuses their memory
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


def _run_batch(states, rounds, plan: _SchedulePlan, bank: _StreamBank, acc, records=None, start=0):
    """Advance the trajectories `states` (one row each, drawing from the same
    row of `bank`) through rounds `start`..`rounds - 1`, which `acc`'s
    window must hold, and return their final states.

    Post-step samples are added to `acc`; jumps and measurement outcomes are
    appended to `records` when given. Raises ValueError when a substep is too
    coarse for at most one bit flip.
    """
    B = states.shape[0]
    n = plan.n_qubits
    if n * plan.noise.gamma_h * plan.dt >= 1.0:
        raise ValueError("substep too large for the bit-flip rate: need n_qubits * gamma_h / n_sub < 1")
    if start < acc.window_start or rounds > acc.window_start + acc.window:
        raise ValueError(f"rounds {start}-{rounds - 1} lie outside the accumulator's window")
    all_rows = np.arange(B)
    n_steps = len(plan.schedule)
    record = records is not None
    groups = _plain_groups(plan, bank.chunk)
    # populations after each step of the round, as (re, im) column sums, and
    # the ground-pattern columns that turn them into f2 sums
    pops = np.empty((n_steps, 2 * plan.dim))
    ground = np.repeat(np.stack([plan.data_ground, plan.anc_ground], axis=1), 2, axis=0).astype(float)
    kept = acc.store != "scalar"
    if kept:
        gram = np.empty((n_steps if acc.per_step_rho else 1, plan.dim, plan.dim), dtype=complex)

    for rnd in range(start, rounds):
        for s, step in enumerate(plan.schedule.steps):
            t = rnd * n_steps + s

            if not plan.cooling_on[s]:
                if s in groups:
                    flips = _read_plain(bank, plan, groups[s])
                # every row takes the whole step in one product; the rows
                # that flipped replay their substep interleaving exactly
                prop = plan.power(s, plan.n_sub)
                new = states if prop is None else states @ prop.T
                for r, ks, qubits in flips[s]:
                    psi = states[r]
                    prev = 0
                    for k, q in zip(ks, qubits):
                        if prop is not None:
                            psi = plan.power(s, k + 1 - prev) @ psi
                        psi = psi[plan.flip_perms[q]]
                        prev = k + 1
                        if record:
                            records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_BIT_FLIP))
                    if prop is not None and prev < plan.n_sub:
                        psi = plan.power(s, plan.n_sub - prev) @ psi
                    new[r] = psi
                states = new
            else:
                hot = bank.draw(all_rows, plan.n_sub) < plan.p_hot  # (B, n_sub)
                u3 = bank.draw(all_rows, plan.n_sub)
                prop = plan.power(s, 1)
                if prop is None:
                    _cool_events(states, plan, bank, hot, u3, t, records)
                else:
                    states = _cool_substeps(states, plan, bank, hot, u3, prop, t, records)

            # marker operations at the end of the step
            if step.measure is not None:
                onehot = plan.measure_onehot[s]
                probs = (np.abs(states) ** 2) @ onehot.T
                total = probs.sum(axis=1, keepdims=True)
                if np.any(total < 1e-14):
                    raise ValueError("state with vanishing probability at measurement")
                cum = np.cumsum(probs, axis=1)
                u = bank.draw(all_rows, 1)[:, 0] * total[:, 0]
                outcome = (cum < u[:, None]).sum(axis=1)
                np.clip(outcome, 0, probs.shape[1] - 1, out=outcome)
                states = states * onehot[outcome]
                states /= np.linalg.norm(states, axis=1, keepdims=True)
                if record:
                    for r in range(B):
                        records[r].outcomes.append(_pattern_bits(outcome[r], len(step.measure)))
            if step.correction is not None:
                states = states[all_rows[:, None], plan.corr_perms[s][outcome]]

            # post-step samples: populations, and the batch's Gram matrix
            # where a density matrix is kept
            f = states.view(float)
            np.einsum("bk,bk->k", f, f, out=pops[s])
            if kept and (acc.per_step_rho or s == n_steps - 1):
                np.matmul(states.T, states.conj(), out=gram[s if acc.per_step_rho else 0])

        # once per round: f2 sums, and the whole-register matrices and their
        # partial traces into the round's row of the window
        f2 = pops @ ground
        acc.f2_data[rnd] += f2[:, 0]
        acc.f2_anc[rnd] += f2[:, 1]
        row = rnd - acc.window_start
        if acc.rho_total is not None:
            acc.rho_total[row] += gram
        if kept:
            data, anc = _partial_traces(gram, plan)
            acc.rho_data[row] += data
            acc.rho_anc[row] += anc
    return states


def _hot_flips(plan: _SchedulePlan, bank: _StreamBank, rows, psi, ks, t, records):
    """Bit flips of `rows` (states `psi`) at substeps `ks` of the step that
    starts at time `t`: reads each row's qubit pick and returns the flipped
    states."""
    n = plan.n_qubits
    qubits = np.minimum((bank.draw(rows, 1)[:, 0] * n).astype(np.int64), n - 1)
    if records is not None:
        for r, k, q in zip(rows.tolist(), ks.tolist(), qubits.tolist()):
            records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_BIT_FLIP))
    return psi[np.arange(len(rows))[:, None], plan.flip_perms[qubits]]


def _cold_jumps(plan: _SchedulePlan, bank: _StreamBank, rows, pre, ks, t, records):
    """Cold jumps of `rows` at substeps `ks` of the step that starts at time
    `t`, from their normalised states `pre` before that substep's decay.

    Reads each row's channel choice and returns (landed, live): the
    renormalised states after the jump of the rows with an open channel, and
    the mask of those rows; a row without one keeps its decayed state.
    """
    anc_count = plan.anc_bits.shape[0]
    occ = (np.abs(pre) ** 2) @ plan.anc_bits.T
    chan = np.concatenate([plan.noise.rate_down * occ, plan.noise.rate_up * (1.0 - occ)], axis=1)
    totals = chan.sum(axis=1)
    u4 = bank.draw(rows, 1)[:, 0] * totals
    cidx = np.minimum((np.cumsum(chan, axis=1) < u4[:, None]).sum(axis=1), 2 * anc_count - 1)
    live = totals >= 1e-300
    cidx = cidx[live]
    a, cool = cidx % anc_count, cidx < anc_count
    # the jump flips ancilla a into the state it lands in: ground for
    # cooling, excited for heating
    lands = np.where(cool[:, None], 1.0 - plan.anc_bits[a], plan.anc_bits[a])
    psi = pre[np.flatnonzero(live)[:, None], plan.anc_perms[a]] * lands
    if records is not None:
        for r, k, ai, c in zip(rows[live].tolist(), ks[live].tolist(), a.tolist(), cool.tolist()):
            q = plan.schedule.ancilla_qubits[ai]
            records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_COOL if c else JUMP_HEAT))
    return psi / np.linalg.norm(psi, axis=1)[:, None], live


def _cool_events(states, plan: _SchedulePlan, bank: _StreamBank, hot, u3, t, records):
    """Advance every row of `states`, in place, through a cooled step without
    control terms, from event to event; `hot` marks each row's flip substeps
    and `u3` holds its survival uniforms.

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
    n_sub = plan.n_sub
    amp, norms = plan.decay_powers
    # each row's first flip substep at or after c, then strictly after c
    # (n_sub: none), for c = 0..n_sub-1
    first = np.minimum.accumulate(np.where(hot, np.arange(n_sub), n_sub)[:, ::-1], axis=1)[:, ::-1]
    next_flip = np.column_stack([first[:, 1:], np.full(len(first), n_sub)])
    offsets = np.arange(n_sub)
    rows = np.arange(len(states))
    c = np.zeros(len(states), dtype=np.int64)
    with np.errstate(under="ignore"):
        while rows.size:
            psi = states[rows]
            flip = np.flatnonzero(hot[rows, c])
            if flip.size:
                psi[flip] = _hot_flips(plan, bank, rows[flip], psi[flip], c[flip], t, records)
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
            psi *= amp[m] / np.sqrt(norm[np.arange(rows.size), m])[:, None]
            if jumped.size:
                landed, live = _cold_jumps(plan, bank, rows[jumped], psi[jumped], c[jumped] + m[jumped], t, records)
                stay = jumped[~live]  # no open channel: the decayed state
                psi[stay] *= plan.cool_decay / np.sqrt(survival[stay, m[stay]])[:, None]
                psi[jumped[live]] = landed
                m[jumped] += 1
            states[rows] = psi
            c += m
            going = c < n_sub
            rows, c = rows[going], c[going]


def _cool_substeps(states, plan: _SchedulePlan, bank: _StreamBank, hot, u3, prop, t, records):
    """Advance `states` through a cooled step with control terms, all rows in
    lockstep over its substeps (`prop` is one substep's control unitary);
    returns the new states."""
    hot_k, hot_rows = np.nonzero(hot.T)
    cuts = np.searchsorted(hot_k, np.arange(plan.n_sub + 1)).tolist()
    for k in range(plan.n_sub):
        states = states @ prop.T
        flip = hot_rows[cuts[k] : cuts[k + 1]]
        if flip.size:
            states[flip] = _hot_flips(plan, bank, flip, states[flip], np.full(flip.size, k), t, records)
        pre = states
        decayed = states * plan.cool_decay
        survival = (decayed.real**2 + decayed.imag**2).sum(axis=1)
        states = decayed / np.sqrt(survival)[:, None]
        jrows = np.nonzero(u3[:, k] >= survival)[0]
        if jrows.size:
            landed, live = _cold_jumps(plan, bank, jrows, pre[jrows], np.full(jrows.size, k), t, records)
            states[jrows[live]] = landed
    return states


def _partial_traces(mats: np.ndarray, plan: _SchedulePlan) -> tuple[np.ndarray, np.ndarray]:
    """Data and ancilla reductions of a (k, dim, dim) stack of register
    matrices: one einsum each, summing the diagonal of the other qubits."""
    n = plan.n_qubits
    tensor = mats.reshape((len(mats),) + (2,) * (2 * n))
    out = []
    for keep in (plan.schedule.data_qubits, plan.schedule.ancilla_qubits):
        # axis labels: 0 the stack, 1..n the rows, n+1..2n the columns; a
        # traced qubit's column shares its row's label
        cols = [n + 1 + q if q in keep else 1 + q for q in range(n)]
        labels = [1 + q for q in keep] + [n + 1 + q for q in keep]
        d = 2 ** len(keep)
        out.append(np.einsum(tensor, [0, *range(1, n + 1), *cols], [0, *labels]).reshape(len(mats), d, d))
    return out[0], out[1]


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
    state is checked, read only, by `block_eigvalsh` in the block layout of
    its nonzeros: Hermitian within 1e-9 and no eigenvalue below -1e-6.

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
            low = block_eigvalsh(total, 1e-9).min()
            if low < -1e-6:
                raise RuntimeError(f"oracle lost positivity (min eigenvalue {low})")
            populations[rnd, s] = total.diagonal(axis1=-2, axis2=-1).real
        rho_end[rnd] = r.sum(axis=0)
    if single:
        rho_end, populations = rho_end[:, 0], populations[:, :, 0]
    return OracleResult(schedule, rho_end, populations, plan.data_ground, plan.anc_ground)
