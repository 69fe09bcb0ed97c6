"""Evolution of the register under a gate schedule coupled to both reservoirs.

Two routes are provided, both reading one table of schedule-derived
operators (`_SchedulePlan`: cooling windows, measurement projectors,
correction permutations, ground-pattern masks, the kernel's jumps, and its
one propagator table `power(s, m)`: step s's control unitary over m
substeps, an exact product of the terms' closed forms, built on request):

* a quantum-trajectory Monte Carlo engine (pure states, stochastic jumps)
  with one batched kernel, which `run_ensemble` runs on batches of
  trajectories, and
* the exact master-equation propagator, used as the oracle: within a step
  the Lindbladian is a sum of commuting terms on disjoint qubit groups, so
  each step's map is a tensor product of small exact channels. It returns
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

Jump draws use the exact per-substep survival (1 - exp(-rate*dt), and the
norm of the decayed state for the cold channels) rather than the first-order
product rate*dt, so single-channel decay statistics carry no substep bias.
A substep (dt = 1/n_sub) holds at most one bit flip, so the kernel rejects
n_qubits * gamma_h * dt >= 1. The cold coupling follows NoiseParams'
cooling_gate: the schedule's cooling windows ("window") or every step
("always"); Gamma_c = 0 switches it off.

Measurement and correction markers act at the end of their step, after the
step's noise evolution: the readout of step s sees s full steps of error
exposure, and the conditioned correction lands one step later, so errors
striking between readout and correction escape until the next round.

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
1024, and at least a step's worst case of 2 * n_sub + 1): once a row has
read past its first half, the second half moves forward and a fresh chunk
is drawn behind it.

Steps without cold coupling ("plain" steps) come in groups of consecutive
steps whose worst-case draws fit one chunk. Their draws do not depend on
the state, so each group's draws are read before its first step, in one
pass over a strided window of every row's buffer: a row without a hot hit
reads a fixed layout, and only the rows with a flip are parsed, over their
hits, for flip substeps, qubit picks and measurement uniforms. Each plain
step then applies the exact full-step unitary (`power(s, n_sub)`) to every
row in one product, and the rows that flipped replay their substep
interleaving from their pre-step state, one `power(s, gap)` per gap between
flips; the uniforms and their order are those of the per-step contract
above, so the sampled distribution is unchanged. Steps with cold coupling
advance all rows by `power(s, 1)` per substep.

Per step the kernel keeps two samples: the basis populations summed over
the batch and, where a density matrix is kept, the batch's Gram matrix
states^T @ conj(states). Once per round the populations give the f2 sums,
and the Gram matrices are added to the whole-register sums (store "full")
and, as partial traces, to the data and ancilla reductions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .compiler import GateSchedule, Step, step_unitary, term_generator
from .qstate import PAULI_X, DensityMatrix, StateVector, bit_mask

DEFAULT_N_SUB = 20
BATCH_SIZE = 8192  # trajectories per kernel call; bounds the working memory
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
    """Counter-based random stream for one trajectory of one run."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _SchedulePlan:
    """Precomputed arrays for evolving one schedule under one noise setting,
    and the trajectory kernel's step propagators (`power`; the oracle reads
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
        rates = (noise.rate_down * self.anc_bits + noise.rate_up * (1.0 - self.anc_bits)).sum(axis=0)
        self.cool_decay = np.exp(-0.5 * self.dt * rates)

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
    per row.

    Before a read, a row whose position has passed its first half is
    refilled: the second half moves forward, one fresh chunk is drawn behind
    it and the position drops by `chunk`. A read of up to `chunk` uniforms is
    then one fancy index, each generator advances by whole chunks, and the
    uniforms handed to a row equal refills * chunk + pos.
    """

    chunk = 1024

    def __init__(self, gens, chunk: int = chunk):
        self.gens = list(gens)
        self.chunk = chunk
        self.buf = np.empty((len(self.gens), 2 * self.chunk))
        for r, g in enumerate(self.gens):
            self.buf[r] = g.random(2 * self.chunk)
        self.pos = np.zeros(len(self.gens), dtype=np.int64)

    def _refill(self, rows):
        c = self.chunk
        for r in rows.tolist():
            self.buf[r, :c] = self.buf[r, c:]
            self.gens[r].random(out=self.buf[r, c:])
        self.pos[rows] -= c

    def draw(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next `count` uniforms of each of the distinct `rows`, shape
        (len(rows), count)."""
        if count > self.chunk:  # a longer read comes in pieces
            return np.concatenate([self.draw(rows, self.chunk), self.draw(rows, count - self.chunk)], axis=1)
        pos = self.pos[rows]
        spent = pos >= self.chunk
        if spent.any():
            self._refill(rows[spent])
            pos = self.pos[rows]
        vals = self.buf[rows[:, None], pos[:, None] + np.arange(count)]
        self.pos[rows] = pos + count
        return vals


@dataclass
class EnsembleAccumulator:
    """Mergeable sums of trajectory projectors and scalar overlaps.

    Scalar samples (populations of the data/ancilla ground patterns) are
    kept for every step. Density-matrix sums are kept according to `store`:
    "scalar" none, "reduced" data+ancilla reductions, "full" those plus the
    whole-register matrix; with per_step_rho=False the matrix grids hold
    round-end samples only.
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

    def __post_init__(self):
        if self.store not in ("scalar", "reduced", "full"):
            raise ValueError(f"unknown store mode {self.store!r}")
        shape = (self.n_rounds, self.n_steps)
        if self.f2_data is None:
            self.f2_data = np.zeros(shape)
        if self.f2_anc is None:
            self.f2_anc = np.zeros(shape)
        steps = self.n_steps if self.per_step_rho else 1
        dd = 2 ** len(self.data_qubits)
        da = 2 ** len(self.ancilla_qubits)
        d = 2**self.n_qubits
        if self.store in ("reduced", "full"):
            if self.rho_data is None:
                self.rho_data = np.zeros((self.n_rounds, steps, dd, dd), dtype=complex)
            if self.rho_anc is None:
                self.rho_anc = np.zeros((self.n_rounds, steps, da, da), dtype=complex)
        if self.store == "full" and self.rho_total is None:
            self.rho_total = np.zeros((self.n_rounds, steps, d, d), dtype=complex)

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
        """Combine two accumulators over disjoint trajectory sets."""
        if not self.compatible(other):
            raise ValueError("cannot merge incompatible accumulators")
        out = EnsembleAccumulator(
            self.n_rounds,
            self.n_steps,
            self.n_qubits,
            self.data_qubits,
            self.ancilla_qubits,
            self.store,
            self.per_step_rho,
        )
        out.count = self.count + other.count
        out.f2_data = self.f2_data + other.f2_data
        out.f2_anc = self.f2_anc + other.f2_anc
        for name in ("rho_data", "rho_anc", "rho_total"):
            a, b = getattr(self, name), getattr(other, name)
            if a is not None:
                setattr(out, name, a + b)
        return out

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
        """Ensemble-averaged density matrix at (round, step)."""
        grid = {"data": self.rho_data, "ancilla": self.rho_anc, "total": self.rho_total}[which]
        if grid is None:
            raise ValueError(f"{which} matrices were not accumulated (store={self.store!r})")
        mat = grid[rnd, self._rho_step_index(step)] / self.count
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
):
    """Average `n_traj` independent trajectories over `rounds` rounds.

    Returns (EnsembleAccumulator, list[TrajectoryRecord] or None). Results
    are deterministic given (master_seed, trajectory indices) and do not
    depend on how trajectories are batched.
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
    )
    records = [TrajectoryRecord(master_seed, int(i)) for i in indices] if record else None
    for lo in range(0, n_traj, BATCH_SIZE):
        batch = indices[lo : lo + BATCH_SIZE]
        states = np.tile(initial.amplitudes.astype(complex), (len(batch), 1))
        # a chunk holds a step's draws even if every substep flips
        chunk = max(_StreamBank.chunk, 2 * n_sub + 1)
        bank = _StreamBank([trajectory_stream(master_seed, int(i)) for i in batch], chunk)
        _run_batch(states, rounds, plan, bank, acc, records[lo : lo + BATCH_SIZE] if record else None)
    return acc, records


class _PlainGroup(NamedTuple):
    """Consecutive steps without cold coupling whose draws are read in one
    pass. Without flips, step j's `n_sub` hot uniforms start at `starts[j]`
    (`starts[-1]` is the group's length); `hot` marks them over a window with
    room for a qubit pick on every substep; `measured` lists the steps that
    measure."""

    steps: list[int]
    starts: list[int]
    hot: np.ndarray
    measured: list[int]


def _plain_groups(plan: _SchedulePlan, chunk: int) -> dict[int, _PlainGroup]:
    """Runs of steps without cold coupling, split into groups whose draws
    fit one chunk even if every substep flips; keyed by first step."""
    size = chunk // (2 * plan.n_sub + 1)
    runs: dict[int, list[int]] = {}
    run: list[int] = []
    for s in range(len(plan.schedule)):
        if plan.cooling_on[s]:
            run = []
        elif run and len(run) < size:
            run.append(s)
        else:
            run = runs[s] = [s]
    groups = {}
    for first, steps in runs.items():
        measures = [plan.schedule.steps[s].measure is not None for s in steps]
        starts = np.cumsum([0] + [plan.n_sub + m for m in measures]).tolist()
        hot = np.zeros(starts[-1] + len(steps) * plan.n_sub, dtype=bool)
        for a in starts[:-1]:
            hot[a : a + plan.n_sub] = True
        groups[first] = _PlainGroup(steps, starts, hot, [j for j, m in enumerate(measures) if m])
    return groups


def _read_plain(bank: _StreamBank, plan: _SchedulePlan, group: _PlainGroup):
    """Read the draws of a group of steps without cold coupling for every
    row of `bank`, in the per-step order of the stream contract.

    Returns (flips, measure_u): flips[j] lists (row, substeps, qubits) for
    each row flipping in the group's j-th step, and measure_u[j] holds each
    row's measurement uniform of that step (None when it does not measure).
    A row without flips reads the group's fixed layout; only rows with a
    flip are parsed one by one, over the hot hits of their window.
    """
    n, n_sub = plan.n_qubits, plan.n_sub
    starts, hot, measured = group.starts, group.hot, group.measured
    base, width = starts[-1], hot.size
    spent = np.nonzero(bank.pos >= bank.chunk)[0]
    if spent.size:
        bank._refill(spent)
    windows = np.lib.stride_tricks.sliding_window_view(bank.buf, width, axis=1)
    rows = np.arange(len(bank.pos))
    shifts = np.zeros((rows.size, len(measured)), dtype=np.int64)  # picks before each measurement
    used = np.full(rows.size, base)
    flips: list[list] = [[] for _ in group.steps]
    for lo in range(0, rows.size, _PARSE_ROWS):
        block = windows[rows[lo : lo + _PARSE_ROWS], bank.pos[lo : lo + _PARSE_ROWS]]
        hit_rows, hit_pos = np.divmod(np.flatnonzero(block < plan.p_hot), width)
        jumpers = np.unique(hit_rows[hot[hit_pos]])
        cuts = np.searchsorted(hit_rows, np.stack([jumpers, jumpers + 1])).tolist()
        hit_pos = hit_pos.tolist()
        for i, h, stop in zip(jumpers.tolist(), *cuts):
            r, u, shift = lo + i, block[i], 0
            while h < stop and hit_pos[h] - shift < base:
                x = hit_pos[h] - shift  # offset in the layout without flips
                j = bisect_right(starts, x) - 1
                first = starts[j] + shift
                end = first + n_sub
                if x - starts[j] >= n_sub:  # a measurement uniform
                    h += 1
                    continue
                ks = []
                while h < stop and hit_pos[h] < end:
                    ks.append(hit_pos[h] - first)
                    h += 1
                flips[j].append((r, ks, [min(int(p * n), n - 1) for p in u[end : end + len(ks)].tolist()]))
                shift += len(ks)
                while h < stop and hit_pos[h] < end + len(ks):  # the qubit picks
                    h += 1
                for m, jm in enumerate(measured):
                    if jm >= j:
                        shifts[r, m] += len(ks)
            used[r] += shift
    at = bank.pos[:, None] + shifts + np.array([starts[j] + n_sub for j in measured], dtype=np.int64)
    vals = bank.buf[rows[:, None], at]
    bank.pos += used
    measure_u: list[np.ndarray | None] = [None] * len(group.steps)
    for m, j in enumerate(measured):
        measure_u[j] = vals[:, m]
    return flips, measure_u


def _run_batch(states, rounds, plan: _SchedulePlan, bank: _StreamBank, acc, records=None):
    """Advance the trajectories `states` (one row each, drawing from the same
    row of `bank`) through `rounds` rounds from time 0.

    Post-step samples are added to `acc`; jumps and measurement outcomes are
    appended to `records` when given. Raises ValueError when a substep is too
    coarse for at most one bit flip.
    """
    B = states.shape[0]
    n = plan.n_qubits
    if n * plan.noise.gamma_h * plan.dt >= 1.0:
        raise ValueError("substep too large for the bit-flip rate: need n_qubits * gamma_h / n_sub < 1")
    all_rows = np.arange(B)
    n_steps = len(plan.schedule)
    anc_count = plan.anc_bits.shape[0]
    a_rate, b_rate = plan.noise.rate_down, plan.noise.rate_up
    record = records is not None
    groups = _plain_groups(plan, bank.chunk)
    # populations after each step of the round, as (re, im) column sums, and
    # the ground-pattern columns that turn them into f2 sums
    pops = np.empty((n_steps, 2 * plan.dim))
    ground = np.repeat(np.stack([plan.data_ground, plan.anc_ground], axis=1), 2, axis=0).astype(float)
    kept = acc.store != "scalar"
    if kept:
        gram = np.empty((n_steps if acc.per_step_rho else 1, plan.dim, plan.dim), dtype=complex)

    outcome = None
    for rnd in range(rounds):
        for s, step in enumerate(plan.schedule.steps):
            t = rnd * n_steps + s
            measure_u = None

            if not plan.cooling_on[s]:
                if s in groups:
                    first = s
                    flips, group_u = _read_plain(bank, plan, groups[s])
                measure_u = group_u[s - first]
                # every row takes the whole step in one product; the rows
                # that flipped replay their substep interleaving exactly
                prop = plan.power(s, plan.n_sub)
                new = states if prop is None else states @ prop.T
                for r, ks, qubits in flips[s - first]:
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
                hot_mask = bank.draw(all_rows, plan.n_sub) < plan.p_hot  # (B, n_sub)
                u3_block = bank.draw(all_rows, plan.n_sub)
                hot_k, hot_rows = np.nonzero(hot_mask.T)
                cuts = np.searchsorted(hot_k, np.arange(plan.n_sub + 1)).tolist()
                prop = plan.power(s, 1)
                for k in range(plan.n_sub):
                    if prop is not None:
                        states = states @ prop.T
                    hot = hot_rows[cuts[k] : cuts[k + 1]]
                    if hot.size:
                        u2 = bank.draw(hot, 1)[:, 0]
                        qubits = np.minimum((u2 * n).astype(np.int64), n - 1)
                        states[hot] = states[hot[:, None], plan.flip_perms[qubits]]
                        if record:
                            for r, q in zip(hot.tolist(), qubits.tolist()):
                                records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_BIT_FLIP))
                    pre = states
                    decayed = states * plan.cool_decay
                    survival = (decayed.real**2 + decayed.imag**2).sum(axis=1)
                    states = decayed / np.sqrt(survival)[:, None]
                    jrows = np.nonzero(u3_block[:, k] >= survival)[0]
                    if jrows.size:
                        occ = (np.abs(pre[jrows]) ** 2) @ plan.anc_bits.T
                        chan = np.concatenate([a_rate * occ, b_rate * (1.0 - occ)], axis=1)
                        totals = chan.sum(axis=1)
                        u4 = bank.draw(jrows, 1)[:, 0] * totals
                        cidx = (np.cumsum(chan, axis=1) < u4[:, None]).sum(axis=1)
                        np.clip(cidx, 0, 2 * anc_count - 1, out=cidx)
                        # a row without an open channel keeps its decayed state
                        live = totals >= 1e-300
                        jrows, cidx = jrows[live], cidx[live]
                        a, cool = cidx % anc_count, cidx < anc_count
                        # the jump flips ancilla a into the state it lands in:
                        # ground for cooling, excited for heating
                        lands = np.where(cool[:, None], 1.0 - plan.anc_bits[a], plan.anc_bits[a])
                        psi = pre[jrows[:, None], plan.anc_perms[a]] * lands
                        states[jrows] = psi / np.linalg.norm(psi, axis=1)[:, None]
                        if record:
                            for r, ai, c in zip(jrows.tolist(), a.tolist(), cool.tolist()):
                                q = plan.schedule.ancilla_qubits[ai]
                                records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_COOL if c else JUMP_HEAT))

            # marker operations at the end of the step
            if step.measure is not None:
                onehot = plan.measure_onehot[s]
                probs = (np.abs(states) ** 2) @ onehot.T
                total = probs.sum(axis=1, keepdims=True)
                if np.any(total < 1e-14):
                    raise ValueError("state with vanishing probability at measurement")
                cum = np.cumsum(probs, axis=1)
                if measure_u is None:
                    measure_u = bank.draw(all_rows, 1)[:, 0]
                u = measure_u * total[:, 0]
                outcome = (cum < u[:, None]).sum(axis=1)
                np.clip(outcome, 0, probs.shape[1] - 1, out=outcome)
                states = states * onehot[outcome]
                states /= np.linalg.norm(states, axis=1, keepdims=True)
                if record:
                    for r in range(B):
                        records[r].outcomes.append(_pattern_bits(outcome[r], len(step.measure)))
            if step.correction is not None:
                if outcome is None:
                    raise ValueError("correction marker before any measurement")
                perms = plan.corr_perms[s]
                for pat in np.unique(outcome):
                    rows = np.nonzero(outcome == pat)[0]
                    states[rows] = states[rows][:, perms[pat]]

            # post-step samples: populations, and the batch's Gram matrix
            # where a density matrix is kept
            f = states.view(float)
            np.einsum("bk,bk->k", f, f, out=pops[s])
            if kept and (acc.per_step_rho or s == n_steps - 1):
                np.matmul(states.T, states.conj(), out=gram[s if acc.per_step_rho else 0])

        # once per round: f2 sums, the whole-register matrices and their
        # partial traces
        f2 = pops @ ground
        acc.f2_data[rnd] += f2[:, 0]
        acc.f2_anc[rnd] += f2[:, 1]
        if acc.rho_total is not None:
            acc.rho_total[rnd] += gram
        if kept:
            data, anc = _partial_traces(gram, plan)
            acc.rho_data[rnd] += data
            acc.rho_anc[rnd] += anc
    acc.count += B


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
    master-equation oracle."""

    schedule: GateSchedule
    rho_end: np.ndarray  # (rounds, dim, dim), the state at each round end
    populations: np.ndarray  # (rounds, n_steps, dim), diagonal of the state after each step
    data_ground: np.ndarray = field(repr=False)  # the schedule plan's ground masks
    anc_ground: np.ndarray = field(repr=False)

    def rho(self, rnd: int) -> DensityMatrix:
        return DensityMatrix(self.schedule.n_qubits, self.rho_end[rnd])

    def f2_series(self) -> np.ndarray:
        """Columns [f2_data, f2_ancilla] per (round, step)."""
        pop = self.populations
        return np.stack([pop[:, :, self.data_ground].sum(axis=2), pop[:, :, self.anc_ground].sum(axis=2)], axis=2)


def _expm(g: np.ndarray) -> np.ndarray:
    """exp(g) of a small matrix: a degree-18 Taylor series of g / 2**s, with
    s chosen so that the scaled norm is at most 1/2, squared s times."""
    squarings = int(np.ceil(np.log2(max(np.linalg.norm(g, np.inf), 1.0)))) + 1
    g = g / 2**squarings
    out = term = np.eye(len(g), dtype=complex)
    for k in range(1, 19):
        term = term @ g / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _step_channels(step: Step, n: int, noise: NoiseParams, cooled: set[int]) -> list:
    """Exact one-step map as (qubits, channel) factors on disjoint groups:
    each term's qubits form a group and every other qubit one of its own.
    A channel acts on the group's row-major vec(rho), reshaped to (2,)*4k."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|, the cooling jump
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
        factors.append((qubits, _expm(gen).reshape((2,) * 4 * k)))
    return factors


def _apply_channels(r: np.ndarray, factors) -> np.ndarray:
    """Apply one step's group channels to an n-qubit density matrix."""
    n = len(r).bit_length() - 1
    t = r.reshape((2,) * 2 * n)
    for qubits, chan in factors:
        axes = list(qubits) + [n + q for q in qubits]
        k2 = 2 * len(qubits)
        t = np.moveaxis(np.tensordot(chan, t, axes=(list(range(k2, 2 * k2)), axes)), list(range(k2)), axes)
    return t.reshape(r.shape)


def evolve_master_equation(
    rho: DensityMatrix,
    schedule: GateSchedule,
    noise: NoiseParams,
    rounds: int = 1,
) -> OracleResult:
    """Propagate the full master equation exactly through `rounds` rounds.

    Within one step the control Hamiltonian is constant and its terms act on
    disjoint qubits, while the bit-flip and cooling dissipators act on single
    qubits, so the step's Lindbladian is a sum of commuting terms on
    disjoint groups and its propagator is the tensor product of the groups'
    exact channels (each a 4x4 or 16x16 superoperator exponential), applied
    to rho one group at a time. Cooling windows, measurement projectors and
    corrections come from the same schedule plan as the trajectory kernel.
    Measurement and correction markers act at the end of their step as the
    deterministic sum-over-outcomes map: the measurement splits the state
    into per-outcome conditional blocks, each block keeps evolving under the
    noise, and the correction applies each outcome's flip set to its own
    block before re-summing. The output is therefore the exact
    trajectory-ensemble limit, including errors that strike between
    measurement and correction. The result keeps the state at each round
    end and the basis populations after every step.
    """
    n = schedule.n_qubits
    dim = 2**n
    if rho.n_qubits != n:
        raise ValueError("density matrix dimension does not match the schedule")
    plan = _SchedulePlan(schedule, noise, n_sub=1)  # the oracle reads no per-substep entries
    anc = set(schedule.ancilla_qubits)
    channels = [
        _step_channels(step, n, noise, anc if plan.cooling_on[s] else set()) for s, step in enumerate(schedule.steps)
    ]

    blocks: list[np.ndarray] | None = None  # conditional states between markers
    r = rho.elements.astype(complex).copy()
    rho_end = np.zeros((rounds, dim, dim), dtype=complex)
    populations = np.zeros((rounds, len(schedule), dim))
    for rnd in range(rounds):
        for s, step in enumerate(schedule.steps):
            if blocks is not None:
                blocks = [_apply_channels(b, channels[s]) for b in blocks]
                r = sum(blocks)
            else:
                r = _apply_channels(r, channels[s])
            if step.measure is not None:
                if blocks is not None:
                    r = sum(blocks)
                blocks = [(p[:, None] * r) * p[None, :] for p in plan.measure_onehot[s]]
                r = sum(blocks)
            if step.correction is not None:
                if blocks is None:
                    raise ValueError("correction marker before any measurement")
                r = np.zeros((dim, dim), dtype=complex)
                for perm, block in zip(plan.corr_perms[s], blocks):
                    r += block[np.ix_(perm, perm)]
                blocks = None
            low = np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min()
            if low < -1e-6:
                raise RuntimeError(f"oracle lost positivity (min eigenvalue {low})")
            populations[rnd, s] = r.diagonal().real
        rho_end[rnd] = r
    return OracleResult(schedule, rho_end, populations, plan.data_ground, plan.anc_ground)
