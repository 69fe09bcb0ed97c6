"""Evolution of the register under a gate schedule coupled to both reservoirs.

Two routes are provided, both reading one table of schedule-derived
operators (`_SchedulePlan`: cooling windows, measurement projectors,
correction permutations, ground-pattern masks, and the kernel's jumps; the
kernel's step propagators are built on its first read):

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
composition. Per step, each trajectory consumes one uniform per substep for
the bit-flip channel (plus one per fired flip for the qubit choice), then,
when the cold coupling is active, one per substep against the no-jump
survival (plus one per cold jump for the channel choice), then one per
measurement. Each trajectory reads its stream through a buffer of two
halves of `_StreamBank.chunk` uniforms: once a row has read past its first
half, the second half moves forward and a fresh chunk is drawn behind it,
so every read takes consecutive uniforms of the stream in one fancy index.

Because bit-flip jump decisions are state-independent, steps without cold
coupling apply the exact full-step unitary to jump-free trajectories in a
single product and replay the substep interleaving only for trajectories
that actually jumped; the sampled distribution is unchanged.

The post-step density-matrix sums are matrix products over the whole batch:
the total is states^T @ conj(states), and each register's reduction is
X @ X^dagger, where X lays the batch out register-major (one row per
register pattern, one column per trajectory and rest-of-register pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .compiler import GateSchedule, Step, step_unitary, term_generator
from .qstate import PAULI_X, DensityMatrix, StateVector, bit_mask

DEFAULT_N_SUB = 20
BATCH_SIZE = 8192  # trajectories per kernel call; bounds the working memory

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
    """Precomputed arrays for evolving one schedule under one noise setting."""

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

        # ground patterns of the data and ancilla registers, and the basis
        # order that groups each register's pattern for the reduced matrices
        data_pat = _pattern_index(idx, schedule.data_qubits, n)
        anc_pat = _pattern_index(idx, anc, n)
        self.data_ground = data_pat == 0
        self.anc_ground = anc_pat == 0
        self.data_sort = np.argsort(data_pat, kind="stable")
        self.anc_sort = np.argsort(anc_pat, kind="stable")

    @cached_property
    def sub_powers(self) -> list[list[np.ndarray] | None]:
        """Powers 0..n_sub of each step's per-substep unitary, for replaying
        jump interleavings (None for a step without control terms). Built on
        the kernel's first read, as is `full_unitaries`: the oracle reads
        neither."""
        out: list[list[np.ndarray] | None] = []
        for s in self.schedule.steps:
            powers = None
            if s.terms:
                u_dt = step_unitary(s, self.n_qubits, scale=self.dt)
                powers = [np.eye(self.dim, dtype=complex)]
                for _ in range(self.n_sub):
                    powers.append(u_dt @ powers[-1])
            out.append(powers)
        return out

    @cached_property
    def full_unitaries(self) -> list[np.ndarray | None]:
        """Exact full-step unitary of each step, for jump-free trajectories."""
        return [step_unitary(s, self.n_qubits, scale=1.0) if s.terms else None for s in self.schedule.steps]


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

    def __init__(self, gens):
        self.gens = list(gens)
        self.buf = np.empty((len(self.gens), 2 * self.chunk))
        for r, g in enumerate(self.gens):
            self.buf[r] = g.random(2 * self.chunk)
        self.pos = np.zeros(len(self.gens), dtype=np.int64)

    def _refill(self, rows):
        c = self.chunk
        for r in rows:
            self.buf[r, :c] = self.buf[r, c:]
            self.buf[r, c:] = self.gens[r].random(c)
        self.pos[rows] -= c

    def draw(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next `count` uniforms of each of the distinct `rows`, shape
        (len(rows), count)."""
        if count > self.chunk:  # only when n_sub exceeds chunk: read in pieces
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
        bank = _StreamBank([trajectory_stream(master_seed, int(i)) for i in batch])
        _run_batch(states, rounds, plan, bank, acc, records[lo : lo + BATCH_SIZE] if record else None)
    return acc, records


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
    anc_count = plan.anc_bits.shape[0]
    a_rate, b_rate = plan.noise.rate_down, plan.noise.rate_up
    dd = 2 ** len(plan.schedule.data_qubits)
    da = 2 ** len(plan.schedule.ancilla_qubits)
    record = records is not None

    outcome = None
    for rnd in range(rounds):
        for s, step in enumerate(plan.schedule.steps):
            t = rnd * len(plan.schedule) + s
            powers = plan.sub_powers[s]
            cooling = bool(plan.cooling_on[s])
            hot_mask = bank.draw(all_rows, plan.n_sub) < plan.p_hot  # (B, n_sub)

            if not cooling:
                # jump-free trajectories take the whole step in one product;
                # the rare jumpers replay their substep interleaving exactly
                jumpers = np.nonzero(hot_mask.any(axis=1))[0]
                if plan.full_unitaries[s] is not None:
                    if jumpers.size:
                        clean = np.nonzero(~hot_mask.any(axis=1))[0]
                        states[clean] = states[clean] @ plan.full_unitaries[s].T
                    else:
                        states = states @ plan.full_unitaries[s].T
                # qubit picks in flip order: the j-th picks of all jumpers with
                # more than j flips come from one draw
                counts = hot_mask[jumpers].sum(axis=1)
                picks = np.zeros((jumpers.size, counts.max(initial=0)))
                for j in range(picks.shape[1]):
                    more = counts > j
                    picks[more, j] = bank.draw(jumpers[more], 1)[:, 0]
                picked = np.minimum((picks * n).astype(np.int64), n - 1).tolist()
                for r, qubits in zip(jumpers, picked):
                    psi = states[r]
                    prev = 0
                    for k, q in zip(np.nonzero(hot_mask[r])[0], qubits):
                        if powers is not None and k + 1 - prev > 0:
                            psi = powers[k + 1 - prev] @ psi
                        psi = psi[plan.flip_perms[q]]
                        prev = k + 1
                        if record:
                            records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_BIT_FLIP))
                    if powers is not None and plan.n_sub - prev > 0:
                        psi = powers[plan.n_sub - prev] @ psi
                    states[r] = psi
            else:
                u3_block = bank.draw(all_rows, plan.n_sub)
                for k in range(plan.n_sub):
                    if powers is not None:
                        states = states @ powers[1].T
                    hot = np.nonzero(hot_mask[:, k])[0]
                    if hot.size:
                        u2 = bank.draw(hot, 1)[:, 0]
                        qubits = np.minimum((u2 * n).astype(np.int64), n - 1)
                        for r, q in zip(hot, qubits):
                            states[r] = states[r][plan.flip_perms[q]]
                            if record:
                                records[r].jumps.append((t + (k + 1) * plan.dt, int(q), JUMP_BIT_FLIP))
                    decayed = states * plan.cool_decay
                    survival = (decayed.real**2 + decayed.imag**2).sum(axis=1)
                    jump = u3_block[:, k] >= survival
                    stay = np.nonzero(~jump)[0]
                    states[stay] = decayed[stay] / np.sqrt(survival[stay])[:, None]
                    jrows = np.nonzero(jump)[0]
                    if jrows.size:
                        occ = (np.abs(states[jrows]) ** 2) @ plan.anc_bits.T
                        chan = np.concatenate([a_rate * occ, b_rate * (1.0 - occ)], axis=1)
                        totals = chan.sum(axis=1)
                        u4 = bank.draw(jrows, 1)[:, 0] * totals
                        cidx = (np.cumsum(chan, axis=1) < u4[:, None]).sum(axis=1)
                        np.clip(cidx, 0, 2 * anc_count - 1, out=cidx)
                        for r, c, tot in zip(jrows, cidx, totals):
                            if tot < 1e-300:
                                states[r] = decayed[r] / np.linalg.norm(decayed[r])
                                continue
                            a = int(c) % anc_count
                            cool = int(c) < anc_count
                            keep = plan.anc_bits[a] if cool else 1.0 - plan.anc_bits[a]
                            psi = states[r][plan.anc_perms[a]] * (1.0 - keep)
                            states[r] = psi / np.linalg.norm(psi)
                            if record:
                                q = plan.schedule.ancilla_qubits[a]
                                kind = JUMP_COOL if cool else JUMP_HEAT
                                records[r].jumps.append((t + (k + 1) * plan.dt, q, kind))

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
                if outcome is None:
                    raise ValueError("correction marker before any measurement")
                perms = plan.corr_perms[s]
                for pat in np.unique(outcome):
                    rows = np.nonzero(outcome == pat)[0]
                    states[rows] = states[rows][:, perms[pat]]

            # post-step samples
            prob = np.abs(states) ** 2
            acc.f2_data[rnd, s] += prob[:, plan.data_ground].sum()
            acc.f2_anc[rnd, s] += prob[:, plan.anc_ground].sum()
            if acc.store != "scalar" and (acc.per_step_rho or s == len(plan.schedule) - 1):
                si = s if acc.per_step_rho else 0
                for grid, sort, d in ((acc.rho_data, plan.data_sort, dd), (acc.rho_anc, plan.anc_sort, da)):
                    # register-major block: column (r, i) holds trajectory r's
                    # amplitudes over the register's patterns at rest index i
                    x = states[:, sort].reshape(B, d, -1).transpose(1, 0, 2).reshape(d, -1)
                    grid[rnd, si] += x @ x.conj().T
                if acc.store == "full":
                    acc.rho_total[rnd, si] += states.T @ states.conj()
    acc.count += B


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
