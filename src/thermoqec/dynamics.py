"""Evolution of the register under a gate schedule coupled to both reservoirs.

Two routes are provided, both reading one table of schedule-derived
operators (`_SchedulePlan`: jump permutations, cold-channel weights,
measurement projectors, correction permutations, ground-pattern masks):

* a quantum-trajectory Monte Carlo engine (pure states, stochastic jumps)
  with one batched kernel: `run_ensemble` runs it on batches of
  trajectories, `run_round` on one trajectory for one round, and
* a dense fixed-step RK4 integrator for the full master equation, used as
  the exact oracle.

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
measurement. A trajectory's buffer of uniforms is refilled only when read
past its end, so `run_round`, whose buffer holds one uniform, advances the
caller's generator by exactly the uniforms it uses and rounds chained on one
generator reproduce the ensemble's trajectory.

Because bit-flip jump decisions are state-independent, steps without cold
coupling apply the exact full-step unitary to jump-free trajectories in a
single product and replay the substep interleaving only for trajectories
that actually jumped; the sampled distribution is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compiler import GateSchedule, Step, step_hamiltonian, step_unitary
from .qstate import DensityMatrix, StateVector, bit_mask

DEFAULT_N_SUB = 20
ORACLE_SUBSTEPS = 200  # RK4 steps per schedule step

JUMP_BIT_FLIP = "bit_flip"
JUMP_COOL = "cool"
JUMP_HEAT = "heat"


@dataclass(frozen=True)
class NoiseParams:
    """Reservoir parameters; rates are per schedule step (tau = 1).

    cooling_gate selects when the cold coupling is active: "window" follows
    the schedule's cooling-window markers, "always" keeps it on for every
    step, "off" disables it, or an explicit 0/1 sequence with one entry per
    step may be given.
    """

    gamma_h: float
    Gamma_c: float
    n_c: float
    cooling_gate: str | tuple[int, ...] = "window"

    def __post_init__(self):
        for name in ("gamma_h", "Gamma_c", "n_c"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        if isinstance(self.cooling_gate, str):
            if self.cooling_gate not in ("window", "always", "off"):
                raise ValueError(f"unknown cooling_gate policy {self.cooling_gate!r}")
        else:
            object.__setattr__(self, "cooling_gate", tuple(int(bool(b)) for b in self.cooling_gate))

    @property
    def rate_down(self) -> float:
        return self.Gamma_c * (self.n_c + 1.0)

    @property
    def rate_up(self) -> float:
        return self.Gamma_c * self.n_c

    def cooling_profile(self, schedule: GateSchedule) -> np.ndarray:
        """Per-step boolean p(t) resolved against a schedule."""
        n = len(schedule)
        if self.cooling_gate == "window":
            return np.array([s.cooling_window for s in schedule.steps], dtype=bool)
        if self.cooling_gate == "always":
            return np.ones(n, dtype=bool)
        if self.cooling_gate == "off":
            return np.zeros(n, dtype=bool)
        if len(self.cooling_gate) != n:
            raise ValueError("explicit cooling_gate length must match the schedule")
        return np.array(self.cooling_gate, dtype=bool)


@dataclass
class TrajectoryRecord:
    """Jump and measurement history of one trajectory."""

    master_seed: int
    index: int
    jumps: list[tuple[float, int, str]] = field(default_factory=list)
    outcomes: list[tuple[int, ...]] = field(default_factory=list)

    def times_ordered(self) -> bool:
        times = [t for t, _, _ in self.jumps]
        return all(a <= b for a, b in zip(times, times[1:]))


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

        # per-substep unitary, its powers (for replaying jump interleavings)
        # and the exact full-step unitary for jump-free trajectories
        self.sub_unitaries: list[np.ndarray | None] = []
        self.sub_powers: list[list[np.ndarray] | None] = []
        self.full_unitaries: list[np.ndarray | None] = []
        for s in schedule.steps:
            if s.terms:
                u_dt = step_unitary(s, n, scale=self.dt)
                powers = [np.eye(self.dim, dtype=complex)]
                for _ in range(n_sub):
                    powers.append(u_dt @ powers[-1])
                self.sub_unitaries.append(u_dt)
                self.sub_powers.append(powers)
                self.full_unitaries.append(step_unitary(s, n, scale=1.0))
            else:
                self.sub_unitaries.append(None)
                self.sub_powers.append(None)
                self.full_unitaries.append(None)

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
        # total cold-channel rate per basis state (the oracle's anticommutator)
        a_rate, b_rate = noise.rate_down, noise.rate_up
        self.cool_weights = (a_rate * self.anc_bits + b_rate * (1.0 - self.anc_bits)).sum(axis=0)
        self.cool_decay = np.exp(-0.5 * self.dt * self.cool_weights)

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


def trajectory_substep(
    state: StateVector,
    terms,
    dt: float,
    noise: NoiseParams,
    cooling_on: bool,
    rng: np.random.Generator,
    ancilla_qubits=(),
):
    """Advance one trajectory by one substep; returns (state, jump events).

    Events are (qubit, kind) pairs. This is the self-contained reference
    operation: it draws one uniform for the bit-flip channel (plus one for
    the qubit choice when it fires) and, with the cold coupling active, one
    against the no-jump survival (plus one for the channel choice when a
    cold jump fires). The batched kernel consumes the same draws but
    grouped per step, which changes nothing statistically.
    """
    n = state.n_qubits
    if dt * n * noise.gamma_h >= 1.0:
        raise ValueError("substep too large for the bit-flip rate")
    idx = np.arange(2**n)
    psi = state.amplitudes
    if terms:
        psi = step_unitary(Step(tuple(terms)), n, scale=dt) @ psi
    events: list[tuple[int, str]] = []

    p_hot = 1.0 - np.exp(-n * noise.gamma_h * dt)
    if rng.random() < p_hot:
        q = min(int(rng.random() * n), n - 1)
        psi = psi[idx ^ bit_mask(q, n)]
        events.append((q, JUMP_BIT_FLIP))

    if cooling_on and noise.Gamma_c > 0 and len(ancilla_qubits) > 0:
        a_rate, b_rate = noise.rate_down, noise.rate_up
        bits = [((idx >> (n - 1 - a)) & 1).astype(float) for a in ancilla_qubits]
        weights = sum(a_rate * b + b_rate * (1.0 - b) for b in bits)
        decayed = psi * np.exp(-0.5 * dt * weights)
        survival = float(np.vdot(decayed, decayed).real / np.vdot(psi, psi).real)
        if dt * (a_rate + b_rate) * len(ancilla_qubits) >= 1.0:
            raise ValueError("substep too large for the cold-channel rates")
        if rng.random() < survival:
            psi = decayed
        else:
            prob = np.abs(psi) ** 2
            prob = prob / prob.sum()
            occ = np.array([float(b @ prob) for b in bits])
            chan = np.concatenate([a_rate * occ, b_rate * (1.0 - occ)])
            total = chan.sum()
            if total < 1e-300:
                psi = decayed
            else:
                u = rng.random() * total
                c = int(np.searchsorted(np.cumsum(chan), u, side="right"))
                c = min(c, len(chan) - 1)
                a = ancilla_qubits[c % len(ancilla_qubits)]
                kind = JUMP_COOL if c < len(ancilla_qubits) else JUMP_HEAT
                keep = bits[c % len(ancilla_qubits)] if kind == JUMP_COOL else 1.0 - bits[c % len(ancilla_qubits)]
                psi = psi[idx ^ bit_mask(a, n)] * (1.0 - keep)
                events.append((a, kind))

    return StateVector(n, psi / np.linalg.norm(psi)), events


def run_round(
    state: StateVector,
    schedule: GateSchedule,
    noise: NoiseParams,
    rng: np.random.Generator,
    n_sub: int = DEFAULT_N_SUB,
    t0: float = 0.0,
    record: TrajectoryRecord | None = None,
):
    """Execute one full round on a single trajectory drawing from `rng`.

    Runs the batched kernel on one trajectory; `rng` advances by exactly the
    uniforms used, so rounds can be chained on one generator. Returns (final
    state, per-step samples with columns [f2_data, f2_ancilla], record).
    Samples are taken after each step.
    """
    plan = _SchedulePlan(schedule, noise, n_sub)
    if state.amplitudes.shape != (plan.dim,):
        raise ValueError("state dimension does not match the schedule register")
    if record is None:
        record = TrajectoryRecord(master_seed=-1, index=-1)
    acc = EnsembleAccumulator(
        1, len(schedule), schedule.n_qubits, schedule.data_qubits, schedule.ancilla_qubits, store="scalar"
    )
    states = state.amplitudes.astype(complex)[None, :]
    states = _run_batch(states, 1, plan, _StreamBank([rng], chunk=1), acc, [record], t0)
    samples = np.stack([acc.f2_data[0], acc.f2_anc[0]], axis=1)
    return StateVector(schedule.n_qubits, states[0]), samples, record


class _StreamBank:
    """Per-trajectory buffers of `chunk` uniforms, one generator per row.

    A row is refilled just before a read past its end, so each generator
    advances by whole chunks and no further than the uniforms read require.
    """

    def __init__(self, gens, chunk: int = 1024):
        self.gens = list(gens)
        self.chunk = chunk
        self.size = len(self.gens)
        self.buf = np.empty((self.size, chunk))
        for r, g in enumerate(self.gens):
            self.buf[r] = g.random(chunk)
        self.pos = np.zeros(self.size, dtype=np.int64)

    def _refill(self, rows):
        for r in rows:
            self.buf[r] = self.gens[r].random(self.chunk)
            self.pos[r] = 0

    def draw_all(self) -> np.ndarray:
        empty = np.nonzero(self.pos >= self.chunk)[0]
        if empty.size:
            self._refill(empty)
        vals = self.buf[np.arange(self.size), self.pos]
        self.pos += 1
        return vals

    def draw_block(self, count: int) -> np.ndarray:
        """`count` consecutive uniforms per trajectory, shape (size, count)."""
        if np.any(self.pos + count > self.chunk):
            # consume the leftovers row by row so the stream stays contiguous
            out = np.empty((self.size, count))
            for j in range(count):
                out[:, j] = self.draw_all()
            return out
        vals = self.buf[np.arange(self.size)[:, None], self.pos[:, None] + np.arange(count)]
        self.pos += count
        return vals

    def draw_one(self, row: int) -> float:
        if self.pos[row] >= self.chunk:
            self._refill([row])
        val = self.buf[row, self.pos[row]]
        self.pos[row] += 1
        return float(val)

    def draw_rows(self, rows: np.ndarray) -> np.ndarray:
        empty = rows[self.pos[rows] >= self.chunk]
        if empty.size:
            self._refill(empty)
        vals = self.buf[rows, self.pos[rows]]
        self.pos[rows] += 1
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
        return DensityMatrix(nq, 0.5 * (mat + mat.conj().T))


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
    batch_size: int = 8192,
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
    for lo in range(0, n_traj, batch_size):
        batch = indices[lo : lo + batch_size]
        states = np.tile(initial.amplitudes.astype(complex), (len(batch), 1))
        bank = _StreamBank([trajectory_stream(master_seed, int(i)) for i in batch])
        _run_batch(states, rounds, plan, bank, acc, records[lo : lo + batch_size] if record else None)
    return acc, records


def _run_batch(states, rounds, plan: _SchedulePlan, bank: _StreamBank, acc, records=None, t0=0.0):
    """Advance the trajectories `states` (one row each, drawing from the same
    row of `bank`) through `rounds` rounds starting at time t0.

    Post-step samples are added to `acc`; jumps and measurement outcomes are
    appended to `records` when given. Returns the final states.
    """
    B = states.shape[0]
    n = plan.n_qubits
    anc_count = plan.anc_bits.shape[0]
    a_rate, b_rate = plan.noise.rate_down, plan.noise.rate_up
    dd = 2 ** len(plan.schedule.data_qubits)
    da = 2 ** len(plan.schedule.ancilla_qubits)
    record = records is not None

    outcome = None
    for rnd in range(rounds):
        for s, step in enumerate(plan.schedule.steps):
            t = t0 + rnd * len(plan.schedule) + s
            u_dt = plan.sub_unitaries[s]
            cooling = bool(plan.cooling_on[s])
            hot_mask = bank.draw_block(plan.n_sub) < plan.p_hot  # (B, n_sub)

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
                powers = plan.sub_powers[s]
                for r in jumpers:
                    psi = states[r]
                    prev = 0
                    for k in np.nonzero(hot_mask[r])[0]:
                        if powers is not None and k + 1 - prev > 0:
                            psi = powers[k + 1 - prev] @ psi
                        q = min(int(bank.draw_one(r) * n), n - 1)
                        psi = psi[plan.flip_perms[q]]
                        prev = k + 1
                        if record:
                            records[r].jumps.append((t + (k + 1) * plan.dt, q, JUMP_BIT_FLIP))
                    if powers is not None and plan.n_sub - prev > 0:
                        psi = powers[plan.n_sub - prev] @ psi
                    states[r] = psi
            else:
                u3_block = bank.draw_block(plan.n_sub)
                for k in range(plan.n_sub):
                    if u_dt is not None:
                        states = states @ u_dt.T
                    hot = np.nonzero(hot_mask[:, k])[0]
                    if hot.size:
                        u2 = bank.draw_rows(hot)
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
                        u4 = bank.draw_rows(jrows) * totals
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
                u = bank.draw_all() * total[:, 0]
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
                blocks = states[:, plan.data_sort].reshape(B, dd, plan.dim // dd)
                acc.rho_data[rnd, si] += np.einsum("rai,rbi->ab", blocks, blocks.conj())
                blocks = states[:, plan.anc_sort].reshape(B, da, plan.dim // da)
                acc.rho_anc[rnd, si] += np.einsum("rai,rbi->ab", blocks, blocks.conj())
                if acc.store == "full":
                    acc.rho_total[rnd, si] += np.einsum("ra,rb->ab", states, states.conj())
    acc.count += B
    return states


# ---------------------------------------------------------------------------
# master-equation oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleResult:
    """Density-matrix time series from the master-equation integrator."""

    schedule: GateSchedule
    rounds: int
    rho_steps: np.ndarray  # (rounds, n_steps, dim, dim), sampled after each step
    data_ground: np.ndarray = field(repr=False)  # the schedule plan's ground masks
    anc_ground: np.ndarray = field(repr=False)

    def rho(self, rnd: int, step: int = -1) -> DensityMatrix:
        return DensityMatrix(self.schedule.n_qubits, self.rho_steps[rnd, step])

    def f2_series(self) -> np.ndarray:
        """Columns [f2_data, f2_ancilla] per (round, step)."""
        diag = np.einsum("rsii->rsi", self.rho_steps).real
        return np.stack(
            [diag[:, :, self.data_ground].sum(axis=2), diag[:, :, self.anc_ground].sum(axis=2)], axis=2
        )


def evolve_master_equation(
    rho: DensityMatrix,
    schedule: GateSchedule,
    noise: NoiseParams,
    rounds: int = 1,
) -> OracleResult:
    """Integrate the full master equation through `rounds` rounds.

    Classical 4th-order integration with ORACLE_SUBSTEPS fixed steps per
    schedule step and a piecewise-constant Hamiltonian. Jump operators,
    cooling windows, measurement projectors and corrections come from the
    same schedule plan as the trajectory kernel. Measurement and correction
    markers act at the end of their step as the deterministic
    sum-over-outcomes map: the measurement splits the state into per-outcome
    conditional blocks, each block keeps evolving under the noise, and the
    correction applies each outcome's flip set to its own block before
    re-summing. The output is therefore the exact trajectory-ensemble limit,
    including errors that strike between measurement and correction.
    """
    n = schedule.n_qubits
    dim = 2**n
    if rho.n_qubits != n:
        raise ValueError("density matrix dimension does not match the schedule")
    plan = _SchedulePlan(schedule, noise, n_sub=1)  # the oracle reads no per-substep entries
    hams = [step_hamiltonian(s, n) for s in schedule.steps]
    a_rate, b_rate = noise.rate_down, noise.rate_up
    wsum = 0.5 * (plan.cool_weights[:, None] + plan.cool_weights[None, :])
    gamma = noise.gamma_h

    # per ancilla: the ground-ground block and its image with the ancilla excited
    ground_ix = []
    excited_ix = []
    for bits, perm in zip(plan.anc_bits, plan.anc_perms):
        g = np.nonzero(bits == 0)[0]
        ground_ix.append(np.ix_(g, g))
        excited_ix.append(np.ix_(perm[g], perm[g]))

    def rhs(r: np.ndarray, h: np.ndarray | None, cooled: bool) -> np.ndarray:
        out = np.zeros_like(r)
        if h is not None:
            out += -1j * (h @ r - r @ h)
        if gamma > 0:
            acc = np.zeros_like(r)
            for perm in plan.flip_perms:
                acc += r[np.ix_(perm, perm)]
            out += gamma * (acc - n * r)
        if cooled:
            sandwich = np.zeros_like(r)
            for gix, eix in zip(ground_ix, excited_ix):
                tmp = np.zeros_like(r)
                tmp[gix] = r[eix]
                sandwich += a_rate * tmp
                tmp = np.zeros_like(r)
                tmp[eix] = r[gix]
                sandwich += b_rate * tmp
            out += sandwich - wsum * r
        return out

    h_sub = 1.0 / ORACLE_SUBSTEPS

    def evolve_step(r: np.ndarray, h, cooled: bool) -> np.ndarray:
        for _ in range(ORACLE_SUBSTEPS):
            k1 = rhs(r, h, cooled)
            k2 = rhs(r + 0.5 * h_sub * k1, h, cooled)
            k3 = rhs(r + 0.5 * h_sub * k2, h, cooled)
            k4 = rhs(r + h_sub * k3, h, cooled)
            r = r + (h_sub / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return r

    blocks: list[np.ndarray] | None = None  # conditional states between markers
    r = rho.elements.astype(complex).copy()
    series = np.zeros((rounds, len(schedule), dim, dim), dtype=complex)
    for rnd in range(rounds):
        for s, step in enumerate(schedule.steps):
            h = hams[s]
            cooled = bool(plan.cooling_on[s])
            if blocks is not None:
                blocks = [evolve_step(b, h, cooled) for b in blocks]
                r = sum(blocks)
            else:
                r = evolve_step(r, h, cooled)
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
            series[rnd, s] = r
    return OracleResult(schedule, rounds, series, plan.data_ground, plan.anc_ground)
