"""Turn ensemble accumulators into the plotted per-step quantities:
data/ancilla fidelities and the three von Neumann entropies (bits).

The fidelities are the accumulator's f2 sums over the trajectory count. The
entropies are the accumulator's own: it reduces its matrix sums to entropies
one window of rounds at a time (`EnsembleAccumulator.reduce_window`), every
matrix of a register in one block layout taken from the schedule plan
(`qstate.mean_entropies`). No control term of the measured protocol mixes a
data qubit's basis and its runs start from a basis state, so the data
register stays a classical mixture: its matrices are diagonal and the total
matrices split into 8 blocks of 8, one per data pattern. The
measurement-free protocol has no such qubit, so its matrices are dense. A
matrix's entropy depends only on its own eigenvalues, so not on the window
or the chunking.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import EnsembleAccumulator


class RoundMetrics(NamedTuple):
    """One sampled point of the protocol, after step `step_index` of round
    `round_index`. Entropies are nan when the run did not accumulate the
    corresponding density matrices."""

    round_index: int
    step_index: int
    time: float
    f2_data: float
    f2_ancilla: float
    s_total: float
    s_data: float
    s_ancilla: float
    n_traj: int


def compute_step_metrics(acc: EnsembleAccumulator) -> list[RoundMetrics]:
    """Per-step metric rows from an accumulator.

    The data fidelity is the population of the all-ground data pattern (the
    initial logical state); the ancilla fidelity is the population of the
    all-ground ancilla pattern.
    """
    if acc.count < 1:
        raise ValueError("empty accumulator")
    acc.reduce_window()  # a no-op once the accumulator has reduced its last window
    steps_per_round = acc.n_steps
    f2d = np.clip(acc.mean_f2_data(), 0.0, 1.0)
    f2a = np.clip(acc.mean_f2_anc(), 0.0, 1.0)
    rows: list[RoundMetrics] = []
    for rnd in range(acc.n_rounds):
        # the round's values as python floats, in RoundMetrics field order
        values = zip(*(a[rnd].tolist() for a in (f2d, f2a, acc.s_total, acc.s_data, acc.s_anc)))
        start = rnd * steps_per_round + 1.0  # the time after the round's first step
        rows += [RoundMetrics(rnd, step, start + step, *fields, acc.count) for step, fields in enumerate(values)]
    return rows


def round_end_series(rows: list[RoundMetrics], field: str = "f2_data") -> np.ndarray:
    """Value of one metric at the last step of each round."""
    steps = max(r.step_index for r in rows) + 1
    return np.array([getattr(r, field) for r in rows if r.step_index == steps - 1])
