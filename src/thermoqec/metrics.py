"""Turn ensemble accumulators into the plotted per-step quantities:
data/ancilla fidelities and the three von Neumann entropies (bits).

The entropies of one round come from stacked eigenvalue calls per register
on the round's (steps, d, d) matrices (the round-end slice when only
round-end matrices were accumulated), each on a block of at most
`_BLOCK_BYTES` of matrices; the grid is never stacked whole, so the working
memory stays one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan

import numpy as np

from .dynamics import EnsembleAccumulator
from .qstate import EIG_FLOOR

# Bytes of matrices per stacked eigenvalue call. With a whole round of 64x64
# matrices (1 MiB) per call, each round's temporaries grew glibc's heap past
# its trim threshold, so every round faulted its pages in again: about
# 100,000 page faults and 0.25 s of a 1.5 s `fig4a_iii` run at 50
# trajectories on a 2-core x86-64 host.
_BLOCK_BYTES = 2**18


@dataclass(frozen=True)
class RoundMetrics:
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


def _entropies(mats: np.ndarray) -> np.ndarray:
    """Entropies -tr(rho log2 rho) in bits of a (k, d, d) stack of mean
    density matrices, with the checks of `DensityMatrix` and
    `von_neumann_entropy`: Hermitian within 1e-9, unit trace within 1e-8,
    no eigenvalue below EIG_FLOOR. Eigenvalues at or below 1e-14 contribute
    zero, and the result is clamped at +0."""
    adj = mats.conj().swapaxes(1, 2)
    if np.max(np.abs(mats - adj)) > 1e-9:
        raise ValueError("density matrix is not Hermitian")
    herm = np.add(mats, adj, out=adj)
    herm *= 0.5
    tr = np.trace(herm, axis1=1, axis2=2).real
    bad = np.abs(tr - 1.0) > 1e-8
    if np.any(bad):
        raise ValueError(f"density matrix trace is {tr[bad][0]}, expected 1")
    evals = np.linalg.eigvalsh(herm)
    if evals[:, 0].min() < EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {evals[:, 0].min()} below tolerance")
    p = np.where(evals > 1e-14, evals, 1.0)  # a dropped eigenvalue adds 1 * log2(1) = 0
    s = -np.sum(p * np.log2(p), axis=1)
    return np.where(s > 0.0, s, 0.0)


def compute_step_metrics(acc: EnsembleAccumulator) -> list[RoundMetrics]:
    """Per-step metric rows from an accumulator.

    The data fidelity is the population of the all-ground data pattern (the
    initial logical state); the ancilla fidelity is the population of the
    all-ground ancilla pattern.
    """
    if acc.count < 1:
        raise ValueError("empty accumulator")
    steps_per_round = acc.n_steps
    # steps whose matrices were accumulated, in the grids' step order
    stored_steps = list(range(steps_per_round)) if acc.per_step_rho else [steps_per_round - 1]
    grids = {"total": acc.rho_total, "data": acc.rho_data, "ancilla": acc.rho_anc}
    rows: list[RoundMetrics] = []
    f2d = np.clip(acc.mean_f2_data(), 0.0, 1.0)
    f2a = np.clip(acc.mean_f2_anc(), 0.0, 1.0)
    for rnd in range(acc.n_rounds):
        ent = {}
        for which, grid in grids.items():
            ent[which] = np.full(steps_per_round, nan)
            if grid is not None:
                size = max(1, _BLOCK_BYTES // grid[0, 0].nbytes)
                ents = [_entropies(grid[rnd, i : i + size] / acc.count) for i in range(0, grid.shape[1], size)]
                ent[which][stored_steps] = np.concatenate(ents)
        for step in range(steps_per_round):
            rows.append(
                RoundMetrics(
                    round_index=rnd,
                    step_index=step,
                    time=float((rnd * steps_per_round + step + 1)),
                    f2_data=float(f2d[rnd, step]),
                    f2_ancilla=float(f2a[rnd, step]),
                    s_total=float(ent["total"][step]),
                    s_data=float(ent["data"][step]),
                    s_ancilla=float(ent["ancilla"][step]),
                    n_traj=acc.count,
                )
            )
    return rows


def round_end_series(rows: list[RoundMetrics], field: str = "f2_data") -> np.ndarray:
    """Value of one metric at the last step of each round."""
    steps = max(r.step_index for r in rows) + 1
    return np.array([getattr(r, field) for r in rows if r.step_index == steps - 1])
