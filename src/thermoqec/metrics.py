"""Turn ensemble accumulators into the plotted per-step quantities:
data/ancilla fidelities and the three von Neumann entropies (bits).

The entropies come straight from the accumulator's un-normalised sums, one
register grid at a time. Each stored step has one exact diagonal-block
layout: the `qstate.block_layout` of the union of the step's nonzeros over
all rounds (`qstate.nonzero_union`). In the measured protocol the data
register stays a classical mixture, so its matrices are diagonal, and the
total matrices split into blocks of at most 8, one per data pattern (in the
shipped measured runs steps 0, 1, 14 and 15 are diagonal); the
measurement-free protocol's reduced matrices are dense. Each run of
consecutive steps with equal layouts is solved by `qstate.block_eigvalsh`
in that layout, a few rounds (or, for large blocks, a few steps of one
round) at a time, which checks and symmetrises block by block; the
eigenvalues are divided by the trajectory count after the solve. A matrix's
entropy depends only on its own eigenvalues, so not on the chunking.
"""

from __future__ import annotations

from math import nan
from typing import NamedTuple

import numpy as np

from .dynamics import EnsembleAccumulator
from .qstate import EIG_FLOOR, block_eigvalsh, block_layout, nonzero_union

# Bytes of gathered blocks per `block_eigvalsh` call: a chunk is a few rounds
# of one run of equal-layout steps, or a few of its steps of one round when
# a round's blocks exceed the bound. Only the eigenvalues are divided by the
# trajectory count, so no chunk is scaled. The bound keeps each chunk's
# temporaries small: with a whole round of 64x64 matrices (1 MiB) per call,
# each round's temporaries grew glibc's heap past its trim threshold, so
# every round faulted its pages in again (about 100,000 page faults and
# 0.25 s of a 1.5 s `fig4a_iii` run at 50 trajectories on a 2-core x86-64
# host).
_BLOCK_BYTES = 2**18


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


def _same_layout(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return a is b or len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _entropies(grid: np.ndarray, count: int) -> np.ndarray:
    """Entropies -tr(rho log2 rho) in bits of the mean density matrices of a
    (rounds, steps, d, d) grid of sums over `count` trajectories, as a
    (rounds, steps) array clamped at +0. Unit trace is checked within 1e-8,
    Hermiticity within 1e-9 and eigenvalues against EIG_FLOOR, all on the
    mean; eigenvalues at or below 1e-14 contribute zero."""
    tr = grid.diagonal(0, -2, -1).real.sum(axis=-1) / count
    bad = np.abs(tr - 1.0) > 1e-8
    if np.any(bad):
        raise ValueError(f"density matrix trace is {tr[bad][0]}, expected 1")
    rounds, steps = grid.shape[:2]
    patterns = nonzero_union(grid)
    distinct = {p.tobytes(): p for p in patterns}  # many steps share a pattern
    layout_of = {key: block_layout(p) for key, p in distinct.items()}
    layouts = [layout_of[p.tobytes()] for p in patterns]
    starts = [s for s in range(steps) if s == 0 or not _same_layout(layouts[s], layouts[s - 1])]
    ents = np.empty((rounds, steps))
    for first, end in zip(starts, starts[1:] + [steps]):  # runs of steps with equal layouts
        layout = layouts[first]
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
    ent = {which: np.full((acc.n_rounds, steps_per_round), nan) for which in grids}
    for which, grid in grids.items():
        if grid is not None:
            ent[which][:, stored_steps] = _entropies(grid, acc.count)
    f2d = np.clip(acc.mean_f2_data(), 0.0, 1.0)
    f2a = np.clip(acc.mean_f2_anc(), 0.0, 1.0)
    rows: list[RoundMetrics] = []
    for rnd in range(acc.n_rounds):
        # the round's values as python floats, in RoundMetrics field order
        values = zip(*(a[rnd].tolist() for a in (f2d, f2a, ent["total"], ent["data"], ent["ancilla"])))
        start = rnd * steps_per_round + 1.0  # the time after the round's first step
        rows += [RoundMetrics(rnd, step, start + step, *fields, acc.count) for step, fields in enumerate(values)]
    return rows


def round_end_series(rows: list[RoundMetrics], field: str = "f2_data") -> np.ndarray:
    """Value of one metric at the last step of each round."""
    steps = max(r.step_index for r in rows) + 1
    return np.array([getattr(r, field) for r in rows if r.step_index == steps - 1])
