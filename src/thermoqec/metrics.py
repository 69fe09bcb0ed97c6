"""Turn ensemble accumulators into the plotted per-step quantities:
data/ancilla fidelities and the three von Neumann entropies (bits).

The entropies come straight from the accumulator's un-normalised sums. Each
register grid has one exact diagonal-block layout per stored step: that of
the union of the step's nonzeros over all rounds (`qstate.block_layout`),
found in one pass over the grid. In the measured protocol the data register
stays a classical mixture, so its matrices are diagonal, and the total
matrices split into blocks of at most 8, one per data pattern (in the
shipped measured runs steps 0, 1, 14 and 15 are diagonal); the
measurement-free protocol's reduced matrices are dense. Only the block
entries are read: blocks of one size, from every step and register, are
gathered into chunks of at most `_BLOCK_BYTES` across rounds and steps
(whole matrices of consecutive steps are sliced, not gathered), checked and
symmetrised block by block, and solved with one stacked
`np.linalg.eigvalsh` call per chunk; a block of size 1 is its diagonal
entry. The eigenvalues are divided by the trajectory count after the solve.
A matrix's entropy sums its blocks' shares in the layout's order, so it does
not depend on the chunking.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import nan

import numpy as np

from .dynamics import EnsembleAccumulator
from .qstate import EIG_FLOOR, block_layout

# Bytes of blocks per stacked eigenvalue call. A chunk holds blocks of one
# size, gathered (or sliced, for whole matrices) from the raw sums of any
# rounds, steps and registers whose layouts have that size; only the
# eigenvalues are divided by the trajectory count, so no chunk is scaled.
# The bound keeps each chunk's temporaries small: with a whole round of 64x64
# matrices (1 MiB) per call, each round's temporaries grew glibc's heap past
# its trim threshold, so every round faulted its pages in again (about
# 100,000 page faults and 0.25 s of a 1.5 s `fig4a_iii` run at 50
# trajectories on a 2-core x86-64 host).
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


def _step_layouts(grid: np.ndarray) -> tuple[list[list[np.ndarray]], np.ndarray]:
    """Distinct `block_layout`s of the stored steps of a (rounds, steps, d, d)
    grid, each from the union of a step's exact nonzeros over all rounds, and
    the number of each step's layout in that list."""
    steps, d = grid.shape[1], grid.shape[-1]
    # or-ing the bit patterns of the rounds' real and imaginary parts is one
    # pass; without the sign bit, an entry is nonzero in some round exactly
    # when its or is nonzero
    bits = np.bitwise_or.reduce(grid.view(np.uint64), axis=0).reshape(steps, d, d, 2)
    patterns = ((bits[..., 0] | bits[..., 1]) & np.uint64(2**63 - 1)) != 0
    kinds: dict[bytes, int] = {}
    kind = np.array([kinds.setdefault(p.tobytes(), len(kinds)) for p in patterns])
    return [block_layout(patterns[np.argmax(kind == k)]) for k in range(len(kinds))], kind


def _block_table(grid: np.ndarray) -> tuple[dict[int, list[tuple]], np.ndarray, int]:
    """Where the blocks of a (rounds, steps, d, d) grid's step layouts lie:
    per block size, pieces (steps, indices, columns), one row per block, with
    the flat indices of the block's entries in a round's (steps * d * d)
    sums (of its diagonal entry for size 1) and its entropy-share column;
    each step's first column; and the number of columns. The columns run
    step by step, and within a step in its layout's order."""
    d = grid.shape[-1]
    layouts, kind = _step_layouts(grid)
    blocks = np.array([sum(len(states) for states in layout) for layout in layouts])[kind]
    starts = np.concatenate(([0], np.cumsum(blocks)[:-1]))
    pieces: dict[int, list[tuple]] = defaultdict(list)
    for k, layout in enumerate(layouts):
        steps = np.flatnonzero(kind == k)
        first = starts[steps]
        for states in layout:
            m, size = states.shape
            entries = states[:, :, None] * d + states[:, None, :] if size > 1 else states[:, 0] * (d + 1)
            index = np.add.outer(steps * d * d, entries).reshape((-1,) + entries.shape[1:])
            pieces[size].append((np.repeat(steps, m), index, np.add.outer(first, np.arange(m)).ravel()))
            first = first + m
    return pieces, starts, blocks.sum()


def _gather(grid: np.ndarray, rounds: slice, steps: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Blocks (`_block_table` rows) of a grid over `rounds`, as a (k, n, s, s)
    array, or (k, n) diagonal entries for size 1."""
    d = grid.shape[-1]
    if index.ndim == 3 and index.shape[-1] == d and steps[-1] - steps[0] == len(steps) - 1:
        return grid[rounds, steps[0] : steps[-1] + 1]  # whole matrices of consecutive steps
    sums = grid[rounds]
    return np.take(sums.reshape(len(sums), -1), index, axis=1)


def _block_shares(mats: np.ndarray, count: int) -> np.ndarray:
    """Shares sum(p log2 p) of the eigenvalues p of each block of a
    (k, n, s, s) stack of sums over `count` trajectories ((k, n) diagonal
    entries for s = 1), with the checks of `DensityMatrix` and
    `von_neumann_entropy` on the mean: Hermitian within 1e-9, no eigenvalue
    below EIG_FLOOR. Eigenvalues at or below 1e-14 contribute zero."""
    tol = 1e-9 * count
    if mats.ndim == 2:
        if 2 * np.abs(mats.imag).max() > tol:
            raise ValueError("density matrix is not Hermitian")
        evals = mats.real / count
    else:
        adj = mats.conj().swapaxes(-1, -2)
        if np.abs(mats - adj).max() > tol:
            raise ValueError("density matrix is not Hermitian")
        evals = np.linalg.eigvalsh(mats + adj) * (0.5 / count)
    low = evals.min()
    if low < EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {low} below tolerance")
    p = np.where(evals > 1e-14, evals, 1.0)  # a dropped eigenvalue adds 1 * log2(1) = 0
    shares = p * np.log2(p)
    return shares if mats.ndim == 2 else shares.sum(axis=-1)


def _entropies(grids: list[np.ndarray], count: int) -> list[np.ndarray]:
    """Entropies -tr(rho log2 rho) in bits of the mean density matrices of
    (rounds, steps, d, d) grids of sums over `count` trajectories, one
    (rounds, steps) array per grid, clamped at +0. Unit trace is checked
    within 1e-8."""
    rounds = grids[0].shape[0]
    pieces: dict[int, list[tuple]] = defaultdict(list)  # block size -> (grid, *table piece)
    shares, starts = [], []
    for g, grid in enumerate(grids):
        tr = grid.diagonal(0, -2, -1).real.sum(axis=-1) / count
        bad = np.abs(tr - 1.0) > 1e-8
        if np.any(bad):
            raise ValueError(f"density matrix trace is {tr[bad][0]}, expected 1")
        table, first, columns = _block_table(grid)
        for size, group in table.items():
            pieces[size] += [(g, *piece) for piece in group]
        shares.append(np.empty((rounds, columns)))
        starts.append(first)
    for size, group in pieces.items():
        unit = size * size * np.dtype(complex).itemsize
        bounds = np.cumsum([0] + [len(p[1]) for p in group])
        n = bounds[-1]
        width = n if n * unit <= _BLOCK_BYTES else max(1, _BLOCK_BYTES // unit)
        per_chunk = max(1, _BLOCK_BYTES // (width * unit))
        for b0 in range(0, n, width):
            # the pieces' rows inside blocks [b0, b0 + width)
            spans = [
                (p, max(b0, lo) - lo, min(b0 + width, hi) - lo)
                for p, lo, hi in zip(group, bounds, bounds[1:])
                if lo < b0 + width and hi > b0
            ]
            for r0 in range(0, rounds, per_chunk):
                rnds = slice(r0, r0 + per_chunk)
                mats = [_gather(grids[g], rnds, steps[a:b], index[a:b]) for (g, steps, index, _), a, b in spans]
                out = _block_shares(mats[0] if len(mats) == 1 else np.concatenate(mats, axis=1), count)
                at = 0
                for (g, _, _, cols), a, b in spans:
                    shares[g][rnds, cols[a:b]] = out[:, at : at + b - a]
                    at += b - a
    ents = []
    for h, st in zip(shares, starts):
        s = -np.add.reduceat(h, st, axis=1)
        ents.append(np.where(s > 0.0, s, 0.0))
    return ents


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
    present = [which for which, grid in grids.items() if grid is not None]
    if present:
        for which, values in zip(present, _entropies([grids[w] for w in present], acc.count)):
            ent[which][:, stored_steps] = values
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
