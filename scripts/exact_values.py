#!/usr/bin/env python3
"""Exact values behind the acceptance checks that fail on purpose (5a, 7a,
8), and the trajectory engine's substep bias against the exact oracle.

    python scripts/exact_values.py chain-series      # 7a (needs sympy)
    python scripts/exact_values.py round-map 5a      # 5a
    python scripts/exact_values.py round-map 8       # 8
    python scripts/exact_values.py substep-bias [--seed n]   # post-cooling P(000) vs n_sub

Run from the repository root with `src` on PYTHONPATH.

chain-series expands the weight-class chain's fixed point in alpha with
exact rational algebra on the package's own event and flow tables.

round-map builds the exact measured round as a 64x64 stochastic matrix on
basis populations: a round that starts diagonal ends diagonal (the script
checks this), so the map follows from one-round calls of the exact
master-equation oracle on the 64 basis states, in stacks of 8 (about
0.6 s). Its fixed point is the exact long-time state.
"""

import argparse
import sys
import types

import numpy as np

import thermoqec as tq
from thermoqec.dynamics import NoiseParams, evolve_master_equation, run_ensemble
from thermoqec.qstate import StateVector, basis_patterns
from thermoqec.ratemodel import (
    RoundEventParams,
    chain_steady_state,
    event_probabilities,
    flow_coefficients,
    steady_weight0_series,
)

# noise of the acceptance check each round map belongs to
ROUND_MAP_NOISE = {
    "5a": NoiseParams(1e-3, 3.0, 1e-2),
    "8": NoiseParams(1e-3, 0.1, 1e-2, cooling_gate="always"),
}
READOUT_STEP = 14  # the step whose ancilla fidelity check 8 reads
# basis states per oracle call: between a measurement and its correction a
# stack holds 8 outcomes x ROUND_MAP_STACK 64x64 complex matrices
ROUND_MAP_STACK = 8


def chain_series(args) -> int:
    import sympy as sp

    a = sp.symbols("a")
    p = event_probabilities(types.SimpleNamespace(F_a=sp.Integer(1), alpha=a, beta=a))
    # expanded polynomials let the flow table's row-sum check reduce to exact 1
    f = flow_coefficients({k: sp.expand(v) for k, v in p.items()})
    # steady_weight0_ratio's formula, kept symbolic
    ratio = (f["a0"] + f["a7"]) / (2 * (f["0a"] + f["0b"] + f["a0"] + f["a7"]))
    print("P0* =", sp.series(sp.cancel(ratio), a, 0, 6))

    alpha = 1e-3
    exact = chain_steady_state(flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))).P0
    third = 0.5 * (1 - 3 * alpha + 24 * alpha**3)
    matched = steady_weight0_series(alpha)
    print(f"alpha={alpha}: fixed point (eigenvector) {exact:.12f}")
    print(f"  (1-3a+24a^3)/2 = {third:.12f}  |diff| {abs(exact - third):.3e}")
    print(f"  (1-3a+24a^2)/2 = {matched:.12f}  |diff| {abs(exact - matched):.3e}")
    return 0


def build_round_map(noise: NoiseParams, schedule) -> tuple[np.ndarray, np.ndarray]:
    """M[j, i] = P(round ends in basis state i | starts in j), and the
    per-step basis populations D[j, step, i] of each one-round run, from
    one-round oracle calls on stacks of ROUND_MAP_STACK basis states."""
    n = schedule.n_qubits
    basis = [StateVector.basis(n, j).projector() for j in range(2**n)]
    runs = [
        evolve_master_equation(basis[lo : lo + ROUND_MAP_STACK], schedule, noise, rounds=1)
        for lo in range(0, len(basis), ROUND_MAP_STACK)
    ]
    end = np.concatenate([res.rho_end[0] for res in runs])
    diag = np.einsum("jii->ji", end)
    off = np.abs(end - diag[:, :, None] * np.eye(2**n)).max(axis=(1, 2))
    if off.max() > 1e-12:
        j = int(off.argmax())
        raise RuntimeError(f"round from basis state {j} ends with coherence {off[j]:.2e}")
    return diag.real, np.concatenate([res.populations[0] for res in runs], axis=1).transpose(1, 0, 2)


def round_map_values(check: str) -> dict[str, float]:
    """Fixed point of the exact measured-round map of one acceptance check:
    round-end data populations, relaxation time and readout populations."""
    schedule = tq.build_measured_round()
    M, D = build_round_map(ROUND_MAP_NOISE[check], schedule)
    n = schedule.n_qubits
    data = basis_patterns(n, schedule.data_qubits)
    anc = basis_patterns(n, schedule.ancilla_qubits)
    evals, vecs = np.linalg.eig(M.T)
    order = np.argsort(-np.abs(evals))
    pi = np.real(vecs[:, order[0]])
    pi /= pi.sum()
    readout = pi @ D[:, READOUT_STEP, :]
    return {
        "row_sum_error": np.abs(M.sum(axis=1) - 1).max(),
        "data_000": pi[data == 0].sum(),
        "data_111": pi[data == 7].sum(),
        "relaxation_rounds": -1.0 / np.log(np.abs(evals[order[1]])),
        "readout_ancilla_000": readout[anc == 0].sum(),
        "readout_data_000": readout[data == 0].sum(),
        "readout_parity_00": readout[(anc & 3) == 0].sum(),
    }


def round_map(args) -> int:
    v = round_map_values(args.check)
    print(f"check {args.check}: max |row sum - 1| {v['row_sum_error']:.1e}")
    print(f"fixed point: round-end data P(000) {v['data_000']:.4f}, P(111) {v['data_111']:.4f}")
    print(f"relaxation time -1/ln|lambda_2| = {v['relaxation_rounds']:.1f} rounds")
    print(
        f"at the readout (step {READOUT_STEP + 1}): ancilla 000 {v['readout_ancilla_000']:.4f}, "
        f"data 000 {v['readout_data_000']:.4f}, parity ancillas 00 {v['readout_parity_00']:.4f}"
    )
    return 0


def substep_bias(args) -> int:
    noise = NoiseParams(1e-3, 3.0, 1e-2)
    schedule = tq.build_measured_round()
    psi = StateVector.basis(schedule.n_qubits, 0)
    exact = evolve_master_equation(psi.projector(), schedule, noise, rounds=10).f2_series()[3:, 0, 1]
    print(f"exact post-cooling ancilla P(000), rounds 4-10: {np.round(exact, 4)} mean {exact.mean():.4f}")
    n_traj = 8000
    for n_sub in (20, 80):
        acc, _ = run_ensemble(psi, 10, schedule, noise, n_traj, master_seed=args.seed, n_sub=n_sub, store="scalar")
        sim = acc.mean_f2_anc()[3:, 0]
        print(f"n_sub={n_sub}: {np.round(sim, 4)} mean {sim.mean():.4f} ({n_traj} trajectories, seed {args.seed})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("chain-series", help="7a: expansion of the weight-class chain's fixed point")
    p.set_defaults(run=chain_series)
    p = sub.add_parser("round-map", help="5a and 8: fixed point of the exact measured-round map")
    p.add_argument("check", choices=sorted(ROUND_MAP_NOISE))
    p.set_defaults(run=round_map)
    p = sub.add_parser("substep-bias", help="post-cooling ancilla P(000) against n_sub")
    p.add_argument("--seed", type=int, default=20260811)
    p.set_defaults(run=substep_bias)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
