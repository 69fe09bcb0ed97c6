"""Command-line experiment runner.

Subcommands:
  run           simulate a configured experiment, write per-step CSV + summary
  verify-gates  check compiled gates and rounds against canonical unitaries
  rate-model    evaluate the analytic models (cooling, steady fidelity,
                slow cooling, round chain)
  compare       trajectory ensemble vs round-chain prediction (and optional
                master-equation oracle) at the configured parameters

Exit codes: 0 success, 1 runtime failure or verification threshold exceeded,
2 invalid configuration or parameters.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .compiler import (
    build_measured_round,
    build_measurement_free_round,
    canonical_cnot,
    canonical_toffoli,
    compile_cnot,
    compile_toffoli,
    dump_schedule,
    phase_aligned_distance,
    schedule_net_unitary,
    GateSchedule,
    Step,
)
from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import DEFAULT_N_SUB, NoiseParams, evolve_master_equation, run_ensemble
from .metrics import compute_step_metrics, round_end_series
from .qstate import StateVector
from .ratemodel import (
    CoolingRates,
    RoundEventParams,
    ancilla_steady_fidelity,
    chain_decay_constant,
    chain_steady_state,
    cooling_steady_state,
    decay_constant_series,
    event_probabilities,
    first_round_weight0,
    flow_coefficients,
    integrate_cooling,
    iterate_round_chain,
    perturbative_weight0,
    slow_cooling_steady_fidelity,
    steady_weight0_ratio,
    steady_weight0_series,
)

GATE_TOL = 1e-9


def _fmt(x) -> str:
    return "nan" if x != x else f"{x:.12g}"


def _schedule_for(cfg: ExperimentConfig) -> GateSchedule:
    """The protocol's round, once `gamma_h` is known to be small enough for
    the trajectory kernel's substeps (at most one bit flip per substep)."""
    schedule = build_measured_round() if cfg.protocol == "measured" else build_measurement_free_round()
    if schedule.n_qubits * cfg.gamma_h >= DEFAULT_N_SUB:
        raise ConfigError(
            f"gamma_h = {_fmt(cfg.gamma_h)} too large for the trajectory kernel: "
            f"need n_qubits * gamma_h < {DEFAULT_N_SUB} ({schedule.n_qubits} qubits)"
        )
    return schedule


def _round_chain(cfg: ExperimentConfig, schedule: GateSchedule):
    """The weight-class chain at the configured bath parameters: its event
    parameters, flow matrix and states after 0..rounds rounds. None when
    the per-round error load len(schedule) * gamma_h exceeds 1."""
    if len(schedule) * cfg.gamma_h > 1.0:
        return None
    params = RoundEventParams.from_physical(cfg.gamma_h, cfg.n_c, steps=len(schedule))
    flows = flow_coefficients(event_probabilities(params))
    return params, flows, iterate_round_chain(flows, cfg.rounds)


def cmd_run(cfg: ExperimentConfig) -> int:
    schedule = _schedule_for(cfg)
    noise = NoiseParams(cfg.gamma_h, cfg.Gamma_c, cfg.n_c, cooling_gate=cfg.cooling)
    initial = StateVector.basis(schedule.n_qubits, 0)
    store = cfg.resolved_store(len(schedule))
    oracle = evolve_master_equation(initial.projector(), schedule, noise, rounds=cfg.rounds) if cfg.oracle else None
    acc, _ = run_ensemble(
        initial,
        cfg.rounds,
        schedule,
        noise,
        cfg.n_traj,
        master_seed=cfg.master_seed,
        store=store,
        reference=oracle.rho_end if oracle is not None else None,
    )
    rows = compute_step_metrics(acc)
    out = Path(cfg.out)
    # one column per RoundMetrics field, in declaration order
    header = ["round", "step", "time", "f2_data", "f2_ancilla", "s_total", "s_data", "s_anc", "n_traj"]
    _write_table(out / "metrics.csv", header, rows)

    ends = round_end_series(rows, "f2_data")
    tail = ends[max(0, 3 * len(ends) // 4) :]
    lines = [
        f"thermoqec {__version__} run summary",
        f"protocol = {cfg.protocol} ({len(schedule)} steps/round)",
        f"gamma_h = {_fmt(cfg.gamma_h)}  Gamma_c = {_fmt(cfg.Gamma_c)}  n_c = {_fmt(cfg.n_c)}"
        f"  cooling = {cfg.cooling}",
        f"rounds = {cfg.rounds}  n_traj = {cfg.n_traj}  n_sub = {DEFAULT_N_SUB}  store = {store}",
        f"master_seed = {cfg.master_seed}  (trajectory k uses Philox key (master_seed, k))",
        f"final-round data fidelity = {_fmt(ends[-1])}",
        f"steady-state estimate (mean of last {len(tail)} rounds) = {_fmt(tail.mean())}",
    ]
    chain = _round_chain(cfg, schedule) if cfg.protocol == "measured" else None
    if chain is not None:
        params, flows, states = chain
        try:
            steady = _fmt(chain_steady_state(flows)[0])
        except ValueError as exc:
            steady = f"not unique ({exc})"
        lines += [
            "rate-model comparison (weight-class chain):",
            f"  predicted first-round weight-0 = {_fmt(first_round_weight0(params))}",
            f"  simulated first-round data fidelity = {_fmt(ends[0])}",
            f"  predicted steady weight-0 = {steady}",
            f"  chain after {cfg.rounds} rounds = {_fmt(states[-1, 0])}",
        ]
    elif cfg.protocol == "measured":
        lines.append("rate-model comparison skipped: per-round error load exceeds 1")
    if oracle is not None:
        gap = np.max(np.abs(ends - oracle.f2_series()[:, -1, 0]))
        lines.append(f"trajectory-vs-oracle largest round-end |f2_data difference| = {_fmt(gap)}")
        if store == "full":
            dists = acc.trace_distances.tolist()
            lines.append("trajectory-vs-oracle trace distance per round end = " + " ".join(_fmt(d) for d in dists))
        else:
            lines.append(f"trace distances skipped: they need store = full (this run: store = {store})")
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary)
    sys.stdout.write(summary)
    return 0


def _verification_table(fault_injection: bool = False):
    """(name, schedule-like fragment, canonical matrix, n_qubits) entries."""
    cnot_steps = compile_cnot(0, 1)
    if fault_injection:
        bad = []
        for step in cnot_steps:
            terms = tuple(
                type(t)(t.kind, t.qubits, t.strength + 1e-3) if t.kind == "hadamard" else t
                for t in step.terms
            )
            bad.append(Step(terms, label=step.label))
        cnot_steps = bad

    def frag_unitary(steps, n):
        sched = GateSchedule(n, tuple(range(n)), (), tuple(steps))
        return schedule_net_unitary(sched).matrix

    measured = build_measured_round()
    mf = build_measurement_free_round()

    transversal = measured.steps[2:6]
    canon_trans = np.eye(64, dtype=complex)
    for c, t in [(0, 3), (1, 4), (2, 5)]:
        canon_trans = canonical_cnot(6, c, t) @ canon_trans

    canon_measured = canon_trans.copy()
    for c, t in [(3, 4), (3, 5)]:
        canon_measured = canonical_cnot(6, c, t) @ canon_measured

    canon_mf = np.eye(32, dtype=complex)
    for c, t in [(0, 3), (2, 4), (1, 3), (1, 4)]:
        canon_mf = canonical_cnot(5, c, t) @ canon_mf
    idx = np.arange(32)
    xq3 = np.zeros((32, 32), dtype=complex)
    xq3[idx ^ 2, idx] = 1.0
    xq4 = np.zeros((32, 32), dtype=complex)
    xq4[idx ^ 1, idx] = 1.0
    canon_mf = xq4 @ canon_mf
    canon_mf = canonical_toffoli(5, 3, 4, 0) @ canon_mf
    canon_mf = xq4 @ canon_mf
    canon_mf = canonical_toffoli(5, 3, 4, 1) @ canon_mf
    canon_mf = xq3 @ canon_mf
    canon_mf = canonical_toffoli(5, 3, 4, 2) @ canon_mf
    canon_mf = xq3 @ canon_mf

    return [
        ("CNOT", frag_unitary(cnot_steps, 2), canonical_cnot(2, 0, 1)),
        ("Toffoli", frag_unitary(compile_toffoli(0, 1, 2), 3), canonical_toffoli(3, 0, 1, 2)),
        ("transversal CNOT block", frag_unitary(transversal, 6), canon_trans),
        (
            "measured round (pre-measurement)",
            schedule_net_unitary(measured, stop=14).matrix,
            canon_measured,
        ),
        ("measurement-free round", schedule_net_unitary(mf).matrix, canon_mf),
    ]


def cmd_verify_gates(fault_injection: bool = False, dump: bool = False) -> int:
    measured = build_measured_round()
    mf = build_measurement_free_round()
    print(f"measured round steps: {len(measured)}")
    print(f"measurement-free round steps: {len(mf)}")
    if dump:
        print(dump_schedule(measured))
        print(dump_schedule(mf))
    worst = 0.0
    for name, u, canon in _verification_table(fault_injection):
        d = phase_aligned_distance(u, canon)
        worst = max(worst, d)
        status = "ok" if d < GATE_TOL else "FAIL"
        print(f"{name:36s} phase-aligned distance = {d:.3e}  [{status}]")
    if worst >= GATE_TOL:
        print(f"verification FAILED (worst distance {worst:.3e} >= {GATE_TOL})")
        return 1
    print("all gate verifications passed")
    return 0


def _write_table(path: Path, header, rows) -> None:
    """CSV of numeric rows, as `csv.writer` writes `_fmt` of each float and
    `str` of each other value: each row is one `%` format chosen by its
    value types (`%.12g` is `_fmt`, nan, inf and -0 included)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    formats = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = ",".join("%.12g" if issubclass(t, float) else "%s" for t in types) + "\r\n"
            fh.write(fmt % row)


# closed range [low, high] of each rate-model option
_RATE_OPTION_RANGES = {
    **dict.fromkeys(("n_c", "n_c_values", "Gamma_c", "gamma_h", "t_max"), (0.0, math.inf)),
    **dict.fromkeys(("alpha", "beta", "F_a"), (0.0, 1.0)),
    **dict.fromkeys(("steps", "rounds"), (1, math.inf)),
}


def _check_rate_options(args) -> None:
    """Reject a rate-model option outside its range (or not finite) as an
    invalid parameter."""
    for name, (low, high) in _RATE_OPTION_RANGES.items():
        values = getattr(args, name, None)
        for v in values if isinstance(values, list) else [values]:
            if v is not None and not (math.isfinite(v) and low <= v <= high):
                bound = f"be finite and lie in [{low}, inf)" if math.isinf(high) else f"lie in [{low}, {high}]"
                raise ConfigError(f"--{name.replace('_', '-')} must {bound}, got {v}")


def cmd_rate_model(args) -> int:
    _check_rate_options(args)
    if args.model == "slow-cooling":
        a_rate = args.Gamma_c * (args.n_c + 1.0)
        alpha = 6 * args.steps * args.gamma_h
        x = float(np.exp(-args.steps * a_rate))
        if not (alpha < 1.0 and x < 1.0):
            raise ConfigError(
                f"--gamma-h, --Gamma-c, --n-c and --steps give alpha = {_fmt(alpha)} and x = {_fmt(x)}, but "
                "slow-cooling needs alpha = 6 * steps * gamma_h < 1 and x = exp(-steps * Gamma_c * (n_c + 1)) < 1"
            )
        fss = slow_cooling_steady_fidelity(alpha, x)
        print(f"alpha (per-round ancilla error load) = {_fmt(alpha)}")
        print(f"x (per-bit cooling survival over {args.steps} steps) = {_fmt(x)}")
        print(f"self-consistent steady ancilla fidelity = {_fmt(fss)}")
        return 0
    out = Path(args.out)  # every other model writes a table
    if args.model == "cooling":
        rates = CoolingRates.from_reservoir(args.Gamma_c, args.n_c)
        P = np.zeros(8)
        P[args.initial] = 1.0
        bits = [(args.initial >> j) & 1 for j in range(3)]
        rows = []
        n_pts = 200
        for j in range(n_pts + 1):
            t = args.t_max * j / n_pts
            row = [t] + list(integrate_cooling(P, rates, t))
            if rates.B == 0:
                # at zero occupancy each excited bit survives with exp(-A t)
                x = math.exp(-rates.A * t)
                row += [math.prod(b * x if i >> k & 1 else 1.0 - b * x for k, b in enumerate(bits)) for i in range(8)]
            rows.append(row)
        header = ["t"] + [f"P{i}" for i in range(8)]
        if rates.B == 0:
            header += [f"P{i}_closed" for i in range(8)]
        _write_table(out / "cooling.csv", header, rows)
        print(f"wrote {out / 'cooling.csv'}")
        try:
            steady = _fmt(cooling_steady_state(rates)[0])
        except ValueError as exc:
            steady = f"not unique ({exc})"
        print(f"steady ancilla fidelity at n_c={args.n_c}: {steady}")
        return 0
    if args.model == "steady-fidelity":
        rows = [[n_c, ancilla_steady_fidelity(n_c)] for n_c in args.n_c_values]
        _write_table(out / "steady_fidelity.csv", ["n_c", "f2_ancilla"], rows)
        for n_c, f in rows:
            print(f"n_c = {_fmt(float(n_c))}  steady ancilla fidelity = {_fmt(f)}")
        return 0
    if args.model == "chain":
        params = RoundEventParams(args.F_a, args.alpha, args.beta if args.beta is not None else args.alpha)
        flows = flow_coefficients(event_probabilities(params))
        states = iterate_round_chain(flows, args.rounds)
        series = perturbative_weight0(np.maximum(np.arange(args.rounds + 1), 1), params.alpha)
        rows = [[n, *s, p] for n, (s, p) in enumerate(zip(states.tolist(), series.tolist()))]
        _write_table(out / "chain.csv", ["round", "P0", "Pa", "Pb", "P7", "P0_series"], rows)
        print(f"wrote {out / 'chain.csv'}")
        print(_series_line("first-round weight-0 (first-order)", first_round_weight0(params)))
        try:
            steady = chain_steady_state(flows)[0]
        except ValueError as exc:
            print(f"steady state: not unique ({exc})")
        else:
            print(f"steady state: chain fixed point = {_fmt(steady)}")
            print(f"              symmetric-ratio closed form = {_fmt(steady_weight0_ratio(flows))}")
        print(_series_line("              matched second-order series", steady_weight0_series(params.alpha), params))
        delta = chain_decay_constant(flows)
        print(f"eigenvalue delta0 = {_fmt(delta)}")
        print(_series_line("series delta0 = 1 + 42*alpha^2", decay_constant_series(params.alpha), params, False))
        if params.alpha > 0:
            print(f"(delta0 - 1)/alpha^2 = {_fmt((delta - 1) / params.alpha**2)}")
        return 0
    raise ConfigError(f"unknown rate-model subcommand {args.model!r}")


def _series_line(label: str, value: float, params: RoundEventParams | None = None, probability: bool = True) -> str:
    """`label = value` for a perturbative series, ending in "(series does not
    apply: <reasons>)" when the value is a probability outside [0, 1] or when
    the series assumes a perfect ancilla and equal error loads (`params`
    given) and the chain's F_a or beta differ."""
    reasons = []
    if probability and not 0.0 <= value <= 1.0:
        reasons.append(f"{_fmt(value)} lies outside [0, 1]")
    if params is not None and params.F_a != 1.0:
        reasons.append(f"it assumes F_a = 1, not {_fmt(params.F_a)}")
    if params is not None and params.beta != params.alpha:
        reasons.append(f"it assumes beta = alpha, not {_fmt(params.beta)}")
    line = f"{label} = {_fmt(value)}"
    return f"{line} (series does not apply: {'; '.join(reasons)})" if reasons else line


def cmd_compare(cfg: ExperimentConfig) -> int:
    if cfg.protocol != "measured":
        raise ConfigError("compare mode models the measured protocol only")
    schedule = _schedule_for(cfg)
    chain = _round_chain(cfg, schedule)
    if chain is None:
        raise ConfigError(
            f"gamma_h = {_fmt(cfg.gamma_h)} too large for the round-chain model: "
            f"need {len(schedule)} * gamma_h <= 1"
        )
    _, _, states = chain
    noise = NoiseParams(cfg.gamma_h, cfg.Gamma_c, cfg.n_c, cooling_gate=cfg.cooling)
    initial = StateVector.basis(schedule.n_qubits, 0)
    oracle = evolve_master_equation(initial.projector(), schedule, noise, rounds=cfg.rounds) if cfg.oracle else None
    acc, _ = run_ensemble(
        initial,
        cfg.rounds,
        schedule,
        noise,
        cfg.n_traj,
        master_seed=cfg.master_seed,
        store="full" if oracle is not None else "scalar",
        reference=oracle.rho_end if oracle is not None else None,
    )
    sim = acc.mean_f2_data()[:, -1]
    if oracle is not None:
        f2_oracle = oracle.f2_series()[:, -1, 0]
        dists = acc.trace_distances.tolist()
    rows = []
    for rnd in range(cfg.rounds):
        row = [rnd + 1, float(sim[rnd]), states[rnd + 1, 0]]
        if oracle is not None:
            row += [float(f2_oracle[rnd]), dists[rnd]]
        rows.append(row)
    out = Path(cfg.out)
    header = ["round", "f2_data_traj", "f2_data_chain"]
    if oracle is not None:
        header += ["f2_data_oracle", "trace_distance"]
    _write_table(out / "compare.csv", header, rows)
    for row in rows:
        print("  ".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    print(f"wrote {out / 'compare.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thermoqec", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--traj", type=int, default=None, help="override n_traj")
        p.add_argument("--oracle", action="store_true", help="also run the master-equation oracle")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("verify-gates")
    p.add_argument("--fault-injection", action="store_true", help="perturb an angle; expect failure")
    p.add_argument("--dump", action="store_true", help="print full schedules")

    p = sub.add_parser("rate-model")
    rm = p.add_subparsers(dest="model", required=True)
    c = rm.add_parser("cooling")
    c.add_argument("--n-c", dest="n_c", type=float, default=0.0)
    c.add_argument("--Gamma-c", dest="Gamma_c", type=float, default=3.0)
    c.add_argument("--t-max", dest="t_max", type=float, default=3.0)
    c.add_argument("--initial", type=int, default=7, choices=range(8))
    c.add_argument("--out", default="results")
    c = rm.add_parser("steady-fidelity")
    c.add_argument("--n-c-values", dest="n_c_values", type=float, nargs="+", default=[0.0, 1e-3, 1e-2, 1e-1])
    c.add_argument("--out", default="results")
    c = rm.add_parser("slow-cooling")
    c.add_argument("--gamma-h", dest="gamma_h", type=float, default=1e-3)
    c.add_argument("--Gamma-c", dest="Gamma_c", type=float, default=0.1)
    c.add_argument("--n-c", dest="n_c", type=float, default=1e-2)
    c.add_argument("--steps", type=int, default=16)
    c = rm.add_parser("chain")
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--beta", type=float, default=None)
    c.add_argument("--F-a", dest="F_a", type=float, default=1.0)
    c.add_argument("--rounds", type=int, default=4000)
    c.add_argument("--out", default="results")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "compare"):
            overrides: dict = {}
            if args.seed is not None:
                overrides["master_seed"] = args.seed
            if args.traj is not None:
                overrides["n_traj"] = args.traj
            if args.oracle:
                overrides["oracle"] = True
            if args.out is not None:
                overrides["out"] = args.out
            cfg = load_config(args.config, overrides)
            return cmd_run(cfg) if args.command == "run" else cmd_compare(cfg)
        if args.command == "verify-gates":
            return cmd_verify_gates(args.fault_injection, args.dump)
        if args.command == "rate-model":
            return cmd_rate_model(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
