"""Output checks of the benchmark.

Trajectory outputs are compared with references stored under refs/, made
at the seed commit by make_refs.py. Numeric fields may differ by TRAJ_TOL,
which admits a change of floating-point summation order; byte identity is
reported separately. Oracle values get the looser ORACLE_TOL, which admits
replacing the RK4 integrator by an exact channel (a prototype of that
differed from RK4 by 1.1e-8). The cooling curve is checked against the
exact per-bit closed form, not against a stored file.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

from workloads import COOLING_GAMMA_C, COOLING_INITIAL, COOLING_N_C, REF_DIR, master_seed

TRAJ_TOL = 1e-9
ORACLE_TOL = 1e-6
# The CLI integrates the cooling chain with 400 RK4 steps over t <= 3, which
# differs from the closed form by at most 1.7e-11 at these rates.
COOLING_TOL = 1e-10
ORACLE_COLUMNS = ("f2_data_oracle", "trace_distance")
MAX_REPORTED = 5


def ref_path(workload: str, seed: int | None, name: str) -> Path:
    """Stored reference `name` of a workload; outputs that do not depend on
    the seed (seed None) live under refs/common."""
    sub = "common" if seed is None else str(master_seed(seed))
    return REF_DIR / sub / f"{workload}.{name}"


def read_ref(path: Path) -> bytes:
    if path.suffix == ".gz":
        return gzip.decompress(path.read_bytes())
    return path.read_bytes()


def _parse(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(data: bytes, ref: bytes, tol: float = TRAJ_TOL, tol_by_column=None) -> list[str]:
    """Differences between two CSV tables beyond the per-column tolerance."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    refs = list(csv.reader(io.StringIO(ref.decode())))
    if not rows or rows[0] != refs[0]:
        return [f"header {rows[0] if rows else None} != reference {refs[0]}"]
    if len(rows) != len(refs):
        return [f"{len(rows) - 1} data rows, reference has {len(refs) - 1}"]
    header = rows[0]
    tols = [dict(tol_by_column or {}).get(name, tol) for name in header]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows[1:], refs[1:]), start=1):
        if len(row) != len(ref_row):
            problems.append(f"row {i}: {len(row)} fields, reference has {len(ref_row)}")
            continue
        for name, cell, ref_cell, t in zip(header, row, ref_row, tols):
            a, b = _parse(cell), _parse(ref_cell)
            if a is None or b is None:
                ok = cell == ref_cell
            elif math.isnan(a) or math.isnan(b):
                ok = math.isnan(a) and math.isnan(b)
            else:
                ok = abs(a - b) <= t
            if not ok:
                problems.append(f"row {i} {name}: {cell} vs reference {ref_cell} (tol {t:g})")
    if len(problems) > MAX_REPORTED:
        problems = problems[:MAX_REPORTED] + [f"... {len(problems) - MAX_REPORTED} more"]
    return problems


def oracle_distances(summary: str) -> list[float] | None:
    """Per-round trajectory-vs-oracle trace distances from a run summary."""
    for line in summary.splitlines():
        if line.startswith("trajectory-vs-oracle trace distance"):
            return [float(v) for v in line.split("=", 1)[1].split()]
    return None


def cooling_closed_form(t: float, A: float, B: float, initial: int) -> list[float]:
    """Populations of the 8 ancilla patterns after cooling for time t from
    basis state `initial`. Each bit relaxes on its own:
    p1(t) = p_ss + (p1(0) - p_ss) exp(-(A+B) t), p_ss = B / (A+B)."""
    p_ss = B / (A + B)
    decay = math.exp(-(A + B) * t)
    p1 = [p_ss + (((initial >> j) & 1) - p_ss) * decay for j in range(3)]
    return [math.prod(p1[j] if (i >> j) & 1 else 1.0 - p1[j] for j in range(3)) for i in range(8)]


def check_cooling(data: bytes, A: float, B: float, initial: int, tol: float = COOLING_TOL) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if len(rows) != 201:
        return [f"cooling.csv has {len(rows)} rows, expected 201"]
    problems = []
    for row in rows:
        t = float(row["t"])
        for i, want in enumerate(cooling_closed_form(t, A, B, initial)):
            got = float(row[f"P{i}"])
            if not abs(got - want) <= tol:
                problems.append(f"t={t:g} P{i}: {got!r} vs closed form {want!r}")
    return problems[:MAX_REPORTED]


def check_oracle_f2(series: dict, ref: dict, tol: float = ORACLE_TOL) -> list[str]:
    problems = []
    for protocol, want in ref.items():
        got = series.get(protocol)
        if got is None or len(got) != len(want):
            problems.append(f"oracle f2 series for {protocol} missing or of wrong length")
            continue
        worst = max(abs(a - b) for r1, r2 in zip(got, want) for s1, s2 in zip(r1, r2) for a, b in zip(s1, s2))
        if not worst <= tol:
            problems.append(f"oracle f2 series for {protocol} differs from reference by {worst:.3g}")
    return problems


def check_call(workload: str, seed: int, index: int, tag: str, out: Path) -> tuple[list[str], bool]:
    """Check the outputs of call `index` (tagged `tag`) of a workload that
    wrote to `out`. Returns (problems, every compared file byte-identical)."""
    name = f"{index}_{tag}"
    try:
        if tag == "cooling":
            a = COOLING_GAMMA_C * (COOLING_N_C + 1.0)
            b = COOLING_GAMMA_C * COOLING_N_C
            return check_cooling((out / "cooling.csv").read_bytes(), a, b, COOLING_INITIAL), True
        csv_name = {"compare": "compare.csv", "chain": "chain.csv"}.get(tag, "metrics.csv")
        data = (out / csv_name).read_bytes()
        ref = read_ref(ref_path(workload, None if tag == "chain" else seed, f"{name}.{csv_name}.gz"))
        tol_by_column = dict.fromkeys(ORACLE_COLUMNS, ORACLE_TOL) if tag == "compare" else None
        problems = compare_csv(data, ref, tol_by_column=tol_by_column)
        if tag == "run_oracle":
            got = oracle_distances((out / "summary.txt").read_text())
            want = json.loads(read_ref(ref_path(workload, seed, f"{name}.distances.json")))
            if got is None or len(got) != len(want) or any(abs(x - y) > ORACLE_TOL for x, y in zip(got, want)):
                problems.append(f"trajectory-vs-oracle distances {got} vs reference {want}")
        return [f"{name}: {p}" for p in problems], data == ref
    except (OSError, ValueError, KeyError, csv.Error) as exc:
        return [f"{name}: {type(exc).__name__}: {exc}"], False
