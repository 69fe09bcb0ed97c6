"""Spans and exact work counts for a traced benchmark run, taken from outside
the program.

The tracer rebinds the names that `thermoqec.cli` imported from the config,
compiler, dynamics, metrics and ratemodel modules, so every call the CLI
makes into one of them opens a span. Calls the modules make among themselves
are left alone, which keeps the tracing cost per CLI call constant. Spans
are kept in memory and written out by the worker when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from contextlib import contextmanager
from types import FunctionType

import numpy as np

TRACED_MODULES = ("config", "compiler", "dynamics", "metrics", "ratemodel")


class Tracer:
    def __init__(self):
        self.origin = time.monotonic()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.call_tag: str | None = None  # tag of the CLI call in progress
        self.ensemble_calls: list[dict] = []
        self.oracle_calls: list[dict] = []
        self.entropy_evals = 0
        self._in_metrics = False

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "call": self.call_tag,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.monotonic() - self.origin,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic() - self.origin
            self._stack.pop()

    # --- instrumentation -----------------------------------------------------

    def count_eigensolvers(self) -> None:
        """Count the Hermitian eigenproblems solved inside the metrics layer,
        one per matrix of a stacked call. Must run before thermoqec is
        imported, so that no module holds the unwrapped functions."""
        for fname in ("eigvalsh", "eigh"):
            orig = getattr(np.linalg, fname)

            @functools.wraps(orig)
            def counted(a, *args, _orig=orig, **kwargs):
                if self._in_metrics:
                    self.entropy_evals += math.prod(np.shape(a)[:-2])
                return _orig(a, *args, **kwargs)

            setattr(np.linalg, fname, counted)

    def install(self, cli) -> None:
        for attr, obj in list(vars(cli).items()):
            if not isinstance(obj, FunctionType) or attr.startswith("_"):
                continue
            pkg, _, mod = obj.__module__.rpartition(".")
            if pkg == "thermoqec" and mod in TRACED_MODULES:
                setattr(cli, attr, self._wrap(f"{mod}.{obj.__name__}", obj))

    def _wrap(self, name: str, fn):
        if name == "dynamics.run_ensemble":
            return self._wrap_ensemble(fn)
        if name == "dynamics.evolve_master_equation":
            return self._wrap_oracle(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                if name.startswith("metrics."):
                    self._in_metrics = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._in_metrics = False

        return traced

    def _wrap_ensemble(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            with self.span("dynamics.run_ensemble") as rec:
                acc, records = fn(*args, **kwargs)
            grids = (acc.f2_data, acc.f2_anc, acc.rho_data, acc.rho_anc, acc.rho_total)
            self.ensemble_calls.append(
                {
                    "arguments": dict(bound.arguments),
                    "seconds": rec["end"] - rec["start"],
                    "f2_data": acc.f2_data.copy(),
                    "f2_anc": acc.f2_anc.copy(),
                    "acc_bytes": sum(g.nbytes for g in grids if g is not None),
                }
            )
            return acc, records

        return traced

    def _wrap_oracle(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            with self.span("dynamics.evolve_master_equation") as rec:
                result = fn(*args, **kwargs)
            schedule = bound.arguments["schedule"]
            self.oracle_calls.append(
                {
                    "measured": any(s.measure is not None for s in schedule.steps),
                    "rounds": bound.arguments["rounds"],
                    "seconds": rec["end"] - rec["start"],
                    "result": result,
                }
            )
            return result

        return traced

    # --- results -------------------------------------------------------------

    def layer_seconds(self) -> dict[str, float]:
        """Busy time per layer of the traced path."""
        out = dict.fromkeys(
            (
                "config.load_s",
                "compiler.schedule_s",
                "dynamics.ensemble_s",
                "metrics.step_metrics_s",
                "dynamics.oracle_measured_round_s",
                "dynamics.oracle_mf_round_s",
                "ratemodel.cooling_s",
                "ratemodel.chain_s",
                "cli.residual_s",
            ),
            0.0,
        )
        module_layer = {
            "config": "config.load_s",
            "compiler": "compiler.schedule_s",
            "metrics": "metrics.step_metrics_s",
        }
        for i, s in enumerate(self.spans):
            dur = s["end"] - s["start"]
            mod = s["name"].split(".")[0]
            if s["name"] == "cli.main":
                children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == i)
                out["cli.residual_s"] += dur - children
            elif s["name"] == "dynamics.run_ensemble":
                out["dynamics.ensemble_s"] += dur
            elif mod == "ratemodel":
                out["ratemodel.cooling_s" if s["call"] == "cooling" else "ratemodel.chain_s"] += dur
            elif mod in module_layer:
                out[module_layer[mod]] += dur
        for call in self.oracle_calls:
            key = "dynamics.oracle_measured_round_s" if call["measured"] else "dynamics.oracle_mf_round_s"
            out[key] += call["seconds"] / call["rounds"]
        return out

    def oracle_f2(self) -> dict[str, list]:
        """f2 series of each oracle call, keyed by protocol."""
        return {
            ("measured" if c["measured"] else "measurement_free"): c["result"].f2_series().tolist()
            for c in self.oracle_calls
        }

    def rerun_ensembles(self, run_ensemble, jump_bit_flip: str):
        """Re-run every traced `run_ensemble` call, apart from the traced path:
        once with store="scalar" (propagation without density-matrix
        accumulation) and once with record=True for the jump histories.

        Returns (propagate seconds, exact counts, problems). Both re-runs draw
        the same random numbers as the traced call, so their f2 sums must
        match it exactly; a mismatch is a problem, because it would make the
        accumulate = ensemble - propagate differential meaningless.
        """
        propagate_s = 0.0
        problems = []
        c = dict.fromkeys(
            ("traj_steps", "hot_jumps", "cold_jumps", "stream_draws", "plain_steps", "jumper_steps"), 0
        )
        for call in self.ensemble_calls:
            kw = dict(call["arguments"], store="scalar", record=False)
            t0 = time.monotonic()
            acc, _ = run_ensemble(**kw)
            propagate_s += time.monotonic() - t0
            if not _same_f2(acc, call):
                problems.append("store='scalar' rerun changed the f2_data/f2_anc sums")
            kw["record"] = True
            acc, records = run_ensemble(**kw)
            if not _same_f2(acc, call):
                problems.append("record=True rerun changed the f2_data/f2_anc sums")

            schedule, noise = kw["schedule"], kw["noise"]
            steps = len(schedule)
            cooling = noise.cooling_profile(schedule) & (noise.Gamma_c > 0) & bool(schedule.ancilla_qubits)
            n_cool = int(cooling.sum())
            traj_rounds = kw["n_traj"] * kw["rounds"]
            hot = cold = measurements = 0
            for rec in records:
                measurements += len(rec.outcomes)
                hit = set()
                for t, _, kind in rec.jumps:
                    if kind != jump_bit_flip:
                        cold += 1
                        continue
                    hot += 1
                    step = math.ceil(t - 1e-9) - 1  # jump times lie in (step, step + 1]
                    if not cooling[step % steps]:
                        hit.add(step)
                c["jumper_steps"] += len(hit)
            c["traj_steps"] += traj_rounds * steps
            c["plain_steps"] += traj_rounds * (steps - n_cool)
            c["hot_jumps"] += hot
            c["cold_jumps"] += cold
            # per step: n_sub hot-channel draws, n_sub more on a cooling step,
            # one per jump (qubit or channel choice) and one per measurement
            c["stream_draws"] += traj_rounds * kw["n_sub"] * (steps + n_cool) + hot + cold + measurements
        counts = {
            "dynamics.traj_steps": c["traj_steps"],
            "dynamics.hot_jumps": c["hot_jumps"],
            "dynamics.cold_jumps": c["cold_jumps"],
            "dynamics.jumper_share": c["jumper_steps"] / c["plain_steps"] if c["plain_steps"] else 0.0,
            "dynamics.stream_draws": c["stream_draws"],
            "metrics.entropy_evals": self.entropy_evals,
            "dynamics.acc_mb": sum(call["acc_bytes"] for call in self.ensemble_calls) / 2**20,
        }
        return propagate_s, counts, problems


def _same_f2(acc, call) -> bool:
    return np.array_equal(acc.f2_data, call["f2_data"]) and np.array_equal(acc.f2_anc, call["f2_anc"])
