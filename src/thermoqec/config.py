"""Experiment configuration: flat INI-style files with one [experiment]
section, schema-validated with unknown keys rejected."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .dynamics import COOLING_MODES

PROTOCOLS = ("measured", "measurement_free")
STORE_MODES = ("auto", "full", "reduced", "scalar")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str = "measured"
    gamma_h: float = 1e-3
    Gamma_c: float = 3.0
    n_c: float = 0.0
    rounds: int = 5
    n_traj: int = 100
    master_seed: int = 1
    oracle: bool = False
    cooling: str = "window"
    store: str = "auto"
    out: str = "results"

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        for name in ("gamma_h", "Gamma_c", "n_c"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be a finite non-negative number, got {v!r}")
        for name in ("rounds", "n_traj"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be an integer in [0, 2**64), got {self.master_seed!r}")
        if self.cooling not in COOLING_MODES:
            raise ConfigError(f"cooling must be one of {COOLING_MODES}, got {self.cooling!r}")
        if self.store not in STORE_MODES:
            raise ConfigError(f"store must be one of {STORE_MODES}, got {self.store!r}")

    def resolved_store(self, n_steps: int) -> str:
        """Concrete accumulator store mode for the `auto` policy, bounded by
        memory growth with round count."""
        if self.store != "auto":
            return self.store
        cells = self.rounds * n_steps
        if cells <= 2048:
            return "full"
        if cells <= 32768:
            return "reduced"
        return "scalar"


_BOOL_STATES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; `overrides` replaces single keys
    (used for CLI flags)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # physics parameters are case-sensitive
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    sections = parser.sections()
    if sections != ["experiment"]:
        raise ConfigError(f"expected exactly one [experiment] section, found {sections}")

    known = get_type_hints(ExperimentConfig)
    values: dict = {}
    for key, raw in parser.items("experiment"):
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {path}")
        values[key] = _convert(key, raw, known[key])
    if overrides:
        for key, val in overrides.items():
            if key not in known:
                raise ConfigError(f"unknown override {key!r}")
            values[key] = val
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _convert(key: str, raw: str, kind: type):
    raw = raw.strip()
    if kind is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc
    if kind is float:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number, got {raw!r}") from exc
    if kind is bool:
        if raw.lower() not in _BOOL_STATES:
            raise ConfigError(f"{key} must be a boolean, got {raw!r}")
        return _BOOL_STATES[raw.lower()]
    return raw
