"""Closed-form and iterated analytic models for the protocol's behaviour:
the ancilla cooling chain, its fast- and slow-cooling fidelity limits, and
the per-round Markov chain over data-error weight classes.

Conventions:
  * Ancilla basis states are labelled 0..7 by their bit pattern read as a
    decimal; cooling rates are A = Gamma_c*(n_c+1) down, B = Gamma_c*n_c up.
  * The round chain tracks the data register's error weight classes
    {0, a, b, 7} = weight {0, 1, 2, 3}. Chain states store per-basis-state
    probabilities, normalized as P0 + 3*Pa + 3*Pb + P7 = 1; flow
    coefficients are class-to-class transfer probabilities (each row sums
    to 1).
  * In the flow table the a->0 coefficient of the "uncooled, two data
    errors" event is 2/9, mirroring the misprepared-ancilla column; a 2/3
    coefficient there would break row normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASS_MULTIPLICITY = np.array([1.0, 3.0, 3.0, 1.0])


@dataclass(frozen=True)
class CoolingRates:
    """Downward and upward ancilla transition rates."""

    A: float
    B: float

    def __post_init__(self):
        if not (self.A >= self.B >= 0):
            raise ValueError(f"rates must satisfy A >= B >= 0, got A={self.A}, B={self.B}")

    @classmethod
    def from_reservoir(cls, Gamma_c: float, n_c: float) -> "CoolingRates":
        return cls(Gamma_c * (n_c + 1.0), Gamma_c * n_c)


def _check_populations(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.shape != (8,):
        raise ValueError("expected 8 ancilla-state populations")
    if np.any(P < -1e-12) or np.any(P > 1 + 1e-12):
        raise ValueError("populations must lie in [0, 1]")
    if abs(P.sum() - 1.0) > 1e-9:
        raise ValueError(f"populations must sum to 1, got {P.sum()}")
    return P


def cooling_rhs(P, rates: CoolingRates) -> np.ndarray:
    """Time derivative of the 8 ancilla-state populations under cooling.

    Gains come from single-bit relaxation (rate A per excited bit) and
    excitation (rate B per ground bit) of the three ancilla qubits.
    """
    P = _check_populations(P)
    A, B = rates.A, rates.B
    d = np.zeros(8)
    d[0] = A * (P[1] + P[2] + P[4]) - 3 * B * P[0]
    d[1] = A * (P[3] + P[5]) - (A + 2 * B) * P[1] + B * P[0]
    d[2] = A * (P[3] + P[6]) - (A + 2 * B) * P[2] + B * P[0]
    d[3] = A * P[7] - (2 * A + B) * P[3] + B * (P[1] + P[2])
    d[4] = A * (P[5] + P[6]) - (A + 2 * B) * P[4] + B * P[0]
    d[5] = A * P[7] - (2 * A + B) * P[5] + B * (P[4] + P[1])
    d[6] = A * P[7] - (2 * A + B) * P[6] + B * (P[4] + P[2])
    d[7] = -3 * A * P[7] + B * (P[6] + P[5] + P[3])
    return d


def cooling_steady_state(rates: CoolingRates) -> np.ndarray:
    """Detailed-balance fixed point of the cooling chain."""
    if rates.A == 0:
        return np.full(8, 1.0 / 8.0)
    r = rates.B / rates.A
    p0 = (1.0 + r) ** -3
    out = np.empty(8)
    for state in range(8):
        out[state] = p0 * r ** bin(state).count("1")
    return out


def ancilla_steady_fidelity(n_c: float) -> float:
    """Probability of the all-ground ancilla pattern at the cooling fixed
    point, ((n_c+1)/(2 n_c+1))**3."""
    if n_c < 0:
        raise ValueError("n_c must be non-negative")
    return float(((n_c + 1.0) / (2.0 * n_c + 1.0)) ** 3)


def slow_cooling_steady_fidelity(alpha: float, x: float) -> float:
    """Self-consistent long-time ancilla fidelity in the slow-cooling
    regime: F = (1-alpha)(1-x) / (1 - alpha - x + 2*alpha*x), where alpha is
    the per-round error load on the ancilla register and x the per-bit
    survival of the cooling applied within one round."""
    if not (0 <= alpha < 1 and 0 <= x < 1):
        raise ValueError("alpha and x must lie in [0, 1)")
    den = 1.0 - alpha - x + 2.0 * alpha * x
    if abs(den) < 1e-12:
        raise ValueError("self-consistency denominator vanishes")
    return float((1.0 - alpha) * (1.0 - x) / den)


@dataclass(frozen=True)
class RoundEventParams:
    """Per-round event parameters: ancilla fidelity after cooling, ancilla
    error probability per qubit, data error probability per qubit."""

    F_a: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("F_a", "alpha", "beta"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @classmethod
    def from_physical(cls, gamma_h: float, n_c: float, steps: int = 16) -> "RoundEventParams":
        """Standard accounting: alpha = (steps-1)*gamma_h per ancilla qubit,
        beta = steps*gamma_h per data qubit, F_a from the cooling fixed
        point."""
        return cls(ancilla_steady_fidelity(n_c), (steps - 1) * gamma_h, steps * gamma_h)


def event_probabilities(params: RoundEventParams) -> dict[str, float]:
    """Probabilities of the 16 labelled round events.

    Label digits: ancilla cooled properly (1) or not (2); ancilla prepared
    properly (1) or not (2); 0/1/2/3 data errors -> 1/2/3/4. The uncooled
    branch ignores preparation, so p_21k = p_22k; summing each such pair
    once reproduces total probability 1.
    """
    Fa, a, b = params.F_a, params.alpha, params.beta
    prep_good = (1 - a) ** 3 + a**3
    prep_bad = 3 * a * (1 - a) ** 2 + 3 * a**2 * (1 - a)
    binom = ((1 - b) ** 3, 3 * b * (1 - b) ** 2, 3 * b**2 * (1 - b), b**3)
    out: dict[str, float] = {}
    for k in range(4):
        out[f"11{k + 1}"] = Fa * prep_good * binom[k]
        out[f"12{k + 1}"] = Fa * prep_bad * binom[k]
        out[f"21{k + 1}"] = (1 - Fa) * binom[k]
        out[f"22{k + 1}"] = (1 - Fa) * binom[k]
    return out


def flow_coefficients(p: dict[str, float]) -> dict[str, float]:
    """Class-to-class transfer probabilities for one round, from the 16
    event probabilities. Raises if any destination row fails to sum to 1
    within 1e-10 (inconsistent inputs)."""
    f: dict[str, float] = {}
    f["00"] = p["111"] + p["112"] + p["122"] / 3 + p["212"] / 3
    f["0a"] = p["121"] + 2 * p["123"] / 3 + p["211"] + 2 * p["213"] / 3
    f["0b"] = p["113"] + 2 * p["122"] / 3 + p["124"] + 2 * p["212"] / 3 + p["214"]
    f["07"] = p["114"] + p["123"] / 3 + p["213"] / 3
    f["a0"] = p["111"] + p["112"] / 3 + p["121"] / 3 + 2 * p["123"] / 9 + p["211"] / 3 + 2 * p["213"] / 9
    f["aa"] = 2 * p["113"] / 3 + 7 * p["122"] / 9 + 2 * p["124"] / 3 + 7 * p["212"] / 9 + 2 * p["214"] / 3
    f["ab"] = 2 * p["112"] / 3 + p["114"] + 2 * p["121"] / 3 + 7 * p["123"] / 9 + 2 * p["211"] / 3 + 7 * p["213"] / 9
    f["a7"] = p["113"] / 3 + 2 * p["122"] / 9 + p["124"] / 3 + 2 * p["212"] / 9 + p["214"] / 3
    # the code treats the all-zero and all-one codewords symmetrically
    f["b0"], f["ba"], f["bb"], f["b7"] = f["a7"], f["ab"], f["aa"], f["a0"]
    f["70"], f["7a"], f["7b"], f["77"] = f["07"], f["0b"], f["0a"], f["00"]
    for src in "0ab7":
        row = sum(f[src + dst] for dst in "0ab7")
        if abs(row - 1.0) > 1e-10:
            raise ValueError(f"flow row {src!r} sums to {row}, expected 1")
    return f


def flow_matrix(f: dict[str, float]) -> np.ndarray:
    """4x4 row-stochastic class transition matrix in order (0, a, b, 7)."""
    return np.array([[f[src + dst] for dst in "0ab7"] for src in "0ab7"])


@dataclass(frozen=True)
class RoundChainState:
    """Per-basis-state weight-class probabilities of the data register."""

    P0: float
    Pa: float
    Pb: float
    P7: float

    def __post_init__(self):
        vals = (self.P0, self.Pa, self.Pb, self.P7)
        if any(v < -1e-12 for v in vals):
            raise ValueError("probabilities must be non-negative")
        if abs(self.normalization() - 1.0) > 1e-9:
            raise ValueError(f"P0 + 3Pa + 3Pb + P7 = {self.normalization()}, expected 1")

    def normalization(self) -> float:
        return self.P0 + 3 * self.Pa + 3 * self.Pb + self.P7

    def class_vector(self) -> np.ndarray:
        """Total probability per class (0, a, b, 7)."""
        return np.array([self.P0, self.Pa, self.Pb, self.P7]) * CLASS_MULTIPLICITY

    @classmethod
    def from_class_vector(cls, v) -> "RoundChainState":
        v = np.asarray(v, dtype=float) / CLASS_MULTIPLICITY
        return cls(*v)

    @classmethod
    def pristine(cls) -> "RoundChainState":
        return cls(1.0, 0.0, 0.0, 0.0)


def iterate_round_chain(initial: RoundChainState, f: dict[str, float], rounds: int) -> list[RoundChainState]:
    """Advance the weight-class chain; returns [initial, after round 1, ...]."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    M = flow_matrix(f)
    out = [initial]
    v = initial.class_vector()
    for _ in range(rounds):
        v = v @ M
        out.append(RoundChainState.from_class_vector(v))
    return out


def chain_steady_state(f: dict[str, float]) -> RoundChainState:
    """Exact fixed point of the class chain (left eigenvector at eigenvalue 1).
    Raises ValueError when eigenvalue 1 is not simple (within 1e-9): the
    chain then has more than one fixed point."""
    M = flow_matrix(f)
    evals, vecs = np.linalg.eig(M.T)
    multiplicity = int(np.sum(np.abs(evals - 1.0) < 1e-9))
    if multiplicity > 1:
        raise ValueError(f"eigenvalue 1 of the class chain has multiplicity {multiplicity}: no unique fixed point")
    k = int(np.argmin(np.abs(evals - 1.0)))
    v = np.real(vecs[:, k])
    v = np.abs(v) / np.abs(v).sum()
    return RoundChainState.from_class_vector(v)


def chain_decay_constant(f: dict[str, float]) -> float:
    """Per-round decay constant of the slow relaxation mode: the inverse of
    the subdominant eigenvalue magnitude of the class chain. Infinite when
    that magnitude is below 1e-12, the roundoff of a zero eigenvalue: the
    chain then has no slow mode and reaches its fixed point within three
    rounds."""
    lam = sorted(np.abs(np.linalg.eigvals(flow_matrix(f))))[-2]
    return float(1.0 / lam) if lam >= 1e-12 else np.inf


def steady_weight0_ratio(f: dict[str, float]) -> float:
    """Closed-form weight-0 fixed point of the codeword-symmetric chain:
    (f_a0 + f_a7) / (2 * (f_0a + f_0b + f_a0 + f_a7))."""
    num = f["a0"] + f["a7"]
    den = f["0a"] + f["0b"] + f["a0"] + f["a7"]
    return float(0.5 * num / den)


def steady_weight0_series(alpha: float) -> float:
    """Second-order series (1 - 3*alpha + 24*alpha**2) / 2 for the steady
    weight-0 occupation, as produced by term-by-term exponential matching of
    the transient. It is not the chain's fixed point: at F_a = 1 and
    alpha = beta the exact expansion of steady_weight0_ratio is
    (1 - 3*alpha + 24*alpha**3)/2 + O(alpha**4), with no alpha**2 term;
    see the calibration tests."""
    return 0.5 * (1.0 - 3.0 * alpha + 24.0 * alpha**2)


def decay_constant_series(alpha: float) -> float:
    """Second-order series for the slow decay constant, 1 + 42*alpha**2."""
    return 1.0 + 42.0 * alpha**2


def perturbative_weight0(n: int, alpha: float) -> float:
    """Second-order series for the weight-0 occupation after n rounds with
    a perfect ancilla and equal error loads: 1 - 3*alpha + (33-21n)*alpha^2.
    Matches the exact chain to O(alpha^2) for n >= 2."""
    if n < 1:
        raise ValueError("round count must be at least 1")
    return 1.0 - 3.0 * alpha + (33.0 - 21.0 * n) * alpha**2


def first_round_weight0(params: RoundEventParams) -> float:
    """First-order weight-0 occupation after one round from a pristine
    register: F_a * (1 - 3*alpha - beta) + beta."""
    return params.F_a * (1.0 - 3.0 * params.alpha - params.beta) + params.beta


def integrate_cooling(P0, rates: CoolingRates, t: float) -> np.ndarray:
    """Exact populations after cooling for time t from populations P0.

    The three ancilla bits relax independently, so the map is the Kronecker
    cube of one bit's 2x2 transfer matrix: the excited probability follows
    p1(t) = p_ss + (p1(0) - p_ss) exp(-(A+B) t) with p_ss = B/(A+B).
    """
    P = _check_populations(P0)
    k = rates.A + rates.B
    if k == 0:
        return P.copy()
    relaxed = -np.expm1(-k * t)  # weight moved toward the bit's steady state
    up, down = rates.B / k * relaxed, rates.A / k * relaxed
    bit = np.array([[1.0 - up, down], [up, 1.0 - down]])  # [final, initial]
    return np.kron(np.kron(bit, bit), bit) @ P

