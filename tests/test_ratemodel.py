import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoqec.ratemodel import (
    PRISTINE,
    CoolingRates,
    RoundEventParams,
    ancilla_steady_fidelity,
    chain_decay_constant,
    chain_steady_state,
    cooling_rhs,
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

probabilities = st.floats(0.0, 1.0, allow_nan=False)
small_rates = st.floats(1e-5, 0.05, allow_nan=False)


def random_populations(rng):
    p = rng.random(8)
    return p / p.sum()


class TestCoolingChain:
    def test_rates_ordering_enforced(self):
        with pytest.raises(ValueError):
            CoolingRates(1.0, 2.0)
        with pytest.raises(ValueError):
            CoolingRates(-1.0, -2.0)

    def test_steady_state_annihilates_rhs(self):
        rates = CoolingRates.from_reservoir(3.0, 0.25)
        ss = cooling_steady_state(rates)
        assert np.max(np.abs(cooling_rhs(ss, rates))) < 1e-12

    def test_ground_state_absorbing_at_zero_temperature(self):
        rates = CoolingRates(2.0, 0.0)
        P = np.zeros(8)
        P[0] = 1.0
        assert np.max(np.abs(cooling_rhs(P, rates))) == 0.0

    def test_uniform_fixed_point_at_infinite_temperature(self):
        rates = CoolingRates(1.5, 1.5)
        P = np.full(8, 1 / 8)
        assert np.max(np.abs(cooling_rhs(P, rates))) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_probability_conserved(self, seed):
        rng = np.random.default_rng(seed)
        P = random_populations(rng)
        rates = CoolingRates.from_reservoir(rng.uniform(0.1, 5), rng.uniform(0, 1))
        assert abs(cooling_rhs(P, rates).sum()) < 1e-14

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_symmetry_classes_preserved(self, seed):
        rng = np.random.default_rng(seed)
        p0, pa, pb, p7 = rng.random(4)
        total = p0 + 3 * pa + 3 * pb + p7
        P = np.array([p0, pa, pa, pb, pa, pb, pb, p7]) / total
        d = cooling_rhs(P, CoolingRates.from_reservoir(2.0, 0.3))
        assert abs(d[1] - d[2]) < 1e-12 and abs(d[1] - d[4]) < 1e-12
        assert abs(d[3] - d[5]) < 1e-12 and abs(d[3] - d[6]) < 1e-12

    def test_no_fixed_point_without_cooling(self):
        # Gamma_c = 0: every population is stationary, so no state is singled out
        rates = CoolingRates.from_reservoir(0.0, 0.5)
        P = np.array([0.5, 0, 0, 0.25, 0, 0, 0, 0.25])
        assert np.max(np.abs(cooling_rhs(P, rates))) == 0.0
        with pytest.raises(ValueError, match="Gamma_c = 0: no cooling"):
            cooling_steady_state(rates)

    def test_integration_converges_to_steady_state(self):
        rates = CoolingRates.from_reservoir(1.0, 0.2)
        ss = cooling_steady_state(rates)
        for start in (0, 3, 7):
            P = np.zeros(8)
            P[start] = 1.0
            out = integrate_cooling(P, rates, 40.0 / rates.A)
            assert np.max(np.abs(out - ss)) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_map_composes_over_time(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        P = random_populations(rng)
        rates = CoolingRates.from_reservoir(rng.uniform(0.1, 5), rng.uniform(0, 1))
        whole = integrate_cooling(P, rates, t1 + t2)
        split = integrate_cooling(integrate_cooling(P, rates, t1), rates, t2)
        assert np.max(np.abs(whole - split)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 2.0))
    def test_time_derivative_is_the_rate_equation(self, seed, t):
        # central difference of the exact map against the generator at B > 0
        rng = np.random.default_rng(seed)
        P = random_populations(rng)
        rates = CoolingRates.from_reservoir(rng.uniform(0.1, 5), rng.uniform(0.01, 1))
        h = 1e-5
        mid = t + h
        deriv = (integrate_cooling(P, rates, mid + h) - integrate_cooling(P, rates, mid - h)) / (2 * h)
        assert np.max(np.abs(deriv - cooling_rhs(integrate_cooling(P, rates, mid), rates))) < 1e-6


class TestAncillaSteadyFidelity:
    def test_zero_temperature(self):
        assert ancilla_steady_fidelity(0.0) == 1.0

    def test_reference_value(self):
        assert abs(ancilla_steady_fidelity(1e-2) - 0.9708756436) < 1e-9

    def test_infinite_temperature_limit(self):
        assert abs(ancilla_steady_fidelity(1e9) - 1 / 8) < 1e-8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ancilla_steady_fidelity(-0.1)


def cooled_from(initial, A, t):
    """Populations after cooling for time t from basis state `initial` at
    zero occupancy (B = 0)."""
    P = np.zeros(8)
    P[initial] = 1.0
    return integrate_cooling(P, CoolingRates(A, 0.0), t)


class TestCoolingClosedForm:
    """The exact cooling map at zero occupancy: independent bit decays."""

    def test_ground_state_stays(self):
        for t in (0.0, 0.7, 5.0):
            out = cooled_from(0, 2.0, t)
            assert out[0] == 1.0 and out.sum() == 1.0

    def test_single_excitation_boundaries(self):
        out = cooled_from(1, 3.0, 0.0)
        assert out[1] == 1.0
        out = cooled_from(1, 3.0, 100.0)
        assert abs(out[0] - 1.0) < 1e-12

    def test_single_excitation_decay_law(self):
        out = cooled_from(4, 2.0, 0.5)
        assert abs(out[4] - np.exp(-1.0)) < 1e-12
        assert abs(out[0] - (1 - np.exp(-1.0))) < 1e-12

    def test_triple_excitation_values(self):
        out = cooled_from(7, 1.0, 1.0)
        assert abs(out[7] - 0.049787068368) < 1e-9
        assert abs(out[0] - 0.252580457828) < 1e-9
        # binomial structure: three independent decays
        x = np.exp(-1.0)
        assert abs(out[0] - (1 - x) ** 3) < 1e-12

    def test_double_excitation_components(self):
        x = np.exp(-0.8)
        out = cooled_from(3, 1.0, 0.8)
        assert abs(out[3] - x**2) < 1e-12
        assert abs(out[1] - x * (1 - x)) < 1e-12
        assert abs(out[2] - x * (1 - x)) < 1e-12
        assert abs(out[0] - (1 - x) ** 2) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 7), st.floats(0.01, 5.0), st.floats(0.0, 10.0))
    def test_normalized(self, i, A, t):
        out = cooled_from(i, A, t)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= -1e-15)


class TestSlowCooling:
    def test_instant_cooling_limit(self):
        assert slow_cooling_steady_fidelity(0.1, 0.0) == pytest.approx(1.0)

    def test_no_cooling_limit(self):
        assert slow_cooling_steady_fidelity(0.1, 1 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_reference_value(self):
        # alpha = 96e-3, x = exp(-1.6)
        assert abs(slow_cooling_steady_fidelity(0.096, np.exp(-1.6)) - 0.9738386921) < 1e-9

    def test_self_consistency(self):
        alpha, x = 0.07, 0.3
        f = slow_cooling_steady_fidelity(alpha, x)
        rhs = f * (1 - alpha) + ((1 - f) * (1 - alpha) + f * alpha) * (1 - x)
        assert abs(f - rhs) < 1e-12

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            slow_cooling_steady_fidelity(1.0, 0.5)
        with pytest.raises(ValueError):
            slow_cooling_steady_fidelity(0.5, 1.0)


class TestEventProbabilities:
    def test_perfect_round(self):
        p = event_probabilities(RoundEventParams(1.0, 0.0, 0.0))
        assert p["111"] == 1.0
        assert all(v == 0.0 for k, v in p.items() if k != "111")

    def test_binomial_data_errors(self):
        beta = 0.2
        p = event_probabilities(RoundEventParams(1.0, 0.0, beta))
        assert p["111"] == pytest.approx((1 - beta) ** 3)
        assert p["112"] == pytest.approx(3 * beta * (1 - beta) ** 2)
        assert p["113"] == pytest.approx(3 * beta**2 * (1 - beta))
        assert p["114"] == pytest.approx(beta**3)

    def test_uncooled_branch_ignores_alpha(self):
        pa = event_probabilities(RoundEventParams(0.0, 0.3, 0.1))
        pb = event_probabilities(RoundEventParams(0.0, 0.9, 0.1))
        for k in ("211", "212", "213", "214"):
            assert pa[k] == pb[k] > 0
        assert all(v == 0 for k, v in pa.items() if k.startswith("1"))

    def test_degenerate_pairs_and_normalization(self):
        p = event_probabilities(RoundEventParams(0.7, 0.05, 0.08))
        for k in range(1, 5):
            assert p[f"21{k}"] == p[f"22{k}"]
        total = sum(v for k, v in p.items() if not k.startswith("22"))
        assert abs(total - 1.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(probabilities, st.floats(0, 0.5), st.floats(0, 0.5))
    def test_all_in_unit_interval(self, fa, alpha, beta):
        p = event_probabilities(RoundEventParams(fa, alpha, beta))
        assert all(0.0 <= v <= 1.0 for v in p.values())


CLASSES = "0ab7"


def entry(m, src, dst):
    """Flow src -> dst of the class transfer matrix."""
    return m[CLASSES.index(src), CLASSES.index(dst)]


class TestFlowCoefficients:
    def test_perfect_round_corrects_single_errors(self):
        m = flow_coefficients(event_probabilities(RoundEventParams(1.0, 0.0, 0.0)))
        assert m.shape == (4, 4)
        assert entry(m, "0", "0") == 1.0 and entry(m, "a", "0") == 1.0
        assert entry(m, "7", "7") == 1.0 and entry(m, "b", "7") == 1.0

    @settings(max_examples=30, deadline=None)
    @given(probabilities, st.floats(0, 0.4), st.floats(0, 0.4))
    def test_rows_sum_to_one(self, fa, alpha, beta):
        m = flow_coefficients(event_probabilities(RoundEventParams(fa, alpha, beta)))
        assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(probabilities, st.floats(0, 0.4), st.floats(0, 0.4))
    def test_codeword_swap_symmetry(self, fa, alpha, beta):
        m = flow_coefficients(event_probabilities(RoundEventParams(fa, alpha, beta)))
        assert entry(m, "7", "7") == entry(m, "0", "0")
        assert entry(m, "7", "0") == entry(m, "0", "7")
        assert entry(m, "b", "0") == entry(m, "a", "7")
        assert entry(m, "b", "b") == entry(m, "a", "a")
        # swapping the codewords reverses the class order
        assert np.array_equal(m[::-1, ::-1], m)

    def test_inconsistent_input_rejected(self):
        p = event_probabilities(RoundEventParams(0.9, 0.02, 0.03))
        p["111"] += 0.25
        with pytest.raises(ValueError):
            flow_coefficients(p)


def normalization(states):
    """P0 + 3Pa + 3Pb + P7 of each chain state."""
    return states @ [1.0, 3.0, 3.0, 1.0]


class TestRoundChain:
    @pytest.mark.parametrize(
        "initial, match",
        [
            ((0.5, 0.5, 0.0, 0.0), r"P0 \+ 3Pa \+ 3Pb \+ P7 = 2.0, expected 1"),
            ((1.2, -0.1, 0.0, 0.1), "non-negative"),
            ((1.0, 0.0, 0.0), "4 entries"),
        ],
    )
    def test_initial_state_checked(self, initial, match):
        m = flow_coefficients(event_probabilities(RoundEventParams(0.97, 0.015, 0.016)))
        with pytest.raises(ValueError, match=match):
            iterate_round_chain(m, 3, initial)

    def test_rounds_must_be_non_negative(self):
        with pytest.raises(ValueError, match="rounds must be non-negative"):
            iterate_round_chain(np.eye(4), -1)

    def test_states_array(self):
        m = flow_coefficients(event_probabilities(RoundEventParams(0.97, 0.015, 0.016)))
        states = iterate_round_chain(m, 7)
        assert states.shape == (8, 4)
        assert tuple(states[0]) == PRISTINE
        assert iterate_round_chain(m, 0).shape == (1, 4)

    def test_identity_flows_fix_everything(self):
        start = (0.4, 0.1, 0.1, 0.0)
        states = iterate_round_chain(np.eye(4), 5, start)
        assert np.allclose(states, start, atol=1e-15)

    def test_normalization_preserved(self):
        m = flow_coefficients(event_probabilities(RoundEventParams(0.97, 0.015, 0.016)))
        states = iterate_round_chain(m, 200)
        assert np.abs(normalization(states) - 1.0).max() < 1e-10

    def test_first_iterate_is_f00_and_matches_first_order(self):
        gamma = 1e-3
        params = RoundEventParams.from_physical(gamma, 1e-2)
        m = flow_coefficients(event_probabilities(params))
        states = iterate_round_chain(m, 1)
        assert states[1, 0] == pytest.approx(entry(m, "0", "0"), abs=1e-15)
        first_order = first_round_weight0(params)
        # agreement to first order: the gap carries the neglected second-
        # order terms, bounded by the square of the total error load
        assert abs(states[1, 0] - first_order) < (3 * params.alpha + params.beta) ** 2

    def test_fixed_point_independent_of_start(self):
        m = flow_coefficients(event_probabilities(RoundEventParams(1.0, 2e-2, 2e-2)))
        ss = chain_steady_state(m)
        for start in (PRISTINE, (0.0, 0.0, 0.0, 1.0), (0.25, 0.125, 0.0625, 0.1875)):
            out = iterate_round_chain(m, 30000, start)[-1]
            assert abs(out[0] - ss[0]) < 1e-8

    def test_fixed_point_swap_invariant(self):
        m = flow_coefficients(event_probabilities(RoundEventParams(0.95, 1e-2, 1.5e-2)))
        p0, pa, pb, p7 = chain_steady_state(m)
        assert p0 == pytest.approx(p7, abs=1e-12)
        assert pa == pytest.approx(pb, abs=1e-12)
        assert normalization(chain_steady_state(m)) == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_must_be_unique(self):
        # error-free rounds with perfect cooling absorb both codewords, and
        # rounds that flip every data qubit swap 0 with 7 and a with b: two
        # fixed points each
        for params in (RoundEventParams(1.0, 0.0, 0.0), RoundEventParams(1.0, 0.0, 1.0)):
            m = flow_coefficients(event_probabilities(params))
            with pytest.raises(ValueError, match="multiplicity 2: no unique fixed point"):
                chain_steady_state(m)
        # never-cooled ancillas give a period-2 mode, eigenvalue -1, beside
        # a simple eigenvalue 1
        m = flow_coefficients(event_probabilities(RoundEventParams(0.0, 0.0, 0.0)))
        assert np.min(np.abs(np.linalg.eigvals(m) + 1.0)) < 1e-12
        v = chain_steady_state(m) * [1.0, 3.0, 3.0, 1.0]  # total probability per class
        assert np.abs(v @ m - v).max() < 1e-12

    def test_error_free_chain_absorbs_codewords(self):
        m = flow_coefficients(event_probabilities(RoundEventParams(1.0, 0.0, 0.0)))
        one = iterate_round_chain(m, 1, (0.0, 1 / 3, 0.0, 0.0))[1]
        assert one[0] == 1.0
        assert m[0, 0] == 1.0 and m[3, 3] == 1.0

    def test_steady_state_closed_form_ratio(self):
        # the symmetric-chain ratio reproduces the exact fixed point
        m = flow_coefficients(event_probabilities(RoundEventParams(1.0, 1e-3, 1e-3)))
        assert steady_weight0_ratio(m) == pytest.approx(chain_steady_state(m)[0], abs=1e-10)
        # frozen value: 0.5*(1 - 3a) + O(a^3), not the matched 24 a^2 series
        assert chain_steady_state(m)[0] == pytest.approx(0.49850001197, abs=1e-9)
        assert abs(steady_weight0_series(1e-3) - 0.498512) < 1e-12


class TestChainPerturbativeForms:
    def test_decay_constant_second_order(self):
        for alpha in (5e-4, 1e-3, 2e-3):
            f = flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))
            delta = chain_decay_constant(f)
            assert abs((delta - 1.0) / alpha**2 - 42.0) <= 2.0
            assert decay_constant_series(alpha) == pytest.approx(1 + 42 * alpha**2)

    def test_decay_constant_is_the_iterated_tail_ratio(self):
        # once the fast modes have decayed, successive deviations of the
        # iterated chain from its fixed point shrink by exactly delta0
        f = flow_coefficients(event_probabilities(RoundEventParams(1.0, 1e-3, 1e-3)))
        seq = iterate_round_chain(f, 3000)[:, 0]
        p_ss, delta = chain_steady_state(f)[0], chain_decay_constant(f)
        for n in (1000, 2000, 3000):
            assert (seq[n - 1] - p_ss) / (seq[n] - p_ss) == pytest.approx(delta, abs=1e-12)

    def test_decay_constant_of_an_oscillating_tail(self):
        # F_a = 0: the slow eigenvalue is -0.994, so the deviation flips sign
        # every round while its magnitude shrinks by delta0
        f = flow_coefficients(event_probabilities(RoundEventParams(0.0, 1e-3, 1e-3)))
        seq = iterate_round_chain(f, 200)[:, 0]
        p_ss, delta = chain_steady_state(f)[0], chain_decay_constant(f)
        assert delta == pytest.approx(1.00602408024, abs=1e-10)
        for n in (50, 100, 200):
            assert (seq[n - 1] - p_ss) / (seq[n] - p_ss) == pytest.approx(-delta, abs=1e-12)

    def test_decay_constant_of_a_chain_without_slow_mode(self):
        # F_a = 0, beta = 1/2: every class moves to the same distribution in
        # one round, so every eigenvalue but 1 is 0 (computed as 4e-17)
        f = flow_coefficients(event_probabilities(RoundEventParams(0.0, 0.3, 0.5)))
        assert chain_decay_constant(f) == np.inf
        assert chain_steady_state(f)[0] == pytest.approx(0.125, abs=1e-15)

    def test_perturbative_weight0_values(self):
        assert perturbative_weight0(5, 0.0) == 1.0
        assert perturbative_weight0(1, 1e-3) == pytest.approx(0.997012, abs=1e-12)
        rounds = np.array([1, 2, 5])
        assert perturbative_weight0(rounds, 1e-3).tolist() == [perturbative_weight0(n, 1e-3) for n in (1, 2, 5)]
        for n in (0, np.array([3, 0])):
            with pytest.raises(ValueError, match="at least 1"):
                perturbative_weight0(n, 1e-3)

    def test_perturbative_weight0_tracks_chain(self):
        # exact to O(alpha^2) for n >= 2; the residual grows like n*alpha^3
        alpha = 1e-3
        f = flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))
        p0 = iterate_round_chain(f, 20)[:, 0]
        for n in range(2, 21):
            gap = abs(perturbative_weight0(n, alpha) - p0[n])
            assert gap < 350 * n * alpha**3, (n, gap)
        # frozen chain references
        assert p0[2] == pytest.approx(0.9969910758171, abs=1e-12)
        assert p0[20] == pytest.approx(0.9966189844259, abs=1e-12)

    def test_first_round_value(self):
        params = RoundEventParams(ancilla_steady_fidelity(1e-2), 15e-3, 16e-3)
        assert first_round_weight0(params) == pytest.approx(0.9276522293, abs=1e-9)
