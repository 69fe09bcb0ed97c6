import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoqec.ratemodel import (
    CoolingRates,
    RoundChainState,
    RoundEventParams,
    ancilla_steady_fidelity,
    chain_decay_constant,
    chain_steady_state,
    cooling_closed_form,
    cooling_rhs,
    cooling_steady_state,
    decay_constant_series,
    event_probabilities,
    first_round_weight0,
    fit_decay_constant,
    flow_coefficients,
    flow_matrix,
    integrate_cooling,
    iterate_round_chain,
    perturbative_weight0,
    slow_cooling_fidelity,
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


class TestCoolingClosedForm:
    def test_ground_state_stays(self):
        for t in (0.0, 0.7, 5.0):
            out = cooling_closed_form(0, 2.0, t)
            assert out[0] == 1.0 and out.sum() == 1.0

    def test_single_excitation_boundaries(self):
        out = cooling_closed_form(1, 3.0, 0.0)
        assert out[1] == 1.0
        out = cooling_closed_form(1, 3.0, 100.0)
        assert abs(out[0] - 1.0) < 1e-12

    def test_single_excitation_decay_law(self):
        out = cooling_closed_form(4, 2.0, 0.5)
        assert abs(out[4] - np.exp(-1.0)) < 1e-12
        assert abs(out[0] - (1 - np.exp(-1.0))) < 1e-12

    def test_triple_excitation_values(self):
        out = cooling_closed_form(7, 1.0, 1.0)
        assert abs(out[7] - 0.049787068368) < 1e-9
        assert abs(out[0] - 0.252580457828) < 1e-9
        # binomial structure: three independent decays
        x = np.exp(-1.0)
        assert abs(out[0] - (1 - x) ** 3) < 1e-12

    def test_double_excitation_components(self):
        x = np.exp(-0.8)
        out = cooling_closed_form(3, 1.0, 0.8)
        assert abs(out[3] - x**2) < 1e-12
        assert abs(out[1] - x * (1 - x)) < 1e-12
        assert abs(out[2] - x * (1 - x)) < 1e-12
        assert abs(out[0] - (1 - x) ** 2) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 7), st.floats(0.01, 5.0), st.floats(0.0, 10.0))
    def test_normalized(self, i, A, t):
        out = cooling_closed_form(i, A, t)
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

    def test_weight_resolved_fidelity(self):
        x = 0.4
        assert slow_cooling_fidelity((1, 0, 0, 0), x) == 1.0
        assert slow_cooling_fidelity((0, 0, 0, 1), x) == pytest.approx((1 - x) ** 3)
        assert slow_cooling_fidelity((0, 0, 0, 1), x, literal_quadratic=True) == pytest.approx(
            (1 - x) ** 2
        )


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


class TestFlowCoefficients:
    def test_perfect_round_corrects_single_errors(self):
        f = flow_coefficients(event_probabilities(RoundEventParams(1.0, 0.0, 0.0)))
        assert f["00"] == 1.0 and f["a0"] == 1.0
        assert f["77"] == 1.0 and f["b7"] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(probabilities, st.floats(0, 0.4), st.floats(0, 0.4))
    def test_rows_sum_to_one(self, fa, alpha, beta):
        f = flow_coefficients(event_probabilities(RoundEventParams(fa, alpha, beta)))
        for src in "0ab7":
            assert abs(sum(f[src + dst] for dst in "0ab7") - 1.0) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(probabilities, st.floats(0, 0.4), st.floats(0, 0.4))
    def test_codeword_swap_symmetry(self, fa, alpha, beta):
        f = flow_coefficients(event_probabilities(RoundEventParams(fa, alpha, beta)))
        assert f["77"] == f["00"]
        assert f["70"] == f["07"]
        assert f["b0"] == f["a7"]
        assert f["bb"] == f["aa"]

    def test_inconsistent_input_rejected(self):
        p = event_probabilities(RoundEventParams(0.9, 0.02, 0.03))
        p["111"] += 0.25
        with pytest.raises(ValueError):
            flow_coefficients(p)


class TestRoundChain:
    def test_per_state_normalization_enforced(self):
        with pytest.raises(ValueError):
            RoundChainState(0.5, 0.5, 0.0, 0.0)
        s = RoundChainState(0.4, 0.1, 0.1, 0.0)
        assert abs(s.normalization() - 1.0) < 1e-12

    def test_identity_flows_fix_everything(self):
        f = {a + b: 1.0 if a == b else 0.0 for a in "0ab7" for b in "0ab7"}
        start = RoundChainState(0.4, 0.1, 0.1, 0.0)
        states = iterate_round_chain(start, f, 5)
        for s in states:
            assert np.allclose(
                [s.P0, s.Pa, s.Pb, s.P7], [start.P0, start.Pa, start.Pb, start.P7], atol=1e-15
            )

    def test_normalization_preserved(self):
        f = flow_coefficients(event_probabilities(RoundEventParams(0.97, 0.015, 0.016)))
        states = iterate_round_chain(RoundChainState.pristine(), f, 200)
        assert all(abs(s.normalization() - 1.0) < 1e-10 for s in states)

    def test_first_iterate_is_f00_and_matches_first_order(self):
        gamma = 1e-3
        params = RoundEventParams.from_physical(gamma, 1e-2)
        f = flow_coefficients(event_probabilities(params))
        states = iterate_round_chain(RoundChainState.pristine(), f, 1)
        assert states[1].P0 == pytest.approx(f["00"], abs=1e-15)
        first_order = first_round_weight0(1e-2, params.alpha, params.beta)
        # agreement to first order: the gap carries the neglected second-
        # order terms, bounded by the square of the total error load
        assert abs(states[1].P0 - first_order) < (3 * params.alpha + params.beta) ** 2

    def test_fixed_point_independent_of_start(self):
        f = flow_coefficients(event_probabilities(RoundEventParams(1.0, 2e-2, 2e-2)))
        ss = chain_steady_state(f)
        for start in (
            RoundChainState.pristine(),
            RoundChainState(0.0, 0.0, 0.0, 1.0),
            RoundChainState(0.25, 0.125, 0.0625, 0.1875),
        ):
            out = iterate_round_chain(start, f, 30000)[-1]
            assert abs(out.P0 - ss.P0) < 1e-8

    def test_fixed_point_swap_invariant(self):
        f = flow_coefficients(event_probabilities(RoundEventParams(0.95, 1e-2, 1.5e-2)))
        ss = chain_steady_state(f)
        assert ss.P0 == pytest.approx(ss.P7, abs=1e-12)
        assert ss.Pa == pytest.approx(ss.Pb, abs=1e-12)

    def test_error_free_chain_absorbs_codewords(self):
        f = flow_coefficients(event_probabilities(RoundEventParams(1.0, 0.0, 0.0)))
        one = iterate_round_chain(RoundChainState(0.0, 1 / 3, 0.0, 0.0), f, 1)[1]
        assert one.P0 == 1.0
        m = flow_matrix(f)
        assert m[0, 0] == 1.0 and m[3, 3] == 1.0

    def test_steady_state_closed_form_ratio(self):
        # the symmetric-chain ratio reproduces the exact fixed point
        f = flow_coefficients(event_probabilities(RoundEventParams(1.0, 1e-3, 1e-3)))
        assert steady_weight0_ratio(f) == pytest.approx(chain_steady_state(f).P0, abs=1e-10)
        # frozen value: 0.5*(1 - 3a) + O(a^3), not the matched 24 a^2 series
        assert chain_steady_state(f).P0 == pytest.approx(0.49850001197, abs=1e-9)
        assert abs(steady_weight0_series(1e-3) - 0.498512) < 1e-12


class TestChainPerturbativeForms:
    def test_decay_constant_second_order(self):
        for alpha in (5e-4, 1e-3, 2e-3):
            f = flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))
            delta = chain_decay_constant(f)
            assert abs((delta - 1.0) / alpha**2 - 42.0) <= 2.0
            assert decay_constant_series(alpha) == pytest.approx(1 + 42 * alpha**2)

    def test_perturbative_weight0_values(self):
        assert perturbative_weight0(5, 0.0) == 1.0
        assert perturbative_weight0(1, 1e-3) == pytest.approx(0.997012, abs=1e-12)

    def test_perturbative_weight0_tracks_chain(self):
        # exact to O(alpha^2) for n >= 2; the residual grows like n*alpha^3
        alpha = 1e-3
        f = flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))
        states = iterate_round_chain(RoundChainState.pristine(), f, 20)
        for n in range(2, 21):
            gap = abs(perturbative_weight0(n, alpha) - states[n].P0)
            assert gap < 350 * n * alpha**3, (n, gap)
        # frozen chain references
        assert states[2].P0 == pytest.approx(0.9969910758171, abs=1e-12)
        assert states[20].P0 == pytest.approx(0.9966189844259, abs=1e-12)

    def test_first_round_value(self):
        assert first_round_weight0(1e-2, 15e-3, 16e-3) == pytest.approx(0.9276522293, abs=1e-9)


class TestFitDecayConstant:
    def test_recovers_synthetic_geometric(self):
        n = np.arange(300)
        seq = 0.25 + 0.5 * 1.001 ** (-n)
        p_ss, delta = fit_decay_constant(seq, 0)
        assert abs(delta - 1.001) < 1e-6
        assert abs(p_ss - 0.25) < 1e-9

    def test_matches_chain_eigenvalue(self):
        alpha = 1e-3
        f = flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))
        seq = [s.P0 for s in iterate_round_chain(RoundChainState.pristine(), f, 3000)]
        p_ss, delta = fit_decay_constant(seq, 4)
        assert abs(delta - chain_decay_constant(f)) < 1e-8
        assert abs(p_ss - chain_steady_state(f).P0) < 1e-6

    def test_second_order_coefficient_window(self):
        for alpha in (5e-4, 1e-3, 2e-3):
            f = flow_coefficients(event_probabilities(RoundEventParams(1.0, alpha, alpha)))
            seq = [s.P0 for s in iterate_round_chain(RoundChainState.pristine(), f, 3000)]
            _, delta = fit_decay_constant(seq, 4)
            assert abs((delta - 1.0) / alpha**2 - 42.0) <= 2.0

    def test_rejects_non_monotone_tail(self):
        n = np.arange(300)
        seq = 0.25 + 0.5 * 1.001 ** (-n)
        seq[150] += 0.2
        with pytest.raises(ValueError):
            fit_decay_constant(seq, 0)

    def test_rejects_noisy_signal(self):
        rng = np.random.default_rng(0)
        n = np.arange(300)
        seq = 0.25 + 0.5 * 1.01 ** (-n) * (1 + 1e-3 * rng.random(300))
        with pytest.raises(ValueError):
            fit_decay_constant(seq, 0)

    def test_rejects_short_sequence(self):
        with pytest.raises(ValueError):
            fit_decay_constant([1.0, 0.9, 0.8], 0)
