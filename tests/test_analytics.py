import math

import numpy as np
import pytest

import qdarwin as q

UNIFORM = q.ContinuousUniform(1.0)
DISCRETE = q.DiscreteUniform((-1.0, -0.5, 0.5, 1.0))
POINT = q.PointMass(0.4)
LN2 = math.log(2.0)


class TestCharacteristicFunction:
    def test_normalization_at_zero(self):
        for dist in (UNIFORM, DISCRETE, POINT):
            assert q.characteristic_function(dist, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_uniform_zero_at_pi(self):
        assert abs(q.characteristic_function(UNIFORM, np.pi)) < 1e-15

    def test_uniform_sine_form(self):
        for k in (0.3, 1.7, 9.2):
            expected = math.sin(k) / k
            assert q.characteristic_function(UNIFORM, k) == pytest.approx(expected + 0.0j)

    def test_discrete_cosine_form(self):
        for k in (0.2, 1.0, 4.0, 12.0):
            expected = 0.5 * (math.cos(k) + math.cos(k / 2))
            value = q.characteristic_function(DISCRETE, k)
            assert value.imag == pytest.approx(0.0, abs=1e-15)
            assert value.real == pytest.approx(expected, abs=1e-12)

    def test_point_mass_phase(self):
        k = 2.3
        assert q.characteristic_function(POINT, k) == pytest.approx(np.exp(1j * 0.4 * k))

    def test_modulus_bounded(self):
        ks = np.linspace(-40, 40, 801)
        for dist in (UNIFORM, DISCRETE, POINT):
            values = q.characteristic_function(dist, ks)
            assert values.shape == ks.shape
            assert np.max(np.abs(values)) <= 1.0 + 1e-12


class TestAveragedGamma:
    def test_one_at_t0(self):
        for dist in (UNIFORM, DISCRETE, POINT):
            for a2 in (0.0, 0.3, 0.5, 1.0):
                assert q.averaged_gamma_squared(dist, a2, 0.0) == pytest.approx(1.0)

    def test_uniform_closed_form(self):
        for t in (0.1, 0.5, 1.0, 5.0):
            expected = 0.5 + math.sin(4 * t) / (8 * t)
            assert q.averaged_gamma_squared(UNIFORM, 0.5, t) == pytest.approx(expected, abs=1e-12)

    def test_uniform_long_time_floor(self):
        value = q.averaged_gamma_squared(UNIFORM, 0.5, 1e4)
        assert abs(value - 0.5) < 1e-4
        assert q.gamma_squared_floor(0.5) == 0.5

    def test_discrete_recurrence_and_period(self):
        assert q.averaged_gamma_squared(DISCRETE, 0.5, np.pi) == pytest.approx(1.0, abs=1e-12)
        for t in (0.17, 0.9, 2.3):
            a = q.averaged_gamma_squared(DISCRETE, 0.37, t)
            b = q.averaged_gamma_squared(DISCRETE, 0.37, t + np.pi)
            assert a == pytest.approx(b, abs=1e-12)

    def test_monte_carlo_oracle(self):
        # sampling oracle: draw couplings, average |a^2 e^{-2iBt} + b^2 e^{2iBt}|^2
        rng = np.random.default_rng(0)
        draws = rng.uniform(-1.0, 1.0, 100_000)
        a2 = 0.5
        for t in (0.1, 0.5, 1.0, 5.0):
            gam = a2 * np.exp(-2j * draws * t) + (1 - a2) * np.exp(2j * draws * t)
            mc = np.mean(np.abs(gam) ** 2)
            assert abs(mc - q.averaged_gamma_squared(UNIFORM, a2, t)) <= 5e-3

    def test_band_bounds(self):
        ts = np.linspace(0.0, 30.0, 400)
        for a2 in (0.2, 0.5, 0.9):
            floor = q.gamma_squared_floor(a2)
            values = q.averaged_gamma_squared(UNIFORM, a2, ts)
            assert np.max(values) <= 1.0 + 1e-12
            assert np.min(values) >= 2 * floor - 1 - 1e-12

    def test_input_validation(self):
        for alpha_sq in (1.2, float("nan")):
            with pytest.raises(ValueError):
                q.averaged_gamma_squared(UNIFORM, alpha_sq, 1.0)
        # a string or a bool is not a real number
        for alpha_sq in ("0.5", True):
            with pytest.raises(ValueError, match="alpha_sq"):
                q.averaged_gamma_squared(UNIFORM, alpha_sq, 1.0)
            with pytest.raises(ValueError, match="alpha_sq"):
                q.gamma_squared_floor(alpha_sq)

    def test_array_arguments_are_numbers(self):
        for bad in ("1.5", True, ["0", "1"], [0.0, True], float("inf")):
            with pytest.raises(ValueError, match="t: expected finite real"):
                q.averaged_gamma_squared(UNIFORM, 0.5, bad)
            with pytest.raises(ValueError, match="k: expected finite real"):
                q.characteristic_function(UNIFORM, bad)
        for bad in ("0.5", True, [0.5, True], np.array([True])):
            with pytest.raises(ValueError, match="p: expected finite real"):
                q.binary_entropy(bad)
        with pytest.raises(ValueError, match="k: expected finite real"):
            q.characteristic_function(UNIFORM, np.array([1j]))
        for not_a_law in (None, 1.0, [1.0, 2.0]):
            with pytest.raises(TypeError, match="not a coupling distribution"):
                q.characteristic_function(not_a_law, 1.0)

    def test_curve_factory(self):
        # on a 1-d time grid the average is the curve: one value per time
        times = np.linspace(0, 5, 11)
        values = q.averaged_gamma_squared(UNIFORM, 0.5, times)
        assert values[0] == pytest.approx(1.0)
        assert values.shape == times.shape


class TestSiteFloor:
    def test_balanced_site(self):
        assert q.gamma_squared_floor(0.5) == pytest.approx(0.5)

    def test_pointer_sites(self):
        assert q.gamma_squared_floor(0.0) == 1.0
        assert q.gamma_squared_floor(1.0) == 1.0

    def test_uniform_average_is_two_thirds(self):
        # quadrature oracle for the average over the weight distribution
        xs = np.linspace(0.0, 1.0, 20001)
        avg = np.trapezoid([q.gamma_squared_floor(x) for x in xs], xs)
        assert avg == pytest.approx(2.0 / 3.0, abs=1e-7)


class TestWeakDecoherenceSlope:
    def test_balanced_limit(self):
        assert q.weak_decoherence_slope(0.5) == pytest.approx(1.0 / LN2, abs=1e-12)

    def test_direct_value(self):
        expected = 4 * 0.25 * 0.75 * math.atanh(0.5) / 0.5 / LN2
        assert q.weak_decoherence_slope(0.25) == pytest.approx(expected, abs=1e-12)
        assert q.weak_decoherence_slope(0.25) == pytest.approx(1.1887, abs=5e-5)

    def test_symmetry(self):
        for x in (0.01, 0.2, 0.41, 0.77):
            assert q.weak_decoherence_slope(x) == pytest.approx(
                q.weak_decoherence_slope(1.0 - x), abs=1e-12
            )

    def test_series_matches_direct_near_switch(self):
        # just outside the series window the direct path runs; the truncated
        # series evaluated at the same point must agree to float precision
        x = 0.5 - 1.2e-4
        u = 1.0 - 2.0 * x
        series = 4 * x * (1 - x) * (1.0 + u * u / 3.0 + u ** 4 / 5.0) / LN2
        assert q.weak_decoherence_slope(x) == pytest.approx(series, abs=1e-12)

    def test_direct_form_matches_series_near_balance(self):
        # no series window: artanh(u)/u is evaluated directly down to u = 0
        for d in (1e-4, 1e-9, 1e-15):
            for x in (0.5 - d, 0.5 + d):
                u = 1.0 - 2.0 * x
                series = 4 * x * (1 - x) * (1.0 + u * u / 3.0 + u ** 4 / 5.0) / LN2
                assert abs(q.weak_decoherence_slope(x) - series) <= 4 * math.ulp(series)
        assert q.weak_decoherence_slope(0.5) == 1.0 / LN2

    def test_endpoints_rejected(self):
        for x in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                q.weak_decoherence_slope(x)


class TestMaxSystemEntropy:
    def test_values(self):
        assert q.max_system_entropy(0.5) == 1.0
        assert q.max_system_entropy(0.0) == 0.0
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert q.max_system_entropy(0.25) == pytest.approx(expected, abs=1e-12)
        assert q.max_system_entropy(0.25) == pytest.approx(0.81128, abs=5e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            q.max_system_entropy(1.5)
        for p in (-0.2, float("nan"), np.array([0.5, float("nan")])):
            with pytest.raises(ValueError):
                q.binary_entropy(p)
        with pytest.raises(ValueError):
            q.max_system_entropy(float("nan"))
        for alpha0_sq in ("0.5", True):
            with pytest.raises(ValueError, match="alpha0_sq"):
                q.max_system_entropy(alpha0_sq)
            with pytest.raises(ValueError, match="alpha0_sq"):
                q.weak_decoherence_slope(alpha0_sq)


class TestWeakDecoherenceFormulas:
    def test_perfect_decoherence_limit(self):
        assert q.weak_decoherence_mutual_info(0.0, 0.0, 0.0, 0.3) == pytest.approx(
            q.max_system_entropy(0.3)
        )
        assert q.weak_decoherence_holevo(0.0, 0.3) == pytest.approx(q.max_system_entropy(0.3))

    def test_full_fragment_bookkeeping(self):
        # F = E convention: the complement factor is 1
        g = 0.02
        value = q.weak_decoherence_mutual_info(g, g, 1.0, 0.5)
        slope = q.weak_decoherence_slope(0.5)
        assert value == pytest.approx(1.0 - 0.5 * slope * (2 * g - 1.0), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            q.weak_decoherence_holevo(1.4, 0.5)
        # a string or a bool is not a real number, in any argument
        for bad in ("0.1", True):
            for name, args in (
                ("gamma_sq", (bad, 0.1, 0.1, 0.5)),
                ("gamma_f_sq", (0.1, bad, 0.1, 0.5)),
                ("gamma_fbar_sq", (0.1, 0.1, bad, 0.5)),
                ("alpha0_sq", (0.1, 0.1, 0.1, bad)),
            ):
                with pytest.raises(ValueError, match=name):
                    q.weak_decoherence_mutual_info(*args)
            with pytest.raises(ValueError, match="gamma_f_sq"):
                q.weak_decoherence_holevo(bad, 0.5)
            with pytest.raises(ValueError, match="mean_floor"):
                q.asymptotic_holevo(2, 0.5, mean_floor=bad)


class TestAsymptotics:
    def test_mid_fragment_value(self):
        slope = q.weak_decoherence_slope(0.5)
        expected = 1.0 - 0.5 * slope * (2.0 / 3.0) ** 8
        assert q.asymptotic_mutual_info(4, 8, 0.5) == pytest.approx(expected, abs=1e-12)
        assert q.asymptotic_mutual_info(4, 8, 0.5) == pytest.approx(0.97185, abs=5e-6)

    def test_holevo_value(self):
        assert q.asymptotic_holevo(10, 0.5) == pytest.approx(0.98749, abs=5e-6)

    def test_full_fragment(self):
        slope = q.weak_decoherence_slope(0.5)
        expected = 1.0 - 0.5 * slope * (2 * (2.0 / 3.0) ** 8 - 1.0)
        assert q.asymptotic_mutual_info(8, 8, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_holevo_strictly_increasing(self):
        values = [q.asymptotic_holevo(n, 0.4) for n in range(20)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bracket_odd_symmetry(self):
        n_env = 9
        smax = q.max_system_entropy(0.3)
        slope = q.weak_decoherence_slope(0.3)
        offset = 0.5 * slope * (2.0 / 3.0) ** n_env
        for n in range(n_env + 1):
            g_n = q.asymptotic_mutual_info(n, n_env, 0.3) - smax + offset
            g_c = q.asymptotic_mutual_info(n_env - n, n_env, 0.3) - smax + offset
            assert g_n == pytest.approx(-g_c, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            q.asymptotic_mutual_info(9, 8, 0.5)
        with pytest.raises(ValueError):
            q.asymptotic_mutual_info(-1, 8, 0.5)
        with pytest.raises(ValueError):
            q.asymptotic_holevo(3, 0.5, mean_floor=1.0)
