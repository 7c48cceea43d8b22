from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab import (
    ModelParams,
    block_index,
    derived_constants,
    exponent_table,
    ratio_report,
    theta_closed_form,
    theta_fast,
    theta_recursive,
    vartheta,
)

import oracles

PM = ModelParams(d=1, s=1.5, beta=1.0)

PARAM_GRID = [
    ModelParams(d=1, s=1.5, beta=1.0),
    ModelParams(d=1, s=1.9, beta=1.0),
    ModelParams(d=2, s=3.0, beta=1.0),
    ModelParams(d=2, s=3.5, beta=1.0),
    ModelParams(d=3, s=4.5, beta=1.0),
]


def rel_close(a, b, tol=1e-12):
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= tol * scale


def theta_fast_loop(pm, n_max):
    """theta_fast term by term: the halving form in a Python loop."""
    d, s = pm.d, pm.s
    theta = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        half = n // 2
        if n % 2:
            theta[n] = 1.0 / s + (2 * d / s) * theta[half]
        else:
            theta[n] = 1.0 / s + (d / s) * (theta[half] + theta[half - 1])
    return theta


def vartheta_loop(pm, n_max):
    """vartheta term by term."""
    gamma, _ = derived_constants(pm)
    vt = np.zeros(n_max + 1)
    vt[0] = 1.0
    for n in range(n_max):
        vt[n + 1] = (vt[n // 2] + vt[(n + 1) // 2]) / (2 * gamma)
    return vt


class TestExactValues:
    def test_theta_first_values(self):
        expected = [Fraction(0), Fraction(2, 3), Fraction(10, 9), Fraction(14, 9),
                    Fraction(50, 27), Fraction(58, 27), Fraction(22, 9),
                    Fraction(74, 27), Fraction(238, 81)]
        got = theta_recursive(PM, 8)
        for n, frac in enumerate(expected):
            assert rel_close(got[n], float(frac)), n

    def test_vartheta_first_values(self):
        expected = [Fraction(1), Fraction(4, 3), Fraction(14, 9), Fraction(16, 9),
                    Fraction(52, 27), Fraction(56, 27), Fraction(20, 9)]
        got = vartheta(PM, 6)
        for n, frac in enumerate(expected):
            assert rel_close(got[n], float(frac)), n

    def test_theta_one_is_inverse_s(self):
        for pm in PARAM_GRID:
            assert rel_close(theta_recursive(pm, 1)[1], 1.0 / pm.s)

    def test_vartheta_one_is_inverse_gamma(self):
        for pm in PARAM_GRID:
            gamma, _ = derived_constants(pm)
            assert rel_close(vartheta(pm, 1)[1], 1.0 / gamma)

    def test_even_step_discrete_second_difference(self):
        # theta_2 + theta_0 - 2 theta_1 = (d - s) / s^2, the single nonzero jump.
        for pm in PARAM_GRID:
            th = theta_recursive(pm, 2)
            assert rel_close(th[2] + th[0] - 2 * th[1], (pm.d - pm.s) / pm.s**2)
        th = theta_recursive(PM, 2)
        assert rel_close(th[2] + th[0] - 2 * th[1], -2.0 / 9.0)


class TestRouteAgreement:
    @pytest.mark.parametrize("pm", PARAM_GRID, ids=lambda p: f"d{p.d}s{p.s}")
    def test_against_fraction_oracle(self, pm):
        n_max = 300
        exact = oracles.theta_exact(pm.d, pm.s, n_max)
        rec = theta_recursive(pm, n_max)
        fast = theta_fast(pm, n_max)
        for n in range(n_max + 1):
            e = float(exact[n])
            assert rel_close(rec[n], e), ("recursive", n)
            assert rel_close(fast[n], e), ("fast", n)
        for n in [0, 1, 2, 3, 7, 50, 63, 100, 255, 300]:
            assert rel_close(theta_closed_form(pm, n), float(exact[n])), ("closed", n)

    @pytest.mark.parametrize("pm", PARAM_GRID, ids=lambda p: f"d{p.d}s{p.s}")
    def test_vartheta_against_oracle(self, pm):
        n_max = 200
        exact = oracles.vartheta_exact(pm.d, pm.s, n_max)
        got = vartheta(pm, n_max)
        for n in range(n_max + 1):
            assert rel_close(got[n], float(exact[n])), n

    @pytest.mark.parametrize("pm", PARAM_GRID, ids=lambda p: f"d{p.d}s{p.s}")
    def test_block_evaluation_equals_loop_bit_for_bit(self, pm):
        # exponents.csv prints these values with repr, so equality must be exact.
        for n_max in [0, 1, 2, 3, 4, 7, 8, 9, 64, 1000, 4095, 4096]:
            assert theta_fast(pm, n_max).tobytes() == theta_fast_loop(pm, n_max).tobytes(), n_max
            assert vartheta(pm, n_max).tobytes() == vartheta_loop(pm, n_max).tobytes(), n_max

    @given(
        st.integers(min_value=1, max_value=3),
        st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20)),
    )
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_random_params(self, d, frac):
        s = float(d + frac * d)
        pm = ModelParams(d=d, s=s, beta=1.0)
        exact = oracles.theta_exact(d, Fraction(d) + frac * d, 64)
        rec = theta_recursive(pm, 64)
        fast = theta_fast(pm, 64)
        for n in range(65):
            e = float(exact[n])
            # s passes through float, so give the oracle a hair more room.
            assert rel_close(rec[n], e, tol=1e-9)
            assert rel_close(fast[n], e, tol=1e-9)
            assert rel_close(rec[n], fast[n])

    def test_closed_form_block_examples(self):
        # Block ends are exact geometric sums; interior points interpolate.
        assert rel_close(theta_closed_form(PM, 1), 2.0 / 3.0)
        assert rel_close(theta_closed_form(PM, 3), 14.0 / 9.0)
        assert rel_close(theta_closed_form(PM, 7), float(Fraction(74, 27)))
        assert rel_close(theta_closed_form(PM, 2), 10.0 / 9.0)
        assert rel_close(theta_closed_form(PM, 2), (2.0 / 3.0 + 14.0 / 9.0) / 2)

    def test_block_ends_match_oracle_formula(self):
        for pm in PARAM_GRID:
            for m in range(1, 8):
                n = 2**m - 1
                exact = float(oracles.theta_block_end_exact(pm.d, pm.s, m))
                assert rel_close(theta_closed_form(pm, n), exact)


class TestStructure:
    def test_validation(self):
        with pytest.raises(ValueError):
            theta_recursive(PM, -1)
        with pytest.raises(ValueError):
            theta_closed_form(PM, -3)
        with pytest.raises(ValueError):
            vartheta(PM, -1)

    def test_three_term_identity_odd(self):
        # theta_{2n+1} + theta_{2n-1} - 2 theta_{2n} = 0 for n >= 1.
        for pm in PARAM_GRID:
            th = theta_fast(pm, 4001)
            n = np.arange(1, 2000)
            resid = th[2 * n + 1] + th[2 * n - 1] - 2 * th[2 * n]
            assert np.max(np.abs(resid)) <= 1e-12

    def test_block_end_increment(self):
        # theta_{2^{n+1}-1} - theta_{2^n-1} = gamma^{-n} / s.
        for pm in PARAM_GRID:
            gamma, _ = derived_constants(pm)
            th = theta_fast(pm, 2**13)
            for n in range(12):
                inc = th[2 ** (n + 1) - 1] - th[2**n - 1]
                assert rel_close(inc, gamma ** (-n) / pm.s, tol=1e-11)

    def test_forward_differences_constant_on_blocks(self):
        th = theta_fast(PM, 2**10)
        diffs = np.diff(th)
        blocks = np.array([block_index(n) for n in range(len(diffs))])
        for b in range(int(blocks.max()) + 1):
            vals = diffs[blocks == b]
            assert np.ptp(vals) <= 1e-12 * max(1.0, abs(vals[0]))

    def test_block_index(self):
        assert [block_index(n) for n in range(9)] == [0, 1, 1, 2, 2, 2, 2, 3, 3]

    def test_concavity_and_monotonicity(self):
        for pm in PARAM_GRID:
            th = theta_fast(pm, 3000)
            assert np.all(np.diff(th) > 0)
            second = np.diff(th, 2)
            assert np.max(second) <= 1e-12

    def test_growth_exponent(self):
        # theta_n = C n^(1/Delta) + c0 up to log-periodic wiggle; the additive
        # constant biases a plain log-log slope, so fit the offset power law.
        from scipy.optimize import curve_fit

        for pm in PARAM_GRID:
            gamma, delta = derived_constants(pm)
            if gamma > 0.9:
                continue  # near-critical s: bias decays too slowly, see below
            th = theta_fast(pm, 2**12)
            n = np.arange(2**6, 2**12 + 1).astype(float)
            popt, _ = curve_fit(lambda n, c, p, c0: c * n**p + c0, n, th[n.astype(int)],
                                p0=[1.0, 1 / delta, -1.0], maxfev=20000)
            assert abs(popt[1] - 1 / delta) <= 0.05 / delta

    def test_growth_exponent_converges_near_critical(self):
        pm = ModelParams(d=1, s=1.9, beta=1.0)
        _, delta = derived_constants(pm)
        th = theta_fast(pm, 2**16)

        def window_slope(a, b):
            n = np.arange(2**a, 2**b + 1)
            return np.polyfit(np.log(n), np.log(th[n]), 1)[0]

        early = window_slope(6, 8)
        late = window_slope(14, 16)
        assert abs(late - 1 / delta) < abs(early - 1 / delta)


class TestRatioReport:
    def test_vartheta_halving_sup(self):
        for pm in PARAM_GRID:
            gamma, _ = derived_constants(pm)
            rep = ratio_report(pm, 1000)
            assert abs(rep.vartheta_halving_sup - 2 * gamma / (1 + gamma)) <= 1e-10
            assert rep.vartheta_halving_argmax == 1

    def test_vartheta_sup_value_example(self):
        rep = ratio_report(PM, 1000)
        assert abs(rep.vartheta_halving_sup - 6.0 / 7.0) <= 1e-10

    def test_theta_halving_sup_is_gamma_not_attained(self):
        for pm in PARAM_GRID:
            gamma, _ = derived_constants(pm)
            rep = ratio_report(pm, 1000)
            assert abs(rep.theta_halving_sup - gamma) <= 1e-10
            assert rep.theta_halving_scan_max < gamma

    def test_cross_ratio_sup(self):
        for pm in PARAM_GRID:
            rep = ratio_report(pm, 1000)
            th = theta_recursive(pm, 2)
            vt = vartheta(pm, 2)
            expected = max(vt[1] / th[1], vt[2] / th[2])
            assert abs(rep.vartheta_over_theta_sup - expected) <= 1e-10
            assert rep.vartheta_over_theta_argmax in (1, 2)
        rep = ratio_report(PM, 1000)
        assert abs(rep.vartheta_over_theta_sup - 2.0) <= 1e-10

    def test_scan_max_increases_toward_sup(self):
        small = ratio_report(PM, 10).theta_halving_scan_max
        big = ratio_report(PM, 1000).theta_halving_scan_max
        assert big > small

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            ratio_report(PM, 1)


class TestExponentTable:
    def test_shape_and_columns(self):
        tab = exponent_table(PM, 16)
        assert len(tab.n) == 17
        assert tab.theta[0] == 0.0
        assert tab.vartheta[0] == 1.0
        assert np.all(tab.block_index == [block_index(n) for n in range(17)])
        np.testing.assert_allclose(
            tab.theta_closed_form,
            [theta_closed_form(PM, n) for n in range(17)], rtol=1e-15)
        np.testing.assert_allclose(tab.theta, theta_fast(PM, 16), rtol=1e-15)
        np.testing.assert_allclose(tab.vartheta, vartheta(PM, 16), rtol=1e-15)

    @pytest.mark.parametrize("d, s", [(1, 1.5), (3, 4.2)])
    def test_vectorized_columns_equal_scalar_routes(self, d, s):
        # Exact equality: exponents.csv prints these columns with repr.
        pm = ModelParams(d=d, s=s, beta=1.0)
        tab = exponent_table(pm, 4095)
        assert tab.theta_closed_form.tolist() == [theta_closed_form(pm, n) for n in range(4096)]
        assert tab.block_index.tolist() == [block_index(n) for n in range(4096)]
