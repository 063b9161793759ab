import math

import numpy as np
import pytest

from cyclecap.errors import ConstraintError, DomainError, NumericalError, RegimeError
import cyclecap.saddle as saddle_module
from cyclecap.exact import egf_coefficients, expected_cycle_count, longest_cycle_cdf
from cyclecap.model import ConstraintModel, WeightArray
from cyclecap.saddle import (
    CONSTANT_ONE,
    admissibility_report,
    asymptotic_x,
    clt_h_calculus,
    mu,
    mu_alpha_of,
    power_probe,
    regime_report,
    saddle_point_coefficient,
    solve_model_saddle,
    solve_saddle,
)
from oracles import tilt_root

THETAS = [0.5, 1.0, 2.0]


class TestSolveSaddle:
    def test_frozen_value(self):
        sol = solve_saddle(WeightArray.constant(1.0, 10), 100.0)
        assert sol.x == pytest.approx(1.4041, abs=2e-4)
        assert abs(sol.residual) <= 1e-12

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n,alpha", [(10, 2), (100, 10), (1000, 31), (10**6, 1000)])
    def test_matches_bisection_oracle(self, n, alpha, theta):
        sol = solve_saddle(WeightArray.constant(theta, alpha), float(n))
        assert sol.x == pytest.approx(tilt_root(n, alpha, theta), rel=1e-9)

    def test_lambda1_equals_n(self):
        sol = solve_saddle(WeightArray.constant(2.0, 50), 12345.0)
        assert sol.lambda_value(1) == pytest.approx(12345.0, rel=1e-12)

    def test_residual_contract_across_scales(self):
        for n, alpha in [(10**4, 100), (10**6, 1000), (10**8, 10**4)]:
            sol = solve_saddle(WeightArray.constant(1.0, alpha), float(n))
            assert abs(sol.residual) <= 1e-10

    def test_lambdas_increasing_for_x_above_one(self):
        sol = solve_saddle(WeightArray.constant(1.0, 20), 100.0)
        l0, l1, l2, l3 = sol.log_lambdas
        assert l0 < l1 < l2 < l3

    def test_nonuniform_weights(self):
        q = WeightArray(q=np.array([3.0, 0.0, 1.0, 0.5]))
        sol = solve_saddle(q, 40.0)
        j = np.arange(1, 5)
        assert float((q.q * sol.x**j).sum()) == pytest.approx(40.0, rel=1e-12)

    @pytest.mark.parametrize("n,alpha", [(10**5, 17782), (10**5, 1072)])
    def test_newton_stops_at_rounding_noise(self, monkeypatch, n, alpha):
        # Near the root |g| is a few ulps of log n (1.8e-15 at n = 10^5), above
        # 1e-15, and Newton may step between adjacent tilts; the solve stops
        # there instead of running out its iterations.
        calls = []
        lse = saddle_module.log_sum_exp_value
        monkeypatch.setattr(saddle_module, "log_sum_exp_value", lambda a: calls.append(1) or lse(a))
        for p in range(40):
            calls.clear()
            sol = solve_saddle(WeightArray.constant(1.0 + p * 2.0**-20, alpha), float(n))
            assert len(calls) <= 40
            assert abs(sol.residual) <= 1e-12

    @pytest.mark.parametrize("n", [0.0, -1.0, math.nan, math.inf])
    def test_target_outside_0_inf_is_a_domain_error(self, n):
        with pytest.raises(DomainError):
            solve_saddle(WeightArray.constant(1.0, 30), n)

    def test_tiny_positive_target_still_solves(self):
        model = ConstraintModel(n=1000, alpha=30, theta=1.0)
        sol = solve_model_saddle(model, c=1e-300)
        assert sol.lambda_value(1) == pytest.approx(1e-297, rel=1e-12)
        # the root t is about -759.8, so x = e^t is 0.0; mu_1 = lambda_1 is the target
        sol = solve_saddle(WeightArray.constant(1e10, 1), 1e-320)
        assert sol.x == 0.0
        assert sol.mu[0] == pytest.approx(1e-320, rel=1e-3)  # subnormal: few digits

    def test_root_past_double_range_is_a_numerical_error(self):
        # x = n/theta = 1e309 does not fit in a double; the tables' retilt meets it too
        with pytest.raises(NumericalError, match="saddle tilt"):
            solve_saddle(WeightArray.constant(1e-306, 1), 1000.0)
        with pytest.raises(NumericalError, match="saddle tilt"):
            longest_cycle_cdf(ConstraintModel(n=1000, alpha=3, theta=1e-306), 1)
        # the largest roots that fit keep their value
        sol = solve_saddle(WeightArray.constant(1e-300, 1), 1000.0)
        assert sol.x == pytest.approx(1e303, rel=1e-12)

    def test_c_multiplier(self):
        model = ConstraintModel(n=100, alpha=10, theta=1.0)
        sol_half = solve_model_saddle(model, c=0.5)
        assert sol_half.lambda_value(1) == pytest.approx(50.0, rel=1e-12)

    def test_model_row_is_solved_once_and_shared_read_only(self):
        model = ConstraintModel(n=100, alpha=10, theta=1.3)
        sol = solve_model_saddle(model)
        assert solve_model_saddle(ConstraintModel(n=100, alpha=10, theta=1.3)) is sol
        assert sol.x == solve_saddle(WeightArray.constant(1.3, 10), 100.0).x
        assert not sol.q.q.flags.writeable


class TestMu:
    def test_frozen_value(self):
        sol = solve_saddle(WeightArray.constant(1.0, 10), 100.0)
        assert mu(sol, 10) == pytest.approx(2.98, abs=6e-3)

    def test_out_of_range(self):
        sol = solve_saddle(WeightArray.constant(1.0, 10), 100.0)
        with pytest.raises(ConstraintError):
            mu(sol, 11)

    def test_mu_alpha_of(self):
        model = ConstraintModel(n=100, alpha=10, theta=1.0)
        sol = solve_model_saddle(model)
        assert mu_alpha_of(model) == pytest.approx(sol.x**10 / 10, rel=1e-12)


class TestAsymptoticX:
    def test_frozen_value(self):
        tilt = asymptotic_x(1.0, 10**6, 1000, 1.0)
        assert tilt.x == pytest.approx(1.00888, abs=2e-5)

    def test_lambda2_form(self):
        tilt = asymptotic_x(2.0, 10**6, 1000, 0.5)
        assert tilt.lambda2 == pytest.approx(2.0 * 10**6 * 1000 / 0.5, rel=1e-12)

    def test_approaches_exact_root(self):
        # relative gap to the exact tilt shrinks as n grows
        gaps = []
        for n in (10**4, 10**6, 10**8):
            alpha = int(math.isqrt(n))
            exact = solve_saddle(WeightArray.constant(1.0, alpha), float(n)).x
            approx = asymptotic_x(1.0, n, alpha, 1.0).x
            gaps.append(abs(approx / exact - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            asymptotic_x(1.0, 100, 100, 1.0)  # v = 1
        with pytest.raises(RegimeError):
            asymptotic_x(1.0, 100, 200, 1.0)  # v < 1


class TestRegimeReport:
    def test_three_classifications(self):
        # mu_alpha large / moderate / tiny
        div = regime_report(ConstraintModel(n=10**5, alpha=100, theta=1.0))
        crit = regime_report(ConstraintModel(n=10**5, alpha=1072, theta=1.0))
        van = regime_report(ConstraintModel(n=10**5, alpha=17782, theta=1.0))
        assert div.classification == "Diverging"
        assert crit.classification == "Critical"
        assert van.classification == "Vanishing"
        assert div.mu_alpha > 10 > crit.mu_alpha > 0.1 > van.mu_alpha

    def test_thresholds_respected(self):
        # the label follows the exact mu_alpha against the fixed pair (0.1, 10)
        for alpha in (100, 1072, 17782):
            r = regime_report(ConstraintModel(n=10**5, alpha=alpha, theta=1.0))
            assert r.thresholds == (0.1, 10.0)
            lo, hi = r.thresholds
            want = "Vanishing" if r.mu_alpha < lo else "Diverging" if r.mu_alpha > hi else "Critical"
            assert r.classification == want


class TestSaddlePointCoefficient:
    @pytest.mark.parametrize("n,alpha", [(1000, 63), (10**4, 251)])
    def test_close_to_exact(self, n, alpha):
        q = WeightArray.constant(1.0, alpha)
        sol = solve_saddle(q, float(n))
        approx = saddle_point_coefficient(sol)
        exact = egf_coefficients(q, n, tilt=sol.x).log_coefficient(n)
        ratio = math.exp(approx.logval - exact)
        assert abs(ratio - 1.0) <= 5 * alpha / n

    def test_power_probe_shifts_index(self):
        # [z^n] z^r e^{g(z)} = h_{n-r}: the approximation with probe z^r
        # should approximate h_{n-r} at the same saddle
        n, alpha, r = 2000, 100, 7
        sol = solve_saddle(WeightArray.constant(1.0, alpha), float(n))
        approx = saddle_point_coefficient(sol, f=power_probe(r))
        plain = saddle_point_coefficient(sol)
        assert approx.logval - plain.logval == pytest.approx(r * math.log(sol.x), rel=1e-9)

    def test_constant_probe_matches_default(self):
        sol = solve_saddle(WeightArray.constant(1.0, 30), 300.0)
        a = saddle_point_coefficient(sol)
        b = saddle_point_coefficient(sol, f=CONSTANT_ONE)
        assert a.logval == b.logval


class TestAdmissibility:
    def test_report_fields_finite(self):
        rep = admissibility_report(solve_saddle(WeightArray.constant(1.0, 100), 10.0**4))
        assert rep.alpha_log_x > 0
        assert rep.saddle_ratio > 0
        assert 0 < rep.lambda2_over_n_alpha < 2


class TestExpectedCount:
    def test_close_to_mu_in_bulk(self):
        model = ConstraintModel(n=10**4, alpha=251, theta=1.0)
        sol = solve_model_saddle(model)
        for m in (1, 125, 251):
            ratio = expected_cycle_count(model, m) / mu(sol, m)
            assert abs(ratio - 1.0) < 0.1


class TestHCalculus:
    def test_h1_at_zero_is_sqrt_mu(self):
        model = ConstraintModel(n=1000, alpha=31, theta=1.0)
        for m in (15, 31):
            hc = clt_h_calculus(model, m, 0.0)
            assert hc.h1 == pytest.approx(math.sqrt(hc.mu_m), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.4])
    def test_finite_difference_consistency(self, s):
        # h1 = dh/ds, h2 = dh1/ds, h3 = dh2/ds: central differences of the
        # analytically computed lower-order quantities
        model = ConstraintModel(n=10**4, alpha=100, theta=1.0)
        m = 50
        eps = 1e-5
        hc = clt_h_calculus(model, m, s)
        up = clt_h_calculus(model, m, s + eps)
        dn = clt_h_calculus(model, m, s - eps)
        assert (up.h - dn.h) / (2 * eps) == pytest.approx(hc.h1, rel=1e-5)
        assert (up.h1 - dn.h1) / (2 * eps) == pytest.approx(hc.h2, rel=1e-5)
        assert (up.h2 - dn.h2) / (2 * eps) == pytest.approx(hc.h3, rel=1e-5)

    def test_x_s_decreasing_in_s(self):
        # raising the m-weight shifts mass to m-cycles; the tilt compensates
        model = ConstraintModel(n=1000, alpha=31, theta=1.0)
        xs = [clt_h_calculus(model, 15, s).x_s for s in (0.0, 0.5, 1.0)]
        assert xs[0] > xs[1] > xs[2]

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_refused(self, s):
        with pytest.raises(DomainError):
            clt_h_calculus(ConstraintModel(n=2000, alpha=12, theta=1.0), 10, s)

    def test_weight_past_double_range_is_a_numerical_error(self):
        # s / sqrt(mu_10) is about 1891, so theta e^(s/sqrt(mu)) overflows
        with pytest.raises(NumericalError, match="exceeds double range"):
            clt_h_calculus(ConstraintModel(n=2000, alpha=12, theta=1.0), 10, 1e4)
