import math

import numpy as np
import pytest

from cyclecap.errors import ConstraintError, DomainError, RegimeError
from cyclecap.exact import egf_coefficients, expected_cycle_count, mgf_Cm
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
    solve_truncated_saddle,
    solve_y,
)
from oracles import conditioned_distribution, tilt_root

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
        l0, l1, l2, l3 = sol.lambdas
        assert l0 < l1 < l2 < l3

    def test_nonuniform_weights(self):
        q = WeightArray(q=np.array([3.0, 0.0, 1.0, 0.5]))
        sol = solve_saddle(q, 40.0)
        j = np.arange(1, 5)
        assert float((q.q * sol.x**j).sum()) == pytest.approx(40.0, rel=1e-12)

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
        assert mu(sol, 1.0, 10) == pytest.approx(2.98, abs=6e-3)

    def test_out_of_range(self):
        sol = solve_saddle(WeightArray.constant(1.0, 10), 100.0)
        with pytest.raises(ConstraintError):
            mu(sol, 1.0, 11)

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


class TestSolveY:
    def test_frozen_value(self):
        y0, y = solve_y(100.0, 1, 1.0)
        assert y == pytest.approx(6.472, abs=2e-3)
        assert 0 < y0 < 1 < y
        # both roots satisfy alpha*y - log y = log(n/theta)
        for root in (y0, y):
            assert root - math.log(root) == pytest.approx(math.log(100.0), abs=1e-10)

    def test_tangency_double_root(self):
        # alpha*y - log y has minimum 1 + log(alpha) at y = 1/alpha;
        # n/theta = e*alpha sits exactly at the minimum
        y0, y = solve_y(math.e, 1, 1.0)
        assert y0 == pytest.approx(1.0, abs=1e-6)
        assert y == pytest.approx(1.0, abs=1e-6)

    def test_no_root_raises(self):
        with pytest.raises(RegimeError):
            solve_y(2.0, 1, 1.0)  # log 2 < 1 + log 1

    def test_large_alpha(self):
        y0, y = solve_y(10**6, 100, 1.0)
        for root in (y0, y):
            assert 100 * root - math.log(root) == pytest.approx(math.log(10**6), abs=1e-8)


class TestTruncatedSaddle:
    def test_sandwich_when_x_above_one(self):
        # x solves theta*sum_{j=b+1}^{alpha} x^j = n and is pinched between the
        # full-range root (more terms, smaller tilt) and the shifted-range root
        ts = solve_truncated_saddle(10**4, 50, 10, 1.0)
        assert ts.x_full <= ts.x + 1e-12
        assert ts.x <= ts.x_reduced + 1e-12
        assert ts.sandwich_ok

    def test_root_solves_truncated_equation(self):
        ts = solve_truncated_saddle(1000.0, 20, 5, 2.0)
        total = 2.0 * sum(ts.x**j for j in range(6, 21))
        assert total == pytest.approx(1000.0, rel=1e-10)
        # the reduced comparison root uses the range 1..alpha-b
        total_reduced = 2.0 * sum(ts.x_reduced**j for j in range(1, 16))
        assert total_reduced == pytest.approx(1000.0, rel=1e-10)

    def test_b_zero_matches_plain_saddle(self):
        ts = solve_truncated_saddle(500.0, 12, 0, 1.0)
        sol = solve_saddle(WeightArray.constant(1.0, 12), 500.0)
        assert ts.x == pytest.approx(sol.x, rel=1e-14)
        assert ts.x_full == ts.x_reduced

    def test_b_at_alpha_rejected(self):
        with pytest.raises(ConstraintError):
            solve_truncated_saddle(100.0, 5, 5, 1.0)


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
        m = ConstraintModel(n=10**5, alpha=1072, theta=1.0)
        r = regime_report(m, thresholds=(0.001, 0.01))
        assert r.classification == "Diverging"


class TestSaddlePointCoefficient:
    @pytest.mark.parametrize("n,alpha", [(1000, 63), (10**4, 251)])
    def test_close_to_exact(self, n, alpha):
        q = WeightArray.constant(1.0, alpha)
        approx = saddle_point_coefficient(q, n)
        sol = solve_saddle(q, float(n))
        exact = egf_coefficients(q, n, tilt=sol.x).log_coefficient(n)
        ratio = math.exp(approx.logval - exact)
        assert abs(ratio - 1.0) <= 5 * alpha / n

    def test_power_probe_shifts_index(self):
        # [z^n] z^r e^{g(z)} = h_{n-r}: the approximation with probe z^r
        # should approximate h_{n-r} at the same saddle
        n, alpha, r = 2000, 100, 7
        q = WeightArray.constant(1.0, alpha)
        approx = saddle_point_coefficient(q, n, f=power_probe(r))
        plain = saddle_point_coefficient(q, n)
        sol = solve_saddle(q, float(n))
        assert approx.logval - plain.logval == pytest.approx(r * math.log(sol.x), rel=1e-9)

    def test_constant_probe_matches_default(self):
        q = WeightArray.constant(1.0, 30)
        a = saddle_point_coefficient(q, 300)
        b = saddle_point_coefficient(q, 300, f=CONSTANT_ONE)
        assert a.logval == b.logval


class TestAdmissibility:
    def test_report_fields_finite(self):
        q = WeightArray.constant(1.0, 100)
        rep = admissibility_report(q, 10**4)
        assert rep.alpha_log_x > 0
        assert rep.saddle_ratio > 0
        assert 0 < rep.lambda2_over_n_alpha < 2
        assert rep.min_tail_weight > 0
        assert np.isfinite(rep.probe_norm)


class TestMgf:
    def test_frozen_value_exact(self):
        model = ConstraintModel(n=4, alpha=2, theta=1.0)
        got = mgf_Cm(model, 2, 1.0, mode="exact")
        assert got == pytest.approx((1 + 6 * math.e + 3 * math.e**2) / 10, rel=1e-10)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
    def test_exact_matches_enumeration(self, theta, s):
        n, alpha, m = 7, 4, 2
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        dist = conditioned_distribution(n, alpha, theta)
        expected = sum(
            p * math.exp(s * sum(1 for length in part if length == m))
            for part, p in dist.items()
        )
        assert mgf_Cm(model, m, s, mode="exact") == pytest.approx(expected, rel=1e-10)

    def test_s_zero_is_one(self):
        model = ConstraintModel(n=50, alpha=10, theta=1.0)
        assert mgf_Cm(model, 3, 0.0, mode="exact") == pytest.approx(1.0, rel=1e-12)

    def test_approx_mode_tracks_exact(self):
        model = ConstraintModel(n=2000, alpha=44, theta=1.0)
        for s in (0.2, 0.5):
            exact = mgf_Cm(model, 44, s, mode="exact")
            approx = mgf_Cm(model, 44, s, mode="approx")
            assert approx == pytest.approx(exact, rel=0.05)

    def test_negative_s_rejected_in_approx(self):
        model = ConstraintModel(n=100, alpha=10, theta=1.0)
        with pytest.raises(ConstraintError):
            mgf_Cm(model, 5, -0.5, mode="approx")


class TestExpectedCount:
    def test_close_to_mu_in_bulk(self):
        model = ConstraintModel(n=10**4, alpha=251, theta=1.0)
        sol = solve_model_saddle(model)
        for m in (1, 125, 251):
            ratio = expected_cycle_count(model, m) / mu(sol, 1.0, m)
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
