import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacasimir import (
    ConvergenceError,
    DomainError,
    PoleError,
    QuadratureError,
    hurwitz_zeta,
    polylog,
    polylog_neg_int,
    polylog_series,
    riemann_zeta,
    series_domain,
)


def brute_sum(s, z, n):
    ell = np.arange(1, n + 1, dtype=float)
    return complex(np.sum(np.exp(ell * np.log(complex(z)) - complex(s) * np.log(ell))))


class TestSeriesDomain:
    def test_inside_disk_any_order(self):
        assert series_domain(0.0, 0.5)
        assert series_domain(-17.3 + 4j, 0.999)

    def test_unit_circle_needs_positive_real_order(self):
        assert series_domain(0.5, -1.0)
        assert not series_domain(-0.5, -1.0)
        assert series_domain(0.1, cmath.exp(2j))

    def test_z_equal_one_needs_order_above_one(self):
        assert not series_domain(1.0, 1.0)
        assert series_domain(1.5, 1.0)

    def test_outside_disk_never(self):
        assert not series_domain(100.0, 1.5)


class TestSeries:
    def test_basel_point(self):
        # independent oracle: direct partial sum with integral tail estimate
        n = 2_000_000
        expected = brute_sum(2, 1, n) + 1.0 / n  # tail ~ 1/n
        val = polylog_series(2.0, 1.0, tol=1e-6)
        assert val.real == pytest.approx(expected.real, abs=2e-6)
        assert val.real == pytest.approx(math.pi**2 / 6.0, abs=2e-6)

    def test_log_two_point(self):
        expected = brute_sum(1, 0.5, 200)
        val = polylog_series(1.0, 0.5, tol=1e-12)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val.real == pytest.approx(math.log(2.0), rel=1e-12)

    def test_zero_argument(self):
        assert polylog_series(-7.3 + 2j, 0.0) == 0.0

    def test_divergent_point_raises(self):
        with pytest.raises(DomainError):
            polylog_series(-1.0, -1.0)

    def test_uncertifiable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            polylog_series(0.5, -1.0, tol=1e-8)


class TestNegativeIntegerClosedForm:
    def test_landmark_point_minus_one(self):
        assert polylog_neg_int(3, -1.0) == pytest.approx(0.125, rel=1e-14)

    def test_geometric_case(self):
        assert polylog_neg_int(0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_imaginary_argument(self):
        # z(z^2+4z+1)/(z-1)^4 at z=i equals 1
        assert polylog_neg_int(3, 1j) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            polylog_neg_int(3, 1.0)

    def test_matches_series_inside_disk(self):
        for n in (1, 2, 3, 5):
            for z in (0.4, -0.7, 0.3 + 0.4j):
                expected = polylog_series(-n, z, tol=1e-13)
                assert polylog_neg_int(n, z) == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=6),
        re=st.floats(-0.85, 0.85),
        im=st.floats(-0.5, 0.5),
    )
    def test_derivative_recurrence(self, n, re, im):
        # Li_{-n-1}(z) = z d/dz Li_{-n}(z), by central differences
        z = complex(re, im)
        if abs(z - 1.0) < 0.05 or abs(z) < 1e-3:
            return
        h = 1e-6
        deriv = (polylog_neg_int(n, z + h) - polylog_neg_int(n, z - h)) / (2.0 * h)
        lhs = polylog_neg_int(n + 1, z)
        assert lhs == pytest.approx(z * deriv, rel=1e-5)


class TestDispatcher:
    def test_zeta_minus_three(self):
        assert polylog(-3.0, 1.0).real == pytest.approx(1.0 / 120.0, abs=1e-10)

    def test_zero(self):
        assert polylog(2.0, 0.0) == 0.0

    def test_discontinuity_scale_near_one(self):
        # leading term 6/(z-1)^4 at z = 1 - 1e-3
        z = 1.0 - 1e-3
        val = polylog(-3.0, z)
        assert val.real == pytest.approx(6.0 / (z - 1.0) ** 4, rel=1e-2)
        assert abs(val) > 5e12

    def test_refuses_tiny_neighborhood_of_one(self):
        with pytest.raises(PoleError):
            polylog(-3.0, 1.0 - 1e-13)

    def test_harmonic_pole(self):
        with pytest.raises(PoleError):
            polylog(1.0, 1.0)

    def test_outside_disk(self):
        with pytest.raises(DomainError):
            polylog(2.0, 1.2)

    def test_positive_integer_order_limit_route(self):
        # contour prefactor poles at s = 2; the limit route must recover
        # the series value
        expected = polylog_series(2.0, 0.5, tol=1e-13)
        val = polylog(2.0, -0.5)
        assert val == pytest.approx(polylog_series(2.0, -0.5, tol=1e-13), rel=1e-9)
        assert polylog(2.0, 0.5) == pytest.approx(expected, rel=1e-9)


class TestContourTolerance:
    """The contour route checks tol on Li_s itself, after Gamma(1-s)."""

    def test_large_prefactor_raises(self):
        # Gamma(21.3) ~ 1e19: two passes that agree on the core integral
        # still leave Li_s 1e-5 off
        with pytest.raises(QuadratureError):
            polylog(-20.3, -1.0)

    @pytest.mark.parametrize("s", [2.0 + 1e-9, 2.0 - 1e-9])
    @pytest.mark.parametrize("z", [-1.0, cmath.exp(1.0j)])
    def test_next_to_prefactor_pole_raises(self, s, z):
        with pytest.raises(QuadratureError):
            polylog(s, z)

    # Li_{-10.5}(z) from mpmath 1.3.0 at 30 digits, rounded to double
    @pytest.mark.parametrize(
        "z,want",
        [
            (-1.0, 32.271472901954056),
            (cmath.exp(1.0j), 8414162.796801243 - 8414162.714993935j),
        ],
    )
    def test_moderate_prefactor_meets_tol(self, z, want):
        val = polylog(-10.5, z, tol=1e-10)
        assert abs(val - want) <= 1e-10 * (1.0 + abs(val))


# Li_s(e^{2 pi i q}) from mpmath 1.3.0 at 30 digits, rounded to double
UNIT_CIRCLE_REFERENCE = [
    (1.25, 0.05, 1.2113444189284537 + 1.148887908860891j),
    (1.25, 0.37, -0.6235244451032461 + 0.447586462856007j),
    (1.25, 0.5, -0.7310987638016613 + 6.790512023272528e-17j),
    (1.7, 0.05, 1.2061046822520722 + 0.8204845432167517j),
    (1.7, 0.37, -0.6452965268325394 + 0.5087069912511932j),
    (1.7, 0.5, -0.7897256936487159 + 7.864791561776337e-17j),
    (1.7 + 0.8j, 0.05, 1.6294012045031434 + 0.5137138950723084j),
    (1.7 + 0.8j, 0.37, -0.7533885261466884 + 0.4976417435836065j),
    (1.7 + 0.8j, 0.5, -0.8075975052756023 - 0.09229476328780635j),
    (2.2, 0.05, 1.1531725588708457 + 0.6075010751298359j),
    (2.2, 0.37, -0.6611540390694362 + 0.563363537526348j),
    (2.2, 0.5, -0.8417466207222358 + 8.864326603015821e-17j),
]


class TestUnitCircle:
    """Off z = 1 the dispatcher takes the series only when it certifies
    within its term budget; these orders need more terms and take the
    Hankel or positive-integer limit route."""

    @pytest.mark.parametrize("s", [1.7, 1.7 + 0.8j, 2.2])
    @pytest.mark.parametrize("q", [0.37, 0.5])
    def test_matches_series(self, s, q):
        z = cmath.exp(2j * math.pi * q)
        assert abs(polylog(s, z) - polylog_series(s, z, tol=1e-10)) <= 2e-10

    def test_matches_series_at_slow_order(self):
        # at s = 1.25 the series certifies 1e-10 only beyond its 4M-term cap
        z = cmath.exp(1j * math.pi)
        with pytest.raises(ConvergenceError):
            polylog_series(1.25, z, tol=1e-10)
        assert abs(polylog(1.25, z) - polylog_series(1.25, z, tol=1e-8)) <= 2e-8

    @pytest.mark.parametrize("s,q,want", UNIT_CIRCLE_REFERENCE)
    def test_matches_mpmath(self, s, q, want):
        assert abs(polylog(s, cmath.exp(2j * math.pi * q)) - want) <= 1e-14

    @pytest.mark.parametrize("theta", [0.1, 1.0, 2.5, math.pi, 4.0, 6.2])
    def test_integer_orders_match_exact_forms(self, theta):
        z = cmath.exp(1j * theta)
        re_li2 = math.pi**2 / 6.0 - theta * (2.0 * math.pi - theta) / 4.0
        im_li3 = (theta**3 - 3.0 * math.pi * theta**2 + 2.0 * math.pi**2 * theta) / 12.0
        assert abs(polylog(2.0, z).real - re_li2) <= 1e-10
        assert abs(polylog(3.0, z).imag - im_li3) <= 1e-10


# zeta(s) from mpmath 1.3.0 at 40 digits, rounded to double
ZETA_REFERENCE = [
    (1.2, 5.591582441177752),
    (1.5 + 0.5j, 1.6136857738477235 - 0.966099383192756j),
    (2.2 - 1.3j, 1.0498116052568447 + 0.33701092903646596j),
    (2.5, 1.341487257250917),
    (3.0, 1.2020569031595942),
    (4.0, 1.0823232337111381),
]


class TestRiemannZeta:
    @pytest.mark.parametrize("s,want", ZETA_REFERENCE)
    def test_matches_mpmath(self, s, want):
        assert abs(riemann_zeta(s) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("s", [1.2, 2.5 + 7j, 3.0, 26.0 - 30j])
    def test_is_euler_maclaurin_above_one(self, s):
        assert riemann_zeta(s) == hurwitz_zeta(s, 1.0)
        assert riemann_zeta(s, tol=1e-15) == hurwitz_zeta(s, 1.0, tol=1e-15)

    def test_negative_odd(self):
        assert riemann_zeta(-3.0).real == pytest.approx(1.0 / 120.0, abs=1e-10)

    def test_even_values_against_brute_force(self):
        n = 2_000_000
        z2 = brute_sum(2, 1, n).real + 1.0 / n
        assert riemann_zeta(2.0).real == pytest.approx(z2, abs=1e-6)
        z4 = brute_sum(4, 1, 20_000).real + 20_000.0**-3 / 3.0
        assert riemann_zeta(4.0).real == pytest.approx(z4, rel=1e-10)
        assert riemann_zeta(4.0).real == pytest.approx(math.pi**4 / 90.0, rel=1e-9)

    def test_pole(self):
        with pytest.raises(PoleError):
            riemann_zeta(1.0)
