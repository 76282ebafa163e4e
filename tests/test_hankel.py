import cmath
import math

import pytest

from zetacasimir import (
    DomainError,
    PoleError,
    QuadratureError,
    gamma,
    hankel_recip_gamma_check,
    polylog_hankel,
    polylog_neg_int,
    polylog_series,
)
from zetacasimir.hankel import default_radius


class TestContourInvariants:
    def test_radius_cap(self):
        with pytest.raises(DomainError):
            polylog_hankel(-1.5, 0.5, radius=2.0 * math.pi, tol=1e-8)
        with pytest.raises(DomainError):
            hankel_recip_gamma_check(-1.5, 1, radius=0.0, tol=1e-8)

    def test_enclosed_root_rejected(self):
        # e^t = -1 has roots at +-i pi; a radius above pi swallows them
        with pytest.raises(DomainError):
            polylog_hankel(-1.5, -1.0, radius=4.0, tol=1e-8)


class TestAgainstSeriesRoute:
    # (s, z) pairs where the series tolerance is achievable
    PAIRS = [
        (-0.5, 0.3),
        (-1.5, 0.7),
        (0.5, 0.5),
        (2.5, 0.9j),
        (3.7, -0.8),
        (2.0001, 0.5),
        (3.2, -1.0),
        (2.5, cmath.exp(1.0j)),
        (-3.5, 0.2 + 0.3j),
        (0.25, -0.9),
    ]

    @pytest.mark.parametrize("s,z", PAIRS)
    def test_route_agreement(self, s, z):
        ref = polylog_series(s, z, tol=1e-11)
        val = polylog_hankel(s, z, tol=1e-10)
        assert abs(val.value - ref) <= 1e-8 * (1.0 + abs(ref))

    def test_example_dilogarithm_point(self):
        val = polylog_hankel(2.0001, 0.5, tol=1e-8)
        assert val.value.real == pytest.approx(0.582240526465, abs=1e-3)


class TestAgainstClosedForm:
    def test_zeta_minus_three(self):
        res = polylog_hankel(-3.0, 1.0, tol=1e-12)
        assert abs(res.value - 1.0 / 120.0) <= 1e-10

    def test_landmark_point_minus_one(self):
        res = polylog_hankel(-3.0, -1.0, tol=1e-10)
        assert res.value.real == pytest.approx(0.125, rel=1e-10)

    @pytest.mark.parametrize(
        "z",
        [
            0.5,
            -0.99,
            0.9j,
            0.3 - 0.6j,
            cmath.exp(2.5j),
            cmath.exp(-0.3j),
            1.0 - 5e-3,
            0.999 * cmath.exp(0.01j),
        ],
    )
    def test_disk_grid(self, z):
        ref = polylog_neg_int(3, z)
        val = polylog_hankel(-3.0, z, tol=1e-10)
        assert abs(val.value - ref) <= 1e-8 * abs(ref)


class TestRecipGammaIdentity:
    CASES = [
        (-3.0, 1),
        (-3.0, 2),
        (-3.0, 3),
        (-1.5, 1),
        (-1.5, 2),
        (-1.5, 3),
        (0.5, 1),
        (0.5, 2),
        (0.5, 3),
        (2.5 + 1.0j, 1),
        (2.5 + 1.0j, 2),
        (2.5 + 1.0j, 3),
    ]

    @pytest.mark.parametrize("s,ell", CASES)
    def test_product_is_one(self, s, ell):
        res = hankel_recip_gamma_check(s, ell, tol=1e-10)
        product = res.value * gamma(1.0 - complex(s)) * complex(ell) ** complex(s)
        assert abs(product - 1.0) <= 1e-8

    def test_examples(self):
        assert hankel_recip_gamma_check(-3.0, 1, tol=1e-8).value.real == pytest.approx(
            1.0 / 6.0, rel=1e-9
        )
        assert hankel_recip_gamma_check(0.5, 4, tol=1e-8).value.real == pytest.approx(
            1.0 / (gamma(0.5).real * 2.0), rel=1e-9
        )
        assert hankel_recip_gamma_check(-3.0, 2, tol=1e-8).value.real == pytest.approx(
            8.0 / 6.0, rel=1e-9
        )

    def test_positive_integer_order_rejected(self):
        with pytest.raises(PoleError):
            hankel_recip_gamma_check(2.0, 1, tol=1e-8)


class TestContourStability:
    @pytest.mark.parametrize("s,z", [(-3.0, -1.0), (-1.5, 0.7), (0.5, 0.5)])
    def test_shrinking_the_loop(self, s, z):
        base = default_radius(z)
        a = polylog_hankel(s, z, radius=base, tol=1e-10)
        b = polylog_hankel(s, z, radius=0.5 * base, tol=1e-10)
        tol = 1e-8 * (1.0 + abs(a.value))
        assert abs(a.value - b.value) <= tol

    def test_tolerance_applies_to_returned_value(self):
        # Gamma(21.3) ~ 1e19 multiplies the core integral; agreement of
        # two passes on the integral alone would pass 1e-5 off
        with pytest.raises(QuadratureError):
            polylog_hankel(-20.3, -1.0, tol=1e-10)
        res = polylog_hankel(-10.5, -1.0, tol=1e-10)
        assert res.error <= 2e-10 * (1.0 + abs(res.value))

    def test_error_estimate_is_honest(self):
        res = polylog_hankel(-1.5, 0.7, tol=1e-10)
        ref = polylog_series(-1.5, 0.7, tol=1e-13)
        assert abs(res.value - ref) <= 10.0 * res.error + 1e-12
