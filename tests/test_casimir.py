import math

import pytest

from zetacasimir import (
    DomainError,
    EvalPoint,
    PlateConfig,
    coefficient_A,
    coefficient_B,
    coefficient_B_cosine,
    continuation_at_zero,
    milton_B,
    pressure,
    renormalized_coefficients,
    single_plate_limit_check,
    tensor_between_plates,
    tensor_outside,
)


def cfg_between(a=1.0, xi=0.0):
    return PlateConfig(a=a, xi=xi)


class TestCoefficients:
    def test_uniform_part(self):
        assert coefficient_A(1.0) == pytest.approx(math.pi**2 / 1440.0, rel=1e-14)

    def test_scaling_with_separation(self):
        assert coefficient_A(2.0) == pytest.approx(coefficient_A(1.0) / 16.0, rel=1e-14)
        assert coefficient_B(2.0, 1.0) == pytest.approx(
            coefficient_B(1.0, 0.5) / 16.0, rel=1e-13
        )

    def test_midpoint_value(self):
        assert coefficient_B(1.0, 0.5) == pytest.approx(math.pi**2 / 48.0, rel=1e-14)

    def test_quarter_point_value(self):
        assert coefficient_B(1.0, 0.25) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("x3", [0.05 * j for j in range(1, 20)])
    def test_two_closed_forms_agree(self, x3):
        a = coefficient_B(1.0, x3)
        b = coefficient_B_cosine(1.0, x3)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_mirror_symmetry(self):
        for x3 in (0.1, 0.23, 0.41):
            assert coefficient_B(1.0, x3) == pytest.approx(
                coefficient_B(1.0, 1.0 - x3), rel=1e-12
            )

    def test_far_plate_accuracy(self):
        # sin(pi x3/a) of an argument next to pi would lose 6e-6 here;
        # the reference is mpmath 1.3.0 at 40 digits
        x3 = 0.99999999999
        want = 6.332571881808463082723177798816987468249e41
        assert coefficient_B(1.0, x3) == pytest.approx(want, rel=1e-15)
        assert coefficient_B(1.0, x3) == milton_B(cfg_between(), EvalPoint(x3))

    def test_huge_separation_keeps_the_nearest_plates(self):
        # a^4 overflows, but B tends to 1/(16 pi^2 x3^4) and must not read 0
        a = 1e100
        assert coefficient_A(a) == 0.0
        want = 1.0 / (16.0 * math.pi**2 * 0.5**4)
        assert coefficient_B(a, 0.5) == pytest.approx(want, rel=1e-15)
        assert coefficient_B(a, 0.5 * a) == 0.0
        # a^4 fits, sin^4(pi x3/a) underflows
        want = 1.0 / (16.0 * math.pi**2 * 1e-6**4)
        assert coefficient_B(1e76, 1e-6) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("a,x3", [(1e100, 0.5), (1e76, 1e-6)])
    def test_hurwitz_form_refuses_what_it_cannot_represent(self, a, x3):
        # a^4 or zeta(4, x3/a) leaves the float range; B is still finite
        with pytest.raises(DomainError, match="Hurwitz form"):
            milton_B(cfg_between(a=a), EvalPoint(x3))

    def test_tiny_separation_overflows(self):
        with pytest.raises(DomainError, match="overflows"):
            coefficient_A(1e-100)
        with pytest.raises(DomainError, match="overflows"):
            coefficient_B(1e-100, 5e-101)
        with pytest.raises(DomainError, match="overflows"):
            milton_B(cfg_between(a=1e-100), EvalPoint(5e-101))

    def test_rejects_points_on_plates(self):
        with pytest.raises(DomainError):
            renormalized_coefficients(cfg_between(), EvalPoint(0.0))
        with pytest.raises(DomainError):
            renormalized_coefficients(cfg_between(), EvalPoint(1.0))


class TestMiltonRoute:
    def test_agrees_with_trig_form_on_grid(self):
        cfg = cfg_between()
        worst = 0.0
        for j in range(1, 100):
            p = EvalPoint(0.01 * j)
            trig = coefficient_B(cfg.a, p.x3)
            alt = milton_B(cfg, p)
            worst = max(worst, abs(alt - trig) / abs(trig))
        assert worst <= 1e-10

    def test_agrees_with_sine_form_near_plate(self):
        for x3 in (1e-7, 1e-8, 1e-12):
            p = EvalPoint(x3)
            trig = coefficient_B(1.0, x3)
            assert abs(milton_B(cfg_between(), p) - trig) <= 1e-12 * trig

    def test_next_to_far_plate(self):
        # x3 = a (1 - 1e-11) with a != 1: 1 - x3/a would keep only ~5
        # digits of the distance; the value is mpmath's at 40 digits
        got = milton_B(cfg_between(a=0.352), EvalPoint(0.35199999999647996))
        want = 4.1247813010499319928e43
        assert abs(got - want) <= 1e-13 * want

    def test_raises_where_b_overflows(self):
        with pytest.raises(DomainError, match="overflows"):
            milton_B(cfg_between(), EvalPoint(1e-100))
        with pytest.raises(DomainError, match="overflows"):
            coefficient_B(1.0, 1e-100)


class TestTensorBetween:
    def test_conformal_coupling(self):
        a_val = math.pi**2 / 1440.0
        t = tensor_between_plates(cfg_between(xi=1.0 / 6.0), EvalPoint(0.321))
        assert t.t00 == pytest.approx(-a_val, rel=1e-13)
        assert t.t33 == pytest.approx(-3.0 * a_val, rel=1e-13)
        assert abs(t.trace()) <= 1e-13 * abs(t.t00)

    def test_minimal_coupling_midpoint(self):
        t = tensor_between_plates(cfg_between(), EvalPoint(0.5))
        expected00 = -(math.pi**2 / 1440.0 + math.pi**2 / 48.0)
        assert t.t00 == pytest.approx(expected00, rel=1e-13)
        assert t.t11 == t.t22

    def test_matches_continuation_route(self):
        # closed form against the regulator continuation at u = 0
        for xi in (0.0, 1.0 / 6.0, 1.0):
            cfg = cfg_between(xi=xi)
            for j in range(1, 10):
                p = EvalPoint(0.1 * j)
                closed = tensor_between_plates(cfg, p)
                cont = continuation_at_zero(cfg, p)
                for a, b in zip(closed.as_tuple(), cont.as_tuple()):
                    assert abs(a - b) <= 1e-10 * max(abs(a), 1e-12)

    def test_boundary_divergence_normalization(self):
        # B(x3) * 16 pi^2 x3^4 -> 1 approaching a plate
        for x3 in (1e-2, 1e-3, 1e-4):
            val = coefficient_B(1.0, x3) * 16.0 * math.pi**2 * x3**4
            assert val == pytest.approx(1.0, abs=40.0 * x3**2)


class TestTensorOutside:
    def test_left_region_value(self):
        cfg = PlateConfig(a=1.0, xi=0.0)
        t = tensor_outside(cfg, EvalPoint(-0.5))
        w = 1.0 / (16.0 * math.pi**2 * 0.5**4)
        assert t.t00 == pytest.approx(-w, rel=1e-13)
        assert t.t11 == pytest.approx(w, rel=1e-13)
        assert t.t33 == 0.0

    def test_right_region_uses_adjacent_plate(self):
        cfg = PlateConfig(a=2.0, xi=0.0)
        t_r = tensor_outside(cfg, EvalPoint(2.7))
        t_l = tensor_outside(cfg, EvalPoint(-0.7))
        for a, b in zip(t_r.as_tuple(), t_l.as_tuple()):
            assert a == pytest.approx(b, rel=1e-13)

    def test_conformal_coupling_vanishes_outside(self):
        cfg = PlateConfig(a=1.0, xi=1.0 / 6.0)
        t = tensor_outside(cfg, EvalPoint(-1.0))
        assert t.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("xi,sign", [(0.0, 1.0), (1.0, -1.0)])
    def test_far_field_underflows_to_signed_zero(self, xi, sign):
        # dist**4 overflows; w = (1 - 6 xi) / inf keeps the sign of 1 - 6 xi
        cfg = PlateConfig(a=1.0, xi=xi)
        for x3 in (-1e100, 1e100):
            t = tensor_outside(cfg, EvalPoint(x3))
            assert t.as_tuple() == (0.0, 0.0, 0.0, 0.0)
            assert math.copysign(1.0, t.t11) == sign
            assert math.copysign(1.0, t.t00) == -sign

    def test_raises_where_tensor_overflows(self):
        with pytest.raises(DomainError, match="overflows"):
            tensor_outside(PlateConfig(a=1.0), EvalPoint(-1e-100))

    def test_region_mismatch(self):
        # the side comes from x3, so only a point between the plates is wrong
        with pytest.raises(DomainError):
            tensor_outside(PlateConfig(a=1.0), EvalPoint(0.5))


class TestSinglePlateLimit:
    def test_deviation_decays_quadratically(self):
        devs = single_plate_limit_check(EvalPoint(0.5), [10.0, 20.0, 40.0, 80.0])
        assert all(b < a for a, b in zip(devs, devs[1:]))
        for d, a in zip(devs, [10.0, 20.0, 40.0, 80.0]):
            # leading correction is (pi x3 / a)^4 / 45
            assert d == pytest.approx((math.pi * 0.5 / a) ** 4 / 45.0, rel=0.1)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            single_plate_limit_check(EvalPoint(0.5), [0.4, 10.0])
        with pytest.raises(DomainError):
            single_plate_limit_check(EvalPoint(0.5), [10.0, 5.0])


class TestPressure:
    def test_magnitude_and_direction(self):
        at_zero, at_a = pressure(cfg_between())
        mag = math.pi**2 / 480.0
        assert at_zero.p3 == pytest.approx(mag, rel=1e-13)
        assert at_a.p3 == pytest.approx(-mag, rel=1e-13)
        assert (at_zero.p1, at_zero.p2) == (0.0, 0.0)

    def test_separation_scaling(self):
        near, _ = pressure(cfg_between(a=1.0))
        far, _ = pressure(cfg_between(a=2.0))
        assert near.p3 == pytest.approx(16.0 * far.p3, rel=1e-13)

    def test_independent_of_coupling(self):
        a0, _ = pressure(cfg_between(xi=0.0))
        a1, _ = pressure(cfg_between(xi=1.0))
        assert a0 == a1
