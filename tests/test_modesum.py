import cmath
import math

import numpy as np
import pytest

from zetacasimir import (
    DomainError,
    EvalPoint,
    PlateConfig,
    PoleError,
    Region,
    continuation_at_zero,
    gamma,
    hurwitz_zeta,
    mode_sum_bruteforce,
    polylog,
    radial_integral_oracle,
    region_of,
    regularized_coefficients,
    regularized_vev,
)
from zetacasimir.casimir import milton_B, renormalized_coefficients
from zetacasimir.extrapolate import richardson_even
from zetacasimir.modesum import _partial_mode_sums, _prefactor

A_UNIT = math.pi**2 / 1440.0
B_MID = math.pi**2 / 48.0


def cfg_between(a=1.0, xi=0.0):
    return PlateConfig(a=a, xi=xi)


def loop_mode_sums(u, phase, L):
    """Reference for the brute-force kernel: sum l^(3-u) and
    sum 2 cos(l phase) l^(3-u) with a complex exp and a cos per term."""
    ell = np.arange(1, L + 1, dtype=np.float64)
    powers = np.exp((3.0 - u) * np.log(ell))
    return complex(np.sum(powers)), complex(np.sum(2.0 * np.cos(phase * ell) * powers))


class TestTypes:
    def test_plate_config_validation(self):
        with pytest.raises(DomainError):
            PlateConfig(a=-1.0)

    @pytest.mark.parametrize("a", [1.0, 2.5])
    def test_region_of(self, a):
        assert region_of(a, -0.5) is Region.LEFT_OUTSIDE
        assert region_of(a, a + 0.5) is Region.RIGHT_OUTSIDE
        assert region_of(a, 0.5 * a) is Region.BETWEEN
        # the nearest floats inside each plate are already between them
        assert region_of(a, 5e-324) is Region.BETWEEN
        assert region_of(a, math.nextafter(a, 0.0)) is Region.BETWEEN
        for plate in (0.0, -0.0, a):
            with pytest.raises(DomainError, match="lies exactly on a plate"):
                region_of(a, plate)

    @pytest.mark.parametrize("x3", [-0.5, 1.5, 0.0])
    def test_between_only_functions_reject_other_points(self, x3):
        with pytest.raises(DomainError):
            regularized_coefficients(0.5, cfg_between(), EvalPoint(x3))
        with pytest.raises(DomainError):
            mode_sum_bruteforce(5.0, cfg_between(), EvalPoint(x3), 10)

    @pytest.mark.parametrize(
        "call,defined",
        [
            (lambda p: regularized_coefficients(0.5, cfg_between(), p),
             "the regularized coefficients are defined"),
            (lambda p: mode_sum_bruteforce(5.0, cfg_between(), p, 10), "the mode sum is defined"),
            (lambda p: radial_integral_oracle(5.0, cfg_between(), p, 10),
             "the radial oracle is defined"),
            (lambda p: renormalized_coefficients(cfg_between(), p), "B is defined"),
            (lambda p: milton_B(cfg_between(), p), "B is defined"),
        ],
    )
    def test_outside_point_message(self, call, defined):
        with pytest.raises(DomainError) as exc:
            call(EvalPoint(1.5))
        assert str(exc.value) == f"x3 = 1.5 is outside the plates; {defined} between them"


class TestRegularizedCoefficients:
    def test_values_at_zero_regulator(self):
        coeffs = regularized_coefficients(0.0, cfg_between(), EvalPoint(0.5))
        assert coeffs.A_u.real == pytest.approx(A_UNIT, rel=1e-12)
        assert coeffs.B_u.real == pytest.approx(B_MID, rel=1e-12)

    def test_quarter_point(self):
        coeffs = regularized_coefficients(0.0, cfg_between(), EvalPoint(0.25))
        assert coeffs.B_u.real == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_matches_bruteforce_in_convergent_regime(self):
        cfg = cfg_between()
        p = EvalPoint(0.5)
        coeffs = regularized_coefficients(5.0, cfg, p)
        res = mode_sum_bruteforce(5.0, cfg, p, 100_000)
        # t33 = (u-3) A_u isolates the A coefficient
        assert abs(res.tensor.t33 - 2.0 * coeffs.A_u) <= abs(res.tail_bound.t33)

    @pytest.mark.parametrize("u", [1.0, 3.0])
    def test_prefactor_poles(self, u):
        with pytest.raises(PoleError):
            regularized_coefficients(u, cfg_between(), EvalPoint(0.5))

    def test_b_is_real_at_real_regulator(self):
        coeffs = regularized_coefficients(4.7, cfg_between(), EvalPoint(0.37))
        assert coeffs.B_u.imag == 0.0

    @pytest.mark.parametrize("u", [5.0, 0.5, 2.0, -0.5])
    def test_a_is_real_at_real_regulator(self, u):
        coeffs = regularized_coefficients(u, cfg_between(), EvalPoint(0.37))
        assert coeffs.A_u.imag == 0.0

    @pytest.mark.parametrize("u", [-2.3, -0.5, 0.4, 2.0, 4.7])
    def test_b_is_real_and_conjugate_symmetric(self, u):
        # Li_s(conj z) = conj Li_s(z): the pair is 2 Re Li_s(z)
        cfg, p = cfg_between(a=1.7), EvalPoint(0.61)
        z = cmath.exp(2j * math.pi * p.x3 / cfg.a)
        want = 2.0 * polylog(u - 3.0, z).real * _prefactor(complex(u), cfg.a).real
        coeffs = regularized_coefficients(u, cfg, p)
        assert coeffs.B_u.imag == 0.0
        assert abs(coeffs.B_u - want) <= 1e-12 * abs(want)

    def test_near_minus_one_matches_jonquiere_form(self):
        # the quadrature leaves a 2.8e-12 imaginary residue here, which
        # is dropped; the reference is B_u by Jonquiere's inversion, w = 4 - u
        u, a, x3 = -0.99970, 0.352, 0.212 * 0.352
        coeffs = regularized_coefficients(u, cfg_between(a=a), EvalPoint(x3))
        q, w = x3 / a, 4.0 - u
        want = (
            _prefactor(complex(u), a) * gamma(w) * (2.0 * math.pi) ** -w
            * 2.0 * math.cos(0.5 * math.pi * w)
            * (hurwitz_zeta(w, q) + hurwitz_zeta(w, 1.0 - q))
        )
        assert abs(coeffs.B_u - want) <= 1e-10 * abs(want)


class TestRegularizedVev:
    def test_conformal_case_kills_b(self):
        t = regularized_vev(0.0, cfg_between(xi=1.0 / 6.0), EvalPoint(0.123))
        assert t.t00.real == pytest.approx(-A_UNIT, rel=1e-12)
        assert t.t11.real == pytest.approx(A_UNIT, rel=1e-12)
        assert t.t22.real == pytest.approx(A_UNIT, rel=1e-12)
        assert t.t33.real == pytest.approx(-3.0 * A_UNIT, rel=1e-12)

    def test_minimal_coupling_midpoint(self):
        t = regularized_vev(0.0, cfg_between(xi=0.0), EvalPoint(0.5))
        assert t.t00.real == pytest.approx(-(A_UNIT + B_MID), rel=1e-12)
        assert t.t33.real == pytest.approx(-3.0 * A_UNIT, rel=1e-12)

    def test_t33_at_u_five(self):
        # t33 = (u-3) A_u with A_u = zeta(2) / (4 pi^3 * 2 * 4 * a^{-1})
        t = regularized_vev(5.0, cfg_between(), EvalPoint(0.5))
        a5 = (math.pi**2 / 6.0) / (4.0 * math.pi**3 * 2.0 * 4.0)
        assert t.t33.real == pytest.approx(2.0 * a5, rel=1e-10)


class TestBruteforceOracle:
    def test_domain_requires_convergent_regime(self):
        with pytest.raises(DomainError):
            mode_sum_bruteforce(4.0, cfg_between(), EvalPoint(0.5), 100)

    @pytest.mark.parametrize("re_u", [4.5, 5.0, 6.0])
    @pytest.mark.parametrize("im_u", [0.0, 1.0])
    def test_oracle_chain_against_closed_form(self, re_u, im_u):
        u = complex(re_u, im_u)
        cfg = cfg_between(xi=0.25)
        p = EvalPoint(0.3)
        res = mode_sum_bruteforce(u, cfg, p, 30_000)
        closed = regularized_vev(u, cfg, p)
        for got, want, bound in zip(
            res.tensor.as_tuple(), closed.as_tuple(), res.tail_bound.as_tuple()
        ):
            assert abs(got - want) <= abs(bound)

    def test_planar_isotropy_exact(self):
        res = mode_sum_bruteforce(6.0, cfg_between(a=2.0, xi=1.0 / 6.0), EvalPoint(1.0), 1000)
        assert res.tensor.t11 == res.tensor.t22

    def test_cauchy_self_consistency(self):
        cfg = cfg_between()
        p = EvalPoint(0.5)
        small = mode_sum_bruteforce(5.0, cfg, p, 100)
        large = mode_sum_bruteforce(5.0, cfg, p, 10_000)
        for a, b, bound in zip(
            small.tensor.as_tuple(),
            large.tensor.as_tuple(),
            small.tail_bound.as_tuple(),
        ):
            assert abs(a - b) <= abs(bound)

    @pytest.mark.parametrize("u", [5.0, 4.3, 5.5 + 1.2j, 4.7 - 0.3j])
    @pytest.mark.parametrize("q", [0.37, 0.98])
    def test_kernel_matches_loop_reference(self, u, q):
        # row and chunk edges: 1024 terms per row, 2^17 per chunk
        stops = [1, 1023, 1024, 1025, 2**17, 2**17 + 1, 300_001]
        phase = 2.0 * math.pi * q
        sums = _partial_mode_sums(complex(u), phase, stops)
        assert sorted(sums) == stops
        for L in stops:
            for got, want in zip(sums[L], loop_mode_sums(u, phase, L)):
                assert abs(got - want) <= 1e-13 * abs(want)


class TestRadialOracle:
    def test_matches_bruteforce_t00(self):
        cfg = cfg_between()
        p = EvalPoint(0.5)
        val = radial_integral_oracle(5.0, cfg, p, 50)
        ref = mode_sum_bruteforce(5.0, cfg, p, 50).tensor.t00
        assert abs(val - ref) <= 1e-6 * abs(ref)

    def test_single_mode_closed_form(self):
        # hand-integrated single-term value
        u, xi, x3 = 5.0, 0.2, 0.3
        cfg = cfg_between(xi=xi)
        val = radial_integral_oracle(u, cfg, EvalPoint(x3), 1)
        cosphi = math.cos(2.0 * math.pi * x3)
        radial = (1.0 - cosphi) / (u - 3.0) + (1.0 - 4.0 * xi) * cosphi / (u - 1.0)
        expected = 2.0 * math.pi / (8.0 * math.pi ** (u - 1.0)) * radial
        assert val.real == pytest.approx(expected, rel=1e-9)

    def test_complex_regulator(self):
        cfg = cfg_between()
        p = EvalPoint(0.25)
        val = radial_integral_oracle(5.0 + 1.0j, cfg, p, 20)
        ref = mode_sum_bruteforce(5.0 + 1.0j, cfg, p, 20).tensor.t00
        assert abs(val - ref) <= 1e-6 * abs(ref)

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_integral_oracle(4.0, cfg_between(), EvalPoint(0.5), 10)


class TestContinuation:
    @pytest.mark.parametrize("xi,x3", [(0.0, 0.5), (1.0 / 6.0, 0.3), (1.0, 0.25)])
    def test_richardson_extrapolation_to_zero(self, xi, x3):
        cfg = cfg_between(xi=xi)
        p = EvalPoint(x3)
        ref = continuation_at_zero(cfg, p)
        for idx in range(4):
            def component(h, _idx=idx):
                return regularized_vev(h, cfg, p).as_tuple()[_idx]

            extrap = richardson_even(component, [0.1, 0.05, 0.025])
            want = ref.as_tuple()[idx]
            assert abs(extrap - want) <= 1e-6 * max(abs(want), 1e-12)

    def test_t33_constant_in_x3(self):
        cfg = cfg_between()
        ref = continuation_at_zero(cfg, EvalPoint(0.5)).t33
        worst = max(
            abs(continuation_at_zero(cfg, EvalPoint(0.1 * j)).t33 - ref)
            for j in range(1, 10)
        )
        assert worst <= 1e-12 * abs(ref)

    def test_conformal_flatness(self):
        cfg = cfg_between(xi=1.0 / 6.0)
        ref = continuation_at_zero(cfg, EvalPoint(0.5))
        for j in range(1, 10):
            t = continuation_at_zero(cfg, EvalPoint(0.1 * j))
            for a, b in zip(t.as_tuple(), ref.as_tuple()):
                assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300)

    def test_conformal_trace_vanishes(self):
        cfg = cfg_between(xi=1.0 / 6.0)
        for j in range(1, 10):
            t = continuation_at_zero(cfg, EvalPoint(0.1 * j))
            assert abs(t.trace()) <= 1e-12 * abs(t.t00)

    def test_boundary_divergence_rate(self):
        # t00 ~ -(1 - 6 xi)/(16 pi^2 x3^4) toward the plate
        cfg = cfg_between()
        x3 = 0.01
        t = continuation_at_zero(cfg, EvalPoint(x3))
        leading = -1.0 / (16.0 * math.pi**2 * x3**4)
        assert t.t00.real == pytest.approx(leading, rel=5e-3)
