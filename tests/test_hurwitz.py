import math

import numpy as np
import pytest

from zetacasimir import DomainError, PoleError, hurwitz_zeta, polygamma, riemann_zeta


def brute_hurwitz(s, q, n=400_000):
    s = complex(s)
    ell = np.arange(n, dtype=float)
    head = complex(np.sum((ell + q) ** (-s)))
    # integral tail estimate with midpoint correction
    w = n + q
    return head + w ** (1.0 - s) / (s - 1.0) + 0.5 * w**-s


class TestHurwitzZeta:
    def test_reduces_to_riemann_at_q_one(self):
        assert hurwitz_zeta(4.0, 1.0).real == pytest.approx(
            math.pi**4 / 90.0, rel=1e-12
        )

    def test_shift_identity(self):
        z4 = hurwitz_zeta(4.0, 1.0).real
        assert hurwitz_zeta(4.0, 2.0).real == pytest.approx(z4 - 1.0, rel=1e-12)

    def test_half_argument_splits_even_odd(self):
        # zeta(4, 1/2) = (2^4 - 1) zeta(4)
        expected = brute_hurwitz(4.0, 0.5)
        val = hurwitz_zeta(4.0, 0.5).real
        assert val == pytest.approx(expected, rel=1e-11)
        assert val == pytest.approx(15.0 * math.pi**4 / 90.0, rel=1e-12)

    @pytest.mark.parametrize("s", [1.5, 2.0, 4.0, 6.3, 2.0 + 1.0j])
    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 2.7, 11.0])
    def test_against_brute_force(self, s, q):
        val = hurwitz_zeta(s, q)
        ref = brute_hurwitz(complex(s), q)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_small_q_leading_term(self):
        q = 1e-5
        val = hurwitz_zeta(4.0, q).real
        assert val == pytest.approx(q**-4, rel=1e-4)

    def test_domain_errors(self):
        # continued below Re s = 1; zeta(1/2) from mpmath 1.3.0 at 30 digits
        assert abs(hurwitz_zeta(0.5, 1.0) - (-1.4603545088095868)) <= 1e-14
        for s in (-1.0, -1.5 + 2.0j, -30.0):
            with pytest.raises(DomainError):
                hurwitz_zeta(s, 1.0)
        for q in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                hurwitz_zeta(4.0, q)
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 0.3)

    def test_large_order_is_the_first_term(self):
        # past Re s ~ 55 the terms after 1 are below half an ulp
        assert riemann_zeta(1e300) == 1.0
        assert hurwitz_zeta(60.0, 1.0) == 1.0
        assert hurwitz_zeta(100.0 + 3.0j, 2.0) == 2.0 ** -(100.0 + 3.0j)

    def test_work_is_bounded(self):
        # the head would sum ~1e9 terms
        with pytest.raises(DomainError, match="terms"):
            hurwitz_zeta(2.0 + 1e9j, 1.0)
        with pytest.raises(DomainError, match="overflows"):
            hurwitz_zeta(1e300, 0.5)


def _first_term_edge(s):
    """The largest q at which hurwitz_zeta(s, q) returns its first term alone:
    the q bisected on its early-return test, (q/(1+q))^s (1 + (1+q)/(s-1))
    <= 2^-54."""
    lo, hi = 1e-12, 1.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if (mid / (1.0 + mid)) ** s * (1.0 + (1.0 + mid) / (s - 1.0)) <= 2.0**-54:
            lo = mid
        else:
            hi = mid
    return lo


def _scalar_real(s, q):
    try:
        return hurwitz_zeta(s, q).real
    except DomainError:  # zeta(s, q) overflows
        return math.inf


class TestArrayArgument:
    """An ndarray q takes the scalar arithmetic element by element, so each
    element is the scalar call's real part bit for bit."""

    @staticmethod
    def q_draws(s):
        rng = np.random.default_rng(20)
        edge = _first_term_edge(s)
        near_edge = [edge]
        for _ in range(8):
            near_edge = [np.nextafter(near_edge[0], 0.0), *near_edge, np.nextafter(near_edge[-1], 1.0)]
        ulp = 2.0**-53
        return np.concatenate([
            10.0 ** rng.uniform(-12.0, 0.0, 3000),  # log-uniform in [1e-12, 1)
            rng.uniform(0.2 * edge, 3.0 * edge, 1000),  # the early-return band and past it
            near_edge,  # the last q that returns the first term, and 8 ulp on each side
            [1.0 - ulp, 1.0 - 2.0 * ulp, 1.0, 1e-17],  # 1 - q within 1 ulp of 1, where n = 16
            10.0 ** rng.uniform(-100.0, -77.0, 50),  # overflows at s = 4
        ])

    @pytest.mark.parametrize("s", [4.0, 2.5, 7.0, 120.0])
    def test_equals_scalar_calls_bit_for_bit(self, s):
        q = self.q_draws(s)
        got = hurwitz_zeta(s, q)
        assert got.dtype == np.float64 and got.shape == q.shape
        want = [_scalar_real(s, v) for v in q.tolist()]
        mismatched = [(v, g, w) for v, g, w in zip(q.tolist(), got.tolist(), want) if g != w]
        assert mismatched == []

    def test_both_sides_of_the_early_return(self):
        edge = _first_term_edge(4.0)
        past = np.nextafter(edge, 1.0)
        got = hurwitz_zeta(4.0, np.array([edge, past]))
        assert got[0] == (edge + 0j) ** -4.0
        assert got[1] == hurwitz_zeta(4.0, past).real

    def test_overflow_is_inf_where_the_scalar_raises(self):
        got = hurwitz_zeta(4.0, np.array([1e-78, 0.5]))
        assert got[0] == math.inf and got[1] == hurwitz_zeta(4.0, 0.5).real
        with pytest.raises(DomainError, match="overflows"):
            hurwitz_zeta(4.0, 1e-78)

    def test_shape_kept(self):
        q = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert hurwitz_zeta(4.0, q).tolist() == [
            [hurwitz_zeta(4.0, v).real for v in row] for row in q.tolist()
        ]

    def test_domain_errors(self):
        for q in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(DomainError, match="q must be positive"):
                hurwitz_zeta(4.0, np.array([0.5, q]))
        for s in (1.0, 0.5, 2.0 + 1.0j, math.inf):
            with pytest.raises(DomainError, match="real s > 1"):
                hurwitz_zeta(s, np.array([0.5]))


class TestPolygamma:
    def test_tetragamma_at_one(self):
        # 6 zeta(4) = pi^4/15
        assert polygamma(3, 1.0) == pytest.approx(math.pi**4 / 15.0, rel=1e-12)

    def test_tetragamma_at_half(self):
        assert polygamma(3, 0.5) == pytest.approx(math.pi**4, rel=1e-12)

    def test_shift(self):
        z4 = hurwitz_zeta(4.0, 1.0).real
        assert polygamma(3, 2.0) == pytest.approx(6.0 * (z4 - 1.0), rel=1e-12)

    @pytest.mark.parametrize("q", [0.2, 0.7, 1.3, 3.1])
    def test_consistency_with_hurwitz(self, q):
        assert polygamma(3, q) == pytest.approx(
            6.0 * hurwitz_zeta(4.0, q).real, rel=1e-13
        )

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.4])
    def test_reflection_identity(self, q):
        # psi'''(1-q) + psi'''(q) = 2 pi^4 (1 + c^2)(1 + 3 c^2), c = cot(pi q)
        c = 1.0 / math.tan(math.pi * q)
        rhs = 2.0 * math.pi**4 * (1.0 + c * c) * (1.0 + 3.0 * c * c)
        lhs = polygamma(3, 1.0 - q) + polygamma(3, q)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            polygamma(0, 1.0)

    @pytest.mark.parametrize("m,q", [(10**10, 1.0), (171, 1.0), (100, 0.01)])
    def test_order_beyond_float_range(self, m, q):
        # m! leaves the float range above m = 170, m! q^(-m-1) at (100, 0.01)
        with pytest.raises(DomainError):
            polygamma(m, q)
