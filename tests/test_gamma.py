import cmath
import math

import pytest

from zetacasimir import DomainError, PoleError, gamma


def test_integer_values():
    assert gamma(1) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5) == pytest.approx(24.0, rel=1e-14)
    assert gamma(8) == pytest.approx(5040.0, rel=1e-13)


def test_half_integer():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


@pytest.mark.parametrize("s", [0, -1, -2, -7, 0.0 + 0.0j])
def test_poles(s):
    with pytest.raises(PoleError):
        gamma(s)


@pytest.mark.parametrize(
    "s",
    [0.3, 1.7, -2.4, 4.5, 9.25, 15.5, -9.75, 2.5 + 1.0j, -3.5 + 2.0j, 0.5 - 7.0j],
)
def test_recurrence_identity(s):
    # Gamma(s+1) = s Gamma(s), a route-independent functional equation
    s = complex(s)
    assert gamma(s + 1.0) == pytest.approx(s * gamma(s), rel=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.8, 1.3 + 0.7j, -4.6, 6.1 - 2.0j])
def test_reflection_identity(s):
    s = complex(s)
    lhs = gamma(s) * gamma(1.0 - s)
    rhs = math.pi / cmath.sin(math.pi * s)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_accuracy_against_known_large_value():
    # Gamma(20) = 19!
    assert gamma(20) == pytest.approx(math.factorial(19), rel=1e-12)


def test_conjugate_symmetry():
    s = 3.2 + 1.4j
    assert gamma(s.conjugate()) == pytest.approx(gamma(s).conjugate(), rel=1e-13)


@pytest.mark.parametrize("s", [1e-320, -1e-320, 5e-324, 1e-320j])
def test_overflow_next_to_zero_raises(s):
    # pi / (sin(pi s) Gamma(1 - s)) overflows although s is no pole
    with pytest.raises(DomainError, match="overflows"):
        gamma(s)
