"""Hurwitz zeta for Re s > 1 and the polygamma functions built on it.

Only the Re s > 1 regime is implemented (the plate-region cross-check
needs s = 4); the series is accelerated with an Euler-Maclaurin tail.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

# B_2, B_4, ..., B_22
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
)


def hurwitz_zeta(s: complex, q: float, tol: float = 1e-12) -> complex:
    """zeta(s, q) = sum_{l>=0} (l+q)^(-s) for Re s > 1, q > 0.

    Direct summation of the first N = max(16, |s| + 8) terms plus the
    Euler-Maclaurin correction for the tail, so the cost grows linearly
    with |s|; relative accuracy ~1e-12 in the supported regime.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError(f"hurwitz_zeta implemented for Re s > 1, got s = {s}")
    if q <= 0.0:
        raise DomainError(f"q must be positive, got {q}")

    n = max(16, int(math.ceil(abs(s))) + 8, int(math.ceil(16.0 - q)) + 1)
    head = sum((ell + q) ** (-s) for ell in range(n))
    w = n + q
    tail = w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** (-s)
    # sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * w^(-s-2k+1)
    fac = s
    wpow = w ** (-s - 1.0)
    correction = 0.0 + 0.0j
    for k, b2k in enumerate(_BERNOULLI, start=1):
        term = b2k / math.factorial(2 * k) * fac * wpow
        correction += term
        if abs(term) <= tol * max(abs(head), 1.0):
            break
        fac *= (s + 2 * k - 1) * (s + 2 * k)
        wpow /= w * w
    return head + tail + correction


def polygamma(m: int, q: float) -> float:
    """psi^(m)(q) = (-1)^(m+1) m! zeta(m+1, q) for m >= 1, q > 0."""
    if m < 1:
        raise DomainError(f"polygamma order must be >= 1, got {m}")
    value = hurwitz_zeta(m + 1, q)
    return (-1.0) ** (m + 1) * math.factorial(m) * value.real
