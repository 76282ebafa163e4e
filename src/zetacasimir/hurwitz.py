"""Hurwitz zeta for Re s > -1 and the polygamma functions built on it.

``hurwitz_zeta`` is the package's one zeta engine: a direct head sum
with an Euler-Maclaurin tail, continued past the pole at s = 1 down to
Re s > -1.  Below that the head sum cancels (2e-9 off at Re s = -5.5);
``polylog`` reaches smaller Re s through the reflection formula.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import DomainError, PoleError

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
# the head sums about |s| terms; beyond this many the cost is refused
_MAX_TERMS = 10_000
# below this share of the first term the rest of the sum is lost in rounding
_HALF_ULP = 2.0**-54
_LOG_MAX = math.log(sys.float_info.max)


def _power(x: np.ndarray, p: float) -> np.ndarray:
    """x**p at x > 0 and real p, rounded as CPython rounds complex(x)**p:
    at an integer |p| <= 100 by repeated squaring and one reciprocal, whose
    real parts are these real products; otherwise by libm pow per element,
    inf where it overflows."""
    if p != math.floor(p) or abs(p) > 100.0:
        return np.array([_libm_pow(v, p) for v in x.tolist()])
    m, square, result = int(abs(p)), x, None
    while True:
        if m & 1:
            result = square if result is None else result * square
        m >>= 1
        if not m:
            return 1.0 / result if p < 0.0 else result
        square = square * square


def _libm_pow(x: float, p: float) -> float:
    try:
        return x**p
    except OverflowError:
        return math.inf


def _hurwitz_zeta_array(sigma: float, q: np.ndarray) -> np.ndarray:
    """zeta(sigma, q) at real sigma > 1 over an array q, equal bit for bit to
    the real part of the scalar call at each element where no power leaves
    the float range: the same term count, early return and Bernoulli stop,
    each per element.  The overflow test and the early-return test use
    math.log and Python's float ** per element, since numpy's vector loops
    do not promise libm's bits.  inf where zeta(sigma, q) overflows."""
    bad = q[~((0.0 < q) & (q < math.inf))]
    if bad.size:
        raise DomainError(f"q must be positive and finite, got {bad[0]}")
    n_s = max(16, int(math.ceil(sigma)) + 8)
    if n_s > _MAX_TERMS:
        raise DomainError(
            f"hurwitz_zeta would sum {n_s} terms at s = {complex(sigma)}; |s| up to "
            f"{_MAX_TERMS - 8} is supported"
        )
    # both the overflow and the early return need (q/(1+q))^sigma <= 2^-54,
    # which numpy's power gets within a few ulp: the exact tests run on the
    # elements below twice that alone
    over = np.zeros(q.shape, dtype=bool)
    early = np.zeros(q.shape, dtype=bool)
    for i in np.flatnonzero(np.power(q / (1.0 + q), sigma) <= 2.0 * _HALF_ULP).tolist():
        v = q[i].item()
        log_q = math.log(v)
        over[i] = max(-sigma * log_q, (1.0 - sigma) * log_q) > _LOG_MAX
        early[i] = (v / (1.0 + v)) ** sigma * (1.0 + (1.0 + v) / (sigma - 1.0)) <= _HALF_ULP
    out = np.full(q.shape, math.inf)
    first = early & ~over
    out[first] = _power(q[first], -sigma)
    rest = ~early & ~over
    q = q[rest]
    n = np.maximum(n_s, np.ceil(16.0 - q) + 1.0)
    head = np.zeros_like(q)
    for ell in range(int(n.max(initial=0.0))):
        term = _power(ell + q, -sigma)
        # every n is at least n_s: only the last terms are masked
        head = head + term if ell < n_s else np.where(ell < n, head + term, head)
    w = n + q
    tail = _power(w, 1.0 - sigma) / (sigma - 1.0) + 0.5 * _power(w, -sigma)
    scale = np.maximum(np.abs(head), 1.0)
    fac = sigma
    wpow = _power(w, -sigma - 1.0)
    correction = np.zeros_like(q)
    active = np.ones(q.shape, dtype=bool)
    for k, b2k in enumerate(_BERNOULLI, start=1):
        term = b2k / math.factorial(2 * k) * fac * wpow
        correction = np.where(active, correction + term, correction)
        active &= ~(np.abs(term) <= 1e-12 * scale)
        if not active.any():
            break
        fac *= (sigma + 2 * k - 1) * (sigma + 2 * k)
        wpow = wpow / (w * w)
    out[rest] = head + tail + correction
    return out


def hurwitz_zeta(s: complex, q: float) -> complex:
    """zeta(s, q) = sum_{l>=0} (l+q)^(-s), continued to Re s > -1, q > 0.

    Direct summation of the first N = max(16, |s| + 8) terms plus the
    Euler-Maclaurin correction for the tail, so the cost grows linearly
    with |s|.  The Bernoulli terms stop at a fixed 1e-12, relative to the
    head for Re s > 1 and absolute below; no caller tolerance reaches the
    stop.  The error is ~1e-12 relative for Re s > 1 and within
    1e-13 max(1, |zeta|) for -1 < Re s < 1, |Im s| <= 2 (the frozen
    mpmath table of the tests).  At real s where the terms past
    the first fall below half an ulp of it, that term alone is returned:
    the value the full sum rounds to.  PoleError at s = 1; DomainError
    for Re s <= -1, q <= 0, non-finite input, a first or tail term
    beyond the float range, and N > 10 000.

    An ndarray q needs a real s > 1 and gives a float ndarray, inf where
    zeta(s, q) overflows: each element is the real part of the scalar
    call, bit for bit, by the same arithmetic over the array (numpy's
    power and complex division round differently, so neither makes a
    value).
    """
    if isinstance(q, np.ndarray):
        s = complex(s)
        if not (s.imag == 0.0 and 1.0 < s.real < math.inf):
            raise DomainError(f"an array q needs a real s > 1, got s = {s}")
        return _hurwitz_zeta_array(s.real, q.ravel()).reshape(q.shape)
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"hurwitz_zeta needs a finite s, got {s}")
    if s == 1.0:
        raise PoleError("zeta(s, q) has its only pole at s = 1")
    if s.real <= -1.0:
        raise DomainError(f"hurwitz_zeta implemented for Re s > -1, got s = {s}")
    if not 0.0 < q < math.inf:
        raise DomainError(f"q must be positive and finite, got {q}")
    sigma = s.real
    # |q^(-s)| and |q^(1-s)|, the size of the first term and of the tail
    log_q = math.log(q)
    if max(-sigma * log_q, (1.0 - sigma) * log_q) > _LOG_MAX:
        raise DomainError(f"zeta(s, q) overflows at s = {s}, q = {q}")

    if s.imag == 0.0 and sigma > 1.0:
        # sum_{l>=1} (l+q)^(-s) <= (1+q)^(-s) (1 + (1+q)/(s-1)); below half
        # an ulp of q^(-s) each of those terms leaves the sum unchanged
        # (0.0 + gives the +0.0 imaginary part the full sum has)
        if (q / (1.0 + q)) ** sigma * (1.0 + (1.0 + q) / (sigma - 1.0)) <= _HALF_ULP:
            return 0.0 + q ** (-s)
    n = max(16, int(math.ceil(abs(s))) + 8, int(math.ceil(16.0 - q)) + 1)
    if n > _MAX_TERMS:
        raise DomainError(
            f"hurwitz_zeta would sum {n} terms at s = {s}; |s| up to "
            f"{_MAX_TERMS - 8} is supported"
        )
    head = sum((ell + q) ** (-s) for ell in range(n))
    w = n + q
    tail = w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** (-s)
    # below Re s = 1 the head cancels against the tail: no scale for the stop
    scale = max(abs(head), 1.0) if sigma > 1.0 else 1.0
    # sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * w^(-s-2k+1)
    fac = s
    wpow = w ** (-s - 1.0)
    correction = 0.0 + 0.0j
    for k, b2k in enumerate(_BERNOULLI, start=1):
        term = b2k / math.factorial(2 * k) * fac * wpow
        correction += term
        if abs(term) <= 1e-12 * scale:
            break
        fac *= (s + 2 * k - 1) * (s + 2 * k)
        wpow /= w * w
    return head + tail + correction


def polygamma(m: int, q: float) -> float:
    """psi^(m)(q) = (-1)^(m+1) m! zeta(m+1, q) for 1 <= m <= 170, q > 0.

    m! leaves the float range above m = 170; DomainError there and
    wherever the value does."""
    if not 1 <= m <= 170:
        raise DomainError(f"polygamma order must lie in [1, 170], got {m}")
    value = (-1.0) ** (m + 1) * math.factorial(m) * hurwitz_zeta(m + 1, q).real
    if math.isinf(value):
        raise DomainError(f"polygamma overflows at m = {m}, q = {q}")
    return value
