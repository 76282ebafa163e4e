"""Polylogarithm Li_s(z) on the closed unit disk.

Three evaluation routes are provided:

* ``polylog_series`` -- the defining power series, with a certified
  truncation bound (geometric for |z| < 1, Abel/Dirichlet on |z| = 1);
* ``polylog_neg_int`` -- the exact rational closed form at non-positive
  integer order, generated by the recurrence
  Li_{-n-1}(z) = z d/dz Li_{-n}(z) from Li_0(z) = z/(1-z);
* ``polylog_hankel`` (in :mod:`zetacasimir.hankel`) -- numerical keyhole
  contour quadrature, valid for any non-positive-integer order and the
  full closed disk.

``polylog`` gives each (s, z) one route; ``riemann_zeta`` is Li_s(1).
At z = 1 it is the Euler-Maclaurin ``hurwitz_zeta(s, 1)`` for Re s > 1
and Hankel otherwise.  Off z = 1 it takes the series only when the
certified bound meets the tolerance within 16 384 terms
(``_SERIES_BUDGET``); otherwise one Hankel pass, or at positive integer
order a limit of four, is both faster and more accurate than a longer
series.  ``polylog_series`` keeps its 4M-term cap for direct callers and
as an oracle.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .gammafn import is_nonpositive_integer
from .hankel import polylog_hankel
from .hurwitz import hurwitz_zeta

_SERIES_CHUNK = 4096
_SERIES_MAX_TERMS = 4_000_000
# Off z = 1, polylog takes the series only when it certifies within this
# many terms; one Hankel pass costs less than a longer series.
_SERIES_BUDGET = 16_384


def series_domain(s: complex, z: complex) -> bool:
    """Whether the defining series for Li_s(z) converges at (s, z).

    The three convergent cases are: |z| < 1 for every s; |z| = 1 with
    z != 1 for Re s > 0; z = 1 for Re s > 1.  For |z| > 1 the series
    never converges.
    """
    s = complex(s)
    z = complex(z)
    az = abs(z)
    if az < 1.0:
        return True
    if az > 1.0:
        return False
    if z == 1.0:
        return s.real > 1.0
    return s.real > 0.0


def _series_tail_bound(s: complex, z: complex, n: int) -> float:
    """Certified bound on |sum_{l>n} z^l / l^s|."""
    az = abs(z)
    p = -s.real  # growth exponent of |l^{-s}| = l^p
    if az < 1.0:
        # |z|^l l^p tail: geometric once the term ratio drops below 1.
        q = az * ((n + 2) / (n + 1)) ** max(p, 0.0)
        if q >= 1.0:
            return math.inf
        return az ** (n + 1) * (n + 1) ** p / (1.0 - q)
    if z == 1.0:
        if s.real <= 1.0:
            return math.inf
        return n ** (1.0 - s.real) / (s.real - 1.0)
    # |z| = 1, z != 1: Abel summation with bounded geometric partial sums.
    if s.real <= 0.0:
        return math.inf
    return (2.0 * abs(s) / (abs(1.0 - z) * s.real)) * n ** (-s.real)


def polylog_series(s: complex, z: complex, tol: float = 1e-10) -> complex:
    """Partial sum of the defining series with truncation remainder <= tol.

    Raises DomainError outside the convergence domain and ConvergenceError
    when the certified bound cannot reach tol within the term cap.
    """
    s = complex(s)
    z = complex(z)
    if not series_domain(s, z):
        raise DomainError(f"series for Li_s(z) diverges at s={s}, z={z}")
    if z == 0.0:
        return 0.0 + 0.0j
    if _series_tail_bound(s, z, _SERIES_MAX_TERMS) > tol:
        # bound is monotone in the truncation order, so the cap settles it
        raise ConvergenceError(
            f"series bound for Li_s(z) at s={s}, z={z} cannot reach {tol} "
            f"within {_SERIES_MAX_TERMS} terms"
        )
    total = 0.0 + 0.0j
    n = 0
    while n < _SERIES_MAX_TERMS:
        ell = np.arange(n + 1, n + _SERIES_CHUNK + 1, dtype=np.float64)
        terms = np.exp(ell * np.log(z + 0j) - s * np.log(ell))
        total += complex(np.sum(terms))
        n += _SERIES_CHUNK
        if _series_tail_bound(s, z, n) <= tol:
            return total
    raise ConvergenceError(
        f"series bound for Li_s(z) at s={s}, z={z} not certified to {tol} "
        f"within {_SERIES_MAX_TERMS} terms"
    )


@lru_cache(maxsize=None)
def _neg_int_numerator(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of P_n with Li_{-n}(z) = P_n(z)/(1-z)^{n+1}.

    P_0 = z and P_{n+1}(z) = z [ (1-z) P_n'(z) + (n+1) P_n(z) ].
    """
    if n == 0:
        return (0, 1)
    prev = _neg_int_numerator(n - 1)
    deriv = [k * c for k, c in enumerate(prev)][1:]  # P'
    work = [0] * (len(prev) + 1)
    for k, c in enumerate(deriv):
        work[k] += c
        work[k + 1] -= c
    for k, c in enumerate(prev):
        work[k] += n * c
    return tuple([0] + work)  # multiply by z


def polylog_neg_int(n: int, z: complex) -> complex:
    """Exact rational evaluation of Li_{-n}(z) for integer n >= 0, z != 1.

    The continuation is genuinely discontinuous at z = 1, so that point
    raises PoleError.
    """
    if n < 0:
        raise DomainError(f"order must be a non-negative integer, got {n}")
    z = complex(z)
    if abs(z - 1.0) < 1e-12:
        raise PoleError("Li_{-n}(z) rational form has a pole at z = 1")
    coeffs = _neg_int_numerator(n)
    num = 0.0 + 0.0j
    for c in reversed(coeffs):
        num = num * z + c
    return num / (1.0 - z) ** (n + 1)


def _polylog_pos_int_limit(n: int, z: complex, tol: float) -> complex:
    """Li_n(z) for integer n >= 1 as the limit of the contour route.

    Gamma(1-s) poles at positive integer s; the value is defined as the
    s -> n limit, realized here by evaluating at n +/- delta and
    Richardson-extrapolating the even part in delta^2.
    """

    def sym(delta: float) -> complex:
        up = polylog_hankel(n + delta, z, tol=tol).value
        dn = polylog_hankel(n - delta, z, tol=tol).value
        return 0.5 * (up + dn)

    g1 = sym(1e-4)
    g2 = sym(5e-5)
    return (4.0 * g2 - g1) / 3.0


def polylog(s: complex, z: complex, tol: float = 1e-10) -> complex:
    """Analytically continued Li_s(z) for |z| <= 1.

    Route selection: Euler-Maclaurin zeta at z = 1 with Re s > 1; exact
    rational form at non-positive integer s with z != 1; the power series
    where it converges fast enough; keyhole contour quadrature otherwise
    (with a two-sided limit at positive integer s, where the contour
    prefactor Gamma(1-s) has a pole).  The contour route checks tol on
    the value it returns and raises QuadratureError where it cannot meet
    it.  The zeta route sums about |s| terms directly, so its cost grows
    linearly with |s|.
    """
    s = complex(s)
    z = complex(z)
    if abs(z) > 1.0 + 1e-14:
        raise DomainError(f"polylog requires |z| <= 1, got |z| = {abs(z)}")
    if z == 1.0 and s == 1.0:
        raise PoleError("Li_1(1) is the harmonic series pole")
    if z == 1.0 and s.real > 1.0:
        # no looser than hurwitz_zeta's own 1e-12: at 1e-10 its tail
        # correction stops a term early and zeta is 1.4e-12 off, not 2e-14
        return hurwitz_zeta(s, 1.0, tol=min(tol, 1e-12))

    if is_nonpositive_integer(s, tol=1e-12) and z != 1.0:
        return polylog_neg_int(-round(s.real), z)

    if series_domain(s, z) and _series_tail_bound(s, z, _SERIES_BUDGET) <= tol:
        return polylog_series(s, z, tol=tol)

    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        return _polylog_pos_int_limit(round(s.real), z, tol)

    return polylog_hankel(s, z, tol=tol).value


def riemann_zeta(s: complex, tol: float = 1e-10) -> complex:
    """zeta(s) = Li_s(1), continued to all s != 1; for Re s > 1 it costs
    O(|s|) (see ``polylog``)."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has its only pole at s = 1")
    return polylog(s, 1.0, tol=tol)
