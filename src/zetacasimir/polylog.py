"""Polylogarithm Li_s(z) on the closed unit disk.

Four evaluation routes are provided:

* ``polylog_series`` -- the defining power series, with a certified
  truncation bound (geometric for |z| < 1, Abel/Dirichlet on |z| = 1);
* ``polylog_neg_int`` -- the exact rational closed form at non-positive
  integer order, generated by the recurrence
  Li_{-n-1}(z) = z d/dz Li_{-n}(z) from Li_0(z) = z/(1-z);
* ``_polylog_pos_int`` -- the expansion in mu = log z at positive
  integer order (DLMF 25.12.12), whose coefficients are zeta values;
* ``polylog_hankel`` (in :mod:`zetacasimir.hankel`) -- numerical keyhole
  contour quadrature, valid for every order but the positive integers
  and on the full closed disk.

``polylog`` gives each (s, z) one route; ``riemann_zeta`` is Li_s(1).
Every zeta value comes from one engine: the Euler-Maclaurin
``hurwitz_zeta(s, 1)`` for Re s > -1, and the reflection formula onto
``hurwitz_zeta(1 - s, 1)`` below.  Off z = 1 ``polylog`` takes the
series only when the certified bound meets the tolerance within 16 384
terms (``_SERIES_BUDGET``) and no term exceeds 1 in modulus, so that the
rounding of the sum stays below the bound; otherwise the log z
expansion at positive integer order and one Hankel pass at any other,
both faster and more accurate than a longer series.  Where that pass
misses the tolerance inside the series domain and no term exceeds 1,
the series runs past the budget, up to its 4M-term cap.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, QuadratureError
from .gammafn import gamma_over_power, is_nonpositive_integer, sin_pi
from .hankel import polylog_hankel
from .hurwitz import hurwitz_zeta

_SERIES_CHUNK = 4096
_SERIES_MAX_TERMS = 4_000_000
# Off z = 1, polylog takes the series only when it certifies within this
# many terms; one Hankel pass costs less than a longer series.
_SERIES_BUDGET = 16_384
_EPS = 2.0**-53
# The pipeline's one tolerance: Li_s defaults to it, the mode sum is
# regularized at it through Li_s, and ``cli`` evaluates ``specfun`` at it
# and checks the ``convergence`` closed form against it.
DEFAULT_TOL = 1e-10


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


def _terms_at_most_one(s: complex, z: complex) -> bool:
    """Whether no term z^n / n^s of the series exceeds 1 in modulus, so
    that the rounding of its sum stays within eps per term.  At
    p = -Re s > 0 the terms peak near n* = p / (-log|z|), at
    n*^p |z|^n* = (n*/e)^p, so the rule is n* <= e: Re s >= e log|z|."""
    az = abs(z)
    return az == 0.0 or s.real >= math.e * math.log(az)


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


def polylog_series(s: complex, z: complex, tol: float = DEFAULT_TOL) -> complex:
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


def _zeta(s: complex) -> complex:
    """Riemann zeta for s != 1: the Euler-Maclaurin engine for Re s > -1,
    and below it the reflection formula (DLMF 25.4.1)

        zeta(s) = 2 sin(pi s/2) Gamma(1-s) / (2 pi)^(1-s) zeta(1-s)

    onto the engine at Re(1-s) >= 2.  The sine is taken after removing
    whole periods, so the trivial zeros come out as exact zeros, and
    Gamma(1-s) / (2 pi)^(1-s) is formed as one factor: Gamma(1-s) alone
    leaves the float range below Re s = -170, long before zeta(s) does.
    """
    if s.real > -1.0:
        return hurwitz_zeta(s, 1.0)
    try:
        sine = sin_pi(0.5 * s)
    except OverflowError as exc:
        raise DomainError(f"sin(pi s/2) leaves the float range at s = {s}") from exc
    if sine == 0.0:
        return 0.0 + 0.0j
    ratio = gamma_over_power(1.0 - s, 2.0 * math.pi)
    value = 2.0 * sine * ratio * hurwitz_zeta(1.0 - s, 1.0)
    if not cmath.isfinite(value):
        raise DomainError(f"|zeta(s)| overflows at s = {s}")
    return value


@lru_cache(maxsize=None)
def _zeta_at_integer(m: int) -> float:
    """zeta(m) for integer m != 1, the coefficients of the Li_n expansion."""
    return _zeta(complex(m)).real


def _polylog_pos_int(n: int, z: complex) -> complex:
    """Li_n(z) for integer n >= 1 and |log z| < 2 pi, z != 1, from the
    expansion in mu = log z (DLMF 25.12.12):

        Li_n(e^mu) = mu^(n-1)/(n-1)! (H_(n-1) - log(-mu))
                     + sum_(k != n-1) zeta(n-k) mu^k / k!

    For m = k - n >= 1, |zeta(-m)| <= 2 zeta(2) m! / (2 pi)^(m+1), so the
    terms past k = n shrink at least like rho^k, rho = |mu|/(2 pi); the
    sum stops once that tail bound is below rounding.
    """
    mu = cmath.log(z)
    rho = abs(mu) / (2.0 * math.pi)
    if rho >= 1.0:
        raise DomainError(f"the expansion of Li_n needs |log z| < 2 pi, got z = {z}")
    total = 0.0 + 0.0j
    power = 1.0 + 0.0j  # mu^k / k!
    harmonic = 0.0  # H_k
    bound = math.pi / 6.0  # 2 zeta(2) m! / (2 pi)^(m+1) at m = max(k - n, 0)
    k = 0
    while True:
        if k == n - 1:
            total += power * (harmonic - cmath.log(-mu))
        else:
            total += _zeta_at_integer(n - k) * power
        k += 1
        power *= mu / k
        harmonic += 1.0 / k
        if k > n:
            bound *= (k - n) / (2.0 * math.pi)
            if bound * abs(power) / (1.0 - rho) <= _EPS * abs(total):
                return total


def polylog(s: complex, z: complex, tol: float = DEFAULT_TOL) -> complex:
    """Analytically continued Li_s(z) for |z| <= 1.

    Route selection: zeta at z = 1 (Euler-Maclaurin ``hurwitz_zeta`` for
    Re s > -1, the reflection formula below); exact rational form at
    non-positive integer s; the power series where it certifies tol
    within its term budget and no term exceeds 1 in modulus (at
    Re s < 0 the terms grow to (n*/e)^(-Re s) at n* = Re s / log|z|, so
    this needs Re s >= e log|z|); the expansion in log z at positive
    integer s; keyhole contour quadrature otherwise.  tol acts only on
    the series and the contour, which checks it on the value it returns.
    Where the contour misses tol and the series converges at (s, z) with
    no term above 1, the series runs past its budget up to its 4M-term
    cap (ConvergenceError beyond it); elsewhere the contour's
    QuadratureError is raised.  zeta stops
    at the engine's fixed 1e-12, and the other two routes run to
    rounding.  The zeta route sums about |s| terms directly, so its cost
    grows linearly with |s|.
    """
    s = complex(s)
    z = complex(z)
    if abs(z) > 1.0 + 1e-14:
        raise DomainError(f"polylog requires |z| <= 1, got |z| = {abs(z)}")
    if z == 1.0:
        return _zeta(s)

    if is_nonpositive_integer(s, tol=1e-12):
        return polylog_neg_int(-round(s.real), z)

    if (
        series_domain(s, z)
        and _terms_at_most_one(s, z)
        and _series_tail_bound(s, z, _SERIES_BUDGET) <= tol
    ):
        return polylog_series(s, z, tol=tol)

    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        return _polylog_pos_int(round(s.real), z)

    try:
        return polylog_hankel(s, z, tol=tol).value
    except QuadratureError:
        # the contour misses tol at large |Im s| and next to a pole of its
        # Gamma(1 - s) prefactor.  Where no series term exceeds 1, the
        # certified tail also bounds the error; where the terms peak far
        # above Li_s, their rounding would go unseen
        if not (series_domain(s, z) and _terms_at_most_one(s, z)):
            raise
        return polylog_series(s, z, tol=tol)


def riemann_zeta(s: complex) -> complex:
    """zeta(s) = Li_s(1) for all s != 1, at the engine's fixed stop (see ``polylog``)."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has its only pole at s = 1")
    return polylog(s, 1.0)
