r"""Keyhole ("Hankel") contour quadrature for analytic continuation.

The contour starts at t = T on the positive real axis, runs inward
along the axis to a circle of radius r around the origin, turns once
counterclockwise, and runs back out along the axis to t = T.  The
branch of (-t)^(s-1) = exp(-i pi (s-1)) t^(s-1) is fixed by the
continuous argument of t along the path: 0 on the incoming leg and
2 pi on the outgoing one, so the outgoing leg is the incoming one times
e^(2 pi i (s-1)).  The contour is just its radius r: T is fixed at 40.

The core integral computed here is

    I(s, g) = (1/(2 pi i)) \int_H (-t)^(s-1) g(t) dt,

from which  Li_s(z) = -Gamma(1-s) I(s, t -> z/(e^t - z))  and the
1/Gamma identity check  -I(s, t -> e^(-l t)) = 1/(Gamma(1-s) l^s).
``hankel_quadrature`` returns pref * I for the caller's prefactor pref,
and its tolerance applies to that returned value.

Quadrature: composite Gauss-Legendre panels, log-spaced on the legs
(the integrand steepens like x^(Re s - 1) toward the circle) and
uniform on the arc; panel counts start at 8 and are doubled until two
refinements agree, which also furnishes the returned error estimate.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, PoleError, QuadratureError
from .gammafn import gamma

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_START_PANELS = 8  # per leg and on the arc, before the first doubling
_MAX_REFINEMENTS = 9
_LEG_LENGTH = 40.0  # truncation point T of the two legs on the real axis


class HankelResult(NamedTuple):
    value: complex
    error: float


def _panel_nodes(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on consecutive intervals of breaks."""
    lo = breaks[:-1]
    hi = breaks[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def _contour_integral(
    s: complex,
    g: Callable[[np.ndarray], np.ndarray],
    radius: float,
    panels: int,
) -> complex:
    """One pass of I(s, g) with the given panel count per leg and arc."""
    phase = cmath.exp(-1j * math.pi * (s - 1.0))

    # Legs, log-spaced panel boundaries from the circle out to T.  The
    # incoming leg (arg t = 0) runs T -> r, the outgoing one (arg t =
    # 2 pi) runs r -> T with the integrand times e^(2 pi i (s-1)).
    x, w = _panel_nodes(np.geomspace(radius, _LEG_LENGTH, panels + 1))
    leg = np.sum(w * np.exp((s - 1.0) * np.log(x)) * g(x))
    legs = (cmath.exp(2j * math.pi * (s - 1.0)) - 1.0) * leg

    # Arc, counterclockwise from arg t = 0 to 2 pi.
    theta, wt = _panel_nodes(np.linspace(0.0, 2.0 * math.pi, panels + 1))
    t_arc = radius * np.exp(1j * theta)
    power = np.exp((s - 1.0) * (math.log(radius) + 1j * theta))
    arc = np.sum(wt * power * g(t_arc) * (1j * t_arc))

    return phase * complex(legs + arc) / (2j * math.pi)


def _leg_truncation_bound(s: complex, g_decay: float) -> float:
    """Bound on the dropped |t| > T part of both legs of I(s, g).

    Assumes |g(t)| <= g_decay * e^(-Re t) on the legs, which holds for
    both kernels used here (z/(e^t - z) with |z| <= 1, and e^(-l t)).
    """
    T = _LEG_LENGTH
    p = s.real - 1.0
    if T <= p + 1.0:
        return math.inf
    # incomplete-gamma tail: int_T^inf x^p e^-x dx <= T^p e^-T / (1 - p/T)
    tail = T**p * math.exp(-T) / (1.0 - p / T)
    return 2.0 * g_decay * tail / (2.0 * math.pi)


def hankel_quadrature(
    s: complex,
    g: Callable[[np.ndarray], np.ndarray],
    pref: complex,
    radius: float,
    tol: float,
    g_decay: float,
) -> HankelResult:
    """pref * I(s, g) with an a-posteriori error estimate.

    Panel counts double until two passes agree within
    tol * (1 + |returned value|) once multiplied by |pref|; the
    leg-truncation bound times |pref| must meet the same tolerance.
    Raises QuadratureError when either misses it.
    """
    s = complex(s)
    size = abs(pref)
    panels = _START_PANELS
    prev = _contour_integral(s, g, radius, panels)
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        cur = _contour_integral(s, g, radius, panels)
        err = abs(cur - prev)
        value = pref * cur
        if size * err <= tol * (1.0 + abs(value)):
            break
        prev = cur
    else:
        raise QuadratureError(
            f"contour quadrature did not self-converge to {tol} at s={s}"
        )
    trunc = _leg_truncation_bound(s, g_decay)
    if size * trunc > tol * (1.0 + abs(value)):
        raise QuadratureError(
            f"leg truncation bound {size * trunc:.3e} exceeds tolerance {tol} at s={s}"
        )
    return HankelResult(value, size * (err + trunc))


def _roots(z: complex) -> list[complex]:
    """Roots t != 0 of e^t = z with |Im t| < 5 pi, which include every
    root a loop of radius below 2 pi can reach (z != 0)."""
    base = cmath.log(z)  # principal branch
    near = (base + 2j * math.pi * k for k in range(-2, 3))
    # the z = 1 root at the origin is inside by construction
    return [t for t in near if abs(t) > 1e-14]


def _check_radius(radius: float, z: complex) -> None:
    """DomainError unless 0 < radius < 2 pi and the loop encloses no root
    of e^t = z besides t = 0."""
    if not (0.0 < radius < 2.0 * math.pi):
        raise DomainError(f"radius must lie in (0, 2 pi), got {radius}")
    if z == 0.0:
        return
    bad = [t for t in _roots(z) if abs(t) <= radius]
    if bad:
        raise DomainError(
            f"contour encloses extraneous roots of e^t = z at {bad}; "
            "shrink the radius"
        )


def default_radius(z: complex) -> float:
    """Loop radius adapted to z: the loop stays well clear of every root
    of e^t = z, shrinking toward the origin as z approaches 1."""
    z = complex(z)
    rho = 2.0 * math.pi if z == 0.0 else min(abs(t) for t in _roots(z))
    return min(1.0, 0.5 * rho)


def polylog_hankel(
    s: complex,
    z: complex,
    radius: float | None = None,
    tol: float = 1e-8,
) -> HankelResult:
    """Li_s(z) by contour quadrature, for s not a positive integer.

    Returns the value together with the estimated quadrature error; a
    radius, when given, must lie in (0, 2 pi) and enclose no root of
    e^t = z.
    """
    s = complex(s)
    z = complex(z)
    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        raise PoleError(f"Gamma(1-s) pole at s = {s}; use the limit route")
    if abs(z) > 1.0 + 1e-14:
        raise DomainError(f"|z| <= 1 required, got |z| = {abs(z)}")
    if radius is None:
        radius = default_radius(z)
    else:
        _check_radius(radius, z)

    def kernel(t: np.ndarray) -> np.ndarray:
        return z / (np.exp(t) - z)

    return hankel_quadrature(
        s, kernel, -gamma(1.0 - s), radius, tol, g_decay=2.0 * max(abs(z), 1e-300)
    )


def hankel_recip_gamma_check(
    s: complex,
    ell: int,
    radius: float | None = None,
    tol: float = 1e-8,
) -> HankelResult:
    r"""-(1/(2 pi i)) \int_H (-t)^(s-1) e^(-l t) dt.

    Exists purely to validate the contour machinery: the value must equal
    1/(Gamma(1-s) l^s) within the quadrature tolerance.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        raise PoleError(f"Gamma(1-s) pole at s = {s}")
    if ell < 1:
        raise DomainError("ell must be a positive integer")
    if radius is None:
        radius = default_radius(1.0)
    else:
        _check_radius(radius, 1.0)

    def kernel(t: np.ndarray) -> np.ndarray:
        return np.exp(-ell * t)

    return hankel_quadrature(s, kernel, -1.0, radius, tol, g_decay=1.0)
