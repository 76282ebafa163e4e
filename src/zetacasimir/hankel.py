r"""Keyhole ("Hankel") contour quadrature for analytic continuation.

The contour starts at t = T on the positive real axis, runs inward
along the axis to a circle of radius r around the origin, turns once
counterclockwise, and runs back out along the axis to t = T.  The
branch of (-t)^(s-1) = exp(-i pi (s-1)) t^(s-1) is fixed by the
continuous argument of t along the path: 0 on the incoming leg and
2 pi on the outgoing one, so the outgoing leg is the incoming one times
e^(2 pi i (s-1)).

The core integral computed here is

    I(s, g) = (1/(2 pi i)) \int_H (-t)^(s-1) g(t) dt,

from which  Li_s(z) = -Gamma(1-s) I(s, t -> z/(e^t - z))  and the
1/Gamma identity check  -I(s, t -> e^(-l t)) = 1/(Gamma(1-s) l^s).

Quadrature: composite Gauss-Legendre panels, log-spaced on the legs
(the integrand steepens like x^(Re s - 1) toward the circle) and
uniform on the arc; panel counts start at 8 and are doubled until two
refinements agree, which also furnishes the returned error estimate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, PoleError, QuadratureError
from .gammafn import gamma, is_nonpositive_integer

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_START_PANELS = 8  # per leg and on the arc, before the first doubling
_MAX_REFINEMENTS = 9


@dataclass(frozen=True)
class HankelContour:
    """Keyhole path parameters.

    radius      -- loop radius around t = 0 (must stay below 2 pi so no
                   extraneous root of e^t = z on the unit circle is
                   enclosed, and below the leg truncation length);
    leg_length  -- truncation point T of the two legs on the real axis.
    """

    radius: float = 1.0
    leg_length: float = 40.0

    def __post_init__(self) -> None:
        if not (0.0 < self.radius < 2.0 * math.pi):
            raise DomainError(f"radius must lie in (0, 2 pi), got {self.radius}")
        if self.radius >= self.leg_length:
            raise DomainError("radius must be smaller than leg_length")


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
    contour: HankelContour,
    panels: int,
) -> complex:
    """One pass of I(s, g) with the given panel count per leg and arc."""
    r = contour.radius
    phase = cmath.exp(-1j * math.pi * (s - 1.0))

    # Legs, log-spaced panel boundaries from the circle out to T.  The
    # incoming leg (arg t = 0) runs T -> r, the outgoing one (arg t =
    # 2 pi) runs r -> T with the integrand times e^(2 pi i (s-1)).
    x, w = _panel_nodes(np.geomspace(r, contour.leg_length, panels + 1))
    leg = np.sum(w * np.exp((s - 1.0) * np.log(x)) * g(x))
    legs = (cmath.exp(2j * math.pi * (s - 1.0)) - 1.0) * leg

    # Arc, counterclockwise from arg t = 0 to 2 pi.
    theta, wt = _panel_nodes(np.linspace(0.0, 2.0 * math.pi, panels + 1))
    t_arc = r * np.exp(1j * theta)
    power = np.exp((s - 1.0) * (math.log(r) + 1j * theta))
    arc = np.sum(wt * power * g(t_arc) * (1j * t_arc))

    return phase * complex(legs + arc) / (2j * math.pi)


def _leg_truncation_bound(s: complex, contour: HankelContour, g_decay: float) -> float:
    """Bound on the dropped |t| > T part of both legs.

    Assumes |g(t)| <= g_decay * e^(-Re t) on the legs, which holds for
    both kernels used here (z/(e^t - z) with |z| <= 1, and e^(-l t)).
    """
    T = contour.leg_length
    p = s.real - 1.0
    if T <= p + 1.0:
        return math.inf
    # incomplete-gamma tail: int_T^inf x^p e^-x dx <= T^p e^-T / (1 - p/T)
    tail = T**p * math.exp(-T) / (1.0 - p / T)
    return 2.0 * g_decay * tail / (2.0 * math.pi)


def _refine(
    s: complex,
    g: Callable[[np.ndarray], np.ndarray],
    contour: HankelContour,
    tol: float,
    scale: float,
) -> HankelResult:
    panels = _START_PANELS
    prev = _contour_integral(s, g, contour, panels)
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        cur = _contour_integral(s, g, contour, panels)
        err = abs(cur - prev)
        if err <= tol * (1.0 + abs(cur)) * scale:
            return HankelResult(cur, err)
        prev = cur
    raise QuadratureError(
        f"contour quadrature did not self-converge to {tol} at s={s}"
    )


def _roots_inside(z: complex, contour: HankelContour) -> list[complex]:
    """Solutions of e^t = z (other than t=0 for z=1) inside the keyhole."""
    if z == 0.0:
        return []
    base = cmath.log(z)  # principal branch
    bad = []
    kmax = int(contour.radius / (2.0 * math.pi)) + 2
    for k in range(-kmax, kmax + 1):
        t = base + 2j * math.pi * k
        if abs(t) < 1e-14:
            continue  # z = 1 root at the origin is inside by construction
        if abs(t) <= contour.radius:
            bad.append(t)
    return bad


def default_contour(z: complex) -> HankelContour:
    """Contour adapted to z: the loop stays well clear of every root of
    e^t = z, shrinking toward the origin as z approaches 1."""
    z = complex(z)
    if z == 0.0:
        rho = 2.0 * math.pi
    else:
        base = cmath.log(z)
        rho = min(
            abs(base + 2j * math.pi * k)
            for k in range(-2, 3)
            if abs(base + 2j * math.pi * k) > 1e-14
        )
    radius = min(1.0, 0.5 * rho)
    return HankelContour(radius=radius)


def hankel_quadrature(
    s: complex,
    g: Callable[[np.ndarray], np.ndarray],
    contour: HankelContour,
    tol: float = 1e-8,
    g_decay: float = 2.0,
    scale: float = 1.0,
) -> HankelResult:
    """I(s, g) with an a-posteriori error estimate.

    Raises QuadratureError when either the leg-truncation bound or the
    self-convergence estimate misses tol.
    """
    s = complex(s)
    trunc = _leg_truncation_bound(s, contour, g_decay)
    result = _refine(s, g, contour, tol, scale)
    if trunc > tol * (1.0 + abs(result.value)) * scale:
        raise QuadratureError(
            f"leg truncation bound {trunc:.3e} exceeds tolerance; "
            "increase leg_length"
        )
    return HankelResult(result.value, result.error + trunc)


def polylog_hankel(
    s: complex,
    z: complex,
    contour: HankelContour | None = None,
    tol: float = 1e-8,
) -> HankelResult:
    """Li_s(z) by contour quadrature, for s not a positive integer.

    Returns the value together with the estimated quadrature error.
    """
    s = complex(s)
    z = complex(z)
    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        raise PoleError(f"Gamma(1-s) pole at s = {s}; use the limit route")
    if abs(z) > 1.0 + 1e-14:
        raise DomainError(f"|z| <= 1 required, got |z| = {abs(z)}")
    if contour is None:
        contour = default_contour(z)
    bad = _roots_inside(z, contour)
    if bad:
        raise DomainError(
            f"contour encloses extraneous roots of e^t = z at {bad}; "
            "shrink the radius"
        )

    def kernel(t: np.ndarray) -> np.ndarray:
        return z / (np.exp(t) - z)

    pref = -gamma(1.0 - s)
    core = hankel_quadrature(
        s, kernel, contour, tol=tol, g_decay=2.0 * max(abs(z), 1e-300)
    )
    return HankelResult(pref * core.value, abs(pref) * core.error)


def hankel_recip_gamma_check(
    s: complex,
    ell: int,
    contour: HankelContour | None = None,
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
    if contour is None:
        contour = default_contour(1.0)

    def kernel(t: np.ndarray) -> np.ndarray:
        return np.exp(-ell * t)

    core = hankel_quadrature(s, kernel, contour, tol=tol, g_decay=1.0)
    return HankelResult(-core.value, core.error)
