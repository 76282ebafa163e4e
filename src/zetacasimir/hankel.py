r"""Keyhole ("Hankel") contour quadrature for analytic continuation.

The contour starts at t = T (+ i*offset) on the positive real axis,
runs inward to a circle of radius r around the origin, turns once
counterclockwise, and runs back out to t = T (- i*offset).  The branch
of (-t)^(s-1) = exp(-i pi (s-1)) t^(s-1) is fixed by the continuous
argument of t along the path, starting at ~0 on the incoming leg and
ending at ~2 pi on the outgoing one.

The core integral computed here is

    I(s, g) = (1/(2 pi i)) \int_H (-t)^(s-1) g(t) dt,

from which  Li_s(z) = -Gamma(1-s) I(s, t -> z/(e^t - z))  and the
1/Gamma identity check  -I(s, t -> e^(-l t)) = 1/(Gamma(1-s) l^s).

Quadrature: composite Gauss-Legendre panels, log-spaced on the legs
(the integrand steepens like x^(Re s - 1) toward the circle) and
uniform on the arc; panel counts are doubled until two refinements
agree, which also furnishes the returned error estimate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BranchError, DomainError, PoleError, QuadratureError
from .gammafn import gamma, is_nonpositive_integer

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_MAX_REFINEMENTS = 9


@dataclass(frozen=True)
class HankelContour:
    """Keyhole path parameters.

    radius      -- loop radius around t = 0 (must stay below 2 pi so no
                   extraneous root of e^t = z on the unit circle is
                   enclosed, and below the leg truncation length);
    leg_length  -- truncation point T of the two straight legs;
    leg_nodes   -- initial quadrature node budget per leg;
    arc_nodes   -- initial quadrature node budget on the circle;
    leg_offset  -- imaginary separation of the legs from the axis, or 0
                   for legs hugging the axis with the explicit branch
                   assignment arg t = 0 (incoming) and 2 pi (outgoing).
    """

    radius: float = 1.0
    leg_length: float = 40.0
    leg_nodes: int = 128
    arc_nodes: int = 128
    leg_offset: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.radius < 2.0 * math.pi):
            raise DomainError(f"radius must lie in (0, 2 pi), got {self.radius}")
        if self.radius >= self.leg_length:
            raise DomainError("radius must be smaller than leg_length")
        if self.leg_nodes < 2 or self.arc_nodes < 2:
            raise DomainError("node counts must be at least 2")
        if self.leg_offset < 0.0:
            raise BranchError("leg_offset must be non-negative")
        if self.leg_offset >= self.radius:
            raise BranchError(
                "leg_offset >= radius: legs cannot join the arc with a "
                "continuous arg t"
            )


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
    leg_panels: int,
    arc_panels: int,
) -> complex:
    """One pass of I(s, g) at fixed panel counts."""
    r = contour.radius
    T = contour.leg_length
    delta = contour.leg_offset
    x0 = math.sqrt(r * r - delta * delta)
    theta0 = math.atan2(delta, x0)
    phase = cmath.exp(-1j * math.pi * (s - 1.0))

    def branch_power(abs_t: np.ndarray, arg_t: np.ndarray) -> np.ndarray:
        # (-t)^(s-1) with arg t continuous from the path start
        return phase * np.exp((s - 1.0) * (np.log(abs_t) + 1j * arg_t))

    # Legs, log-spaced panel boundaries from the circle out to T.
    breaks = np.geomspace(x0, T, leg_panels + 1)
    x, w = _panel_nodes(breaks)
    t_up = x + 1j * delta
    t_dn = x - 1j * delta
    abs_leg = np.hypot(x, delta)
    arg_up = np.arctan2(delta, x)
    arg_dn = 2.0 * math.pi - arg_up
    f_up = branch_power(abs_leg, arg_up) * g(t_up)
    f_dn = branch_power(abs_leg, arg_dn) * g(t_dn)
    # incoming leg runs T -> x0 (dt = dx, reversed direction)
    legs = -np.sum(w * f_up) + np.sum(w * f_dn)

    # Arc, counterclockwise from theta0 to 2 pi - theta0.
    tbreaks = np.linspace(theta0, 2.0 * math.pi - theta0, arc_panels + 1)
    theta, wt = _panel_nodes(tbreaks)
    t_arc = r * np.exp(1j * theta)
    f_arc = branch_power(np.full_like(theta, r), theta) * g(t_arc) * (1j * t_arc)
    arc = np.sum(wt * f_arc)

    return complex(legs + arc) / (2j * math.pi)


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
    leg_panels = max(2, contour.leg_nodes // _GL_ORDER)
    arc_panels = max(2, contour.arc_nodes // _GL_ORDER)
    prev = _contour_integral(s, g, contour, leg_panels, arc_panels)
    for _ in range(_MAX_REFINEMENTS):
        leg_panels *= 2
        arc_panels *= 2
        cur = _contour_integral(s, g, contour, leg_panels, arc_panels)
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
        inside_disk = abs(t) <= contour.radius
        inside_strip = (
            0.0 <= t.real <= contour.leg_length
            and abs(t.imag) <= contour.leg_offset
        )
        if inside_disk or inside_strip:
            bad.append(t)
    return bad


def default_contour(z: complex, leg_length: float = 40.0) -> HankelContour:
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
    return HankelContour(radius=radius, leg_length=leg_length)


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
