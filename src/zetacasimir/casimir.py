"""Closed-form renormalized Casimir stress-energy and plate pressure.

Between the plates the tensor is

    A diag(-1, 1, 1, -3) + (1 - 6 xi) B(x3) diag(-1, 1, 1, 0),

with A = pi^2/(1440 a^4) and B(x3) the closed trigonometric form; the
Hurwitz-zeta ("Milton") representation of B, and a cosine form of B
that cancels near the plates, are provided as independent cross-checks.  Outside the plates the tensor is the
single-plate a -> infinity limit, with the distance measured to the
adjacent plate face.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .hurwitz import hurwitz_zeta
from .modesum import EvalPoint, PlateConfig, Region, TensorDiag, _require_between, region_of


@dataclass(frozen=True)
class RenormalizedCoefficients:
    A: float
    B: float

    def tensor(self, xi: float) -> TensorDiag:
        """The tensor between the plates at curvature coupling xi."""
        w = (1.0 - 6.0 * xi) * self.B
        return TensorDiag(
            t00=-self.A - w,
            t11=self.A + w,
            t22=self.A + w,
            t33=-3.0 * self.A,
        )


@dataclass(frozen=True)
class PressureVector:
    """Force per unit area on a plate; only the normal component is
    nonzero for this geometry."""

    p1: float
    p2: float
    p3: float


def _pow4(x: float) -> float:
    """x**4, or inf where it overflows."""
    try:
        return x**4
    except OverflowError:
        return math.inf


def coefficient_A(a: float) -> float:
    """Uniform coefficient; DomainError where it overflows."""
    den = 1440.0 * _pow4(a)
    value = math.pi**2 / den if den else math.inf
    if math.isinf(value):
        raise DomainError(f"A overflows at a = {a}")
    return value


def coefficient_B(a: float, x3: float) -> float:
    """Position-dependent coefficient, sine form; DomainError where B
    overflows.  The sine is taken at the distance to the nearer plate,
    which is exact for x3 >= a/2 too."""
    sin2 = math.sin(math.pi * min(x3, a - x3) / a) ** 2
    sin4 = sin2**2
    den = 48.0 * _pow4(a)
    if 0.0 < den < math.inf and sin4 >= sys.float_info.min:
        b = math.pi**2 / den * (3.0 - 2.0 * sin2) / sin4
    else:
        # a^4 or sin^4 leaves the normal range: the nearest image of each
        # plate, (x3^-4 + (a - x3)^-4) / (16 pi^2).  The others add at most
        # 0.014 / a^4, below 2.2 (d/a)^4 of B at distance d from the
        # nearer plate and below 1e-310 where a^4 overflows.
        near = 16.0 * math.pi**2 * _pow4(x3)
        far = 16.0 * math.pi**2 * _pow4(a - x3)
        b = 1.0 / near + 1.0 / far if near and far else math.inf
    if math.isinf(b):
        raise DomainError(f"B overflows at x3/a = {x3 / a}")
    return b


def coefficient_B_cosine(a: float, x3: float) -> float:
    """Equivalent cosine form of B, a test oracle only: 1 - cos cancels
    near the plates (4e-10 relative error at x3/a = 1e-4)."""
    c = math.cos(2.0 * math.pi * x3 / a)
    return math.pi**2 / (12.0 * a**4) * (2.0 + c) / (1.0 - c) ** 2


def renormalized_coefficients(cfg: PlateConfig, p: EvalPoint) -> RenormalizedCoefficients:
    """A and B(x3) between the plates, B in its sine form."""
    _require_between(cfg.a, p.x3, "B is defined")
    return RenormalizedCoefficients(A=coefficient_A(cfg.a), B=coefficient_B(cfg.a, p.x3))


def tensor_between_plates(cfg: PlateConfig, p: EvalPoint) -> TensorDiag:
    return renormalized_coefficients(cfg, p).tensor(cfg.xi)


def milton_B(cfg: PlateConfig, p: EvalPoint) -> float:
    """Hurwitz-zeta representation of B(x3); must coincide with the
    trigonometric closed form.  DomainError where zeta(4, q), a^4 or B
    leaves the float range."""
    _require_between(cfg.a, p.x3, "B is defined")
    # q at the nearer plate, as in coefficient_B: 1 - x3/a would keep few
    # digits of the distance next to the far plate
    q = min(p.x3, cfg.a - p.x3) / cfg.a
    try:
        z4 = hurwitz_zeta(4.0, q).real + hurwitz_zeta(4.0, 1.0 - q).real
        b = z4 / (16.0 * math.pi**2 * cfg.a**4)
    except (DomainError, OverflowError, ZeroDivisionError):  # zeta(4, q) or a^4 overflows
        b = math.inf
    if math.isinf(b):
        raise DomainError(f"the Hurwitz form of B overflows at a = {cfg.a}, x3 = {p.x3}")
    return b


def tensor_outside(cfg: PlateConfig, p: EvalPoint) -> TensorDiag:
    """Tensor in the outer half-spaces; distance is to the adjacent plate.

    Far away the tensor underflows to +-0.0; DomainError where it
    overflows next to a plate."""
    region = region_of(cfg.a, p.x3)
    if region is Region.BETWEEN:
        raise DomainError(f"x3 = {p.x3} lies between the plates, not outside them")
    dist = -p.x3 if region is Region.LEFT_OUTSIDE else p.x3 - cfg.a
    # far field: dist^4 overflows and w underflows to 0.0 with the sign of 1 - 6 xi
    den = 16.0 * math.pi**2 * _pow4(dist)
    w = (1.0 - 6.0 * cfg.xi) / den if den else math.inf
    if math.isinf(w):
        raise DomainError(f"the tensor overflows at distance {dist} from the plate")
    return TensorDiag(t00=-w, t11=w, t22=w, t33=0.0)


def single_plate_limit_check(p: EvalPoint, a_sequence: list[float]) -> list[float]:
    """Deviation |B_a(x3) * 16 pi^2 x3^4 - 1| along an increasing sequence
    of separations; the leading correction is (pi x3/a)^4 / 45, so the
    deviation decays like a^-4."""
    if any(region_of(a, p.x3) is not Region.BETWEEN for a in a_sequence):
        raise DomainError(f"x3 = {p.x3} must lie between the plates at every separation")
    if any(b <= a for a, b in zip(a_sequence, a_sequence[1:])):
        raise DomainError("a_sequence must be strictly increasing")
    return [
        abs(coefficient_B(a, p.x3) * 16.0 * math.pi**2 * p.x3**4 - 1.0)
        for a in a_sequence
    ]


def pressure(cfg: PlateConfig) -> tuple[PressureVector, PressureVector]:
    """Force per unit area on the plates at x3 = 0 and x3 = a.

    The inner region contributes t33 = -3A, the outer region zero; with
    the normals of the two faces this gives (0, 0, +pi^2/(480 a^4)) at
    x3 = 0 and the opposite vector at x3 = a (mutual attraction).
    """
    t33_in = -3.0 * coefficient_A(cfg.a)
    t33_out = 0.0
    p_at_0 = PressureVector(0.0, 0.0, t33_out - t33_in)
    p_at_a = PressureVector(0.0, 0.0, t33_in - t33_out)
    return p_at_0, p_at_a
