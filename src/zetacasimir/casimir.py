"""Closed-form renormalized Casimir stress-energy and plate pressure.

Between the plates the tensor is

    A diag(-1, 1, 1, -3) + (1 - 6 xi) B(x3) diag(-1, 1, 1, 0),

with A = pi^2/(1440 a^4) and B(x3) the closed trigonometric form; the
Hurwitz-zeta ("Milton") representation of B, and a cosine form of B
that cancels near the plates, are provided as independent cross-checks.  Outside the plates the tensor is the
single-plate a -> infinity limit, with the distance measured to the
adjacent plate face.

B, its Hurwitz form and the outside tensor are computed over arrays of
x3; ``tensor_grid`` takes a whole grid in one masked pass, and each
point-wise function is the same array code at one point.  Where the
point-wise code uses Python's float ** or math.sin, the array code calls
them per element (libm's bits; numpy's vector loops round differently),
and its numpy products, sums and quotients are those of the point-wise
code, so every element equals the point-wise value bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .hurwitz import hurwitz_zeta
from .modesum import EvalPoint, PlateConfig, Region, TensorDiag, _require_between, region_of

# Python's float arithmetic overflows to inf without a word and the scalar
# code guards its divisions by zero; the array code takes the same IEEE
# results silently
_IEEE = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


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


def _pow4_each(x: np.ndarray) -> np.ndarray:
    """_pow4 of each element, libm's x**4 as the point-wise code takes it."""
    return np.array([_pow4(v) for v in x.tolist()], dtype=float)


def _one(x3: float) -> np.ndarray:
    return np.array([x3], dtype=float)


def coefficient_A(a: float) -> float:
    """Uniform coefficient; DomainError where it overflows."""
    den = 1440.0 * _pow4(a)
    value = math.pi**2 / den if den else math.inf
    if math.isinf(value):
        raise DomainError(f"A overflows at a = {a}")
    return value


@np.errstate(**_IEEE)
def _coefficient_B(a: float, x3: np.ndarray) -> np.ndarray:
    """B over an array of x3 between the plates, inf where it overflows."""
    angle = math.pi * np.minimum(x3, a - x3) / a
    sin2 = [s**2 for s in map(math.sin, angle.tolist())]  # libm, per element
    sin4 = np.array([v**2 for v in sin2], dtype=float)
    sin2 = np.array(sin2, dtype=float)
    den = 48.0 * _pow4(a)
    normal = (sin4 >= sys.float_info.min) & (0.0 < den < math.inf)
    b = np.empty_like(sin4)
    if normal.any():  # else den may be 0
        b[normal] = math.pi**2 / den * (3.0 - 2.0 * sin2[normal]) / sin4[normal]
    # a^4 or sin^4 leaves the normal range: the nearest image of each
    # plate, (x3^-4 + (a - x3)^-4) / (16 pi^2).  The others add at most
    # 0.014 / a^4, below 2.2 (d/a)^4 of B at distance d from the nearer
    # plate and below 1e-310 where a^4 overflows.
    image = x3[~normal]
    near = 16.0 * math.pi**2 * _pow4_each(image)
    far = 16.0 * math.pi**2 * _pow4_each(a - image)
    b[~normal] = 1.0 / near + 1.0 / far
    return b


def coefficient_B(a: float, x3: float) -> float:
    """Position-dependent coefficient, sine form; DomainError where B
    overflows.  The sine is taken at the distance to the nearer plate,
    which is exact for x3 >= a/2 too."""
    b = _coefficient_B(a, _one(x3)).item()
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


@np.errstate(**_IEEE)
def _milton_B(a: float, x3: np.ndarray) -> np.ndarray:
    """The Hurwitz form of B over an array of x3 between the plates, inf
    where zeta(4, q), a^4 or B leaves the float range."""
    den = 16.0 * math.pi**2 * _pow4(a)
    if not 0.0 < den < math.inf:
        return np.full(x3.shape, math.inf)
    # q at the nearer plate, as in coefficient_B: 1 - x3/a would keep few
    # digits of the distance next to the far plate
    q = np.minimum(x3, a - x3) / a
    z4 = np.full(q.shape, math.inf)  # x3/a underflows to 0 only where B overflows
    pos = q > 0.0
    z4[pos] = hurwitz_zeta(4.0, q[pos]) + hurwitz_zeta(4.0, 1.0 - q[pos])
    return z4 / den


def milton_B(cfg: PlateConfig, p: EvalPoint) -> float:
    """Hurwitz-zeta representation of B(x3); must coincide with the
    trigonometric closed form.  DomainError where zeta(4, q), a^4 or B
    leaves the float range."""
    _require_between(cfg.a, p.x3, "B is defined")
    b = _milton_B(cfg.a, _one(p.x3)).item()
    if math.isinf(b):
        raise DomainError(f"the Hurwitz form of B overflows at a = {cfg.a}, x3 = {p.x3}")
    return b


@np.errstate(**_IEEE)
def _outside_w(a: float, xi: float, x3: np.ndarray) -> np.ndarray:
    """w = (1 - 6 xi) / (16 pi^2 dist^4) over an array of x3 outside the
    plates, inf where it overflows; the tensor is diag(-w, w, w, 0)."""
    dist = np.where(x3 < 0.0, -x3, x3 - a)
    # far field: dist^4 overflows and w underflows to 0.0 with the sign of 1 - 6 xi
    den = 16.0 * math.pi**2 * _pow4_each(dist)
    w = (1.0 - 6.0 * xi) / den
    w[den == 0.0] = math.inf
    return w


def tensor_outside(cfg: PlateConfig, p: EvalPoint) -> TensorDiag:
    """Tensor in the outer half-spaces; distance is to the adjacent plate.

    Far away the tensor underflows to +-0.0; DomainError where it
    overflows next to a plate."""
    region = region_of(cfg.a, p.x3)
    if region is Region.BETWEEN:
        raise DomainError(f"x3 = {p.x3} lies between the plates, not outside them")
    w = _outside_w(cfg.a, cfg.xi, _one(p.x3)).item()
    if math.isinf(w):
        dist = -p.x3 if region is Region.LEFT_OUTSIDE else p.x3 - cfg.a
        raise DomainError(f"the tensor overflows at distance {dist} from the plate")
    return TensorDiag(t00=-w, t11=w, t22=w, t33=0.0)


class TensorGrid(NamedTuple):
    """Columns over an array of x3 (see ``tensor_grid``)."""

    region: np.ndarray  # Region.value of each point, "" on a plate
    tensor: TensorDiag  # of float arrays
    B: np.ndarray  # nan outside the plates
    milton_B: np.ndarray  # nan outside and where the Hurwitz form overflows
    failed: np.ndarray  # where the point-wise functions raise DomainError


@np.errstate(**_IEEE)
def tensor_grid(cfg: PlateConfig, x3: np.ndarray) -> TensorGrid:
    """Region, tensor, B and milton_B over an array of x3 in one masked
    pass: A once, B and its Hurwitz form over the points between the
    plates, the outside tensor over the others.  Each value is the one
    ``tensor_between_plates``, ``tensor_outside``, ``coefficient_B`` and
    ``milton_B`` return at that point; ``failed`` marks the points where
    ``region_of`` or those functions raise instead (a point on a plate,
    or A, B or the outside tensor overflowing), and their values there
    are meaningless.  milton_B is nan, not failed, where the Hurwitz form
    leaves the float range."""
    a = cfg.a
    # region_of's comparisons, per element
    between = (0.0 < x3) & (x3 < a)
    left, right = x3 < 0.0, x3 > a
    outside = left | right
    try:
        A = coefficient_A(a)
    except DomainError:
        A = math.inf
    b = _coefficient_B(a, x3[between])
    mb = _milton_B(a, x3[between])
    w = _outside_w(a, cfg.xi, x3[outside])
    inner = RenormalizedCoefficients(A=A, B=b).tensor(cfg.xi)
    columns = []
    for at_between, at_outside in zip(inner.as_tuple(), (-w, w, w, 0.0)):
        column = np.empty(x3.shape)
        column[between] = at_between
        column[outside] = at_outside
        columns.append(column)
    B = np.full(x3.shape, math.nan)
    B[between] = b
    milton = np.full(x3.shape, math.nan)
    milton[between] = np.where(np.isinf(mb), math.nan, mb)
    failed = ~(between | outside)
    failed[between] = math.isinf(A) | np.isinf(b)
    failed[outside] = np.isinf(w)
    region = np.select(
        [between, left, right],
        [Region.BETWEEN.value, Region.LEFT_OUTSIDE.value, Region.RIGHT_OUTSIDE.value],
        "",
    )
    return TensorGrid(region, TensorDiag(*columns), B, milton, failed)


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
