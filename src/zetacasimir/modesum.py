"""Regulator-deformed vacuum stress-energy for the parallel-plate geometry.

The diagonal components at complex regulator u are assembled from two
coefficients,

    A_u = zeta(u-3) * c,     B_u(x3) = [Li_{u-3}(e^{2 i pi x3/a})
                                        + Li_{u-3}(e^{-2 i pi x3/a})] * c,
    c   = 1 / (4 pi^{u-2} (u-3)(u-1) a^{4-u}),

weighted by the diagonal matrices diag(u-1, 1, 1, u-3) and
diag(-1-2(u-3)xi, 1-u/2+2(u-3)xi, same, 0).  For Re u > 4 the underlying
mode sum converges and a truncated brute-force evaluation with a
certified tail bound is provided as an oracle, together with a rawer
radial-quadrature oracle for the energy density that validates the
analytic polar integration step: one complex QUADPACK quadrature per
transverse mode, at a fixed relative tolerance.  Neither oracle takes
more than u, the plates, the point and the truncation order L.

The two polylogarithms in B_u are a conjugate pair: at real u,
Li_s(conj z) = conj Li_s(z), so B_u is real and its imaginary part,
quadrature error alone, is dropped.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, QuadratureError
from .polylog import polylog, riemann_zeta

# Minkowski signature, fixed throughout; used for trace computation.
METRIC_DIAG = (-1.0, 1.0, 1.0, 1.0)

_ROW = 1024  # terms per row of the brute-force angle-addition tables
_CHUNK_ROWS = 128  # rows per brute-force chunk: 2^17 terms
_RADIAL_TOL = 1e-9  # relative tolerance of each radial-oracle quadrature


class Region(enum.Enum):
    BETWEEN = "between"
    LEFT_OUTSIDE = "left"
    RIGHT_OUTSIDE = "right"


def region_of(a: float, x3: float) -> Region:
    """Region of the point x3 for plates at 0 and a; a point on a plate
    (or NaN) belongs to none and raises DomainError."""
    if x3 < 0.0:
        return Region.LEFT_OUTSIDE
    if x3 > a:
        return Region.RIGHT_OUTSIDE
    if 0.0 < x3 < a:
        return Region.BETWEEN
    raise DomainError(f"x3 = {x3} lies exactly on a plate")


def _require_between(a: float, x3: float, defined: str) -> None:
    """DomainError unless x3 lies between the plates, naming what is
    defined only there."""
    if region_of(a, x3) is not Region.BETWEEN:
        raise DomainError(f"x3 = {x3} is outside the plates; {defined} between them")


@dataclass(frozen=True)
class PlateConfig:
    """Plate separation a and curvature coupling xi."""

    a: float
    xi: float = 0.0

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise DomainError(f"plate separation must be positive, got {self.a}")


@dataclass(frozen=True)
class EvalPoint:
    """Coordinate x3 along the plate normal."""

    x3: float


@dataclass(frozen=True)
class RegularizedCoefficients:
    A_u: complex
    B_u: complex


@dataclass(frozen=True)
class TensorDiag:
    """Diagonal stress-energy components; off-diagonals vanish identically
    for this geometry, so only the diagonal is represented."""

    t00: complex
    t11: complex
    t22: complex
    t33: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.t00, self.t11, self.t22, self.t33)

    def trace(self) -> complex:
        """eta^{mu nu} T_{mu nu} with signature diag(-1, 1, 1, 1)."""
        return sum(g * t for g, t in zip(METRIC_DIAG, self.as_tuple()))


@dataclass(frozen=True)
class ModeSumResult:
    tensor: TensorDiag
    tail_bound: TensorDiag  # per-component certified bound, real values


def _check_u_poles(u: complex) -> None:
    for pole in (1.0, 3.0):
        if abs(u - pole) < 1e-12:
            raise PoleError(f"prefactor pole at u = {pole}")


def _prefactor(u: complex, a: float) -> complex:
    return 1.0 / (
        4.0 * math.pi ** 2 * cmath.exp((u - 4.0) * cmath.log(math.pi))
        * (u - 3.0) * (u - 1.0) * a ** (4.0 - u)
    )


def _weights(u: complex, xi: float) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    alpha = (u - 1.0, 1.0, 1.0, u - 3.0)
    planar = 1.0 - u / 2.0 + 2.0 * (u - 3.0) * xi
    beta = (-1.0 - 2.0 * (u - 3.0) * xi, planar, planar, 0.0)
    return alpha, beta


def regularized_coefficients(
    u: complex, cfg: PlateConfig, p: EvalPoint
) -> RegularizedCoefficients:
    """A_u and B_u(x3) between the plates, valid wherever the continued
    constituents exist; both are real at real u.  zeta and Li_s run at
    the pipeline tolerance ``polylog.DEFAULT_TOL``."""
    u = complex(u)
    _require_between(cfg.a, p.x3, "the regularized coefficients are defined")
    _check_u_poles(u)
    c = _prefactor(u, cfg.a)
    s = u - 3.0
    a_u = riemann_zeta(s) * c
    z = cmath.exp(2j * math.pi * p.x3 / cfg.a)
    b_u = (polylog(s, z) + polylog(s, z.conjugate())) * c
    if u.imag == 0.0:
        # Li_s(conj z) = conj Li_s(z) at real s: the imaginary part is
        # quadrature error
        a_u = complex(a_u.real, 0.0)
        b_u = complex(b_u.real, 0.0)
    return RegularizedCoefficients(A_u=a_u, B_u=b_u)


def regularized_vev(u: complex, cfg: PlateConfig, p: EvalPoint) -> TensorDiag:
    """Diagonal regulated VEV assembled from A_u, B_u and the two weight
    matrices."""
    u = complex(u)
    coeffs = regularized_coefficients(u, cfg, p)
    alpha, beta = _weights(u, cfg.xi)
    comps = [al * coeffs.A_u + be * coeffs.B_u for al, be in zip(alpha, beta)]
    return TensorDiag(*comps)


def _partial_mode_sums(
    u: complex, phase: float, stops: list[int]
) -> dict[int, tuple[complex, complex]]:
    """Partial sums S1(L) = sum_{l<=L} l^(3-u) and
    S2(L) = sum_{l<=L} 2 cos(l phase) l^(3-u) at every L in stops, from one
    pass up to the largest.

    The terms form rows of _ROW consecutive l, row r starting at
    l0 = _ROW r + 1.  A matrix product with the tables [1, cos k phase,
    sin k phase], k < _ROW, reduces every row at once, and angle addition
    turns each row's table sums into its share of S2.  The rows are added
    in order, and a row cut by a stop is reduced on its own, so S(L) has
    the same bits whichever other stops share the pass.
    """
    stops = sorted(set(stops))
    if not stops:
        return {}
    last = stops[-1]
    k = np.arange(_ROW, dtype=np.float64) * phase
    tables = np.stack([np.ones(_ROW), np.cos(k), np.sin(k)], axis=1)
    parts = 1 if u.imag == 0.0 else 2  # real and imaginary part of each term

    def reduce(rows: np.ndarray) -> np.ndarray:
        """Table sums (1, cos, sin) of each row, complex at complex u."""
        sums = rows.reshape(-1, _ROW) @ tables
        if parts == 1:
            return sums
        half = sums.shape[0] // 2
        return sums[:half] - 1j * sums[half:]

    def shares(sums: np.ndarray, cos0: np.ndarray, sin0: np.ndarray) -> np.ndarray:
        """(S1, S2) shares of rows from their table sums and the cos and
        sin of their start angles l0 phase."""
        s2 = 2.0 * (cos0 * sums[..., 1] - sin0 * sums[..., 2])
        return np.stack([sums[..., 0], s2], axis=-1)

    out: dict[int, tuple[complex, complex]] = {}
    acc = np.zeros(2, dtype=np.complex128)  # S1, S2 over the rows done
    chunk = _ROW * _CHUNK_ROWS
    # l^(3-u) = |l^(3-u)| (cos t - i sin t), t = Im u log l; the chunk's
    # terms fill w[0] (and w[1] = |l^(3-u)| sin t at complex u)
    w = np.empty((parts, _CHUNK_ROWS, _ROW))
    flat = w.reshape(parts, -1)
    for lo in range(0, last, chunk):
        n = min(chunk, last - lo)
        log_ell = np.log(np.arange(lo + 1, lo + n + 1, dtype=np.float64))
        mag = flat[0, :n]
        np.exp(np.multiply(log_ell, 3.0 - u.real, out=mag), out=mag)
        if parts == 2:
            log_ell *= u.imag
            np.multiply(mag, np.sin(log_ell), out=flat[1, :n])
            mag *= np.cos(log_ell)
        # zero padding keeps every matrix product at one shape
        flat[:, n:] = 0.0
        l0 = (lo + 1 + _ROW * np.arange(_CHUNK_ROWS)) * phase
        cos0, sin0 = np.cos(l0), np.sin(l0)
        rows = shares(reduce(w), cos0, sin0)
        prefix = np.cumsum(np.concatenate([acc[None, :], rows]), axis=0)
        for stop in stops:
            if not lo < stop <= lo + chunk:
                continue
            r, m = divmod(stop - lo, _ROW)
            total = prefix[r]
            if m:
                cut = np.zeros((parts, 1, _ROW))
                cut[:, 0, :m] = w[:, r, :m]
                total = total + shares(reduce(cut)[0], cos0[r], sin0[r])
            out[stop] = (complex(total[0]), complex(total[1]))
        acc = prefix[-1]
    return out


def _bruteforce_results(
    u: complex, cfg: PlateConfig, p: EvalPoint, stops: list[int]
) -> dict[int, ModeSumResult]:
    """mode_sum_bruteforce at every L in stops, from one pass."""
    u = complex(u)
    if u.real <= 4.0:
        raise DomainError(f"mode sum converges only for Re u > 4, got u = {u}")
    _require_between(cfg.a, p.x3, "the mode sum is defined")
    if any(L < 1 for L in stops):
        raise DomainError("truncation order L must be >= 1")

    phase = 2.0 * math.pi * p.x3 / cfg.a
    c = _prefactor(u, cfg.a)
    alpha, beta = _weights(u, cfg.xi)
    results = {}
    for L, (s1, s2) in _partial_mode_sums(u, phase, stops).items():
        comps = [c * (al * s1 + be * s2) for al, be in zip(alpha, beta)]
        # tail: sum_{l>L} l^(3-Re u) <= L^(4-Re u)/(Re u - 4); |cos| <= 1
        envelope = L ** (4.0 - u.real) / (u.real - 4.0)
        bounds = [
            abs(c) * (abs(al) + 2.0 * abs(be)) * envelope
            for al, be in zip(alpha, beta)
        ]
        results[L] = ModeSumResult(TensorDiag(*comps), TensorDiag(*bounds))
    return results


def mode_sum_bruteforce(
    u: complex, cfg: PlateConfig, p: EvalPoint, L: int
) -> ModeSumResult:
    """Truncated mode sum S(L) with a certified integral-comparison tail
    bound, one pass over the L terms.  Only valid in the convergent
    regime Re u > 4.
    """
    return _bruteforce_results(u, cfg, p, [L])[L]


def radial_integral_oracle(
    u: complex, cfg: PlateConfig, p: EvalPoint, L: int
) -> complex:
    """Energy density t00 from the pre-integration (rho, theta) form.

    Performs the radial improper integral of each of the first L
    transverse modes as one complex QUADPACK quadrature at relative
    tolerance _RADIAL_TOL, and raises QuadratureError where the reported
    error exceeds 1e3 times that; the angular integral is the factor
    2 pi, since the integrand carries no theta dependence.  Validates the
    analytic polar-coordinates step against mode_sum_bruteforce.
    """
    u = complex(u)
    if u.real <= 4.0:
        raise DomainError(f"radial oracle requires Re u > 4, got u = {u}")
    _require_between(cfg.a, p.x3, "the radial oracle is defined")
    # scipy serves this oracle alone, so the package imports it only here
    from scipy import integrate

    phase = 2.0 * math.pi * p.x3 / cfg.a
    xi = cfg.xi

    total = 0.0 + 0.0j
    for ell in range(1, L + 1):
        cos_phi = math.cos(phase * ell)

        def integrand(rho: float) -> complex:
            base = rho * (
                rho * rho + ell * ell
                - (rho * rho + 4.0 * xi * ell * ell) * cos_phi
            )
            return base * (rho * rho + ell * ell) ** (-(u + 1.0) / 2.0)

        val, err = integrate.quad(
            integrand, 0.0, np.inf, epsabs=0.0, epsrel=_RADIAL_TOL, limit=200,
            complex_func=True,
        )
        err = abs(err.real) + abs(err.imag)
        if err > 1e3 * _RADIAL_TOL * max(abs(val), 1e-300):
            raise QuadratureError(
                f"radial integral for mode {ell} reported error {err:.3e}"
            )
        total += val

    pref = 1.0 / (
        8.0 * math.pi ** 2 * cmath.exp((u - 3.0) * cmath.log(math.pi))
        * cfg.a ** (4.0 - u)
    )
    return pref * (2.0 * math.pi) * total


def continuation_at_zero(cfg: PlateConfig, p: EvalPoint) -> TensorDiag:
    """Renormalized tensor: the regulated VEV continued to u = 0."""
    return regularized_vev(0.0, cfg, p)
