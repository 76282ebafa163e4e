"""Complex Gamma function via a Lanczos rational approximation.

The approximation uses the 15-term coefficient set with g = 607/128
(relative accuracy close to machine precision for |s| <= 20); arguments
with Re s < 1/2 go through the reflection formula.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

_LANCZOS_G = 607.0 / 128.0

_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)


def is_nonpositive_integer(s: complex, tol: float = 0.0) -> bool:
    """True when s lies (within tol) on {0, -1, -2, ...}."""
    s = complex(s)
    if abs(s.imag) > tol:
        return False
    n = round(s.real)
    return n <= 0 and abs(s.real - n) <= tol


def gamma(s: complex) -> complex:
    """Gamma(s) for complex s.

    Raises PoleError at the poles s = 0, -1, -2, ... and DomainError
    where |Gamma(s)| overflows; where it underflows the value is a zero
    (signed at real s).
    """
    s = complex(s)
    if is_nonpositive_integer(s):
        raise PoleError(f"Gamma pole at s = {s}")
    if s.real < 0.5:
        # Reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s)
        sine = cmath.sin(math.pi * s)
        try:
            mirror = gamma(1.0 - s)
        except DomainError:  # |Gamma(1-s)| overflows, so |Gamma(s)| underflows
            return complex(math.copysign(0.0, sine.real), 0.0)
        return math.pi / (sine * mirror)
    x = s - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (x + k)
    t = x + _LANCZOS_G + 0.5
    # t^(x+1/2) e^(-t) as two halves around e^(-t): no factor overflows
    # before the product does
    try:
        half = t ** (0.5 * (x + 0.5))
        value = math.sqrt(2.0 * math.pi) * acc * half * (cmath.exp(-t) * half)
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise DomainError(f"|Gamma(s)| overflows at s = {s}")
    return value
