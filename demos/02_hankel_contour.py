"""The keyhole contour behind the analytic continuation.

The polylogarithm for general complex order is defined through a
contour integral around the negative-real branch cut.  This script
shows the quadrature converging under panel refinement, the branch
convention fixing the sign of zeta(-3), and how the contour adapts when
the argument approaches the singular point z = 1.
"""

import cmath

from zetacasimir import polylog_hankel, polylog_neg_int
from zetacasimir.hankel import default_radius

print("=== zeta(-3) from the contour (branch-convention check) ===")
# With legs at arg t = 0 and 2 pi and a counterclockwise loop, the
# residue calculus gives exactly +1/120.  A wrong branch flips the sign.
res = polylog_hankel(-3.0, 1.0, tol=1e-12)
print(f"value = {res.value.real:.15f}   (expect +{1 / 120:.15f})")
print(f"internal error estimate = {res.error:.3e}")

print()
print("=== contour geometry is not load-bearing ===")
# Any admissible loop radius gives the same number; only enclosing a
# root of e^t = z would change the value (and is rejected up front).
for radius in (1.0, 0.5, 0.25):
    val = polylog_hankel(-1.5, -0.5, radius=radius, tol=1e-10).value
    print(f"radius {radius:4.2f}: Li_(-1.5)(-0.5) = {val.real:.14f}")

print()
print("=== walking toward the singular point z = 1 ===")
# Roots of e^t = z approach the origin as z -> 1; the default contour
# shrinks to keep them outside, so the quadrature stays accurate right
# up to |z - 1| ~ 1e-3 where Li_(-3) has grown to ~1e12.
for eps in (1e-1, 1e-2, 1e-3):
    z = 1.0 - eps
    radius = default_radius(z)
    got = polylog_hankel(-3.0, z, tol=1e-10).value
    ref = polylog_neg_int(3, z)
    rel = abs(got - ref) / abs(ref)
    print(f"z = 1 - {eps:.0e}: radius {radius:.4f}, "
          f"value {got.real:.6e}, rel error vs closed form {rel:.2e}")

print()
print("=== a complex order on the unit circle ===")
z = cmath.exp(2j * cmath.pi * 0.3)
val = polylog_hankel(-3.0 + 1.0j, z, tol=1e-10)
print(f"Li_(-3+1j)(e^(0.6 pi i)) = {val.value:.12f}")
