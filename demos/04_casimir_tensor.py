"""The physics: renormalized stress-energy and Casimir pressure.

Closed forms for the tensor between and outside Dirichlet plates, the
independent Hurwitz-zeta route to the position-dependent coefficient,
the conformal special case, and the attractive pressure.
"""

import math

from zetacasimir import (
    EvalPoint,
    PlateConfig,
    coefficient_B,
    milton_B,
    pressure,
    single_plate_limit_check,
    tensor_between_plates,
    tensor_outside,
)

a = 1.0

print("=== tensor profile between the plates (xi = 0) ===")
cfg = PlateConfig(a=a, xi=0.0)
print("x3      t00            t11            t33")
for j in range(1, 10):
    t = tensor_between_plates(cfg, EvalPoint(0.1 * j))
    print(f"{0.1 * j:.1f}  {t.t00:+.6e}  {t.t11:+.6e}  {t.t33:+.6e}")
print("note: t33 is constant; the position dependence diverges like")
print("1/(x3)^4 toward either plate and integrates against test volumes")

print()
print("=== two independent forms of the coefficient B(x3) ===")
worst = 0.0
for j in range(1, 100):
    p = EvalPoint(0.01 * j)
    trig = coefficient_B(a, p.x3)
    hz = milton_B(cfg, p)
    worst = max(worst, abs(hz - trig) / trig)
print(f"trigonometric vs Hurwitz-zeta route, max rel diff over 99 points: "
      f"{worst:.2e}")

print()
print("=== conformal coupling xi = 1/6 ===")
conf = PlateConfig(a=a, xi=1.0 / 6.0)
t = tensor_between_plates(conf, EvalPoint(0.123))
print(f"tensor diag = ({t.t00:+.6e}, {t.t11:+.6e}, {t.t22:+.6e}, {t.t33:+.6e})")
print(f"trace = {t.trace():.3e} (vanishes); components are x3-independent")
outer = tensor_outside(conf, EvalPoint(-0.5))
print(f"outside the plates the conformal tensor is exactly {outer.as_tuple()}")

print()
print("=== single-plate limit ===")
devs = single_plate_limit_check(EvalPoint(1.0), [10.0, 100.0, 1000.0])
for sep, d in zip((10, 100, 1000), devs):
    print(f"a = {sep:5d}: |B * 16 pi^2 x3^4 - 1| = {d:.3e}")
print("the deviation falls like a^-4 (leading term (pi x3/a)^4 / 45)")

print()
print("=== pressure on the plates ===")
for sep in (0.5, 1.0, 2.0):
    p0, pa = pressure(PlateConfig(a=sep))
    print(f"a = {sep:.1f}: p3 at x3=0 is {p0.p3:+.8e}, at x3=a is {pa.p3:+.8e}")
print(f"magnitude at a=1 is pi^2/480 = {math.pi**2 / 480:.12f}; the signs")
print("mean the plates attract each other, independently of the coupling xi")
