"""From a convergent mode sum to the renormalized tensor.

The vacuum stress-energy is defined by deforming the divergent mode sum
with a complex power u (convergent for Re u > 4), writing the sum in
closed form through polylogarithms, and continuing the closed form to
u = 0.  This script checks each link of that chain numerically.
"""

from zetacasimir import (
    EvalPoint,
    PlateConfig,
    continuation_at_zero,
    mode_sum_bruteforce,
    radial_integral_oracle,
    regularized_vev,
)
from zetacasimir.extrapolate import richardson_even

cfg = PlateConfig(a=1.0, xi=0.0)
p = EvalPoint(0.3)

print("=== convergent regime: brute force vs closed form (u = 5) ===")
for L in (100, 1_000, 10_000):
    res = mode_sum_bruteforce(5.0, cfg, p, L)
    closed = regularized_vev(5.0, cfg, p)
    diff = abs(res.tensor.t00 - closed.t00)
    print(f"L = {L:6d}: t00 diff {diff:.3e}  certified tail bound "
          f"{abs(res.tail_bound.t00):.3e}")

print()
print("=== the raw radial integral agrees with the l-series ===")
val = radial_integral_oracle(5.0, cfg, p, 50)
ref = mode_sum_bruteforce(5.0, cfg, p, 50).tensor.t00
print(f"quadrature t00 = {val.real:.15e}")
print(f"series     t00 = {ref.real:.15e}")

print()
print("=== continuation to u = 0 ===")
# regularized_vev is analytic near u = 0; Richardson extrapolation of
# its even part in u reproduces the direct evaluation at u = 0, which
# is the physical (renormalized) tensor.
direct = continuation_at_zero(cfg, p)
names = ("t00", "t11", "t22", "t33")
for idx, name in enumerate(names):
    def component(h, _idx=idx):
        return regularized_vev(h, cfg, p).as_tuple()[_idx]

    extrap = richardson_even(component, [0.1, 0.05, 0.025])
    want = direct.as_tuple()[idx]
    print(f"{name}: direct {want.real:+.12e}   extrapolated {extrap.real:+.12e}"
          f"   rel diff {abs(extrap - want) / abs(want):.2e}")

print()
print("=== regulator poles are detected, not averaged over ===")
for u in (1.0, 3.0):
    try:
        regularized_vev(u, cfg, p)
    except Exception as exc:
        print(f"u = {u}: {type(exc).__name__}: {exc}")
