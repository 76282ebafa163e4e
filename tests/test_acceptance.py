"""End-to-end acceptance gate.

Each test checks one headline capability at its stated tolerance and
prints a single pass/fail line with the measured figure of merit.
"""

import cmath
import math

import numpy as np
import pytest

from zetacasimir import (
    EvalPoint,
    PlateConfig,
    coefficient_B,
    gamma,
    hankel_recip_gamma_check,
    milton_B,
    mode_sum_bruteforce,
    polylog_hankel,
    polylog_neg_int,
    polylog_series,
    pressure,
    radial_integral_oracle,
    regularized_vev,
    single_plate_limit_check,
    tensor_between_plates,
    tensor_outside,
)
from zetacasimir.cli import main as cli_main
from zetacasimir.extrapolate import richardson_even


def report(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_zeta_minus_three_by_quadrature():
    res = polylog_hankel(-3.0, 1.0, tol=1e-12)
    err = abs(res.value - 1.0 / 120.0)
    report(1, err <= 1e-10, f"zeta(-3) via Hankel quadrature, |error| = {err:.3e}")


def test_criterion_02_closed_form_vs_quadrature_disk():
    worst = 0.0
    count = 0
    for r in np.linspace(0.1, 1.0, 10):
        for k in range(21):
            z = r * cmath.exp(2j * math.pi * k / 21.0)
            if abs(z - 1.0) < 1e-3:
                continue
            ref = polylog_neg_int(3, z)
            val = polylog_hankel(-3.0, z, tol=1e-10).value
            worst = max(worst, abs(val - ref) / abs(ref))
            count += 1
    assert count >= 200
    report(2, worst <= 1e-8, f"Li_-3 rational vs quadrature on {count} disk points, "
           f"max rel error = {worst:.3e}")


def test_criterion_03_series_vs_quadrature_pairs():
    orders = (-3.5, -2.7, -1.5, -0.5, -0.25, 0.5, 1.5, 2.5, 3.5, 4.5)
    points = (0.3, -0.7, 0.5j, -0.2 + 0.4j, 0.85)
    worst = 0.0
    count = 0
    for s in orders:
        for z in points:
            ref = polylog_series(s, z, tol=1e-11)
            val = polylog_hankel(s, z, tol=1e-10).value
            worst = max(worst, abs(val - ref) / (1.0 + abs(ref)))
            count += 1
    assert count == 50
    report(3, worst <= 1e-8, f"series vs quadrature on {count} (s, z) pairs, "
           f"max error = {worst:.3e}")


def test_criterion_04_recip_gamma_identity():
    cases = [(s, ell) for s in (-3.0, -1.5, 0.5, 2.5 + 1.0j) for ell in (1, 2, 3)]
    worst = 0.0
    for s, ell in cases:
        res = hankel_recip_gamma_check(s, ell, tol=1e-10)
        product = res.value * gamma(1.0 - complex(s)) * complex(ell) ** complex(s)
        worst = max(worst, abs(product - 1.0))
    report(4, worst <= 1e-8, f"1/Gamma contour identity over {len(cases)} (s, l) "
           f"pairs, max |product - 1| = {worst:.3e}")


def test_criterion_05_mode_sum_oracle():
    ok = True
    worst_rel = 0.0
    for xi in (0.0, 1.0 / 6.0):
        for x3 in (0.25, 0.5):
            cfg = PlateConfig(a=1.0, xi=xi)
            p = EvalPoint(x3)
            res = mode_sum_bruteforce(5.0, cfg, p, 10_000)
            closed = regularized_vev(5.0, cfg, p)
            for got, want, bound in zip(
                res.tensor.as_tuple(), closed.as_tuple(), res.tail_bound.as_tuple()
            ):
                ok = ok and abs(got - want) <= abs(bound)
                worst_rel = max(worst_rel, abs(bound) / abs(want))
    ok = ok and worst_rel <= 1e-3
    report(5, ok, f"brute-force mode sum within certified bounds at u=5, "
           f"worst relative bound = {worst_rel:.3e}")


def test_criterion_06_radial_quadrature_oracle():
    cfg = PlateConfig(a=1.0, xi=0.0)
    p = EvalPoint(0.5)
    val = radial_integral_oracle(5.0, cfg, p, 50)
    ref = mode_sum_bruteforce(5.0, cfg, p, 50).tensor.t00
    rel = abs(val - ref) / abs(ref)
    report(6, rel <= 1e-6, f"radial quadrature vs l-series t00 at u=5, L=50, "
           f"rel error = {rel:.3e}")


def test_criterion_07_continuation_consistency():
    worst = 0.0
    for xi in (0.0, 1.0 / 6.0, 1.0):
        for x3 in (0.3, 0.5):
            cfg = PlateConfig(a=1.0, xi=xi)
            p = EvalPoint(x3)
            closed = tensor_between_plates(cfg, p)
            for idx in range(4):
                def component(h, _idx=idx):
                    return regularized_vev(h, cfg, p).as_tuple()[_idx]

                extrap = richardson_even(component, [0.1, 0.05, 0.025])
                want = closed.as_tuple()[idx]
                worst = max(worst, abs(extrap - want) / max(abs(want), 1e-12))
    report(7, worst <= 1e-6, f"Richardson continuation to u=0 vs closed form at "
           f"6 (xi, x3) combinations, max rel error = {worst:.3e}")


def test_criterion_08_milton_equivalence():
    cfg = PlateConfig(a=1.0)
    worst = 0.0
    for j in range(1, 100):
        p = EvalPoint(0.01 * j)
        trig = coefficient_B(cfg.a, p.x3)
        worst = max(worst, abs(milton_B(cfg, p) - trig) / abs(trig))
    report(8, worst <= 1e-10, f"Hurwitz-zeta form of B vs trigonometric form on "
           f"99 grid points, max rel error = {worst:.3e}")


def test_criterion_09_pressure():
    at_zero, at_a = pressure(PlateConfig(a=1.0))
    mag = math.pi**2 / 480.0
    ok = (
        abs(at_zero.p3 - mag) <= 1e-12
        and abs(at_zero.p3 - 0.020561675835) <= 1e-9
        and abs(at_a.p3 + mag) <= 1e-12
        and at_zero.p1 == at_zero.p2 == 0.0
    )
    report(9, ok, f"pressure (0, 0, {at_zero.p3:.12f}) at x3=0, opposite at x3=a")


def test_criterion_10_conformal_properties():
    cfg = PlateConfig(a=1.0, xi=1.0 / 6.0)
    ref = tensor_between_plates(cfg, EvalPoint(0.5))
    variation = 0.0
    trace_max = 0.0
    for j in range(1, 20):
        t = tensor_between_plates(cfg, EvalPoint(0.05 * j))
        variation = max(
            variation,
            max(abs(a - b) for a, b in zip(t.as_tuple(), ref.as_tuple())),
        )
        trace_max = max(trace_max, abs(t.trace()))
    outer = tensor_outside(
        PlateConfig(a=1.0, xi=1.0 / 6.0), EvalPoint(-1.0)
    )
    scale = abs(ref.t00)
    ok = (
        variation <= 1e-12 * scale
        and trace_max <= 1e-12 * scale
        and outer.as_tuple() == (0.0, 0.0, 0.0, 0.0)
    )
    report(10, ok, f"conformal coupling: tensor variation {variation:.3e}, "
           f"max |trace| {trace_max:.3e}, outer tensor identically zero")


def test_criterion_11_single_plate_limit():
    devs = single_plate_limit_check(EvalPoint(1.0), [10.0, 100.0, 1000.0])
    ratios = [devs[0] / devs[1], devs[1] / devs[2]]
    # leading correction is (pi x3/a)^4 / 45: decay is at least quadratic
    # per decade (in fact quartic)
    ok = devs[2] <= 1e-5 and all(r >= 100.0 for r in ratios)
    report(11, ok, f"single-plate limit deviation {devs[2]:.3e} at a=1000, "
           f"decay ratios per decade {ratios[0]:.0f}, {ratios[1]:.0f} (>= 100)")


def test_criterion_12_boundary_divergence():
    x3 = 1e-2
    val = coefficient_B(1.0, x3) * x3**4
    target = 1.0 / (16.0 * math.pi**2)
    rel = abs(val - target) / target
    report(12, rel <= 1e-2, f"B(x3) x3^4 at x3 = 0.01 a within {rel:.3e} of "
           f"1/(16 pi^2)")


def test_criterion_13_cli_determinism(tmp_path, capsys):
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        code = cli_main(
            ["profile", "--a", "1", "--n-points", "9", "--x3-min", "0.1",
             "--x3-max", "0.9", "--output", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(13, identical, "two identical profile runs produced byte-identical "
           "output files")
