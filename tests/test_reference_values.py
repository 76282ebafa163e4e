"""zeta, Hurwitz zeta, Li_s, Gamma, A_u and B_u against the frozen mpmath table.

reference_values.json comes from make_reference_values.py (mpmath 1.3.0
at 30 digits).  zeta, Hurwitz zeta and Li_n must lie within
1e-13 max(1, |ref|), and Gamma within 1e-13 |ref|.  Li_s at non-integer s
and the regularized coefficients come at the pipeline tolerance:
DEFAULT_TOL (1 + |ref|) for Li_s, and DEFAULT_TOL (1 + |A_u| + |B_u|)
on |dA_u| + |dB_u|.
"""

import json
import pathlib

import pytest

from zetacasimir import (
    EvalPoint,
    PlateConfig,
    gamma,
    hurwitz_zeta,
    polylog,
    regularized_coefficients,
    riemann_zeta,
)
from zetacasimir.polylog import DEFAULT_TOL

TABLE = json.loads(pathlib.Path(__file__).with_name("reference_values.json").read_text())
TOL = 1e-13


def _within(got, want):
    return abs(got - want) <= TOL * max(1.0, abs(want))


@pytest.mark.parametrize("sr,si,vr,vi", TABLE["zeta"])
def test_riemann_zeta(sr, si, vr, vi):
    assert _within(riemann_zeta(complex(sr, si)), complex(vr, vi))


@pytest.mark.parametrize("sr,si,q,vr,vi", TABLE["hurwitz"])
def test_hurwitz_zeta(sr, si, q, vr, vi):
    assert _within(hurwitz_zeta(complex(sr, si), q), complex(vr, vi))


@pytest.mark.parametrize("n,zr,zi,vr,vi", TABLE["polylog"])
def test_polylog_integer_order(n, zr, zi, vr, vi):
    assert _within(polylog(n, complex(zr, zi), tol=TOL), complex(vr, vi))


@pytest.mark.parametrize("sr,si,vr,vi", TABLE["gamma"])
def test_gamma(sr, si, vr, vi):
    want = complex(vr, vi)
    assert abs(gamma(complex(sr, si)) - want) <= TOL * abs(want)


@pytest.mark.parametrize("sr,si,zr,zi,vr,vi", TABLE["polylog_s"])
def test_polylog_non_integer_order(sr, si, zr, zi, vr, vi):
    want = complex(vr, vi)
    got = polylog(complex(sr, si), complex(zr, zi))
    assert abs(got - want) <= DEFAULT_TOL * (1.0 + abs(want))


@pytest.mark.parametrize("ur,ui,a,x3,ar,ai,br,bi", TABLE["coefficients"])
def test_regularized_coefficients(ur, ui, a, x3, ar, ai, br, bi):
    want_a, want_b = complex(ar, ai), complex(br, bi)
    got = regularized_coefficients(complex(ur, ui), PlateConfig(a=a), EvalPoint(x3))
    err = abs(got.A_u - want_a) + abs(got.B_u - want_b)
    assert err <= DEFAULT_TOL * (1.0 + abs(want_a) + abs(want_b))
