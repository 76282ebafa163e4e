"""zeta, Hurwitz zeta, Li_n and Gamma against the frozen mpmath table.

reference_values.json comes from make_reference_values.py (mpmath 1.3.0
at 30 digits); every value must lie within 1e-13 max(1, |ref|), and
every Gamma value within 1e-13 |ref|.
"""

import json
import pathlib

import pytest

from zetacasimir import gamma, hurwitz_zeta, polylog, riemann_zeta

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
