"""Write reference_values.json: zeta, Hurwitz zeta, Li_s, Gamma and the
regularized coefficients A_u, B_u from mpmath.

Run from the root of a checkout with mpmath 1.3.0 installed:

    python3 tests/make_reference_values.py

Every argument is a double, stored as written, and mpmath evaluates it
exactly at 30 digits before the value is rounded to double.  The seeded
draws give the same arguments on every run.  The tests read the JSON
file and never import mpmath.
"""

import cmath
import json
import math
import pathlib
import random

import mpmath

OUT = pathlib.Path(__file__).with_name("reference_values.json")

# zeta(s) for Re s in [-30, 1), |Im s| <= 2; -3.9997 lies next to the
# trivial zero at -4, and -1 and -0.9999 on either side of the line
# where the engine hands over to the reflection formula
ZETA_RE = (
    -30.0, -29.5, -27.25, -24.1, -21.5, -18.3, -15.7, -12.9, -10.2, -8.0,
    -7.5, -6.1, -5.5, -4.7, -4.0, -3.9997, -3.3, -3.0, -2.5, -2.0, -1.6,
    -1.2, -1.0, -0.9999, -0.95, -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.5,
    0.6, 0.8, 0.95, 0.999,
)
ZETA_IM = (0.0, 0.5, 1.3, -2.0, 2.0)
# zeta(s) for Re s in [-200, -170], where Gamma(1-s) alone overflows but
# zeta(s) does not; -200, -190 and -170 are trivial zeros
ZETA_FAR_RE = (
    -200.0, -197.3, -193.5, -190.0, -186.25, -183.1, -180.5, -177.7, -174.0,
    -171.5, -170.0,
)

# zeta(s, q) for Re s in (-1, 1)
HURWITZ_RE = (-0.999, -0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9, 0.999)
HURWITZ_IM = (0.0, 1.3, -2.0)
HURWITZ_Q = (0.02, 0.3, 0.5, 1.0, 2.7, 11.0)

# Li_n(z) on |z| = 1 and |z| = 0.9999, where the power series cannot
# certify a tight tolerance within its term budget
POLYLOG_N = (1, 2, 3, 4)
POLYLOG_ABS = (1.0, 0.9999)
POLYLOG_ARG = (1e-6, 0.01, 0.3, 1.0, 2.0, 2.9, math.pi, -0.7, -2.5)

# Li_s(z) at non-integer s, Re s in [-5, 2.5], |Im s| <= 2, half of them
# real, z = r e^(2 pi i q) with q in [0.02, 0.98]
POLYLOG_S_DRAWS = 60  # per radius
POLYLOG_S_ABS = (1.0, 0.9999)

# A_u and B_u for a in [0.1, 10] and x3/a in [0.02, 0.98]: random u, half of
# them real, in each band (Re u lower, upper, |Im u| max, draws), kept 0.05
# from the poles u = 1 and 3, and fixed u with a few (a, x3) draws each
COEFF_BANDS = ((-2.0, 3.0, 1.5, 30), (3.0, 3.9, 1.5, 16), (4.2, 5.5, 1.5, 20))
COEFF_FIXED_U = (5.0, 0.0, -0.9997)
COEFF_FIXED_DRAWS = 6

# Gamma(s) within 1e-6 of the poles -1 ... -5, and at |Im s| = 300, where
# sin(pi s) leaves the float range
GAMMA_POLE_OFFSETS = (1e-6, -1e-6, 3.7e-7, -1e-9, 1e-7j, 5e-7 - 5e-7j)
GAMMA_MORE = (-3.0 + 1e-9, -2.0000001, -1.000001, -1.0 + 1e-7j, -0.5 + 300j, -0.5 - 300j)
# Gamma(s) over its stated domain: random s, half of them real, in each
# band of Re s with |Im s| <= 20, kept 1e-3 from the poles; draws where
# |Gamma| < 1e-300 are skipped, since relative accuracy means nothing there
GAMMA_BANDS = ((-170.0, -100.0), (-100.0, -20.0), (-20.0, 0.0), (0.0, 20.0), (20.0, 100.0),
               (100.0, 170.0))
GAMMA_BAND_DRAWS = 48


def pair(v) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def gamma_band_args() -> list[complex]:
    rng = random.Random(10)
    args = []
    for lo, hi in GAMMA_BANDS:
        for k in range(GAMMA_BAND_DRAWS):
            im = 0.0 if k % 2 == 0 else round(rng.uniform(-20.0, 20.0), 4)
            s = complex(round(rng.uniform(lo, hi), 4), im)
            pole = min(round(s.real), 0)
            if abs(s - pole) >= 1e-3 and abs(mpmath.gamma(mpmath.mpc(s))) >= 1e-300:
                args.append(s)
    return args


def polylog_s_rows() -> list[list[float]]:
    rng = random.Random(8)
    rows = []
    for r in POLYLOG_S_ABS:
        count = 0
        while count < POLYLOG_S_DRAWS:
            im = 0.0 if count % 2 == 0 else round(rng.uniform(-2.0, 2.0), 4)
            s = complex(round(rng.uniform(-5.0, 2.5), 4), im)
            q = round(rng.uniform(0.02, 0.98), 4)
            if s == round(s.real):  # integer orders have tables of their own
                continue
            z = r * cmath.exp(2j * math.pi * q)
            value = mpmath.polylog(mpmath.mpc(s), mpmath.mpc(z))
            rows.append([*pair(s), *pair(z), *pair(value)])
            count += 1
    return rows


def coefficients(u: complex, a: float, x3: float) -> list[float]:
    """[A_u, B_u] with A_u = c zeta(u - 3) and
    B_u = c [Li_(u-3)(e^(2 pi i x3/a)) + Li_(u-3)(e^(-2 pi i x3/a))],
    c = 1 / (4 pi^(u-2) (u-3)(u-1) a^(4-u))."""
    u, a, x3 = mpmath.mpc(u), mpmath.mpf(a), mpmath.mpf(x3)
    c = 1 / (4 * mpmath.pi ** (u - 2) * (u - 3) * (u - 1) * a ** (4 - u))
    z = mpmath.expjpi(2 * x3 / a)
    s = u - 3
    b = mpmath.polylog(s, z) + mpmath.polylog(s, mpmath.conj(z))
    return [*pair(c * mpmath.zeta(s)), *pair(c * b)]


def coefficient_rows() -> list[list[float]]:
    rng = random.Random(9)

    def plates() -> tuple[float, float]:
        a = round(rng.uniform(0.1, 10.0), 4)
        return a, round(a * rng.uniform(0.02, 0.98), 6)

    args = []
    for lo, hi, im_max, draws in COEFF_BANDS:
        band = []
        while len(band) < draws:
            im = 0.0 if len(band) % 2 == 0 else round(rng.uniform(-im_max, im_max), 4)
            u = complex(round(rng.uniform(lo, hi), 4), im)
            if lo < u.real <= hi and min(abs(u - 1.0), abs(u - 3.0)) >= 0.05:
                band.append((u, *plates()))
        args += band
    for u in COEFF_FIXED_U:
        args += [(complex(u), *plates()) for _ in range(COEFF_FIXED_DRAWS)]
    return [[*pair(u), a, x3, *coefficients(u, a, x3)] for u, a, x3 in args]


def main() -> None:
    mpmath.mp.dps = 30
    zeta = [
        [*pair(complex(re, im)), *pair(mpmath.zeta(mpmath.mpc(re, im)))]
        for re in ZETA_RE + ZETA_FAR_RE
        for im in ZETA_IM
    ]
    hurwitz = [
        [*pair(complex(re, im)), q, *pair(mpmath.zeta(mpmath.mpc(re, im), q))]
        for q in HURWITZ_Q
        for re in HURWITZ_RE
        for im in HURWITZ_IM
    ]
    polylog = []
    for n in POLYLOG_N:
        for r in POLYLOG_ABS:
            for theta in POLYLOG_ARG:
                z = r * cmath.exp(1j * theta)
                polylog.append([n, *pair(z), *pair(mpmath.polylog(n, mpmath.mpc(z)))])
    gamma_args = [-k + d for k in range(1, 6) for d in GAMMA_POLE_OFFSETS]
    gamma = [
        [*pair(s), *pair(mpmath.gamma(mpmath.mpc(s)))]
        for s in gamma_args + list(GAMMA_MORE) + gamma_band_args()
    ]
    tables = {
        "zeta": zeta,
        "hurwitz": hurwitz,
        "polylog": polylog,
        "gamma": gamma,
        "polylog_s": polylog_s_rows(),
        "coefficients": coefficient_rows(),
    }
    source = json.dumps(f"mpmath {mpmath.__version__} at {mpmath.mp.dps} digits")
    # one row per line, so a regenerated file diffs row by row
    parts = [f'{{\n"source": {source}']
    for name, rows in tables.items():
        body = ",\n".join(json.dumps(row) for row in rows)
        parts.append(f'"{name}": [\n{body}\n]')
    OUT.write_text(",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    main()
