"""Independent high-precision references, computed with mpmath.

Nothing here imports zetacasimir: every formula is written out again from
the mathematics, so a check never shares code with the route it checks.
mpmath is used by the benchmark only; the package does not depend on it.
"""

from __future__ import annotations

import mpmath as mp

VEV_DPS = 20
RENORMALIZED_DPS = 30


def _weights(u, xi):
    """diag(u-1, 1, 1, u-3) and diag(-1-2(u-3)xi, planar, planar, 0)."""
    planar = 1 - u / 2 + 2 * (u - 3) * xi
    alpha = (u - 1, 1, 1, u - 3)
    beta = (-1 - 2 * (u - 3) * xi, planar, planar, 0)
    return alpha, beta


def _prefactor(u, a):
    """c = 1 / (4 pi^(u-2) (u-3)(u-1) a^(4-u))."""
    return 1 / (4 * mp.pi ** (u - 2) * (u - 3) * (u - 1) * a ** (4 - u))


def vev(u: complex, a: float, xi: float, q: float) -> list[tuple[complex, float]]:
    """Regulated VEV components at u, each with the scale |alpha A_u| + |beta B_u|.

    A_u = c zeta(u-3).  For Re u < 3, B_u comes from the Hurwitz (Jonquiere)
    form with w = 4 - u,
        B_u = c Gamma(w) (2 pi)^-w 2 cos(pi w / 2) [zeta(w, q) + zeta(w, 1-q)],
    and otherwise from mpmath's own polylog at z = exp(+-2 pi i q).
    """
    with mp.workdps(VEV_DPS):
        u = mp.mpc(u)
        a = mp.mpf(a)
        q = mp.mpf(q)
        c = _prefactor(u, a)
        big_a = c * mp.zeta(u - 3)
        if u.real < 3:
            w = 4 - u
            big_b = (
                c * mp.gamma(w) * (2 * mp.pi) ** (-w) * 2 * mp.cos(mp.pi * w / 2)
                * (mp.zeta(w, q) + mp.zeta(w, 1 - q))
            )
        else:
            z = mp.expjpi(2 * q)
            li = mp.polylog(u - 3, z)
            li_bar = mp.conj(li) if u.imag == 0 else mp.polylog(u - 3, mp.conj(z))
            big_b = c * (li + li_bar)
        alpha, beta = _weights(u, mp.mpf(xi))
        return [
            (complex(al * big_a + be * big_b), float(abs(al * big_a) + abs(be * big_b)))
            for al, be in zip(alpha, beta)
        ]


def bruteforce_t00_tail(u: complex, a: float, xi: float, L: int) -> float:
    """Bound on what the mode sum truncated at L leaves out of t00.

    The t00 summand is c l^(3-u) (alpha_0 + 2 beta_0 cos(2 pi l q)), and
    sum_{l>L} l^(3-Re u) <= L^(4-Re u) / (Re u - 4) for Re u > 4, so
    |tail| <= |c| (|alpha_0| + 2 |beta_0|) L^(4-Re u) / (Re u - 4).
    """
    with mp.workdps(VEV_DPS):
        u = mp.mpc(u)
        alpha, beta = _weights(u, mp.mpf(xi))
        envelope = mp.mpf(L) ** (4 - u.real) / (u.real - 4)
        return float(abs(_prefactor(u, mp.mpf(a))) * (abs(alpha[0]) + 2 * abs(beta[0])) * envelope)


def renormalized(a: float, xi: float, x3: float) -> dict[str, float]:
    """Renormalized tensor and B(x3) from the closed forms, at 30 digits.

    Between the plates: A = pi^2/(1440 a^4), B = pi^2/(48 a^4) (3 - 2 s^2)/s^4
    with s = sin(pi x3/a).  Outside: w = (1 - 6 xi)/(16 pi^2 d^4) with d the
    distance to the nearer plate.  "scale" is |A| + |(1 - 6 xi) B| (or |w|),
    the size against which component errors are judged.
    """
    with mp.workdps(RENORMALIZED_DPS):
        a = mp.mpf(a)
        xi = mp.mpf(xi)
        x3 = mp.mpf(x3)
        if 0 < x3 < a:
            big_a = mp.pi ** 2 / (1440 * a ** 4)
            s2 = mp.sin(mp.pi * x3 / a) ** 2
            big_b = mp.pi ** 2 / (48 * a ** 4) * (3 - 2 * s2) / s2 ** 2
            w = (1 - 6 * xi) * big_b
            comps = (-big_a - w, big_a + w, big_a + w, -3 * big_a)
            scale = abs(big_a) + abs(w)
        else:
            d = -x3 if x3 < 0 else x3 - a
            w = (1 - 6 * xi) / (16 * mp.pi ** 2 * d ** 4)
            comps = (-w, w, w, mp.mpf(0))
            big_b = None
            # 1 - 6 xi cancels in double precision near xi = 1/6; the floor
            # keeps the scale at the size of that rounding.
            scale = (abs(1 - 6 * xi) + mp.mpf("1e-6")) / (16 * mp.pi ** 2 * d ** 4)
        out = {name: float(v) for name, v in zip(("t00", "t11", "t22", "t33"), comps)}
        out["B"] = None if big_b is None else float(big_b)
        out["scale"] = float(scale)
        return out
