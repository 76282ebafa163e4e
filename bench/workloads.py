"""Seeded inputs, timed operations and untimed checks of the three workloads.

Each workload is a generator of op specs (plain JSON data made from the seed
alone), an op that hands one spec to the package and returns its outputs,
and a check that compares those outputs with the mpmath references.  Inputs
are drawn from seeded low-discrepancy sequences (see `_points`).

Why these three (see README.md for the layer predictions):

* profile      -- `cli`, `casimir`, `hurwitz` (via milton_B) per grid row;
                  never reaches `polylog`, `hankel` or `modesum`.
* u_grid       -- regulated VEV at fresh complex u: `hankel` and `gammafn`
                  do nearly all the work and no input repeats.
* convergence  -- `mode_sum_bruteforce` and the unit-circle series of
                  `polylog`, reached through another dispatch than u_grid.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from typing import Any, Callable, Iterator, NamedTuple

import reference
from zetacasimir import casimir, cli, extrapolate, modesum

PROFILE_TOL = 1e-9  # relative to |A| + |(1 - 6 xi) B|; closed forms at 30 digits
PROFILE_SAMPLE = 32  # rows per op checked against mpmath, plus the two ends
VEV_TOL = 1e-8  # relative to |alpha A_u| + |beta B_u|
VEV_SAMPLE = 1  # of the 16 u per op checked against mpmath
# Relative to the largest |T_k| or |VEV_k(+-h)|: the truncation error scales
# with the values extrapolated, which near a plate at xi ~ 1/6 are far
# larger than the limit.
RICHARDSON_TOL = 1e-6
RICHARDSON_STEPS = (0.1, 0.05, 0.025)
U_PER_OP = 16


class OpFailed(Exception):
    """An op exited non-zero, raised, or returned a value that missed its
    reference; the message is the failure reason tallied in the results."""


# ------------------------------ input draws ------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _points(seed: str, dims: int) -> Iterator[list[float]]:
    """Points in [0, 1)^dims: the Halton sequence (radical inverse in base
    2, 3, 5, ... per dimension), shifted modulo 1 by a seeded random offset.

    Every prefix is spread evenly (low discrepancy), so however many ops a
    run reaches, its inputs cover each distribution, and each pair of the
    first dimensions, in the same proportions; medians then move little
    from seed to seed.  Callers put the inputs that decide an op's cost and
    outcome in the first dimensions, whose projections are the most even.
    """
    rng = random.Random(seed)
    shift = [rng.random() for _ in range(dims)]
    n = 0
    while True:
        n += 1
        point = []
        for base, offset in zip(_PRIMES[:dims], shift):
            x, f, k = 0.0, 1.0 / base, n
            while k:
                k, digit = divmod(k, base)
                x += digit * f
                f /= base
            point.append((x + offset) % 1.0)
        yield point


def _log_uniform(t: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** t


def _on_intervals(t: float, intervals: tuple[tuple[float, float], ...]) -> float:
    """Map t in [0, 1) uniformly onto a union of disjoint intervals."""
    x = t * sum(hi - lo for lo, hi in intervals)
    for lo, hi in intervals:
        if x < hi - lo:
            return lo + x
        x -= hi - lo
    return intervals[-1][1]


def profile_specs(seed: int) -> Iterator[dict[str, Any]]:
    # 9 in 10 grids lie between the plates and 1 in 10 outside them, on one
    # side (--include-outside); every point keeps at least 0.01 a from a
    # plate, because points within about 2.3e-3 a of a plate are rejected
    # (README.md, "Known defects").
    rng = random.Random(f"profile-check/{seed}")
    for kind, tn, ta, txi, tf, r1, r2, r3 in _points(f"profile/{seed}", 8):
        if kind < 0.9:
            lo, hi = 0.01 + 0.44 * r1, 0.55 + 0.44 * r2
        else:
            near = 0.01 + 0.19 * r1
            far = near + 0.05 + 0.45 * r2
            lo, hi = (-far, -near) if r3 < 0.5 else (1.0 + near, 1.0 + far)
        a = _log_uniform(ta, 0.1, 10.0)
        yield {
            "n_points": round(_log_uniform(tn, 500.0, 5000.0)),
            "a": a,
            "xi": txi,
            "x3_min": lo * a,
            "x3_max": hi * a,
            "include_outside": kind >= 0.9,
            "format": "csv" if tf < 0.5 else "json",
            "check_seed": rng.getrandbits(32),
        }


# Real u keep 0.05 from the poles u = 1 and u = 3, and 0.02 from u = -1,
# where B_u raises BranchError up to about 4e-3 away (README.md, "Known
# defects"); complex u keep |Im u| >= 0.05.
_REAL_U = ((-2.0, -1.02), (-0.98, 0.95), (1.05, 2.95), (3.05, 3.9))
_IM_U = ((-2.0, -0.05), (0.05, 2.0))


def u_grid_specs(seed: int) -> Iterator[dict[str, Any]]:
    rng = random.Random(f"u_grid-check/{seed}")
    real_u = _points(f"u_grid-real/{seed}", 1)
    complex_u = _points(f"u_grid-complex/{seed}", 2)
    for ta, txi, tq in _points(f"u_grid/{seed}", 3):
        us = []
        for _ in range(U_PER_OP // 2):
            us.append([_on_intervals(next(real_u)[0], _REAL_U), 0.0])
            tr, ti = next(complex_u)
            us.append([-2.0 + 5.9 * tr, _on_intervals(ti, _IM_U)])
        yield {
            "a": _log_uniform(ta, 0.1, 10.0),
            "xi": txi,
            "q": 0.02 + 0.96 * tq,
            "u": us,
            "check": sorted(rng.sample(range(U_PER_OP), VEV_SAMPLE)),
        }


def convergence_specs(seed: int) -> Iterator[dict[str, Any]]:
    # Half the u are complex, 2 in 5 real and 1 in 10 the integer u = 5:
    # there zeta(u-3) = Li_2(1) is the one polylog call of the workload whose
    # series cannot certify its bound, so it takes the positive-integer
    # limit route (four Hankel passes).
    # Nine L-lists in ten reach 10^6, so the median latency lies inside one
    # mode of the bimodal brute-force cost, not between the two.
    for tu, tl, kind, ti, tq, ta, txi in _points(f"convergence/{seed}", 7):
        # Re u in (4.2, 5.5]: above about 5.6 the CLI reports FAIL at L = 10^6
        # (README.md, "Known defects").
        re_u, im_u = 5.5 - 1.3 * tu, 0.0
        if kind < 0.5:
            im_u = _on_intervals(ti, ((-1.5, -0.1), (0.1, 1.5)))
        elif kind < 0.6:
            re_u = 5.0
        yield {
            "u": [re_u, im_u],
            "a": _log_uniform(ta, 0.1, 10.0),
            "xi": txi,
            "q": 0.02 + 0.96 * tq,
            "L_max_exp": 5 if tl < 0.1 else 6,
        }


# ---------------------------- ops and checks ----------------------------

def _u_arg(u: list[float]) -> complex | float:
    return complex(u[0], u[1]) if u[1] else u[0]


def call_cli(argv: list[str]) -> str:
    """cli.main(argv) with its stdout captured; OpFailed on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        msg = err.getvalue().strip().splitlines()
        why = msg[0].removeprefix("error: ").split(" at ")[0] if msg else out.getvalue().split()[-1]
        raise OpFailed(f"exit {code}: {why[:80]}")
    return out.getvalue()


def profile_argv(spec: dict[str, Any], output: str) -> list[str]:
    argv = [
        "profile",
        "--a", repr(spec["a"]),
        "--xi", repr(spec["xi"]),
        "--n-points", str(spec["n_points"]),
        "--x3-min", repr(spec["x3_min"]),
        "--x3-max", repr(spec["x3_max"]),
        "--format", spec["format"],
        "--output", output,
    ]
    if spec["include_outside"]:
        argv.append("--include-outside")
    return argv


def profile_op(spec: dict[str, Any], out_dir: str) -> str:
    path = f"{out_dir}/profile.{spec['format']}"
    call_cli(profile_argv(spec, path))
    return path


def _read_profile(path: str, fmt: str) -> list[dict[str, Any]]:
    with open(path, newline="") as fh:
        if fmt == "json":
            return json.load(fh)["rows"]
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, text in row.items():
            if key != "region":
                row[key] = float(text) if text else None
    return rows


def profile_check(spec: dict[str, Any], path: str) -> None:
    rows = _read_profile(path, spec["format"])
    n, a = spec["n_points"], spec["a"]
    if len(rows) != n:
        raise OpFailed(f"mismatch: {len(rows)} rows for {n} points")
    step = (spec["x3_max"] - spec["x3_min"]) / (n - 1)
    for i, row in enumerate(rows):
        if abs(row["x3"] - (spec["x3_min"] + i * step)) > 1e-12 * a:
            raise OpFailed("mismatch: x3 grid")
        region = "left" if row["x3"] < 0 else "right" if row["x3"] > a else "between"
        if row["region"] != region:
            raise OpFailed("mismatch: region label")
    sample = random.Random(spec["check_seed"]).sample(range(n), min(PROFILE_SAMPLE, n))
    for i in sorted({0, n - 1, *sample}):
        row = rows[i]
        ref = reference.renormalized(a, spec["xi"], row["x3"])
        for key in ("t00", "t11", "t22", "t33"):
            if abs(row[key] - ref[key]) > PROFILE_TOL * ref["scale"]:
                raise OpFailed(f"mismatch: profile {key}")
        for key in ("B", "milton_B"):
            if (row[key] is None) != (ref["B"] is None) or (
                ref["B"] is not None and abs(row[key] - ref["B"]) > PROFILE_TOL * ref["B"]
            ):
                raise OpFailed(f"mismatch: profile {key}")


class UGridResult(NamedTuple):
    vevs: list[tuple[complex, ...]]
    at_zero: tuple[complex, ...]
    near_zero: list[tuple[complex, ...]]
    richardson: list[complex]
    closed: tuple[complex, ...]


def u_grid_op(spec: dict[str, Any], out_dir: str) -> UGridResult:
    cfg = modesum.PlateConfig(a=spec["a"], xi=spec["xi"])
    p = modesum.EvalPoint(spec["q"] * spec["a"])
    vevs = [modesum.regularized_vev(_u_arg(u), cfg, p).as_tuple() for u in spec["u"]]
    at_zero = modesum.continuation_at_zero(cfg, p).as_tuple()
    near_zero: dict[float, tuple[complex, ...]] = {}

    def component(k: int) -> Callable[[float], complex]:
        def f(h: float) -> complex:
            if h not in near_zero:
                near_zero[h] = modesum.regularized_vev(h, cfg, p).as_tuple()
            return near_zero[h][k]
        return f

    richardson = [extrapolate.richardson_even(component(k), RICHARDSON_STEPS) for k in range(4)]
    closed = casimir.tensor_between_plates(cfg, p).as_tuple()
    return UGridResult(vevs, at_zero, list(near_zero.values()), richardson, closed)


def _check_vev(got: tuple[complex, ...], u: complex, spec: dict[str, Any], what: str) -> None:
    ref = reference.vev(u, spec["a"], spec["xi"], spec["q"])
    for g, (value, scale) in zip(got, ref):
        if abs(complex(g) - value) > VEV_TOL * scale:
            raise OpFailed(f"mismatch: {what}")


def u_grid_check(spec: dict[str, Any], res: UGridResult) -> None:
    for i in spec["check"]:
        _check_vev(res.vevs[i], complex(*spec["u"][i]), spec, "regularized_vev")
    _check_vev(res.at_zero, 0.0, spec, "continuation_at_zero")
    ref = reference.renormalized(spec["a"], spec["xi"], spec["q"] * spec["a"])
    exact = [ref[k] for k in ("t00", "t11", "t22", "t33")]
    scale = max(abs(t) for t in [*exact, *(v for vev in res.near_zero for v in vev)])
    for r, closed, e in zip(res.richardson, res.closed, exact):
        if abs(r - closed) > RICHARDSON_TOL * scale or abs(r - e) > RICHARDSON_TOL * scale:
            raise OpFailed("mismatch: richardson_even")


def _ells(spec: dict[str, Any]) -> list[int]:
    return [10**e for e in range(3, spec["L_max_exp"] + 1)]


def convergence_argv(spec: dict[str, Any]) -> list[str]:
    u = _u_arg(spec["u"])
    return [
        "convergence",
        "--u", str(u) if isinstance(u, complex) else repr(u),
        "--a", repr(spec["a"]),
        "--xi", repr(spec["xi"]),
        "--x3", repr(spec["q"] * spec["a"]),
        "--L-list", ",".join(map(str, _ells(spec))),
    ]


def convergence_op(spec: dict[str, Any], out_dir: str) -> str:
    return call_cli(convergence_argv(spec))


def convergence_check(spec: dict[str, Any], out: str) -> None:
    """Every row: the closed-form t00 within VEV_TOL of mpmath, and the
    truncated sum within the mpmath tail bound of mpmath's t00."""
    rows = [line.split() for line in out.splitlines()[1:]]
    if [int(r[0]) for r in rows] != _ells(spec):
        raise OpFailed("mismatch: convergence table")
    u = complex(*spec["u"])
    t00, scale = reference.vev(u, spec["a"], spec["xi"], spec["q"])[0]
    for row in rows:
        if abs(complex(row[2]) - t00) > VEV_TOL * scale:
            raise OpFailed("mismatch: closed-form t00")
        tail = reference.bruteforce_t00_tail(u, spec["a"], spec["xi"], int(row[0]))
        if abs(complex(row[1]) - t00) > tail + VEV_TOL * scale:
            raise OpFailed("mismatch: bruteforce t00")


class Workload(NamedTuple):
    specs: Callable[[int], Iterator[dict[str, Any]]]
    op: Callable[[dict[str, Any], str], Any]
    check: Callable[[dict[str, Any], Any], None]


WORKLOADS = {
    "profile": Workload(profile_specs, profile_op, profile_check),
    "u_grid": Workload(u_grid_specs, u_grid_op, u_grid_check),
    "convergence": Workload(convergence_specs, convergence_op, convergence_check),
}
