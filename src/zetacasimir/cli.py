"""Command-line surface.

Subcommands: ``specfun`` (evaluate a special function), ``tensor``
(stress-energy at one point), ``profile`` (CSV/JSON table over an x3
grid), ``convergence`` (brute-force vs closed-form study at Re u > 4)
and ``pressure``.

Exit codes: 0 ok, 2 domain/validation error, 3 convergence error,
4 I/O failure.  Output is deterministic: floats are printed with
shortest round-trip representation (<= 17 significant digits), rows are
sorted, and the data section carries no timestamps.

The environment variable ``ZETACASIMIR_TOLERANCE`` selects the tolerance
``specfun`` evaluates at (``strict``, the default, 1e-10, or ``fast``,
1e-8).  A ``--config`` file with ``key = value`` lines can mirror any
flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
from typing import Any, Optional, Sequence

from . import __version__
from .casimir import milton_B, pressure, renormalized_coefficients, tensor_outside
from .errors import ConvergenceError, DomainError, QuadratureError, ZetaCasimirError
from .gammafn import gamma
from .hurwitz import hurwitz_zeta, polygamma
from .modesum import (
    EvalPoint,
    PlateConfig,
    Region,
    _bruteforce_results,
    _weights,
    region_of,
    regularized_coefficients,
)
from .polylog import polylog, riemann_zeta

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

_TOLERANCE_PROFILES = {"strict": 1e-10, "fast": 1e-8}


def tolerance_profile() -> float:
    name = os.environ.get("ZETACASIMIR_TOLERANCE", "strict")
    if name not in _TOLERANCE_PROFILES:
        raise DomainError(
            f"ZETACASIMIR_TOLERANCE must be one of {sorted(_TOLERANCE_PROFILES)}, "
            f"got {name!r}"
        )
    return _TOLERANCE_PROFILES[name]


def fmt(x: float) -> str:
    """Shortest round-trip decimal form, capped at 17 significant digits."""
    return repr(float(x))


def _fmt_optional(x: Optional[float]) -> str:
    return "" if x is None else fmt(x)


def _fmt_complex(v: complex) -> str:
    v = complex(v)
    if v.imag == 0.0:
        return fmt(v.real)
    return f"{fmt(v.real)}{'+' if v.imag >= 0 else '-'}{fmt(abs(v.imag))}j"


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text)
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"arguments must be finite, got {text!r}")
    return value


def _point_row(a: float, xi: float, x3: float, include_outside: bool) -> dict[str, Any]:
    """Region, tensor, B and milton_B at one point; B and milton_B are
    None outside the plates, milton_B also where the Hurwitz form leaves
    the float range, and a point on a plate is a validation error."""
    region = region_of(a, x3)
    if region is not Region.BETWEEN and not include_outside:
        raise DomainError(
            f"grid point x3 = {x3} is outside the plates; pass "
            "--include-outside to allow it"
        )
    cfg, p = PlateConfig(a=a, xi=xi), EvalPoint(x3)
    b: Optional[float] = None
    mb: Optional[float] = None
    if region is Region.BETWEEN:
        coeffs = renormalized_coefficients(cfg, p)
        t = coeffs.tensor(xi)
        b = coeffs.B
        try:
            mb = milton_B(cfg, p)
        except DomainError:  # the Hurwitz form leaves the float range: no cross-check
            pass
    else:
        t = tensor_outside(cfg, p)
    return {
        "x3": x3,
        "region": region.value,
        "t00": complex(t.t00).real,
        "t11": complex(t.t11).real,
        "t22": complex(t.t22).real,
        "t33": complex(t.t33).real,
        "B": b,
        "milton_B": mb,
    }


# ----------------------------- subcommands -----------------------------

def _cmd_specfun(args: argparse.Namespace) -> int:
    tol = tolerance_profile()
    fn = args.function
    vals = [_parse_complex(v) for v in args.args]

    def need(n: int) -> None:
        if len(vals) != n:
            raise DomainError(f"{fn} expects {n} argument(s), got {len(vals)}")

    if fn == "polylog":
        need(2)
        value = polylog(vals[0], vals[1], tol=tol)
    elif fn == "zeta":
        need(1)
        value = riemann_zeta(vals[0], tol=tol)
    elif fn == "hurwitz":
        need(2)
        value = hurwitz_zeta(vals[0], vals[1].real)
    elif fn == "polygamma":
        need(2)
        value = complex(polygamma(int(vals[0].real), vals[1].real))
    else:  # gamma
        need(1)
        value = gamma(vals[0])
    print(f"{_fmt_complex(value)} tol={fmt(tol)}")
    return EXIT_OK


def _cmd_tensor(args: argparse.Namespace) -> int:
    row = _point_row(args.a, args.xi, args.x3, include_outside=True)
    p0, _ = pressure(PlateConfig(a=args.a))
    print(f"region={row['region']}")
    for name in ("t00", "t11", "t22", "t33"):
        print(f"{name}={fmt(row[name])}")
    print(f"B={_fmt_optional(row['B'])} milton_B={_fmt_optional(row['milton_B'])}")
    print(f"pressure_magnitude={fmt(abs(p0.p3))}")
    return EXIT_OK


def _profile_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    if args.n_points < 1:
        raise DomainError("n-points must be >= 1")
    if not args.x3_min < args.x3_max:
        raise DomainError("x3-min must be smaller than x3-max")
    if args.n_points == 1:
        grid = [0.5 * (args.x3_min + args.x3_max)]
    else:
        step = (args.x3_max - args.x3_min) / (args.n_points - 1)
        grid = [args.x3_min + i * step for i in range(args.n_points)]
    return [_point_row(args.a, args.xi, x3, args.include_outside) for x3 in sorted(grid)]


_CSV_FIELDS = ["x3", "region", "t00", "t11", "t22", "t33", "B", "milton_B"]


def _cmd_profile(args: argparse.Namespace) -> int:
    rows = _profile_rows(args)
    try:
        if args.format == "csv":
            with open(args.output, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(_CSV_FIELDS)
                for row in rows:
                    writer.writerow(
                        [
                            fmt(row["x3"]),
                            row["region"],
                            fmt(row["t00"]),
                            fmt(row["t11"]),
                            fmt(row["t22"]),
                            fmt(row["t33"]),
                            _fmt_optional(row["B"]),
                            _fmt_optional(row["milton_B"]),
                        ]
                    )
        else:
            report = {
                "meta": {
                    "tool": "zetacasimir",
                    "version": __version__,
                    "inputs": {
                        "a": args.a,
                        "xi": args.xi,
                        "n_points": args.n_points,
                        "x3_min": args.x3_min,
                        "x3_max": args.x3_max,
                        "include_outside": args.include_outside,
                    },
                },
                "rows": rows,
            }
            with open(args.output, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def _cmd_convergence(args: argparse.Namespace) -> int:
    u = _parse_complex(args.u)
    if u.real <= 4.0:
        raise DomainError(f"convergence study requires Re u > 4, got {args.u}")
    cfg = PlateConfig(a=args.a, xi=args.xi)
    p = EvalPoint(args.x3)
    tol = 1e-10
    coeffs = regularized_coefficients(u, cfg, p, tol=tol)
    alpha, beta = _weights(u, cfg.xi)
    # t00 of regularized_vev, and the error its tol allows on that sum
    closed = alpha[0] * coeffs.A_u + beta[0] * coeffs.B_u
    closed_err = tol * (abs(alpha[0] * coeffs.A_u) + abs(beta[0] * coeffs.B_u))
    results = _bruteforce_results(u, cfg, p, args.L_list)
    print("L bruteforce_t00 closed_t00 difference tail_bound status")
    status_all = EXIT_OK
    for L in args.L_list:
        res = results[L]
        diff = abs(res.tensor.t00 - closed)
        bound = abs(res.tail_bound.t00)
        ok = diff <= bound + closed_err
        if not ok:
            status_all = EXIT_CONVERGENCE
        print(
            f"{L} {_fmt_complex(res.tensor.t00)} {_fmt_complex(closed)} "
            f"{fmt(diff)} {fmt(bound)} {'ok' if ok else 'FAIL'}"
        )
    return status_all


def _cmd_pressure(args: argparse.Namespace) -> int:
    cfg = PlateConfig(a=args.a)
    p0, pa = pressure(cfg)
    print(f"plate_at_0 ({fmt(p0.p1)}, {fmt(p0.p2)}, {fmt(p0.p3)})")
    print(f"plate_at_a ({fmt(pa.p1)}, {fmt(pa.p2)}, {fmt(pa.p3)})")
    return EXIT_OK


# ------------------------------- parsing -------------------------------

def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetacasimir",
        description="Casimir stress-energy via local zeta regularization",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("specfun", help="evaluate a special function")
    sp.add_argument(
        "function",
        choices=["polylog", "zeta", "hurwitz", "polygamma", "gamma"],
    )
    sp.add_argument("args", nargs="+", help="numeric arguments (complex ok)")
    sp.set_defaults(handler=_cmd_specfun)

    tp = sub.add_parser("tensor", help="stress-energy at one point")
    tp.add_argument("--a", type=float, required=True)
    tp.add_argument("--xi", type=float, default=0.0)
    tp.add_argument("--x3", type=float, required=True)
    tp.set_defaults(handler=_cmd_tensor)

    pp = sub.add_parser("profile", help="tensor table over an x3 grid")
    pp.add_argument("--config", type=str, default=None)
    pp.add_argument("--a", type=float, default=None)
    pp.add_argument("--xi", type=float, default=None)
    pp.add_argument("--n-points", type=int, default=None)
    pp.add_argument("--x3-min", type=float, default=None)
    pp.add_argument("--x3-max", type=float, default=None)
    pp.add_argument("--include-outside", action="store_true", default=None)
    pp.add_argument("--format", choices=["csv", "json"], default=None)
    pp.add_argument("--output", type=str, default=None)
    pp.set_defaults(handler=_cmd_profile)

    cp = sub.add_parser("convergence", help="brute force vs closed form")
    cp.add_argument("--u", type=str, required=True)
    cp.add_argument("--xi", type=float, default=0.0)
    cp.add_argument("--a", type=float, required=True)
    cp.add_argument("--x3", type=float, required=True)
    cp.add_argument("--L-list", type=_int_list, required=True)
    cp.set_defaults(handler=_cmd_convergence)

    rp = sub.add_parser("pressure", help="force per unit area on the plates")
    rp.add_argument("--a", type=float, required=True)
    rp.set_defaults(handler=_cmd_pressure)

    return parser


_PROFILE_DEFAULTS = {
    "a": 1.0,
    "xi": 0.0,
    "n_points": 9,
    "x3_min": 0.1,
    "x3_max": 0.9,
    "include_outside": False,
    "format": "csv",
    "output": "profile.csv",
}

_PROFILE_CASTS = {
    "a": float,
    "xi": float,
    "n_points": int,
    "x3_min": float,
    "x3_max": float,
    "include_outside": lambda v: v.strip().lower() in ("1", "true", "yes"),
    "format": str,
    "output": str,
}


def _load_config(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line {line!r} in {path}")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _apply_profile_config(args: argparse.Namespace) -> None:
    """Fill unset profile flags from the config file, then from defaults."""
    from_file: dict[str, str] = {}
    if args.config is not None:
        try:
            from_file = _load_config(args.config)
        except OSError as exc:
            raise DomainError(f"cannot read config {args.config}: {exc}") from exc
    for key, default in _PROFILE_DEFAULTS.items():
        if getattr(args, key) is not None:
            continue  # explicit flag wins
        if key in from_file:
            setattr(args, key, _PROFILE_CASTS[key](from_file[key]))
        else:
            setattr(args, key, default)
    unknown = set(from_file) - set(_PROFILE_DEFAULTS)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.handler is _cmd_profile:
            _apply_profile_config(args)
        return args.handler(args)
    except (ConvergenceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (DomainError, ZetaCasimirError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
