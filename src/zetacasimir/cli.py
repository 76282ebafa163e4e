"""Command-line surface.

Subcommands: ``specfun`` (evaluate a special function), ``tensor``
(stress-energy at one point), ``profile`` (CSV/JSON table over an x3
grid), ``convergence`` (brute-force vs closed-form study at Re u > 4)
and ``pressure``.

Exit codes: 0 ok, 2 domain/validation error, 3 convergence error,
4 I/O failure.  Output is deterministic: floats are printed with
shortest round-trip representation (<= 17 significant digits), rows are
sorted, and the data section carries no timestamps.  ``profile`` evaluates its
grid as arrays (``casimir.tensor_grid``) and formats each column once;
the first point without a row, in grid order, raises the error the
point-wise functions give there.

``specfun`` evaluates at the pipeline tolerance ``polylog.DEFAULT_TOL``
(1e-10) and prints it after the value as ``tol=1e-10``; it reaches the
series and contour routes of Li_s, while zeta, Hurwitz zeta and Gamma
stop at fixed accuracies of their own.  Every float flag takes finite
values only.  Each ``key = value`` line of a ``profile --config`` file
becomes the token ``--key=value`` ahead of the flags, so argparse types
and checks it as the flag, and an explicit flag wins.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from itertools import chain, repeat
from typing import Iterator, NoReturn, Optional, Sequence

import numpy as np

from . import __version__
from .casimir import TensorGrid, pressure, tensor_between_plates, tensor_grid, tensor_outside
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
from .polylog import DEFAULT_TOL, polylog, riemann_zeta

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4


def fmt(x: float) -> str:
    """Shortest round-trip decimal form, capped at 17 significant digits."""
    return repr(float(x))


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


def _real(value: complex, name: str) -> float:
    if value.imag != 0.0:
        raise DomainError(f"{name} must be real, got {_fmt_complex(value)}")
    return value.real


def _order(value: complex) -> int:
    m = _real(value, "polygamma order")
    if m != round(m):
        raise DomainError(f"polygamma order must be an integer, got {fmt(m)}")
    return round(m)


def _raise_point_error(a: float, xi: float, x3: float, include_outside: bool) -> NoReturn:
    """The DomainError of a grid point without a row, from the point-wise
    checks in their order: a point on a plate, outside the plates without
    the flag, a <= 0, then A, B or the outside tensor overflowing."""
    region = region_of(a, x3)
    if region is not Region.BETWEEN and not include_outside:
        raise DomainError(
            f"grid point x3 = {x3} is outside the plates; pass "
            "--include-outside to allow it"
        )
    cfg, p = PlateConfig(a=a, xi=xi), EvalPoint(x3)
    if region is Region.BETWEEN:
        tensor_between_plates(cfg, p)
    else:
        tensor_outside(cfg, p)
    raise AssertionError(f"tensor_grid fails at x3 = {x3}, the point-wise functions do not")


def _grid(a: float, xi: float, x3: np.ndarray, include_outside: bool) -> TensorGrid:
    """tensor_grid over x3, every point of which must have a row: the
    first in grid order that has none raises its DomainError."""
    if a > 0.0:  # else PlateConfig refuses every point, after its own checks
        grid = tensor_grid(PlateConfig(a=a, xi=xi), x3)
        failed = grid.failed
        if not include_outside:
            failed = failed | (grid.region != Region.BETWEEN.value)
        if not failed.any():
            return grid
        x3 = x3[failed]
    _raise_point_error(a, xi, x3[0].item(), include_outside)


# ----------------------------- subcommands -----------------------------

def _cmd_specfun(args: argparse.Namespace) -> int:
    fn = args.function
    vals = [_parse_complex(v) for v in args.args]

    def need(n: int) -> None:
        if len(vals) != n:
            raise DomainError(f"{fn} expects {n} argument(s), got {len(vals)}")

    if fn == "polylog":
        need(2)
        value = polylog(vals[0], vals[1])
    elif fn == "zeta":
        need(1)
        value = riemann_zeta(vals[0])
    elif fn == "hurwitz":
        need(2)
        value = hurwitz_zeta(vals[0], _real(vals[1], "q"))
    elif fn == "polygamma":
        need(2)
        value = complex(polygamma(_order(vals[0]), _real(vals[1], "q")))
    else:  # gamma
        need(1)
        value = gamma(vals[0])
    print(f"{_fmt_complex(value)} tol={fmt(DEFAULT_TOL)}")
    return EXIT_OK


# the text of a nan (a missing value) and of +-inf, where fmt's differs
_CSV_NAMES = {"nan": ""}
_JSON_NAMES = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(column: np.ndarray, names: dict[str, str]) -> Iterator[str]:
    """fmt of each value, or its name in ``names``, made lazily."""
    cells = map(repr, column.tolist())
    if np.isfinite(column).all():
        return cells
    return (names.get(cell, cell) for cell in cells)


def _columns(x3: np.ndarray, grid: TensorGrid, names: dict[str, str]) -> list[Iterator[str]]:
    """The text of each column, in _CSV_FIELDS order."""
    numbers = [_cells(c, names) for c in (x3, *grid.tensor.as_tuple(), grid.B, grid.milton_B)]
    return [numbers[0], iter(grid.region.tolist()), *numbers[1:]]


def _cmd_tensor(args: argparse.Namespace) -> int:
    x3 = np.array([args.x3])
    grid = _grid(args.a, args.xi, x3, include_outside=True)
    p0, _ = pressure(PlateConfig(a=args.a))
    _, region, *numbers = map(next, _columns(x3, grid, _CSV_NAMES))
    print(f"region={region}")
    for name, cell in zip(("t00", "t11", "t22", "t33"), numbers):
        print(f"{name}={cell}")
    print(f"B={numbers[4]} milton_B={numbers[5]}")
    print(f"pressure_magnitude={fmt(abs(p0.p3))}")
    return EXIT_OK


def _profile_x3(args: argparse.Namespace) -> np.ndarray:
    if args.n_points < 1:
        raise DomainError("n-points must be >= 1")
    if not args.x3_min < args.x3_max:
        raise DomainError("x3-min must be smaller than x3-max")
    if args.n_points == 1:
        return np.array([0.5 * (args.x3_min + args.x3_max)])
    # ascending, as x3_min + i * step rounds monotonically in i; where the
    # step overflows, 0 * inf puts a nan first, as Python floats do
    step = (args.x3_max - args.x3_min) / (args.n_points - 1)
    with np.errstate(invalid="ignore"):
        return args.x3_min + np.arange(args.n_points) * step


_CSV_FIELDS = ["x3", "region", "t00", "t11", "t22", "t33", "B", "milton_B"]
# one row of the JSON report, as json.dump(indent=2, sort_keys=True) writes
# it, after the separator from the row before
_JSON_ROW = (
    '{}    {{\n      "B": {},\n      "milton_B": {},\n      "region": "{}",\n'
    '      "t00": {},\n      "t11": {},\n      "t22": {},\n      "t33": {},\n'
    '      "x3": {}\n    }}'
)


def _cmd_profile(args: argparse.Namespace) -> int:
    x3 = _profile_x3(args)
    grid = _grid(args.a, args.xi, x3, args.include_outside)
    try:
        if args.format == "csv":
            columns = _columns(x3, grid, _CSV_NAMES)
            with open(args.output, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(_CSV_FIELDS)
                writer.writerows(zip(*columns))
        else:
            meta = {
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
            }
            x3_text, region, t00, t11, t22, t33, b, mb = _columns(x3, grid, _JSON_NAMES)
            separators = chain(["\n"], repeat(",\n"))
            with open(args.output, "w") as fh:
                # {"meta": ...} without its closing "\n}", then the rows
                fh.write(json.dumps({"meta": meta}, indent=2, sort_keys=True)[:-2])
                fh.write(',\n  "rows": [')
                fh.writelines(
                    map(_JSON_ROW.format, separators, b, mb, region, t00, t11, t22, t33, x3_text)
                )
                fh.write("\n  ]\n}\n")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(x3)} rows to {args.output}")
    return EXIT_OK


def _cmd_convergence(args: argparse.Namespace) -> int:
    u = _parse_complex(args.u)
    if u.real <= 4.0:
        raise DomainError(f"convergence study requires Re u > 4, got {args.u}")
    cfg = PlateConfig(a=args.a, xi=args.xi)
    p = EvalPoint(args.x3)
    coeffs = regularized_coefficients(u, cfg, p)
    alpha, beta = _weights(u, cfg.xi)
    # t00 of regularized_vev, and the error the pipeline tolerance allows
    # on that sum
    closed = alpha[0] * coeffs.A_u + beta[0] * coeffs.B_u
    closed_err = DEFAULT_TOL * (abs(alpha[0] * coeffs.A_u) + abs(beta[0] * coeffs.B_u))
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

def _finite_float(text: str) -> float:
    """The argparse type of every float flag: NaN and +-inf are refused."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"no integer in {text!r}")
    return values


def _config_tokens(path: str, parsed: argparse.Namespace) -> list[str]:
    """The flag tokens of a config file's ``key = value`` lines, whose keys
    are the long flag names in ``parsed`` (``n-points`` or ``n_points``).
    A switch (a flag whose value is a bool) becomes the bare flag for
    yes/true/1 and no token for no/false/0."""
    try:
        with open(path) as fh:
            lines = [line.split("#", 1)[0].strip() for line in fh]
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    flags = vars(parsed).keys() - {"config", "handler"}
    tokens = []
    for line in filter(None, lines):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise DomainError(f"bad config line {line!r} in {path}")
        key = key.replace("-", "_")
        if key not in flags:
            raise DomainError(f"unknown config key {key!r} in {path}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(parsed, key), bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("yes", "true", "1"):
            tokens.append(flag)
        elif value.lower() not in ("no", "false", "0"):
            raise DomainError(f"{key} takes yes/true/1 or no/false/0, got {value!r}")
    return tokens


class _SubcommandParser(argparse.ArgumentParser):
    """Parses a subcommand's flags, and those of its ``--config`` file
    placed ahead of them: argparse keeps the last value, so an explicit
    flag wins over the file, and the file over the defaults."""

    def parse_known_args(
        self, args: Sequence[str], namespace: Optional[argparse.Namespace] = None
    ) -> tuple[argparse.Namespace, list[str]]:
        parsed, extras = super().parse_known_args(args, namespace)
        path = getattr(parsed, "config", None)
        if path is None:
            return parsed, extras
        tokens = _config_tokens(path, parsed)
        return super().parse_known_args([*tokens, *args], namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetacasimir",
        description="Casimir stress-energy via local zeta regularization",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    sp = sub.add_parser("specfun", help="evaluate a special function")
    sp.add_argument(
        "function",
        choices=["polylog", "zeta", "hurwitz", "polygamma", "gamma"],
    )
    sp.add_argument("args", nargs="+", help="numeric arguments (complex ok)")
    sp.set_defaults(handler=_cmd_specfun)

    tp = sub.add_parser("tensor", help="stress-energy at one point")
    tp.add_argument("--a", type=_finite_float, required=True)
    tp.add_argument("--xi", type=_finite_float, default=0.0)
    tp.add_argument("--x3", type=_finite_float, required=True)
    tp.set_defaults(handler=_cmd_tensor)

    pp = sub.add_parser("profile", help="tensor table over an x3 grid")
    pp.add_argument("--config", type=str, default=None)
    pp.add_argument("--a", type=_finite_float, default=1.0)
    pp.add_argument("--xi", type=_finite_float, default=0.0)
    pp.add_argument("--n-points", type=int, default=9)
    pp.add_argument("--x3-min", type=_finite_float, default=0.1)
    pp.add_argument("--x3-max", type=_finite_float, default=0.9)
    pp.add_argument("--include-outside", action="store_true")
    pp.add_argument("--format", choices=["csv", "json"], default="csv")
    pp.add_argument("--output", type=str, default="profile.csv")
    pp.set_defaults(handler=_cmd_profile)

    cp = sub.add_parser("convergence", help="brute force vs closed form")
    cp.add_argument("--u", type=str, required=True)
    cp.add_argument("--xi", type=_finite_float, default=0.0)
    cp.add_argument("--a", type=_finite_float, required=True)
    cp.add_argument("--x3", type=_finite_float, required=True)
    cp.add_argument("--L-list", type=_int_list, required=True)
    cp.set_defaults(handler=_cmd_convergence)

    rp = sub.add_parser("pressure", help="force per unit area on the plates")
    rp.add_argument("--a", type=_finite_float, required=True)
    rp.set_defaults(handler=_cmd_pressure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ConvergenceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (DomainError, ZetaCasimirError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
