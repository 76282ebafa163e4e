"""Tests of the benchmark itself: seeded inputs and what reaches the package.

Run from the root of a checkout:  python3 -m pytest bench -q
"""

import csv
import gzip
import json

import pytest

import run

run.require_package()

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from zetacasimir import casimir, extrapolate, modesum  # noqa: E402


def _take(name, seed, n=45):
    specs = workloads.WORKLOADS[name].specs(seed)
    return [next(specs) for _ in range(n)]


@pytest.mark.parametrize("name", run.NAMES)
def test_same_seed_gives_byte_identical_inputs(name):
    first = json.dumps(_take(name, 7), sort_keys=True).encode()
    again = json.dumps(_take(name, 7), sort_keys=True).encode()
    other = json.dumps(_take(name, 8), sort_keys=True).encode()
    assert first == again
    assert first != other


def test_profile_grid_mix():
    specs = _take("profile", 3, 100)
    inside = [s for s in specs if s["x3_min"] >= 0.01 * s["a"] and s["x3_max"] <= 0.99 * s["a"]]
    outside = [
        s for s in specs
        if s["include_outside"] and (s["x3_max"] <= -0.01 * s["a"] or s["x3_min"] >= 1.01 * s["a"])
    ]
    assert abs(len(inside) - 90) <= 2 and len(inside) + len(outside) == len(specs)
    assert all(500 <= s["n_points"] <= 5000 for s in specs)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def test_profile_hands_cli_only_the_spec(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(workloads.cli, "main", lambda argv: seen.append(argv) or 0)
    spec = _take("profile", 5, 1)[0]
    path = workloads.profile_op(spec, str(tmp_path))
    (argv,) = seen
    assert argv == workloads.profile_argv(spec, path)
    assert float(_flag(argv, "--a")) == spec["a"]
    assert float(_flag(argv, "--xi")) == spec["xi"]
    assert int(_flag(argv, "--n-points")) == spec["n_points"]
    assert float(_flag(argv, "--x3-min")) == spec["x3_min"]
    assert float(_flag(argv, "--x3-max")) == spec["x3_max"]
    assert _flag(argv, "--format") == spec["format"]
    assert ("--include-outside" in argv) == spec["include_outside"]
    assert len(argv) == 15 + spec["include_outside"]


def test_convergence_hands_cli_only_the_spec(monkeypatch):
    seen = []
    monkeypatch.setattr(workloads.cli, "main", lambda argv: seen.append(argv) or 0)
    for spec in _take("convergence", 5, 10):
        workloads.convergence_op(spec, "")
        argv = seen.pop()
        assert complex(_flag(argv, "--u")) == complex(*spec["u"])
        assert float(_flag(argv, "--a")) == spec["a"]
        assert float(_flag(argv, "--xi")) == spec["xi"]
        assert float(_flag(argv, "--x3")) == spec["q"] * spec["a"]
        ells = [int(x) for x in _flag(argv, "--L-list").split(",")]
        assert ells == [10**e for e in range(3, spec["L_max_exp"] + 1)]
        assert len(argv) == 11


def test_u_grid_hands_library_only_the_spec(monkeypatch):
    calls = []

    def record(name, result):
        def fn(*args, **kwargs):
            calls.append((name, args, kwargs))
            return result
        return fn

    tensor = modesum.TensorDiag(1.0, 1.0, 1.0, 1.0)
    monkeypatch.setattr(modesum, "regularized_vev", record("vev", tensor))
    monkeypatch.setattr(modesum, "continuation_at_zero", record("zero", tensor))
    monkeypatch.setattr(casimir, "tensor_between_plates", record("closed", tensor))
    spec = _take("u_grid", 5, 1)[0]
    workloads.u_grid_op(spec, "")
    steps = set(workloads.RICHARDSON_STEPS) | {-h for h in workloads.RICHARDSON_STEPS}
    vev_us = [args[0] for name, args, _ in calls if name == "vev"]
    assert vev_us[: workloads.U_PER_OP] == [workloads._u_arg(u) for u in spec["u"]]
    assert set(vev_us[workloads.U_PER_OP:]) == steps
    for _, args, kwargs in calls:
        cfg, p = args[-2:]
        assert (cfg.a, cfg.xi, p.x3) == (spec["a"], spec["xi"], spec["q"] * spec["a"])
        assert not kwargs


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    original = modesum.polylog
    cfg, p = modesum.PlateConfig(a=1.0), modesum.EvalPoint(0.3)
    with Tracer() as tracer:
        assert modesum.polylog is not original
        assert run.sys.modules["zetacasimir.polylog"].polylog is modesum.polylog
        modesum.regularized_vev(0.5, cfg, p)
        extrapolate.richardson_even(lambda h: h * h, (0.1, 0.05))
    assert modesum.polylog is original
    m = tracer.metrics(1)
    assert m["modesum.regularized_vev.calls"] == 1
    assert m["modesum.regularized_coefficients.calls"] == 1
    assert m["polylog.riemann_zeta.calls"] == 1
    assert m["polylog.polylog.calls"] == 3
    assert m["extrapolate.richardson_even.calls"] == 1
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_ms"))

    path = tmp_path / "spans.csv.gz"
    assert tracer.write(str(path)) == sum(tracer.calls)
    with gzip.open(path, "rt") as fh:
        spans = {row["name"]: row for row in csv.DictReader(fh)}
    vev, coeffs = spans["modesum.regularized_vev"], spans["modesum.regularized_coefficients"]
    assert coeffs["parent"] == vev["span"] and vev["parent"] == "-1"
    assert int(vev["start_ns"]) <= int(coeffs["start_ns"]) <= int(coeffs["end_ns"]) <= int(vev["end_ns"])


def test_calibrate_never_calls_the_package():
    with Tracer() as tracer:
        run.calibrate()
    assert sum(tracer.calls) == 0
