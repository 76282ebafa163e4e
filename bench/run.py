"""zetacasimir benchmark: one workload per run, one JSON result line.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload profile --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each run is a closed loop with one client in one thread: the next op starts
only after the previous one returned and was checked.  Op inputs come from
--seed alone (workloads.py); outputs are checked against mpmath outside the
timed region (reference.py).  Ops run untimed for WARMUP_S first, so
lazy set-up is done before timing; the timed loop then goes on with the
next inputs and stops once the ops' own wall time reaches --seconds.

After each op the loop times `calibrate`, a fixed kernel of the
benchmark's own that never calls the package.  On a shared host the CPU's
speed can drift by a third and more within a minute; the kernel slows down
with it, so an op's time in units of the kernel's time holds still where
its wall time does not (README.md, "Steadiness").

--trace 0 reports the end-to-end metrics: setup_s (median wall time of a
fresh `python -m zetacasimir.cli tensor --a 1 --x3 0.5`), op_time_rel
(op wall time per verified-correct op, failed ops included, over the mean
time of one `calibrate`) and peak_rss_mb.  ops_per_s (the same throughput
in plain wall time), latency_p50_ms and latency_p90_ms (over the ops that
succeeded), calibrate_ms and failed_frac are printed and recorded but not
part of the JSON metrics.  `correct` is false when any op, warm-up
included, fails: the workloads draw only inputs on which none should.
--trace 1 runs the loop with tracing.Tracer installed and reports per-op
calls, self time and raises of each traced function, three work counts and
the tracing overhead against an untraced replay of the same ops.

Human-readable lines come first; the last line of stdout is the JSON
result.  Each run also writes .bench_out/<workload>-seed<N>-trace<T>.json
with versions, nproc and the failure tally, and a traced run writes its
spans next to it.  `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable, NamedTuple

# One thread: numpy's and scipy's OpenBLAS would each start a worker per
# core at import.  Set before either is imported; the cold-start runs
# inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("profile", "u_grid", "convergence")
SETUP_ARGV = ("-m", "zetacasimir.cli", "tensor", "--a", "1", "--x3", "0.5")
SETUP_REPEATS = 3
WARMUP_S = 1.0
_CAL_X = [0.1 + 0.9 * i / 1999 for i in range(2000)]


class Record(NamedTuple):
    spec: dict
    latency: float  # op wall time, s
    calibrate: float  # wall time of the calibrate() after the op, s
    reason: str | None  # failure reason, None when the op succeeded


def calibrate() -> float:
    """Fixed work of the kinds the ops do, interpreted float arithmetic and
    small numpy vector maths, about 1 ms on a 2-core x86_64 VM."""
    import numpy as np

    x = np.asarray(_CAL_X)
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    for k in range(20):
        acc += float(np.sum(np.exp(-(1.0 + 0.01 * k) * x) * np.cos(x)))
    return acc


def require_package() -> None:
    """Import zetacasimir from this checkout's src, or exit 2."""
    if not (SRC / "zetacasimir" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'zetacasimir'}; run from a zetacasimir checkout")
    sys.path.insert(0, str(SRC))
    import zetacasimir

    if not Path(zetacasimir.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: zetacasimir imported from {zetacasimir.__file__}, not {SRC}")


def measure_setup() -> tuple[float, bool]:
    """Median cold-start time of the CLI and whether every start printed
    the right tensor."""
    import reference

    ref = reference.renormalized(1.0, 0.0, 0.5)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, correct = [], True
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        fields = dict(line.split("=", 1) for line in proc.stdout.splitlines() if "=" in line)
        correct &= proc.returncode == 0 and all(
            abs(float(fields.get(k) or "nan") - ref[k]) <= 1e-12 * ref["scale"]
            for k in ("t00", "t11", "t22", "t33")
        )
    return statistics.median(times), correct


def run_loop(name: str, specs: Iterable[dict], seconds: float, tracer: Any = None) -> list[Record]:
    """Closed loop over specs until op time reaches seconds; one Record
    per attempted op."""
    from workloads import WORKLOADS, OpFailed

    workload = WORKLOADS[name]
    records: list[Record] = []
    busy = 0.0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for i, spec in enumerate(specs):
            if busy >= seconds:
                break
            if tracer is not None:
                tracer.op = i
            reason = None
            start = time.perf_counter()
            try:
                out = workload.op(spec, scratch)
            except OpFailed as exc:
                reason = str(exc)
            except Exception as exc:  # the loop must go on; the tally reports it
                reason = type(exc).__name__
            latency = time.perf_counter() - start
            calibrate()
            cal = time.perf_counter() - start - latency
            if reason is None:
                try:
                    workload.check(spec, out)
                except OpFailed as exc:
                    reason = str(exc)
            busy += latency
            records.append(Record(spec, latency, cal, reason))
    return records


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def latencies_ms(records: list[Record]) -> list[float]:
    """Latencies of the ops that succeeded, in ms ([0.0] when none did)."""
    return sorted(1e3 * r.latency for r in records if r.reason is None) or [0.0]


def _quantile(ms: list[float], k: int) -> float:
    """k-th decile of ms."""
    return statistics.quantiles(ms, n=10)[k - 1] if len(ms) > 1 else ms[0]


def end_to_end(records: list[Record], setup_s: float) -> dict[str, dict]:
    ok = sum(r.reason is None for r in records)
    busy = sum(r.latency for r in records)
    cal = statistics.fmean(r.calibrate for r in records)
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_time_rel": _metric(busy / max(ok, 1) / cal, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Any, records: list[Record], untraced_s: float) -> dict[str, dict]:
    per_op = tracer.metrics(len(records))
    metrics = {k: _metric(v, "ms" if k.endswith("self_ms") else "count") for k, v in per_op.items()}
    series = per_op["polylog.polylog_series.calls"]
    polylogs = per_op["polylog.polylog.calls"]
    metrics["polylog.polylog_series.ok_ratio"] = _metric(
        1.0 - per_op["polylog.polylog_series.raised"] / series if series else 0.0, "ratio"
    )
    metrics["hankel.polylog_hankel.per_polylog"] = _metric(
        per_op["hankel.polylog_hankel.calls"] / polylogs if polylogs else 0.0, "ratio"
    )
    metrics["modesum.mode_sum_bruteforce.terms"] = _metric(
        tracer.bruteforce_terms / len(records), "count"
    )
    traced_s = sum(r.latency for r in records)
    metrics["trace.overhead_frac"] = _metric(traced_s / untraced_s - 1.0, "ratio")
    return metrics


def environment(seed: int) -> dict[str, Any]:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    require_package()
    from tracing import Tracer

    from workloads import WORKLOADS

    specs = WORKLOADS[name].specs(seed)
    warmup = run_loop(name, specs, WARMUP_S)  # specs goes on where this stopped
    extra: dict[str, Any] = {}
    if traced:
        tracer = Tracer()
        with tracer:
            records = run_loop(name, specs, seconds, tracer)
        replay = run_loop(name, [r.spec for r in records], math.inf)
        untraced_s = sum(r.latency for r in replay)
        metrics = per_layer(tracer, records, untraced_s)
        spans = OUT / f"{name}-seed{seed}-spans.csv.gz"
        extra["spans"] = {"file": str(spans.relative_to(ROOT)), "count": tracer.write(str(spans))}
        setup_ok = True
    else:
        setup_s, setup_ok = measure_setup()
        records = run_loop(name, specs, seconds)
        metrics = end_to_end(records, setup_s)
    reasons = collections.Counter(r.reason for r in warmup + records if r.reason is not None)
    failed = sum(reasons.values())
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": len(warmup) + len(records),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "trace": int(traced),
        "seconds": seconds,
        "environment": environment(seed),
        "failed_frac": failed / result["attempted"],
        "warmup_ops": len(warmup),
        "latency_samples": sum(r.reason is None for r in records),
        "ops_per_s": sum(r.reason is None for r in records) / sum(r.latency for r in records),
        "calibrate_ms": 1e3 * statistics.fmean(r.calibrate for r in records),
        # printed, not bounded: the machine's speed switches between two
        # levels for seconds at a time, which makes op latencies bimodal, and
        # a percentile jumps between the modes from run to run (README.md)
        "latency_p50_ms": _quantile(latencies_ms(records), 5),
        "latency_p90_ms": _quantile(latencies_ms(records), 9),
        "failures": dict(reasons.most_common()),
        **extra,
        "result": result,
    }
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict[str, Any]) -> None:
    res = report["result"]
    print(
        f"{report['workload']}: attempted={res['attempted']} failed={res['failed']} "
        f"failed_frac={report['failed_frac']:.4f} latency_samples={report['latency_samples']}"
    )
    if not report["trace"]:
        for key, unit in (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
                          ("latency_p90_ms", "ms"), ("calibrate_ms", "ms")):
            print(f"  {key} = {report[key]:.6g} {unit} (unbounded)")
    for key, metric in res["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    for reason, n in report["failures"].items():
        print(f"  failure x{n}: {reason}")


def run_all(seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """Each workload in its own process, so peak RSS is per workload."""
    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}\n{proc.stderr}")
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        res = json.loads(last)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        report = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        result = report["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
