#!/usr/bin/env python3
"""Benchmark of the ``homricci`` command line on fixed, seeded workloads.

    python3 perfbench/run.py --workload solve-mixed --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each request is one in-process call of ``homricci.cli.main`` with
``--json``, on model files written during set-up, so every request pays
``load_model`` as a command-line user does.  One client sends the workload's
cycle of distinct requests in order, in a closed loop, each after the
previous answer; a new cycle starts while less than ``--seconds`` have
passed, so every request of the cycle is sampled equally often.

Every output is checked without the library (``checks.py``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end figures.  With ``--trace 1`` each request runs untraced and then
traced, and the metrics are the per-layer figures of the traced runs plus
the tracing overhead against the untraced ones.  The lines before it give
every metric with its unit and sample count.  A record of the run, with its
spans when traced, is written under ``.perfbench-out/``.
"""

import os

# One thread per workload process, so the Newton polish's linear solves add
# no BLAS threads on a small host.  Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5  # before and again after the measured phase
P90_MIN_SAMPLES = 100


@dataclass
class Outcome:
    label: str
    kind: str
    latency_s: float
    ok: bool
    decisive: object  # True / False for solves and iterations, else None
    detail: str
    warnings: int


def execute(cli, req) -> Outcome:
    """One CLI call with stdout captured; RuntimeWarnings are counted."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(req.argv + ["--json"])
            except Exception as exc:  # a crash fails this request; the run goes on
                code, error = None, repr(exc)
            latency = time.perf_counter() - start
    numeric = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    if error is None and code == 2:
        error = err.getvalue().strip() or "exit code 2"
    if error is not None:
        decisive = False if req.kind in ("solve", "iterate") else None
        return Outcome(req.label, req.kind, latency, False, decisive, error, numeric)
    ok, decisive, detail = checks.check(req, out.getvalue())
    return Outcome(req.label, req.kind, latency, ok, decisive, detail, numeric)


def run_phase(cli, requests, seconds, tracer=None) -> tuple:
    """Whole cycles of ``requests`` in order, until ``seconds`` have passed.

    Returns the untraced and the traced outcomes.  With a tracer, each
    request runs untraced and then at once traced, so that the two see the
    same host speed; without one, nothing is traced.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        for req in requests:
            plain.append(execute(cli, req))
            if tracer is not None:
                tracer.install()
                try:
                    with tracer.request(len(traced)):
                        traced.append(execute(cli, req))
                finally:
                    tracer.remove()
    return plain, traced


def reference_ms() -> float:
    """Fixed numpy loop that does not touch homricci: shows host-speed drift."""
    import numpy as np

    a = np.linspace(0.5, 1.5, 64)
    start = time.perf_counter()
    for _ in range(20000):
        a = np.sqrt(a * a + 1.0) * 0.999
    return (time.perf_counter() - start) * 1e3


def setup(workload, seed, workdir):
    """Import homricci afresh, write the models and answer one request."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "homricci" or m.startswith("homricci.")]:
        del sys.modules[name]
    homricci = importlib.import_module("homricci")
    cli = importlib.import_module("homricci.cli")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    requests = workloads.build(workload, seed, workdir)
    warm = execute(cli, workloads.warmup_request(workload, workdir))
    return time.perf_counter() - start, homricci, cli, requests, warm


def machine_note(homricci) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "kernel_backend": homricci.kernel_backend,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def mean(outcomes, field: str) -> float:
    return statistics.fmean(getattr(o, field) for o in outcomes)


def end_to_end(outcomes, setup_times, peak_rss_mb) -> dict:
    """The figures listed in BENCHMARK.json, with unit and sample count."""
    n = len(outcomes)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "throughput_rps": (n / math.fsum(o.latency_s for o in outcomes), "1/s", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def reported(plain, outcomes) -> dict:
    """End-to-end figures printed but not listed in BENCHMARK.json: the
    latency quantiles, whose run-to-run spread follows the host's speed too
    closely for a bound (see README.md), and the verdict figures, which can
    be 0 or undefined."""
    latencies = [o.latency_s for o in plain]
    judged = [o for o in outcomes if o.decisive is not None]
    p90 = None
    if len(latencies) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(plain)),
        "latency_p90_ms": (p90, "ms", len(plain)),
        "failed_share": (1.0 - mean(outcomes, "ok"), "share", len(outcomes)),
        "decisive_share": (mean(judged, "decisive") if judged else None, "share", len(judged)),
        "numeric_warnings": (mean(outcomes, "warnings"), "count", len(outcomes)),
    }


LAYER_UNITS = {"_ms": "ms", "_pct": "%", "us_per_call": "us"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def print_metric(name, value, unit, n):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<28} {shown:>12} {unit:<6} (n={n})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homricci" / "__init__.py").is_file():
        print(f"error: no homricci sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_times, warmups = [], []

        def timed_setup():
            elapsed, homricci, cli, requests, warm = setup(args.workload, args.seed, workdir)
            setup_times.append(elapsed)
            warmups.append(warm)
            return homricci, cli, requests

        # Half the set-ups run before the measured phase and half after it,
        # so that a short slow spell of the host does not set the median.
        for _ in range(SETUP_REPEATS):
            homricci, cli, requests = timed_setup()
        machine = machine_note(homricci)
        ref_before = reference_ms()
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = run_phase(cli, requests, args.seconds, tracer)
        # Read before the set-ups that follow, so that their re-imports do
        # not set the peak.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes = plain + traced
        ref_after = reference_ms()
        for _ in range(SETUP_REPEATS):
            timed_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o.ok for o in outcomes)
    correct = failed == 0 and all(w.ok for w in warmups)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine))
    print(f"reference_ms before {ref_before:.2f}  after {ref_after:.2f}")
    e2e = end_to_end(plain, setup_times, peak_rss_mb)
    also = reported(plain, outcomes)
    print("end to end:")
    for name, (value, unit, n) in e2e.items():
        print_metric(name, value, unit, n)
    print("also reported, not gated:")
    for name, (value, unit, n) in also.items():
        print_metric(name, value, unit, n)
    for o in outcomes + warmups:
        if not o.ok:
            print(f"  FAILED {o.label}: {o.detail}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "reference_ms": [ref_before, ref_after],
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "reported": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in also.items()},
        "requests": [o.__dict__ for o in outcomes],
        "warmups": [o.__dict__ for o in warmups],
    }
    if args.trace:
        wall_s = mean(traced, "latency_s")
        layers = tracer.layer_metrics(len(traced), wall_s)
        layers["numeric_warnings"] = mean(traced, "warnings")
        layers["trace.overhead_pct"] = 100.0 * (wall_s / mean(plain, "latency_s") - 1.0)
        print(f"per layer (per traced request, n={len(traced)}; overhead against "
              f"the same {len(plain)} requests untraced):")
        for name, value in layers.items():
            print_metric(name, value, layer_unit(name), len(traced))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        record["per_layer"] = metrics
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for request, span, parent, layer, start, end in tracer.spans:
                fh.write(json.dumps({"request": request, "id": span, "parent": parent,
                                     "name": layer, "start": start, "end": end}) + "\n")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in e2e.items()}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
