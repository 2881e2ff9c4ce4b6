"""Benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from ``src``.
Set-up runs at least SETUP_REPEATS times; then at least MIN_PASSES whole
passes of the workload run, and more until another would end after
``--seconds``. With ``--trace 0`` the run reports the end-to-end metrics, with
times scaled to a nominal machine speed by ``speed.SpeedProbe``; with
``--trace 1`` it reports the per-layer metrics of a traced run, in wall time. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Earlier lines give each
metric with its unit, sample count and quartiles, and the environment
manifest. Results and traces are also written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads are fixed before numpy loads. One thread, not nproc: at these
# shapes a second OpenBLAS thread gave no speed-up and made passes less steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Set-up repeats at least SETUP_REPEATS times and until SETUP_SECONDS are spent.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# Passes: at least MIN_PASSES, then more while the next would end within --seconds.
MIN_PASSES = 2


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    if not (ROOT / "src" / "tempkg" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'tempkg'}; run from the "
              "root of a tempkg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy

    from tempkg import _kernels
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import OUT_DIR, WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    probe = SpeedProbe(active=not tracer)
    setup_wall, setup_work, setup_units = [], [], []
    pass_wall, rates, wall_rates, checks = [], [], [], []
    attempted = failed = 0
    with tracer.installed() if tracer else probe.installed():
        while len(setup_wall) < SETUP_REPEATS or sum(setup_wall) < SETUP_SECONDS:
            state = None    # let the previous set-up go before building the next
            if tracer:
                tracer.begin("setup")
            t0 = time.perf_counter()
            state, work, units_taken = probe.timed(workload.setup, args.seed)
            setup_wall.append(time.perf_counter() - t0)
            setup_work.append(work)
            setup_units += units_taken
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.begin("pass")
            t0 = time.perf_counter()
            result, work, units_taken = probe.timed(workload.run_pass, state)
            pass_wall.append(time.perf_counter() - t0)
            rates.append(result.items / (work * probe.scale(units_taken)))
            wall_rates.append(result.items / work)
            checks.append(result.value)
            attempted += result.ops
            failed += workload.check(state, result)
            elapsed = time.perf_counter() - start
            if (len(pass_wall) >= MIN_PASSES
                    and elapsed + statistics.median(pass_wall) > args.seconds):
                break

    setup_scale = probe.scale(setup_units)
    setup_s = [work * setup_scale for work in setup_work]
    samples = {"setup_s": setup_s, "items_per_s": rates,
               "wall_setup_s": setup_work, "wall_items_per_s": wall_rates}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        values = tracer.per_layer(statistics.median(rates))
    else:
        values = {"setup_s": statistics.median(setup_s),
                  "items_per_s": statistics.median(rates), "peak_rss_mb": peak_rss_mb}
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "kernel_backend": _kernels.BACKEND,
        "setup_repeats": len(setup_s), "passes": len(pass_wall),
        "probe_units": len(probe.samples),
        "probe_unit_ms": 1e3 * statistics.fmean(probe.samples) if probe.samples else None,
        "items": f"{workload.item} per pass", "operation": workload.op,
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for name, series in samples.items():
        q1, med, q3 = quartiles(series)
        print(f"{name:<16} {med:12.4f} {units[name.removeprefix('wall_')]:<4} n={len(series)} "
              f"q1={q1:.4f} q3={q3:.4f}")
    print(f"{'peak_rss_mb':<16} {peak_rss_mb:12.1f} MB   n=1")
    print(f"{'ops_failed':<16} {failed}/{attempted} failed (one {workload.op} each); "
          f"{workload.checked} per pass: {', '.join(f'{v!r}' for v in checks)}")
    if tracer:
        top = sorted((n for n in values if n.endswith(".self_s")),
                     key=lambda n: -values[n])[:8]
        print("top self time per pass: " + ", ".join(
            f"{n[:-len('.self_s')]}={values[n]:.3f}s" for n in top))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    record = {"manifest": manifest, "samples": samples, workload.checked: checks, **out}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer:
        tracer.write(OUT_DIR / f"{stem}.spans.json.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
