"""The modalgap benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload separation --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: modalgap is imported from ``src/``
of the checkout and nowhere else. Operations run back to back in a closed
loop for ``--seconds``; operation i takes its inputs from the seed path
(seed, "op", i). With ``--trace 0`` the last line of standard output is the
end-to-end result. With ``--trace 1`` the window is split in two halves, the
first untraced and the second traced, and the last line holds the per-layer
metrics plus both halves' operations per second, whose gap is the cost of
tracing; the same figures go to ``perfbench/out/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread, set before numpy loads, so that the figures measure the
# program and not the scheduler of a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}


def import_program():
    """Import modalgap from the checkout's src/, or fail if it is not there."""
    if not (SRC / "modalgap" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no modalgap source under {SRC}")
    sys.path.insert(0, str(SRC))
    import modalgap

    if Path(modalgap.__file__).resolve().parent != SRC / "modalgap":
        raise SystemExit(f"run.py: modalgap was imported from {modalgap.__file__}")


def window(workload, ctx, seed, seconds, first, tracer=None):
    """Run operations first, first+1, ... back to back until ``seconds``
    have passed. Returns (results, per-operation seconds, window seconds)."""
    from modalgap.core import SeedSpec

    root = SeedSpec(seed)
    results, times = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = first
    while True:
        spec = root.child("op", i)
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        result = workload.op(ctx, spec)
        times.append(time.perf_counter() - t)
        results.append(result)
        i += 1
        if time.perf_counter() >= deadline:
            break
    return results, times, time.perf_counter() - start


def checked(workload, ctx, results):
    """(correct, failed): a failed check fails its operation; a failed
    run-level check makes the run incorrect."""
    reasons = [workload.check(ctx, result) for result in results]
    for reason in filter(None, reasons):
        print(f"check failed: {reason}", file=sys.stderr)
    passed = [r for r, reason in zip(results, reasons) if reason is None]
    reason = workload.check_run(ctx, passed) if passed else None
    if reason is not None:
        print(f"run check failed: {reason}", file=sys.stderr)
    return reason is None, len(results) - len(passed)


def setup(workload, seed):
    """Median seconds of SETUP_REPEATS rounds of input generation plus one
    untimed warm-up operation, and the context of the last round."""
    from modalgap.core import SeedSpec

    rounds = []
    for r in range(SETUP_REPEATS):
        t = time.perf_counter()
        ctx = workload.setup()
        workload.op(ctx, SeedSpec(seed).child("warmup", r))
        rounds.append(time.perf_counter() - t)
    return statistics.median(rounds), ctx


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    imported = time.perf_counter() - PROCESS_START
    setup_s, ctx = setup(workload, args.seed)

    if not args.trace:
        results, times, elapsed = window(workload, ctx, args.seed, args.seconds, 0)
        metrics = {
            "setup_s": imported + setup_s,
            "ops_per_s": len(results) / elapsed,
            "op_ms_p50": 1000.0 * statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        import tracing

        half = args.seconds / 2.0
        plain, _, plain_s = window(workload, ctx, args.seed, half, 0)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced, _, traced_s = window(workload, ctx, args.seed, half,
                                         len(plain), tracer)
        results = plain + traced
        metrics = {name: metric(value, unit) for (name, unit), value in zip(
            tracing.LAYER_METRICS, tracer.metrics(len(traced)).values())}
        metrics["trace.untraced_ops_per_s"] = metric(len(plain) / plain_s, "1/s")
        metrics["trace.traced_ops_per_s"] = metric(len(traced) / traced_s, "1/s")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "traced_ops": len(traced),
            "spans": len(tracer.spans), "metrics": metrics,
        }, indent=2) + "\n")

    correct, failed = checked(workload, ctx, results)
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
