"""Steadiness of the benchmark: run each workload many times and print, per
end-to-end metric, the median, the quartiles and the spread, the distance
between the quartiles as a share of the median.

    python3 perfbench/steady.py --runs 10 --seconds 20 --sets 2

Set s uses seeds first + s*runs ... first + (s+1)*runs - 1, one run after
another, each in its own process. With two or more sets it also prints how
far each set's median lies from the first set's. The bounds in
BENCHMARK.json are set from what this shows. The table goes to standard
output and the raw results to ``perfbench/out/steady-<first seed>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            results = []
            for seed in seeds:
                results.append(run_once(workload, seed, args.seconds))
                print(f"  {workload} seed {seed}: " + " ".join(
                    f"{k} {v['value']:.5g}" for k, v in results[-1]["metrics"].items()),
                    flush=True)
            sets.append(results)
        raw[workload] = sets
        for s, results in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in results}
            incorrect = sum(not r["correct"] for r in results)
            attempted = [r["attempted"] for r in results]
            print(f"{workload} set {s}: attempted {min(attempted)}-{max(attempted)}, "
                  f"failed shares {sorted(shares)}, incorrect runs {incorrect}")
            ok = ok and incorrect == 0 and len(shares) == 1
        for name, bound in bounds.items():
            stats = [summary([r["metrics"][name]["value"] for r in results])
                     for results in sets]
            for s, st in enumerate(stats):
                shift = st["median"] / stats[0]["median"] - 1.0
                flag = "" if st["spread"] <= bound / 3 or name == "setup_s" else "  WIDE"
                print(f"  {name:12s} set {s}: median {st['median']:.5g} "
                      f"q1 {st['q1']:.5g} q3 {st['q3']:.5g} "
                      f"spread {st['spread']:.4f} (bound {bound})"
                      + (f" shift {shift:+.4f}" if s else "") + flag)
        sys.stdout.flush()

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.first_seed}.json").write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
