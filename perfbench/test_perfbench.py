"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

Each workload runs to its end with no failed operation, the traced window
reports every layer and puts the program back as it was, each output check
rejects a deliberately wrong result, and the command refuses to run where
the program's source is missing.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from modalgap import analysis, shatter  # noqa: E402
from modalgap.core import SeedSpec  # noqa: E402

TINY = {
    "separation": workloads.Separation(grid_points=2000),
    "witness-mc": workloads.WitnessMC(n=4, draws=200),
    "sample-fit": workloads.SampleFit(n=8, m=32, T=2),
    "repr-patterns": workloads.ReprPatterns(n=4, k=8, draws=500),
}


def tiny_results(name, ops=4):
    workload = TINY[name]
    ctx = workload.setup()
    results = [workload.op(ctx, SeedSpec(7).child("op", i)) for i in range(ops)]
    return workload, ctx, results


def test_tiny_workloads_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_without_failures(name):
    workload = TINY[name]
    ctx = workload.setup()
    results, times, elapsed = run.window(workload, ctx, seed=3, seconds=0.01, first=0)
    assert len(results) == len(times) >= 1 and elapsed > 0
    assert run.checked(workload, ctx, results) == (True, 0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_window_reports_every_layer(name):
    workload = TINY[name]
    ctx = workload.setup()
    original = shatter.construct
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert hasattr(analysis.excess_risk, "__wrapped__")
        results, _, _ = run.window(workload, ctx, 3, 0.01, 0, tracer)
    assert shatter.construct is original
    assert not hasattr(analysis.excess_risk, "__wrapped__")
    metrics = tracer.metrics(len(results))
    assert list(metrics) == [m for m, _unit in tracing.LAYER_METRICS]
    assert all(v >= 0 for v in metrics.values())
    construct_calls = metrics["shatter.construct.calls"]
    if name in ("sample-fit", "repr-patterns"):
        assert construct_calls == 0
    else:
        assert construct_calls >= 1 and metrics["shatter.construct.ms"] > 0
    if name == "witness-mc":
        assert 0 < metrics["hypotheses.construct_per_draw"] <= 1
    if name == "repr-patterns":
        assert metrics["hypotheses.lstsq.calls"] == 2 ** TINY[name].n
    if name == "sample-fit":
        assert metrics["core.draw.points"] == 2 * (8 + 32)


def test_separation_checks_reject_wrong_results():
    workload, ctx, results = tiny_results("separation")
    good = results[0]
    assert workload.check(ctx, good) is None
    nonzero = dataclasses.replace(good, multimodal_excess=np.array([1e-3]))
    assert workload.check(ctx, nonzero) is not None
    outside = dataclasses.replace(good, unimodal_excess=np.array([1.5]))
    assert workload.check(ctx, outside) is not None
    assert workload.check_run(ctx, results) is None
    low = [dataclasses.replace(r, unimodal_excess=np.array([0.1])) for r in results]
    assert workload.check_run(ctx, low) is not None
    dups = [dataclasses.replace(r, duplicate_free=np.array([False])) for r in results]
    assert workload.check_run(ctx, dups) is not None


def test_witness_mc_checks_reject_wrong_results():
    workload, ctx, results = tiny_results("witness-mc", ops=1)
    good = results[0]
    assert workload.check(ctx, good) is None
    top = workload.n * math.sqrt(2.0 / math.pi)
    above = dataclasses.replace(good, value=top + 5.0 * good.stderr)
    assert workload.check(ctx, above) is not None
    below = dataclasses.replace(good, value=0.5 * top)
    assert workload.check(ctx, below) is not None
    exact = dataclasses.replace(good, mode="enumeration-exact")
    assert workload.check(ctx, exact) is not None


def test_sample_fit_checks_reject_wrong_results():
    workload, ctx, results = tiny_results("sample-fit", ops=1)
    solution, report, bound = results[0]
    assert workload.check(ctx, results[0]) is None
    assert bound.term4 == pytest.approx(workload.expected_term4(), rel=1e-12)
    off = dataclasses.replace(solution, connection=dataclasses.replace(
        solution.connection, theta=0.7 + 1e-9))
    assert workload.check(ctx, (off, report, bound)) is not None
    excess = dataclasses.replace(report, excess=1e-3)
    assert workload.check(ctx, (solution, excess, bound)) is not None
    term4 = dataclasses.replace(bound, term4=bound.term4 * (1 + 1e-9))
    assert workload.check(ctx, (solution, report, term4)) is not None
    small = dataclasses.replace(bound, total=-1.0)
    assert workload.check(ctx, (solution, report, small)) is not None


def test_repr_patterns_checks_reject_wrong_results():
    workload, ctx, results = tiny_results("repr-patterns", ops=1)
    good = results[0]
    assert workload.check(ctx, good) is None
    adv = good.adversarial
    expected = workload.n * math.sqrt(2.0 / math.pi)
    far = dataclasses.replace(good, adversarial=dataclasses.replace(
        adv, value=expected + 6.0 * adv.stderr))
    assert workload.check(ctx, far) is not None
    lower = dataclasses.replace(good, adversarial=dataclasses.replace(
        adv, mode="witness-lower-bound"))
    assert workload.check(ctx, lower) is not None
    above = dataclasses.replace(good, collinear=dataclasses.replace(
        good.collinear, value=adv.value + 1.0))
    assert workload.check(ctx, above) is not None


def test_failed_check_counts_its_operation():
    workload, ctx, results = tiny_results("separation", ops=3)
    results[1] = dataclasses.replace(results[1], multimodal_excess=np.array([0.5]))
    correct, failed = run.checked(workload, ctx, results)
    assert failed == 1


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "separation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
