"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances and thresholds are pinned here; seeds are fixed so every
run is deterministic.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from modalgap.core import (CLIPPED_ABS, SeedSpec, draw_labeled,
                           draw_unlabeled)
from modalgap.analysis import (bound_scaling_experiment, excess_risk,
                               realizability_necessity_experiment,
                               representation_comparison,
                               separability_check,
                               unimodal_failure_experiment)
from modalgap.complexity import (gaussian_average,
                                 gaussian_average_closed_form,
                                 rademacher_average)
from modalgap.erm import fit_multimodal
from modalgap.hypotheses import (ComposedSineClass, ScalingClass,
                                 SignCompleteClass, SineSingletonClass)
from modalgap.instances import (make_separable_from_fixed_points,
                                make_sine_subset)
from modalgap.shatter import construct

SQRT_HALF = math.sqrt(2.0) / 2.0


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_zero_excess_multimodal_erm():
    start = time.time()
    seed = SeedSpec(101)
    rng = seed.child("instances").generator()
    worst = 0.0
    for trial in range(100):
        n = (2, 4, 8)[trial % 3]
        m = n ** 3
        indices = sorted(int(i) + 1 for i in
                         rng.choice(m, size=n, replace=False))
        theta = float(1.0 - rng.random())          # uniform on (0, 1]
        inst = make_sine_subset(indices, theta)
        labeled = draw_labeled(inst, 1, n, seed.child("draw", trial))
        unlabeled = draw_unlabeled(inst, 1, 2 * n, seed.child("draw", trial))
        sol = fit_multimodal(labeled, unlabeled, ScalingClass(),
                             SineSingletonClass(), CLIPPED_ABS)
        excess = excess_risk(sol, inst, SineSingletonClass(), CLIPPED_ABS).excess
        worst = max(worst, abs(excess))
    elapsed = time.time() - start
    report("1 zero-excess multimodal ERM",
           worst <= 1e-9 and elapsed < 10.0,
           f"max |excess| = {worst:.2e}, {elapsed:.1f}s over 100 instances")


def test_criterion_2_exact_shattering():
    start = time.time()
    rng = SeedSpec(202).child("signs").generator()
    sizes = list(range(1, 65)) + [int(rng.integers(1, 65)) for _ in range(136)]
    assert len(sizes) == 200
    checked = 0
    for n in sizes:
        signs = rng.integers(0, 2, size=n) * 2 - 1
        convention = "interval" if checked % 2 == 0 else "sine-sign"
        cert = construct(signs, convention=convention)
        for entry in cert.entries:
            lo, hi = entry.window
            assert lo <= entry.frac <= hi          # exact rational comparison
            assert abs(entry.sine) >= SQRT_HALF - 1e-12
        checked += 1
    elapsed = time.time() - start
    report("2 exact shattering",
           checked == 200 and elapsed < 30.0,
           f"200 certificates over n=1..64, {elapsed:.1f}s, all windows exact")


def test_criterion_3_composed_class_lower_bound():
    start = time.time()
    seed = SeedSpec(303)
    target = 0.5 * math.sqrt(2.0 / math.pi)
    details = []
    ok = True
    for n in (4, 8, 16):
        est = gaussian_average(ComposedSineClass(), list(range(1, n + 1)),
                               draws=10_000, seed=seed.child(n))
        per_point = est.value / n
        details.append(f"n={n}: {per_point:.3f}")
        ok = ok and per_point >= 0.35
        ok = ok and per_point >= target - 4.0 * est.stderr / n
        ok = ok and est.mode == "witness-lower-bound"
    elapsed = time.time() - start
    report("3 composed-class lower bound",
           ok and elapsed < 60.0,
           ", ".join(details) + f" vs target {target:.3f}, {elapsed:.1f}s")


def test_criterion_4_closed_form_complexity():
    seed = SeedSpec(404)
    rng = seed.child("samples").generator()
    scaling = ScalingClass()
    misses = 0
    comparison_ok = True
    for trial in range(50):
        size = int(rng.integers(1, 12))
        xs = rng.uniform(0.05, 1.0, size=size)
        est = gaussian_average(scaling, xs, draws=10_000, seed=seed.child(trial))
        if not est.agrees_with(gaussian_average_closed_form(scaling, xs)):
            misses += 1
        rad = rademacher_average(scaling, xs, draws=10_000, seed=seed.child(trial))
        slack = 4.0 * (est.stderr + rad.stderr)
        if rad.value > math.sqrt(math.pi / 2.0) * est.value + slack:
            comparison_ok = False

    sign = SignCompleteClass()
    pts = np.arange(8.0).reshape(-1, 1)
    est = gaussian_average(sign, pts, draws=10_000, seed=seed.child("sc"))
    sign_ok = est.agrees_with(gaussian_average_closed_form(sign, pts))
    rad = rademacher_average(sign, pts, draws=10_000, seed=seed.child("sc"))
    comparison_ok = comparison_ok and (
        rad.value <= math.sqrt(math.pi / 2.0) * est.value
        + 4.0 * (est.stderr + rad.stderr))

    report("4 closed-form complexity",
           misses == 0 and sign_ok and comparison_ok,
           f"50/50 scaling samples within 4 stderr, sign-complete ok, "
           f"comparison inequality ok")


def test_criterion_5_unimodal_failure():
    start = time.time()
    stats = unimodal_failure_experiment(n=4, trials=200, seed=SeedSpec(505))
    elapsed = time.time() - start
    ok = (stats.mean_unimodal_excess >= 0.2
          and stats.duplicate_free_frequency >= 0.5
          and stats.max_multimodal_excess == 0.0
          and elapsed < 120.0)
    report("5 unimodal failure",
           ok,
           f"mean excess {stats.mean_unimodal_excess:.3f} >= 0.2, "
           f"dup-free {stats.duplicate_free_frequency:.2f} >= 0.5, "
           f"multimodal excess always 0, {elapsed:.1f}s")


def test_criterion_6_necessity_of_connection():
    stats = realizability_necessity_experiment(n=64, T=4, trials=400,
                                               seed=SeedSpec(606))
    ok = (stats.freq_r_event >= 0.5 and stats.freq_count_event >= 0.75
          and stats.excess_always_half)
    report("6 necessity of connection",
           ok,
           f"freq[R >= 1/2 - 4sqrt3/16] = {stats.freq_r_event:.2f}, "
           f"freq[|c0-c1| <= 48] = {stats.freq_count_event:.2f}, "
           f"excess exactly 1/2 in all 400 trials")


def test_criterion_7_bound_dominance_and_scaling():
    result = bound_scaling_experiment(ns=(4, 16, 64), ms=(64, 256), Ts=(1, 4),
                                      seeds=20, seed=SeedSpec(707))
    ok = (result.dominance_fraction == 1.0
          and abs(result.term2_slope + 1.0) <= 0.1
          and abs(result.term4_slope + 0.5) <= 0.1)
    report("7 bound dominance and scaling",
           ok,
           f"dominance {result.dominance_fraction:.0%} on {len(result.rows)} runs, "
           f"term2 slope {result.term2_slope:.3f}, "
           f"term4 slope {result.term4_slope:.3f}")


def test_criterion_8_representation_separation():
    start = time.time()
    seed = SeedSpec(808)
    reports = {n: representation_comparison(n=n, k=16, seed=seed.child(n),
                                            draws=10_000 if n <= 8 else 4096)
               for n in (4, 8, 16)}
    elapsed = time.time() - start
    ratio8 = reports[8].ratio
    ok = ratio8 >= 1.8 and reports[16].ratio > reports[4].ratio
    report("8 representation-learning separation",
           ok,
           f"ratio(8) = {ratio8:.3f} >= 1.8, "
           f"ratio(16) = {reports[16].ratio:.3f} > ratio(4) = {reports[4].ratio:.3f}, "
           f"{elapsed:.1f}s")


def test_criterion_9_separability():
    rng = SeedSpec(909).child("f").generator()
    failures = []
    for trial in range(20):
        interior = int(rng.integers(0, 5))           # |A| in {2, ..., 6}
        cuts = []
        while len(cuts) != interior:
            raw = sorted(int(v) for v in rng.integers(8, 93, size=interior))
            if all(b - a >= 8 for a, b in zip(raw, raw[1:])):
                cuts = raw
        points = [Fraction(0)] + [Fraction(c, 100) for c in cuts] + [Fraction(1)]
        inst = make_separable_from_fixed_points(points)
        sample = draw_labeled(inst, 1, 500, SeedSpec(909).child("draw", trial))
        rep = separability_check(inst, sample)
        if not (rep.separable and rep.canonical_margin > 0
                and rep.crossings == len(points) - 2):
            failures.append(trial)
    report("9 separability",
           not failures,
           f"20/20 instances separable with crossings == |A|-2")


def _determinism_bundle(workers: int) -> str:
    """Small deterministic slice of every criterion's pipeline."""
    seed = SeedSpec(1010)
    out = {}
    est = gaussian_average(ScalingClass(), np.array([0.4, 0.9]), draws=2000,
                           seed=seed, workers=workers)
    out["complexity"] = est.to_json()
    cert = construct([1, -1, 1], convention="sine-sign")
    out["shatter"] = {"c": str(cert.c), "sines": cert.sine_values()}
    stats = unimodal_failure_experiment(n=2, trials=4, seed=seed,
                                        grid_points=2000)
    out["separation"] = stats.summary()
    nec = realizability_necessity_experiment(n=8, T=2, trials=6, seed=seed)
    out["necessity"] = nec.summary()
    rep = representation_comparison(n=4, k=8, seed=seed, draws=500,
                                    workers=workers)
    out["repr"] = rep.to_json()
    inst = make_sine_subset([1, 2, 4], 0.55)
    labeled = draw_labeled(inst, 1, 4, seed)
    unlabeled = draw_unlabeled(inst, 1, 8, seed)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(),
                         SineSingletonClass(), CLIPPED_ABS)
    out["risk"] = excess_risk(sol, inst, SineSingletonClass(),
                              CLIPPED_ABS).to_json()
    sep = separability_check(make_separable_from_fixed_points([0, Fraction(1, 2), 1]),
                             draw_labeled(make_separable_from_fixed_points(
                                 [0, Fraction(1, 2), 1]), 1, 64, seed))
    out["separability"] = sep.to_json()
    return json.dumps(out, sort_keys=True)


def test_criterion_10_determinism():
    runs = [_determinism_bundle(workers) for workers in (1, 3, 1, 3)]
    ok = len(set(runs)) == 1
    report("10 determinism",
           ok,
           "byte-identical outputs across repeated runs and worker counts")
