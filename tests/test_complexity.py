"""Monte Carlo complexity estimates against closed forms and brute force."""

import itertools
import math

import numpy as np
import pytest

from modalgap.core import DomainError, SeedSpec, SingularityError
from modalgap.complexity import (approximate_realizability, gaussian_average,
                                 gaussian_average_closed_form,
                                 rademacher_average,
                                 rademacher_average_closed_form)
from modalgap.hypotheses import (BooleanMapClass, ComposedSineClass,
                                 ScalingClass, SignCompleteClass,
                                 SineSingletonClass, SmoothedHyperplaneClass,
                                 XOnlyPredictorClass)

SEED = SeedSpec(314)


def test_singleton_average_is_exactly_zero():
    cls = SineSingletonClass()
    sample = (np.array([0.5, 0.9]), np.array([0.4, 0.7]))
    est = gaussian_average(cls, sample, draws=500, seed=SEED)
    assert est.value == 0.0 and est.stderr == 0.0
    assert est.mode == "enumeration-exact"
    assert gaussian_average_closed_form(cls, sample) == 0.0


def test_singleton_average_refuses_a_pole():
    sample = (np.array([0.5, 0.9]), np.array([[0.4], [0.0]]))
    with pytest.raises(SingularityError, match="y = 0"):
        gaussian_average(SineSingletonClass(), sample, draws=500, seed=SEED)


@pytest.mark.parametrize("signed", [False, True])
def test_scaling_closed_form_survives_underflowing_squares(signed):
    cls = ScalingClass(signed=signed)
    factor = math.sqrt(2.0 / math.pi) if signed else 1.0 / math.sqrt(2.0 * math.pi)
    for xs in ([1e-200, -3e-200] if signed else [1e-200, 3e-200], [5e-324] * 4,
               [1e-160, 1e-160], [1.2e-154, 1e-154], [0.5, 1e-170]):
        expected = math.hypot(*xs) * factor
        assert cls.closed_form_gaussian(np.array(xs)) == pytest.approx(expected,
                                                                      rel=1e-15)
    assert cls.closed_form_gaussian(np.zeros(3)) == 0.0


def test_scaling_matches_half_normal_mean():
    # E[max(0, Z)] = 1/sqrt(2 pi) for Z standard normal
    cls = ScalingClass()
    est = gaussian_average(cls, np.array([1.0]), draws=1_000_000, seed=SEED)
    assert est.stderr < 1.5e-3
    assert est.agrees_with(1.0 / math.sqrt(2.0 * math.pi))
    assert abs(est.value - 0.3989) < 2e-3


def test_scaling_closed_form_values():
    cls = ScalingClass()
    assert gaussian_average_closed_form(cls, np.ones(4)) == pytest.approx(
        2.0 / math.sqrt(2.0 * math.pi))
    assert gaussian_average_closed_form(cls, np.ones(4)) == pytest.approx(0.7979, abs=1e-4)
    assert rademacher_average_closed_form(cls, np.array([1.0])) == 0.5


def test_sign_complete_gaussian_value_and_brute_force():
    cls = SignCompleteClass()
    pts = np.array([[0.0], [0.5], [1.0]])
    est = gaussian_average(cls, pts, draws=40_000, seed=SEED)
    assert est.agrees_with(3.0 * math.sqrt(2.0 / math.pi))
    assert abs(est.value - 2.394) < 0.02
    # per-draw supremum equals the brute-force max over the 8 sign patterns
    oracle = cls.sup_oracle(pts)
    rng = SEED.child("brute").generator()
    sigma = rng.standard_normal((64, 3))
    values = oracle.batch(sigma)
    patterns = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    brute = (sigma @ patterns.T).max(axis=1)
    assert np.allclose(values, brute)
    assert np.allclose(values, np.abs(sigma).sum(axis=1))


def test_sign_complete_closed_forms():
    cls = SignCompleteClass()
    pts = np.arange(8.0).reshape(-1, 1)
    assert gaussian_average_closed_form(cls, pts) == pytest.approx(
        8.0 * math.sqrt(2.0 / math.pi))
    assert gaussian_average_closed_form(cls, pts) == pytest.approx(6.383, abs=1e-3)
    assert rademacher_average_closed_form(cls, pts) == 8.0


def test_rademacher_examples():
    pts = np.arange(5.0).reshape(-1, 1)
    est = rademacher_average(SignCompleteClass(), pts, draws=500, seed=SEED)
    assert est.value == 5.0 and est.stderr == 0.0   # every draw sums |eps| = n
    est = rademacher_average(ScalingClass(), np.array([1.0]), draws=200_000, seed=SEED)
    assert est.agrees_with(0.5)


def test_unsupported_closed_form_returns_none():
    assert gaussian_average_closed_form(BooleanMapClass(), np.array([0.0, 1.0])) is None
    assert gaussian_average_closed_form(ComposedSineClass(), [1, 2]) is None
    assert gaussian_average_closed_form(SmoothedHyperplaneClass(2, 0.1),
                                        np.eye(2)) is None
    assert rademacher_average_closed_form(ScalingClass(), np.ones(3)) is None
    # the x-only view has a closed form exactly where its inner class has one
    xs, ys = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    assert gaussian_average_closed_form(XOnlyPredictorClass(BooleanMapClass()),
                                        (xs, ys)) is None
    assert gaussian_average_closed_form(XOnlyPredictorClass(ScalingClass()),
                                        (xs, ys)) == gaussian_average_closed_form(
                                            ScalingClass(), xs)


def test_comparison_inequality_rademacher_vs_gaussian():
    # R <= sqrt(pi/2) G with Monte Carlo slack
    samples = {
        "scaling-1": (ScalingClass(), np.array([1.0])),
        "scaling-4": (ScalingClass(), np.array([0.3, 0.9, 0.5, 1.0])),
        "sign-complete": (SignCompleteClass(), np.arange(6.0).reshape(-1, 1)),
        "boolean": (BooleanMapClass(), np.array([0.0, 1.0, 1.0, 0.0])),
    }
    for name, (cls, sample) in samples.items():
        g = gaussian_average(cls, sample, draws=30_000, seed=SEED.child(name))
        r = rademacher_average(cls, sample, draws=30_000, seed=SEED.child(name))
        slack = 4.0 * (g.stderr + r.stderr)
        assert r.value <= math.sqrt(math.pi / 2.0) * g.value + slack, name


def test_scale_equivariance_of_sign_complete():
    pts = np.array([[0.1], [0.7], [0.4]])
    base = gaussian_average(SignCompleteClass(bound=1.0), pts, draws=2000, seed=SEED)
    doubled = gaussian_average(SignCompleteClass(bound=2.0), pts, draws=2000, seed=SEED)
    assert doubled.value == 2.0 * base.value   # exact: same draws, scaled sup


def test_draws_validation_and_determinism():
    with pytest.raises(DomainError):
        gaussian_average(ScalingClass(), np.array([1.0]), draws=50, seed=SEED)
    a = gaussian_average(ScalingClass(), np.ones(3), draws=5000, seed=SEED)
    b = gaussian_average(ScalingClass(), np.ones(3), draws=5000, seed=SEED)
    assert a.value == b.value and a.stderr == b.stderr


def test_worker_count_does_not_change_results():
    cls = SignCompleteClass()
    pts = np.arange(5.0).reshape(-1, 1)
    serial = gaussian_average(cls, pts, draws=20_000, seed=SEED, workers=1)
    threaded = gaussian_average(cls, pts, draws=20_000, seed=SEED, workers=4)
    assert serial.value == threaded.value
    assert serial.stderr == threaded.stderr


def test_composed_sine_estimate_is_witness_mode():
    est = gaussian_average(ComposedSineClass(), [1, 2, 3, 4], draws=500,
                           seed=SEED)
    assert est.mode == "witness-lower-bound"
    assert est.value / 4 >= 0.35


def test_realizability_examples():
    # realizable scaling family: R = 0 with the generating theta as witness
    xs = np.array([0.2, 0.5, 0.8])
    report = approximate_realizability(ScalingClass(), xs, 0.6 * xs)
    assert report.value == 0.0 and report.exact
    assert report.witness.theta == pytest.approx(0.6)

    report = approximate_realizability(BooleanMapClass(),
                                       np.array([0.0, 0.0]),
                                       np.array([0.0, 1.0]))
    assert report.value == 0.5 and report.exact


def test_realizability_empty_sample():
    with pytest.raises(DomainError):
        approximate_realizability(ScalingClass(), np.array([]), np.array([]))
