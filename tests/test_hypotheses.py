"""Hypothesis classes: evaluation, sub-oracles, and sup witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from modalgap.core import (DegenerateDataError, DomainError,
                           SingularityError, UnsupportedClassError)
from modalgap.hypotheses import (BooleanMapClass,
                                 ComposedSineClass, PolynomialClass,
                                 ScalingClass, ScalingConnection,
                                 SignCompleteClass, SinePredictor,
                                 SineSingletonClass,
                                 SmoothedHyperplaneClass,
                                 TableLookupClass, fit_scaling_lad,
                                 fit_scaling_lad_exact, measured_lipschitz)


def lad_objective(theta, xs, ys):
    return float(np.abs(theta * np.asarray(xs) - np.asarray(ys)).sum())


def grid_lad_oracle(xs, ys, step=1e-4):
    """Independent brute-force minimizer over (0, 1] for the LAD objective."""
    thetas = np.arange(step, 1.0 + step / 2, step)
    values = np.abs(np.outer(thetas, xs) - np.asarray(ys)).sum(axis=1)
    return float(thetas[int(np.argmin(values))])


def test_eval_examples():
    assert ScalingConnection(0.5).map(0.8) == 0.4
    assert SinePredictor().predict([0.1], [2.0 / math.pi]) == pytest.approx(1.0)
    cls = SmoothedHyperplaneClass(dim=2, epsilon=0.1)
    member = cls.member(np.array([1.0, 0.0]), 0.0)
    assert member.predict([0.05], [0.7]) == pytest.approx(0.5)  # 0.05/max(0.05, 0.1)


def test_sine_singularity():
    with pytest.raises(SingularityError):
        SinePredictor().predict([0.1], [0.0])


def test_lad_frozen_examples():
    assert fit_scaling_lad([1, 2, 4], [0.3, 0.6, 1.2]) == 0.3
    assert fit_scaling_lad([1, 1, 1], [0.2, 0.4, 0.9]) == 0.4
    assert fit_scaling_lad([1], [0.5]) == 0.5
    # grid oracle agrees on the middle example
    assert grid_lad_oracle([1, 1, 1], [0.2, 0.4, 0.9]) == pytest.approx(0.4, abs=1e-4)


def test_lad_degenerate_and_clamping():
    with pytest.raises(DegenerateDataError):
        fit_scaling_lad([0.0, 0.0], [1.0, 2.0])
    assert fit_scaling_lad([1.0], [2.5]) == 1.0           # clamped to the domain
    assert fit_scaling_lad([1.0], [-0.5]) == 1e-12        # infimum edge


def test_lad_randomized_optimality_audit():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        xs = rng.uniform(0.05, 1.0, size=n)
        ys = rng.uniform(0.0, 1.0, size=n)
        theta = fit_scaling_lad(xs, ys)
        best = lad_objective(theta, xs, ys)
        candidates = rng.uniform(1e-9, 1.0, size=4000)
        values = np.abs(np.outer(candidates, xs) - ys).sum(axis=1)
        assert best <= values.min() + 1e-12


def test_lad_exact_matches_float_on_rationals():
    pairs = [(Fraction(1, 2), Fraction(1, 5)), (Fraction(1), Fraction(2, 5)),
             (Fraction(2), Fraction(4, 5))]
    assert fit_scaling_lad_exact(pairs) == Fraction(2, 5)


def test_boolean_fit_examples_and_exhaustive_audit():
    cls = BooleanMapClass()
    member, residuals = cls.fit_connection([0, 0, 1], [0, 0, 1])
    assert member.table == (0, 1) and residuals.sum() == 0.0
    _, residuals = cls.fit_connection([0, 0], [0, 1])
    assert residuals.sum() == 1.0   # any table errs once; R contribution 1/2
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        xs = rng.integers(0, 2, size=n)
        ys = rng.integers(0, 2, size=n)
        best = cls.fit_connection(xs, ys)[1].sum()
        exhaustive = min(
            sum(abs((t1 if x else t0) - y) for x, y in zip(xs, ys))
            for t0 in (0, 1) for t1 in (0, 1))
        assert best == exhaustive


def test_polynomial_recovers_affine_connection():
    rng = np.random.default_rng(4)
    k = 5
    v = rng.uniform(-0.3, 0.3, size=k)
    y0 = rng.uniform(-0.3, 0.3, size=k)
    xs = rng.uniform(-1, 1, size=2 * k + 3)
    member, _, unique = PolynomialClass(degree=k, out_dim=k).fit_connection(
        xs, np.outer(xs, v) + y0)
    assert unique
    assert np.allclose(member.coeffs[0], y0, atol=1e-10)
    assert np.allclose(member.coeffs[1], v, atol=1e-10)
    assert np.allclose(member.coeffs[2:], 0.0, atol=1e-10)


def test_polynomial_rank_deficiency_flagged():
    member, _, unique = PolynomialClass(degree=2, out_dim=1).fit_connection(
        [0.5, 0.5], [[0.1], [0.3]])
    assert not unique
    # minimum-norm least squares still returns a usable member
    assert member.map(0.5).shape == (1,)


def test_polynomial_projection_bounds_output():
    member, _, _ = PolynomialClass(degree=1, out_dim=2).fit_connection(
        [1.0, 0.5], [[5.0, 0.0], [2.5, 0.0]])
    assert np.linalg.norm(member.map(1.0)) <= 2.0 + 1e-12


def test_sup_witness_scaling():
    oracle = ScalingClass().sup_oracle(np.array([1.0]))
    w = oracle.witness(np.array([2.0]))
    assert w.value == 2.0 and w.attained and w.member.theta == 1.0
    w = oracle.witness(np.array([-2.0]))
    assert w.value == 0.0 and not w.attained


def test_sup_witness_composed_sine_lower_bound():
    rng = np.random.default_rng(8)
    for n in (2, 5, 9):
        sigma = rng.standard_normal(n)
        w = ComposedSineClass().sup_oracle(list(range(1, n + 1))).witness(sigma)
        assert w.value >= 0.5 * np.abs(sigma).sum()
        assert 0.0 < w.member.theta <= 1.0


def test_sup_witness_feasibility_vs_enumeration():
    # witness value never exceeds the exact enumeration on a finite class
    rng = np.random.default_rng(9)
    cls = BooleanMapClass()
    xs = rng.integers(0, 2, size=6).astype(float)
    for _ in range(50):
        sigma = rng.standard_normal(6)
        w = cls.sup_oracle(xs).witness(sigma)
        values = [float(sigma @ m.map(xs)) for m in cls.members()]
        assert w.value == pytest.approx(max(values), abs=1e-12)
        assert w.member.table in [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_table_lookup_fit_and_oracle():
    cls = TableLookupClass(support=(0.25, 0.5))
    member, residuals = cls.fit_connection(
        np.array([0.25, 0.25, 0.5]), np.array([0.1, 0.3, 0.9]))
    assert dict(member.mapping)[0.5] == 0.9
    assert residuals.sum() == pytest.approx(0.2)
    oracle = cls.sup_oracle(np.array([0.25, 0.25, 0.5]))
    sigma = np.array([1.0, -2.0, 0.5])
    assert oracle.witness(sigma).value == pytest.approx(1.0 + 0.5)


def test_smoothed_hyperplane_lipschitz_measurement():
    eps = 0.05
    cls = SmoothedHyperplaneClass(dim=3, epsilon=eps)
    member = cls.member(np.array([0.6, 0.0, 0.8]), 0.1)

    def sampler(rng):
        return rng.uniform(-1, 1, size=3)

    measured = measured_lipschitz(lambda p: member.value(np.asarray(p)),
                                  sampler, pairs=10_000, seed=1)
    assert measured <= cls.lipschitz + 1e-9


def test_sine_predictor_support_restricted_lipschitz():
    y_min = 0.3
    declared = SineSingletonClass.lipschitz_on(y_min)
    assert declared == pytest.approx(1.0 / y_min ** 2)

    def sampler(rng):
        return [rng.uniform(0, 1), rng.uniform(y_min, 1.0)]

    measured = measured_lipschitz(
        lambda p: SinePredictor().predict([p[0]], [p[1]]),
        sampler, pairs=10_000, seed=2)
    assert measured <= declared + 1e-9
    with pytest.raises(DomainError):
        SineSingletonClass.lipschitz_on(0.0)


def test_threshold_witness_sets_are_monotone():
    # enlarging the candidate set never lowers the supremum estimate
    rng = np.random.default_rng(10)
    cls = SmoothedHyperplaneClass(dim=3, epsilon=0.02)
    xs = np.sort(rng.uniform(-1, 1, size=6))
    points = np.column_stack([xs, 0.5 * xs + 0.1, -0.2 * xs])
    rising = cls.sup_oracle(points, mode="collinear", polarity="rising")
    both = cls.sup_oracle(points, mode="collinear", polarity="both")
    sigma = rng.standard_normal((200, 6))
    assert np.all(both.batch(sigma) >= rising.batch(sigma) - 1e-12)


def test_pattern_members_margin_certificate():
    cls = SmoothedHyperplaneClass(dim=4, epsilon=0.1)
    points = np.column_stack([np.array([0.3, -0.7, 0.2]), np.eye(3)])
    members = cls.pattern_members(points)
    assert members is not None and len(members) == 8
    values = np.array([[m.value(p) for p in points] for m in members])
    assert np.allclose(np.abs(values), 1.0)   # every pattern hit exactly


def test_unsupported_oracles_raise():
    with pytest.raises(UnsupportedClassError):
        PolynomialClass(2, 2).sup_oracle(np.array([1.0]))
    with pytest.raises(UnsupportedClassError):
        ComposedSineClass().sup_oracle(None)
    with pytest.raises(DomainError):
        SmoothedHyperplaneClass(dim=2, epsilon=0.0)


def test_sign_complete_oracle_groups_repeated_points():
    # copies of one point share a value, so their sigmas add before |.|
    oracle = SignCompleteClass(bound=2.0).sup_oracle(np.zeros((2, 1)))
    assert oracle.size == 2
    assert oracle.witness(np.array([0.5, -1.5])).value == 2.0
    points = np.array([0.1, 0.2, 0.1])
    assert SignCompleteClass().closed_form_gaussian(points) == pytest.approx(
        (1.0 + math.sqrt(2.0)) * math.sqrt(2.0 / math.pi))
    assert SignCompleteClass().closed_form_rademacher(points) == 2.0
