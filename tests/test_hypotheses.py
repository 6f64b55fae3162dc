"""Hypothesis classes: evaluation, sub-oracles, and batch sup oracles."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modalgap import shatter
from modalgap.analysis import _representation_samples
from modalgap.complexity import approximate_realizability
from modalgap.core import (ABSOLUTE, CLIPPED_ABS, Block, DegenerateDataError,
                           DomainError, MultiSample, SeedSpec,
                           SingularityError, UnsupportedClassError, loss_eval)
from modalgap.erm import _stage1
from modalgap.hypotheses import (BooleanMapClass, ComposedSineClass,
                                 ScalingClass, ScalingConnection,
                                 SignCompleteClass, SinePredictor,
                                 SineSingletonClass, SmoothedHyperplaneClass,
                                 TabulatedPredictor, fit_scaling_lad,
                                 fit_scaling_lad_exact)
from modalgap.shatter import construct


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
    report = approximate_realizability(cls, [0, 0, 1], [0, 0, 1])
    assert report.witness.table == (0, 1) and report.residuals.sum() == 0.0
    report = approximate_realizability(cls, [0, 0], [0, 1])
    assert report.residuals.sum() == 1.0   # any table errs once; R = 1/2
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        xs = rng.integers(0, 2, size=n)
        ys = rng.integers(0, 2, size=n)
        best = approximate_realizability(cls, xs, ys).residuals.sum()
        exhaustive = min(
            sum(abs((t1 if x else t0) - y) for x, y in zip(xs, ys))
            for t0 in (0, 1) for t1 in (0, 1))
        assert best == exhaustive


def scaling_connection_reference(xs, ys, signed):
    """The scaling connection fit as it stood on its own: the weighted-median
    LAD theta and the residuals |theta x - y|."""
    theta = fit_scaling_lad(xs, ys, signed=signed)
    return ScalingConnection(theta), np.abs(theta * xs - ys)


def boolean_connection_reference(xs, ys):
    """The boolean connection fit as it stood on its own: the four tables in
    lexicographic order, where only a strictly smaller total residual wins."""
    best = None
    for table in ((0, 0), (0, 1), (1, 0), (1, 1)):
        residuals = np.abs(np.where(xs >= 0.5, float(table[1]), float(table[0])) - ys)
        if best is None or float(residuals.sum()) < best[0]:
            best = (float(residuals.sum()), table, residuals)
    return best[1], best[2]


def _connection_fits(cls, xs, ys):
    """(witness, value, residuals) of approximate_realizability, and
    (witness, value) of stage 1 on the same pairs as one unlabeled block."""
    report = approximate_realizability(cls, xs, ys)
    witness, value, provenance = _stage1(
        MultiSample(tasks=(Block(x=xs, y=ys),)), cls)
    assert provenance == {"stage1": "float"}
    return report, witness, value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 12), signed=st.booleans())
def test_scaling_realizability_and_stage1_are_the_lad_fit(data, n, signed):
    # x and y from a few values, so that ratios tie, beside arbitrary floats
    value = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -0.5, 0.3]),
                      st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 1e-3))
    xs = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
    ys = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
    cls = ScalingClass(signed=signed)
    if not np.any(xs != 0.0):
        with pytest.raises(DegenerateDataError):
            approximate_realizability(cls, xs, ys)
        return
    member, residuals = scaling_connection_reference(xs, ys, signed)
    report, witness, value = _connection_fits(cls, xs, ys)
    assert report.witness == witness == member
    assert np.array_equal(report.residuals, residuals)
    assert report.value == value == float(np.mean(residuals))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.sampled_from([0.0, 1.0, 0.25, 0.75]),
                               st.sampled_from([0.0, 1.0])),
                     min_size=1, max_size=16))
def test_boolean_realizability_and_stage1_are_the_table_enumeration(rows):
    # 0/1 labels; a tie between tables goes to the first in lexicographic order
    xs, ys = (np.array(col) for col in zip(*rows))
    table, residuals = boolean_connection_reference(xs, ys)
    report, witness, value = _connection_fits(BooleanMapClass(), xs, ys)
    assert report.witness.table == witness.table == table
    assert np.array_equal(report.residuals, residuals)
    assert report.value == value == float(np.mean(residuals))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.sampled_from([0.0, 1.0]),
                               st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 1 / 3])),
                     min_size=1, max_size=8))
def test_boolean_realizability_takes_the_first_least_mean(rows):
    # labels outside {0, 1}: tables are compared by their mean residual, so
    # the value is the deleted fit's mean, and a tie on means (totals may
    # still differ in the last bit) goes to the earlier table
    xs, ys = (np.array(col) for col in zip(*rows))
    means = [float(np.mean(np.abs(np.where(xs >= 0.5, float(t1), float(t0)) - ys)))
             for t0, t1 in ((0, 0), (0, 1), (1, 0), (1, 1))]
    first = ((0, 0), (0, 1), (1, 0), (1, 1))[means.index(min(means))]
    _, residuals = boolean_connection_reference(xs, ys)
    report, witness, value = _connection_fits(BooleanMapClass(), xs, ys)
    assert report.witness.table == witness.table == first
    assert report.value == value == min(means) == float(np.mean(residuals))


def test_boolean_tie_on_means_goes_to_the_earlier_table():
    # totals 1.9000000000000001 for (1, 0) and 1.9 for (1, 1): one mean 0.38
    xs = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    ys = np.array([0.9, 0.7, 0.7, 0.3, 0.5])
    assert boolean_connection_reference(xs, ys)[0] == (1, 1)
    report = approximate_realizability(BooleanMapClass(), xs, ys)
    assert report.witness.table == (1, 0) and report.value == 0.38


def test_connection_fits_refuse_other_classes_and_wide_y():
    xs = np.array([0.5, 1.0])
    ys = np.array([[0.1, 0.2], [0.3, 0.4]])
    for cls in (ScalingClass(), BooleanMapClass()):
        with pytest.raises(DomainError, match="2 columns"):
            approximate_realizability(cls, xs, ys)
        with pytest.raises(DomainError, match="2 columns"):
            _stage1(MultiSample(tasks=(Block(x=xs, y=ys),)), cls)
    with pytest.raises(UnsupportedClassError):
        approximate_realizability(SignCompleteClass(), xs, ys[:, 0])


def test_sup_witness_scaling():
    # sup over theta in (0, 1] of theta * s: s when s > 0, else the limit 0
    oracle = ScalingClass().sup_oracle(np.array([1.0]))
    assert oracle.batch(np.array([[2.0], [-2.0]])).tolist() == [2.0, 0.0]


def witness_reference(indices, row):
    """The per-draw witness value: sum the sigmas of each lattice index in
    draw order, realize the sign pattern of the sums, and take sums . sin,
    its products added left to right."""
    unique = sorted(set(indices))
    sums = np.zeros(len(unique))
    np.add.at(sums, [unique.index(i) for i in indices], row)
    signs = [1 if s >= 0 else -1 for s in sums]
    cert = construct(signs, convention="sine-sign", indices=unique)
    value = 0.0
    for s, sine in zip(sums.tolist(), cert.sine_values()):
        value += s * sine
    return value, sums, cert


def _zero_lowest_group(indices, sigma):
    """Make the group sum of the lowest index exactly 0 in the first two
    rows: zeros in row 0; x and -x in row 1, or -0.0 for a single copy."""
    lowest = [k for k, i in enumerate(indices) if i == min(indices)]
    sigma[:2, lowest] = 0.0
    if len(sigma) > 1:
        sigma[1, lowest[:2]] = (0.75, -0.75) if len(lowest) > 1 else -0.0


def test_sup_witness_composed_sine_lower_bound():
    # each value is sigma . sin on the certificate of sigma's sign pattern,
    # which is a feasible member: the value is a certified lower bound.
    # Repeated indices sum their sigmas first; groups of three or more are
    # where another order of addition would show in the last bit.  Patterns
    # are keyed by packed bits: 9 and 16 distinct indices take 2 bytes, 17
    # take 3, and 60..76 is past int64.  A group summing to exactly 0 takes
    # the sign +1, which moves the sines of every higher index.
    rng = np.random.default_rng(8)
    for indices in ([1, 2], [1, 2, 3, 4, 5], list(range(1, 10)), [3, 1, 2],
                    [2, 5, 2, 1], [4, 1, 4, 2, 4, 3, 1], [6, 6, 6, 6, 6],
                    [1, 9, 9, 2, 9, 2, 5, 9, 1, 5, 5], list(range(1, 17)),
                    list(range(17, 0, -1)), list(range(60, 77))):
        for rows in (1, 3, 200):
            sigma = rng.standard_normal((rows, len(indices)))
            _zero_lowest_group(indices, sigma)
            values = ComposedSineClass().sup_oracle(indices).batch(sigma)
            assert values.shape == (rows,)
            for r, (row, value) in enumerate(zip(sigma, values)):
                expected, sums, cert = witness_reference(indices, row)
                assert cert.verify()
                assert 0.0 < cert.theta <= 1.0
                assert value == expected
                assert value >= 0.5 * np.abs(sums).sum()
                if r < 2:
                    assert sums[0] == 0.0 and cert.signs[0] == 1


def test_sup_witness_builds_no_fraction(monkeypatch):
    # the oracle reads only the stored sines; the exact views stay unbuilt
    def refuse(*args, **kwargs):
        raise AssertionError("the witness oracle built an exact view")
    monkeypatch.setattr(shatter, "Fraction", refuse)
    monkeypatch.setattr(shatter, "IndexCertificate", refuse)
    sigma = np.random.default_rng(10).standard_normal((50, 4))
    assert ComposedSineClass().sup_oracle([1, 2, 3, 2]).batch(sigma).shape == (50,)


def test_sup_witness_feasibility_vs_enumeration():
    # the batch value is the exact enumeration over the finite class
    rng = np.random.default_rng(9)
    cls = BooleanMapClass()
    xs = rng.integers(0, 2, size=6).astype(float)
    sigma = rng.standard_normal((50, 6))
    values = cls.sup_oracle(xs).batch(sigma)
    for row, value in zip(sigma, values):
        enumerated = [float(row @ m.map(xs)) for m in cls.members()]
        assert value == pytest.approx(max(enumerated), abs=1e-12)


def measured_lipschitz(predict, support_sampler, pairs: int = 10**4,
                       seed: int = 0) -> float:
    """Largest difference quotient of a predictor over random support pairs;
    the declared class constant must upper-bound it."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        p1 = support_sampler(rng)
        p2 = support_sampler(rng)
        gap = np.linalg.norm(np.asarray(p1, float) - np.asarray(p2, float))
        if gap == 0:
            continue
        quotient = abs(predict(p1) - predict(p2)) / gap
        worst = max(worst, quotient)
    return worst


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


def hyperplane_reference(cls, points, mode):
    """The member-by-member value rows: one HyperplanePredictor per
    threshold cut or per certified sign pattern, scored point by point."""
    n = len(points)
    if mode == "collinear":
        u = cls._collinear_direction(points)
        spots = np.sort([math.fsum(u * p) for p in points])
        cuts = np.concatenate([[spots[0] - 1.0], (spots[:-1] + spots[1:]) / 2.0,
                               [spots[-1] + 1.0]])
        members = [cls.member(u, c) for c in cuts]
    else:
        members = []
        for pattern in itertools.product((-1.0, 1.0), repeat=n):
            p = np.array(pattern)
            v = np.linalg.lstsq(points, p / math.sqrt(n), rcond=None)[0]
            margins = points @ v
            assert np.all(np.sign(margins) == p)
            assert np.min(np.abs(margins)) >= cls.epsilon
            members.append(cls.member(v, 0.0))
    return np.array([[m.value(p) for p in points] for m in members])


def member_sup(values, sigma):
    """Per row of sigma, the largest sigma . f over the value rows f, each
    member's products added left to right."""
    totals = np.zeros((len(sigma), len(values)))
    for i in range(sigma.shape[1]):
        totals += sigma[:, i:i + 1] * values[:, i]
    return totals.max(axis=1)


def test_pattern_members_margin_certificate():
    cls = SmoothedHyperplaneClass(dim=4, epsilon=0.1)
    points = np.column_stack([np.array([0.3, -0.7, 0.2]), np.eye(3)])
    oracle = cls.sup_oracle(points, mode="patterns")
    assert oracle.exact and oracle.size == 3
    # every pattern is certified, and its member's values are the pattern
    # itself, in the order of itertools.product
    reference = hyperplane_reference(cls, points, "patterns")
    patterns = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    assert np.array_equal(reference, patterns)
    # ties, signed zeros, and terms that vanish beside a large one
    sigma = np.array([[0.5, -0.5, 0.5], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0],
                      [1e16, 1.0, -1.0], [1.0, -1.0, 1e16], [0.1, 0.2, 0.3],
                      [-3.0, 5e-324, -2.5]])
    values = oracle.batch(sigma)
    assert np.array_equal(values, member_sup(reference, sigma))
    assert values[3] == 1e16 and values[4] == 1e16 + 2.0


def _sigma_rows(n):
    """Rows of n sigmas with ties, signed zeros, subnormals and magnitudes
    from 1e-300 to 1e300; a row's sum of |sigma| stays finite."""
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 5e-324]),
                      st.floats(-1e300, 1e300, allow_nan=False),
                      st.floats(-10.0, 10.0, allow_nan=False))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1,
                    max_size=6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.one_of(st.tuples(st.just("patterns"), st.integers(1, 10)),
                      st.tuples(st.just("collinear"), st.integers(1, 12))),
       wide=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_hyperplane_oracle_matches_member_reference(case, wide, seed, data):
    # the representation comparison's samples, with k = n or k = 16
    mode, n = case
    k = 16 if wide else n
    collinear, adversarial = _representation_samples(n, k, SeedSpec(seed))
    points = collinear if mode == "collinear" else adversarial
    cls = SmoothedHyperplaneClass(1 + k, 1.0 / (10.0 * math.sqrt(k)))
    oracle = cls.sup_oracle(points, mode=mode)
    assert oracle.exact == (mode == "patterns")
    sigma = np.array(data.draw(_sigma_rows(n)))
    values = oracle.batch(sigma)
    reference = hyperplane_reference(cls, points, mode)
    # the bits of the best member, its products added in the same order
    assert np.array_equal(values, member_sup(reference, sigma))
    if mode == "collinear":
        # the threshold members' values bit for bit
        assert np.array_equal(oracle.values, reference)


def test_pattern_oracle_memory_stays_linear_in_n():
    # at n = 12 the 4,096 patterns are certified in blocks and none is kept:
    # the build and one 4,096-row batch stay under 1 MB
    _, adversarial = _representation_samples(12, 16, SeedSpec(3))
    cls = SmoothedHyperplaneClass(17, 1.0 / 40.0)
    sigma = np.random.default_rng(4).standard_normal((4096, 12))
    tracemalloc.start()
    try:
        values = cls.sup_oracle(adversarial, mode="patterns").batch(sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert values.shape == (4096,)


def test_pattern_oracle_takes_lstsq_normals_of_norm_one():
    # a pattern orthogonal to x has a least-squares normal of exact norm 1;
    # on this sample lstsq returns two of them as 1 + 4.4e-16, which the
    # oracle must pass by member()'s own unit-ball test
    _, adversarial = _representation_samples(12, 16, SeedSpec(169).child("op", 121))
    cls = SmoothedHyperplaneClass(17, 1.0 / 40.0)
    normals = [np.linalg.lstsq(adversarial, np.array(p) / math.sqrt(12),
                               rcond=None)[0]
               for p in itertools.product((-1.0, 1.0), repeat=12)]
    longest = max(normals, key=np.linalg.norm)
    assert np.linalg.norm(longest) > 1.0
    cls.member(longest, 0.0)
    oracle = cls.sup_oracle(adversarial, mode="patterns")
    sigma = np.random.default_rng(5).standard_normal((8, 12))
    assert np.array_equal(oracle.batch(sigma),
                          member_sup(np.array(list(itertools.product(
                              (-1.0, 1.0), repeat=12))), sigma))


def test_unsupported_oracles_raise():
    cls = SmoothedHyperplaneClass(dim=2, epsilon=0.1)
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(UnsupportedClassError):
        # the all-plus pattern has no margin at the origin
        cls.sup_oracle(points, mode="patterns")
    with pytest.raises(DomainError):
        cls.sup_oracle(points, mode="collinear")
    with pytest.raises(DomainError):
        cls.sup_oracle(points[1:2], mode="auto")
    with pytest.raises(DomainError):
        SmoothedHyperplaneClass(dim=2, epsilon=0.0)


def test_pattern_oracle_checks_every_block():
    # ten points, the first two at cosine 1/2: a pattern with p1 != p2 needs
    # a normal of norm sqrt(0.8 + 0.2/(1 - 1/2)) > 1.  Those patterns are
    # the middle half of the 1,024, so every failing pattern lies past the
    # first block and before the last
    points = np.eye(10, 11)
    points[1, :2] = (0.5, math.sqrt(0.75))
    cls = SmoothedHyperplaneClass(dim=11, epsilon=0.01)
    with pytest.raises(UnsupportedClassError):
        cls.sup_oracle(points, mode="patterns")
    points[1, :2] = (0.0, 1.0)
    assert cls.sup_oracle(points, mode="patterns").exact


def test_tabulated_predictor_first_copy_wins_and_zero_off_table():
    key = TabulatedPredictor._key
    member = TabulatedPredictor((key(0.1, 0.5) + (0.3,), key(0.1, 0.5) + (-0.7,),
                                 key([0.2], [0.5]) + (-1.0,)))
    assert member.predict(0.1, 0.5) == 0.3
    assert member.predict([0.2], np.array([0.5])) == -1.0
    for x, y in [(0.1, 0.7), (0.3, 0.5), (0.2, 0.1)]:
        assert member.predict(x, y) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.sampled_from([0.1, 0.2, 0.3]),
                               st.sampled_from([0.5, 0.7]),
                               st.floats(-3.0, 3.0)), min_size=1, max_size=12),
       bound=st.sampled_from([0.5, 1.0, 2.0]),
       loss=st.sampled_from([ABSOLUTE, CLIPPED_ABS]))
def test_sign_complete_stage2_objective_is_the_row_mean(rows, bound, loss):
    xs, ys, zs = (list(col) for col in zip(*rows))
    block = Block(x=xs, y=ys, z=zs)
    member, objective = SignCompleteClass(bound=bound).fit_predictor(block, loss)
    # the member memorizes the clipped label of the first copy of each point
    first = {}
    for x, y, z in rows:
        first.setdefault((x, y), min(max(z, -bound), bound))
    assert [member.predict(x, y) for x, y, _ in rows] == [
        first[(x, y)] for x, y, _ in rows]
    brute = math.fsum(loss_eval(loss, first[(x, y)], z) for x, y, z in rows)
    assert objective == pytest.approx(brute / len(rows), rel=1e-12, abs=1e-15)
    assert member.predict(0.4, 0.5) == 0.0


def test_sign_complete_oracle_sums_copies_in_draw_order():
    # groups of three or more copies, where a 0/1 matrix product may add in
    # another order: each value has the bits of its row's copies added one
    # at a time in draw order
    rng = np.random.default_rng(19)
    for slots in ([0, 0, 0], [1, 0, 1, 2, 1, 0, 1], [3] * 7 + [0, 1, 2] + [3] * 5,
                  [k % 4 for k in range(23)]):
        points = np.array(slots, dtype=float)
        sigma = rng.standard_normal((100, len(slots)))
        values = SignCompleteClass(bound=1.5).sup_oracle(points).batch(sigma)
        groups = sorted(set(slots), key=slots.index)
        for row, value in zip(sigma, values):
            sums = np.zeros(len(groups))
            np.add.at(sums, [groups.index(k) for k in slots], row)
            assert value == 1.5 * np.abs(sums).sum()


def test_sign_complete_oracle_groups_repeated_points():
    # copies of one point share a value, so their sigmas add before |.|
    oracle = SignCompleteClass(bound=2.0).sup_oracle(np.zeros((2, 1)))
    assert oracle.size == 2
    assert oracle.batch(np.array([[0.5, -1.5]])).tolist() == [2.0]
    points = np.array([0.1, 0.2, 0.1])
    assert SignCompleteClass().closed_form_gaussian(points) == pytest.approx(
        (1.0 + math.sqrt(2.0)) * math.sqrt(2.0 / math.pi))
    assert SignCompleteClass().closed_form_rademacher(points) == 2.0
