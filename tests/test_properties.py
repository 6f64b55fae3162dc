"""Differential properties: closed forms, the shared ERM and the integer
shattering path against brute force, and the columnar sample format.

The sign-complete oracle is checked against the 2^n vertex enumeration it
replaces, also on samples with repeated points, Monte Carlo scaling
averages against their closed form, and the population risk
(the sample ERM on the uniform support) against a direct minimization
written out here.  Shattering certificates, built in integers, are checked
against Fraction range reduction written out here.  Samples survive the CSV
round trip with their hash and arrays, instances survive the JSON round
trip with their draws, seed specs survive JSON text with their streams, and
blocks reject malformed columns.  The exact mean loss is checked against
the sum of one Fraction per loss, and the separability report against
Fraction arithmetic on every row.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modalgap.analysis import best_unimodal_population_risk, separability_check
from modalgap.complexity import gaussian_average, gaussian_average_closed_form
from modalgap.core import (ABSOLUTE, CLIPPED_ABS, Block, DomainError, Loss,
                           InvalidInputError, SeedSpec, draw_labeled,
                           draw_unlabeled, exact_mean, loss_eval, mean_loss,
                           sample_from_csv, sample_hash, sample_to_csv)
from modalgap.hypotheses import BooleanMapClass, ScalingClass, SignCompleteClass
from modalgap.instances import (THREE_PARAM_RULES, instance_from_json,
                                instance_to_json, make_boolean,
                                make_separable_from_fixed_points, make_sine,
                                make_sine_shattered, make_subspace,
                                make_three_param)
from modalgap.shatter import (CONVENTIONS, TWO_PI, certificate_from_json,
                              certificate_to_json, construct, frac_exact,
                              lattice_multiplier, lattice_sine)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(n=st.integers(1, 10), bound=st.floats(0.01, 100.0),
       seed=st.integers(0, 2**32 - 1))
def test_sign_complete_closed_form_matches_vertex_enumeration(n, bound, seed):
    sigma = np.random.default_rng(seed).standard_normal((8, n))
    oracle = SignCompleteClass(bound=bound).sup_oracle(np.arange(float(n)))
    patterns = bound * np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    brute = (sigma @ patterns.T).max(axis=1)
    assert np.allclose(oracle.batch(sigma), brute, rtol=1e-12, atol=0.0)
    for row, expected in zip(sigma, brute):
        # one draw at a time gives the value of its row in the batch
        assert oracle.batch(row[None, :])[0] == pytest.approx(expected, rel=1e-12)


def test_sign_complete_estimate_beyond_twenty_points():
    cls = SignCompleteClass()
    points = np.linspace(0.0, 1.0, 21)
    est = gaussian_average(cls, points, draws=4000, seed=SeedSpec(21))
    assert est.mode == "enumeration-exact"
    assert est.agrees_with(gaussian_average_closed_form(cls, points))
    # 21 copies of one point share one value: the supremum is |sum sigma|,
    # the copies added in draw order
    sigma = np.random.default_rng(21).standard_normal((4, 21))
    in_draw_order = np.zeros(4)
    for column in sigma.T:
        in_draw_order += column
    assert np.array_equal(cls.sup_oracle(np.zeros(21)).batch(sigma),
                          np.abs(in_draw_order))


# a point of the scaling class's domain: (0, 1], or (-1, 0) u (0, 1) signed.
# Below about 1e-154 the squares underflow and the Monte Carlo stderr reads 0.
_UNIT = st.floats(1e-150, 1.0)


@PROPERTY
@given(signed=st.booleans(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_scaling_monte_carlo_within_four_stderr_of_the_closed_form(signed, data,
                                                                   seed):
    """Gaussian Monte Carlo on random scaling samples, repeated points
    included, against norm(x) / sqrt(2 pi) (or norm(x) sqrt(2 / pi)
    signed)."""
    point = (st.builds(lambda x, minus: -x if minus else x,
                       _UNIT.filter(lambda x: x < 1.0), st.booleans())
             if signed else _UNIT)
    distinct = data.draw(st.lists(point, min_size=1, max_size=8))
    xs = np.array(data.draw(st.lists(st.sampled_from(distinct), min_size=1,
                                     max_size=12)))
    cls = ScalingClass(signed=signed)
    est = gaussian_average(cls, xs, draws=2000, seed=SeedSpec(seed))
    assert est.mode == "enumeration-exact"
    assert est.agrees_with(gaussian_average_closed_form(cls, xs))


@PROPERTY
@given(slots=st.lists(st.integers(0, 5), min_size=1, max_size=10),
       bound=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
def test_sign_complete_grouped_supremum_matches_vertex_enumeration(slots, bound,
                                                                    seed):
    points = np.array([[0.5 * k, -float(k)] for k in slots])
    distinct = sorted(set(slots))
    sigma = np.random.default_rng(seed).standard_normal((8, len(slots)))
    # a vertex is a value in {-bound, bound} per distinct point; copies of a
    # point read the value of that point
    vertices = bound * np.array(list(itertools.product((-1.0, 1.0),
                                                       repeat=len(distinct))))
    per_copy = vertices[:, [distinct.index(k) for k in slots]]
    brute = (sigma @ per_copy.T).max(axis=1)
    oracle = SignCompleteClass(bound=bound).sup_oracle(points)
    assert oracle.size == len(slots)
    assert np.allclose(oracle.batch(sigma), brute, rtol=1e-12, atol=1e-12)
    for row, expected in zip(sigma, brute):
        assert oracle.batch(row[None, :])[0] == pytest.approx(expected, rel=1e-12,
                                                              abs=1e-12)


@PROPERTY
@given(slots=st.lists(st.integers(0, 3), min_size=1, max_size=10),
       bound=st.floats(0.01, 100.0))
def test_sign_complete_closed_forms_on_repeated_points(slots, bound):
    # E sup over all 2^n sign draws, enumerated exactly with Fractions
    counts = [slots.count(k) for k in sorted(set(slots))]
    total = Fraction(0)
    for signs in itertools.product((-1, 1), repeat=len(slots)):
        total += sum(abs(sum(s for s, k in zip(signs, slots) if k == g))
                     for g in sorted(set(slots)))
    expected = float(total / 2 ** len(slots)) * bound
    closed = SignCompleteClass(bound=bound).closed_form_rademacher(
        np.array(slots, dtype=float))
    assert closed == pytest.approx(expected, rel=1e-12)
    assert SignCompleteClass(bound=bound).closed_form_gaussian(
        np.array(slots, dtype=float)) == pytest.approx(
            bound * math.sqrt(2.0 / math.pi) * sum(math.sqrt(c) for c in counts),
            rel=1e-12)


@PROPERTY
@given(rows=st.lists(st.tuples(st.integers(0, 3), st.floats(-2.0, 2.0)),
                     min_size=1, max_size=8),
       bound=st.floats(0.1, 1.5), kind=st.sampled_from(["absolute", "clipped-absolute"]))
def test_sign_complete_population_risk_matches_value_scan(rows, bound, kind):
    loss = Loss(kind)
    xs = np.array([float(x) for x, _ in rows])
    zs = np.array([z for _, z in rows])
    solution = SignCompleteClass(bound=bound).fit_x(xs, zs, loss, grid_points=1)
    assert solution.path == "enumeration-exact"
    risk, member = solution.objective, solution.member
    preds = member.map(xs)
    assert np.all(np.abs(preds) <= bound)
    assert sum(loss_eval(loss, p, z) for p, z in zip(preds, zs)) / len(xs) == \
        pytest.approx(risk, rel=1e-12, abs=1e-12)
    # no value on a fine scan of [-bound, bound] does better on any group
    grid = np.linspace(-bound, bound, 801)
    scanned = 0.0
    for x in set(xs.tolist()):
        group = zs[xs == x]
        scanned += min(sum(loss_eval(loss, v, z) for z in group) for v in grid)
    assert risk <= scanned / len(xs) + 1e-12


def _increasing_indices(depth):
    return st.lists(st.integers(1, depth), min_size=1, max_size=depth,
                     unique=True).map(sorted)


def _fraction_frac(c, a):
    p = c * a
    return p - math.floor(p)


def _check_against_fraction_reduction(signs, convention, indices):
    cert = construct(signs, convention=convention, indices=indices)
    assert cert.verify()
    flip = 1 if convention == "interval" else -1
    c = Fraction(1, 2) + sum((1 + Fraction(flip * s, 4)) * 16 ** i
                             for i, s in zip(indices, signs))
    assert cert.c == c
    assert [e.index for e in cert.entries] == list(indices)
    for s, entry in zip(signs, cert.entries):
        a = Fraction(16 ** entry.index + 1, 16 ** entry.index)
        assert entry.multiplier == a
        assert entry.frac == _fraction_frac(c, a)
        assert entry.sine == math.sin(TWO_PI * float(entry.frac))
        assert entry.in_window
        assert (entry.sine > 0) == (s == -flip)
        assert lattice_sine(c, entry.index) == entry.sine
    # the stored floats, the integer 4c and the JSON round trip
    assert [x.hex() for x in cert.sine_values()] == \
        [e.sine.hex() for e in cert.entries]
    assert cert.c == Fraction(cert.c4, 4)
    assert certificate_from_json(certificate_to_json(cert)) == cert


@PROPERTY
@given(indices=_increasing_indices(64), convention=st.sampled_from(CONVENTIONS),
       data=st.data())
def test_integer_certificate_matches_fraction_reduction(indices, convention,
                                                        data):
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(indices),
                               max_size=len(indices)))
    _check_against_fraction_reduction(signs, convention, indices)


def test_alternating_conventions_on_one_index_set():
    # construct caches a table per index set and convention; alternating the
    # conventions must never hand one the other's table
    rng = np.random.default_rng(19)
    indices = [2, 3, 5, 8, 13, 21, 34, 55]
    for k in range(8):
        signs = rng.choice((-1, 1), size=len(indices)).tolist()
        _check_against_fraction_reduction(signs, CONVENTIONS[k % 2], indices)


_RATIONAL = st.fractions(min_value=0, max_denominator=10**30)


@PROPERTY
@given(c=_RATIONAL, a=_RATIONAL, index=st.integers(1, 64))
def test_integer_frac_exact_matches_fraction_expression(c, a, index):
    assert frac_exact(c, a) == _fraction_frac(c, a)
    assert 0 <= frac_exact(c, a) < 1
    expected = math.sin(TWO_PI * float(_fraction_frac(c, lattice_multiplier(index))))
    assert lattice_sine(c, index) == expected


def _clamped(theta, signed):
    if signed:
        theta = min(max(theta, -1.0 + 1e-12), 1.0 - 1e-12)
        return 1e-12 if theta == 0.0 else theta
    return min(max(theta, 1e-12), 1.0)


@PROPERTY
@given(theta=st.floats(0.05, 1.0), support=st.integers(1, 12),
       signed=st.booleans())
def test_exact_lad_population_risk_matches_breakpoint_scan(theta, support, signed):
    inst = make_sine(theta, support=support)
    value, member, path = best_unimodal_population_risk(
        inst, ScalingClass(signed=signed), ABSOLUTE)
    assert path == "exact-lad"
    # the law is uniform over the rows of the support block
    support = inst.support_enumeration(0)
    xs, zs = support.x[:, 0], support.z
    probs = np.full(len(support), float(Fraction(1, len(support))))
    # the risk is convex and piecewise linear in theta, so its minimum over
    # the clamped domain sits at a clamped breakpoint z_i / x_i
    brute = min(float(np.sum(probs * np.abs(_clamped(r, signed) * xs - zs)))
                for r in zs / xs)
    assert value == pytest.approx(brute, rel=1e-12, abs=1e-11)
    assert float(np.sum(probs * np.abs(member.theta * xs - zs))) == \
        pytest.approx(value, rel=1e-12)


_TABLES = ((0, 0), (0, 1), (1, 0), (1, 1))


@PROPERTY
@given(tables=st.lists(st.sampled_from(_TABLES), min_size=1, max_size=3),
       data=st.data())
def test_boolean_population_risk_matches_exact_table_enumeration(tables, data):
    inst = make_boolean(tables)
    task = data.draw(st.integers(0, len(tables) - 1))
    value, member, path = best_unimodal_population_risk(
        inst, BooleanMapClass(), CLIPPED_ABS, task=task)
    assert path == "enumeration-exact"
    support = inst.support_enumeration(task)
    p = Fraction(1, len(support))
    risks = {table: sum(p * abs(table[int(x)] - Fraction(z))
                        for x, z in zip(support.x[:, 0], support.z))
             for table in _TABLES}
    assert Fraction(value) == min(risks.values())
    assert risks[member.table] == min(risks.values())


FAMILIES = {
    "sine-continuous": lambda: make_sine(0.37),
    "sine-lattice": lambda: make_sine(0.7, support=9),
    "sine-witness": lambda: make_sine_shattered([1, -1, -1, 1, 1, -1]),
    "boolean": lambda: make_boolean(((0, 1), (1, 0), (1, 1))),
    "separable": lambda: make_separable_from_fixed_points(
        [0, Fraction(3, 10), Fraction(7, 10), 1]),
    "three-param": lambda: make_three_param("sine-of-sum"),
    "subspace": lambda: make_subspace([0.6, 0.0, 0.8], [0.1, 0.0, 0.2]),
}


@PROPERTY
@given(family=st.sampled_from(sorted(FAMILIES)), T=st.integers(1, 3),
       n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       labeled=st.booleans())
def test_csv_round_trip_keeps_hash_and_arrays(family, T, n, seed, labeled):
    instance = FAMILIES[family]()
    T = getattr(instance, "task_count", None) or T
    draw = draw_labeled if labeled else draw_unlabeled
    sample = draw(instance, T, n, SeedSpec(seed))
    back = sample_from_csv(sample_to_csv(sample))
    assert sample_hash(back) == sample_hash(sample)
    assert back.labeled == labeled and (back.T, back.n) == (sample.T, sample.n)
    for a, b in zip(sample.tasks, back.tasks):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert (a.z is None) == (b.z is None)
        assert a.z is None or np.array_equal(a.z, b.z)


def _unit_ball(k):
    return st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k).map(
        lambda v: np.array(v) / max(1.0, float(np.linalg.norm(v))))


_THETA = st.floats(0.01, 1.0)
_SIGNS = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=6)
_TRUTH_TABLES = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                         min_size=1, max_size=3)
_INTERIOR = st.sets(st.fractions(0, 1, max_denominator=12), max_size=4).map(
    lambda ps: sorted(p for p in ps if 0 < p < 1))

INSTANCES = st.one_of(
    _THETA.map(make_sine),
    st.builds(lambda theta, m: make_sine(theta, support=m), _THETA,
              st.integers(1, 12)),
    _SIGNS.map(make_sine_shattered),
    _TRUTH_TABLES.map(make_boolean),
    _INTERIOR.map(lambda ps: make_separable_from_fixed_points([0, *ps, 1])),
    st.sampled_from(THREE_PARAM_RULES).map(make_three_param),
    st.integers(1, 4).flatmap(lambda k: st.builds(make_subspace, _unit_ball(k),
                                                  _unit_ball(k))),
)


@PROPERTY
@given(instance=INSTANCES, seed=st.integers(0, 2**32 - 1))
def test_instance_json_round_trip_keeps_json_and_draws(instance, seed):
    data = instance_to_json(instance)
    back = instance_from_json(json.loads(json.dumps(data)))
    assert instance_to_json(back) == data
    T = getattr(instance, "task_count", None) or 2
    for draw in (draw_labeled, draw_unlabeled):
        assert (sample_hash(draw(back, T, 5, SeedSpec(seed)))
                == sample_hash(draw(instance, T, 5, SeedSpec(seed))))


# roots below 0 and above 2^64 are folded by the mask; labels hash by type
_ROOTS = st.one_of(st.integers(-2**80, -1), st.integers(0, 2**64 - 1),
                   st.integers(2**64, 2**80))
_LABELS = st.one_of(st.text(max_size=6), st.integers(-2**70, 2**70),
                    st.booleans())


@PROPERTY
@given(root=_ROOTS, path=st.lists(_LABELS, max_size=4))
def test_seed_spec_json_text_round_trip_keeps_streams(root, path):
    spec = SeedSpec(root).child(*path)
    back = SeedSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert back == spec
    # True == 1, so equality alone would not see a bool come back an int
    assert [type(b) for b in back.path] == [type(b) for b in spec.path]
    assert (back.generator().random(4).tobytes()
            == spec.generator().random(4).tobytes())


_OTHER_RULES = st.one_of(
    st.fixed_dictionaries({"rule": st.sampled_from(["hyperplane", "other"]),
                           "wx": st.floats(-2.0, 2.0),
                           "wy": st.lists(st.floats(-1.0, 1.0), max_size=2),
                           "offset": st.floats(-1.0, 1.0)}),
    st.sampled_from(["custom", None, {}]),
)


@PROPERTY
@given(rule=_OTHER_RULES)
def test_subspace_refuses_any_other_label_rule(rule):
    data = instance_to_json(make_subspace([0.6], [0.1]))
    assume(rule != data["label_rule"])
    with pytest.raises(DomainError, match="label rule"):
        instance_from_json(dict(data, label_rule=rule))


_COLUMN = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)


@PROPERTY
@given(x=_COLUMN, bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       where=st.sampled_from(["x", "y", "z"]), data=st.data())
def test_block_rejects_non_finite_entries(x, bad, where, data):
    columns = {"x": list(x), "y": list(x), "z": list(x)}
    columns[where][data.draw(st.integers(0, len(x) - 1))] = bad
    with pytest.raises(InvalidInputError):
        Block(**columns)


@PROPERTY
@given(x=_COLUMN, extra=st.integers(1, 3),
       where=st.sampled_from(["y", "z", "support_index"]))
def test_block_rejects_ragged_columns(x, extra, where):
    columns = {"x": list(x), "y": list(x), "z": list(x),
               "support_index": list(range(len(x)))}
    columns[where] = columns[where] + columns[where][:1] * extra
    with pytest.raises(DomainError):
        Block(**columns)


def _fraction_mean(loss, preds, zs):
    """The reference: one Fraction per loss, added in order."""
    losses = [loss_eval(loss, p, z) for p, z in zip(preds, zs)]
    return sum(map(Fraction, losses), Fraction(0)) / len(losses)


_SMALLEST_NORMAL = 2.2250738585072014e-308
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 3 * 5e-324, _SMALLEST_NORMAL / 2,
                _SMALLEST_NORMAL, 0.5, math.nextafter(1.0, 0.0), 1.0,
                math.nextafter(1.0, 2.0), 2.0, 1e300]
# zeros, subnormals, both sides of the clip at 1.0, and mixed exponents
_LOSS_INPUT = st.one_of(st.sampled_from(_EDGE_FLOATS),
                        st.floats(-3.0, 3.0, allow_subnormal=True),
                        st.floats(-1e-300, 1e-300, allow_subnormal=True),
                        st.floats(-1e300, 1e300))


@PROPERTY
@given(pairs=st.lists(st.tuples(_LOSS_INPUT, _LOSS_INPUT), min_size=1,
                      max_size=40),
       kind=st.sampled_from(["clipped-absolute", "absolute"]))
def test_mean_loss_equals_the_fraction_sum(pairs, kind):
    preds, zs = (list(column) for column in zip(*pairs))
    loss = Loss(kind)
    assert mean_loss(loss, preds, np.array(zs)) == _fraction_mean(loss, preds, zs)


@pytest.mark.parametrize("values", [[0.0], [-0.0, 0.0, -0.0], [0.0] * 64,
                                    [0.0] * 63 + [5e-324]])
def test_exact_mean_of_zeros_and_a_near_zero(values):
    mean = exact_mean(np.array(values))
    assert isinstance(mean, Fraction)
    assert mean == sum(map(Fraction, values), Fraction(0)) / len(values)
    with pytest.raises(OverflowError):
        exact_mean(np.array(values + [math.nan]))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=st.integers(2048, 4096), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["clipped-absolute", "absolute"]))
def test_mean_loss_is_exact_where_an_int64_mantissa_sum_overflows(n, seed, kind):
    # every loss in [0.5, 1) shares one exponent, and n mantissas of 53 bits
    # add up past 2**63 once n >= 1024
    rng = np.random.default_rng(seed)
    preds = 1.0 - rng.uniform(0.0, 2.0 ** -20, size=n)
    preds[: n // 2] = math.nextafter(1.0, 0.0)
    zs = np.zeros(n)
    loss = Loss(kind)
    assert len({math.frexp(p)[1] for p in preds.tolist()}) == 1
    assert mean_loss(loss, preds, zs) == _fraction_mean(loss, preds.tolist(),
                                                        zs.tolist())


@PROPERTY
@given(pairs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                      min_size=1, max_size=8),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       side=st.sampled_from(["prediction", "label"]), data=st.data())
def test_mean_loss_rejects_non_finite_inputs(pairs, bad, side, data):
    preds, zs = (list(column) for column in zip(*pairs))
    column = preds if side == "prediction" else zs
    column[data.draw(st.integers(0, len(column) - 1))] = bad
    with pytest.raises(InvalidInputError,
                       match="^loss_eval needs finite prediction and label$"):
        mean_loss(CLIPPED_ABS, preds, np.array(zs))


@PROPERTY
@given(interior=_INTERIOR, n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_separability_separator_holds_in_exact_arithmetic(interior, n, seed):
    instance = make_separable_from_fixed_points([0, *interior, 1])
    block = draw_labeled(instance, 1, n, SeedSpec(seed)).tasks[0]
    report = separability_check(instance, block)
    w1, w2, b = (Fraction(w) for w in report.separator)
    rows = list(zip(block.x[:, 0].tolist(), block.y[:, 0].tolist(),
                    block.z.tolist()))
    # a class with no rows is stood in for by its corner of the unit square
    rows += [corner for corner in ((1.0, 0.0, 1.0), (0.0, 1.0, -1.0))
             if corner[2] not in block.z]
    sides = [Fraction(z) * (w1 * Fraction(x) + w2 * Fraction(y) + b)
             for x, y, z in rows]
    assert report.separable and min(sides) > 0
    assert report.margin == float(min(sides))
    assert report.margin >= report.canonical_margin
    assert report.canonical_margin == float(min(
        Fraction(z) * (Fraction(x) - Fraction(y)) for x, y, z in rows))
