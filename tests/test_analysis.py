"""Risk reports, bound assembly, gaps, and the experiment drivers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modalgap.core import (ABSOLUTE, CLIPPED_ABS, Block, DomainError, SeedSpec,
                           SingularityError, draw_labeled, draw_unlabeled,
                           loss_values)
from modalgap.analysis import (_predictions, boolean_count_formula,
                               boolean_population_excess,
                               boolean_realizability_exact,
                               best_unimodal_population_risk,
                               bound_scaling_experiment, excess_risk,
                               heterogeneity_gap,
                               realizability_necessity_experiment,
                               representation_comparison, risk_bound,
                               separability_check,
                               unimodal_failure_experiment)
from modalgap.erm import (MultimodalSolution, UnimodalSolution, fit_multimodal,
                          fit_unimodal)
from modalgap.hypotheses import (BooleanLookupClass, BooleanMapClass,
                                 ComposedSineClass, ScalingClass,
                                 ScalingConnection, SignCompleteClass,
                                 SineComposition, SinePredictor,
                                 SineSingletonClass, XOnlyPredictorClass)
from modalgap.instances import (make_boolean, make_separable_from_fixed_points,
                                make_sine, make_sine_shattered, make_sine_subset)
from modalgap.shatter import CONVENTIONS, lattice_point, lattice_sine

SEED = SeedSpec(1234)


def _sine_solution(inst, n=4, m=8, T=1, seed=SEED):
    labeled = draw_labeled(inst, T, n, seed)
    unlabeled = draw_unlabeled(inst, T, m, seed)
    return fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())


def test_multimodal_excess_zero_on_subset_instance():
    inst = make_sine_subset([1, 3, 5], 0.62)
    report = excess_risk(_sine_solution(inst), inst, SineSingletonClass())
    assert report.mode == "exact-finite-support"
    assert abs(report.excess) <= 1e-9


def test_multimodal_excess_zero_exact_on_witness_instance():
    inst = make_sine_shattered([1, -1, -1, 1, 1, -1, 1, -1])
    report = excess_risk(_sine_solution(inst), inst, SineSingletonClass())
    assert report.excess == 0.0
    assert report.exact_risk == 0 and report.exact_comparator == 0


def test_comparator_against_itself_is_zero():
    inst = make_sine_subset([2, 4], 0.5)
    report = excess_risk(_sine_solution(inst), inst, SineSingletonClass())
    assert report.comparator == 0.0


def test_boolean_composition_excess_at_least_half():
    inst = make_boolean([(0, 1)])
    labeled = draw_labeled(inst, 1, 32, SEED)
    unlabeled = draw_unlabeled(inst, 1, 64, SEED)
    sol = fit_multimodal(labeled, unlabeled, BooleanMapClass(), BooleanLookupClass())
    report = excess_risk(sol, inst, BooleanLookupClass())
    assert report.mode == "exact-finite-support"
    assert report.exact_risk >= Fraction(1, 2)
    assert report.exact_comparator == 0
    assert report.excess >= 0.5


def test_excess_risk_refuses_a_task_past_the_solution():
    # a 2-task fit scored on a 4-task instance: tasks 2 and 3 have no
    # predictor of their own
    labeled = draw_labeled(make_boolean(((0, 1), (1, 0))), 2, 8, SEED)
    unlabeled = draw_unlabeled(make_boolean(((0, 1), (1, 0))), 2, 8, SEED)
    sol = fit_multimodal(labeled, unlabeled, BooleanMapClass(), BooleanLookupClass())
    wider = make_boolean(((0, 1), (1, 0), (1, 0), (0, 1)))
    with pytest.raises(DomainError, match="4 tasks.*predictors for 2"):
        excess_risk(sol, wider, BooleanLookupClass(), ABSOLUTE)


def test_unimodal_population_failure_on_shattered_support():
    inst = make_sine_shattered([1, -1, 1, -1, 1, -1, 1, -1])
    labeled = draw_labeled(inst, 1, 2, SEED)
    block = labeled.tasks[0]
    xz = np.column_stack((block.x[:, 0], block.z))
    tilde = fit_unimodal(xz, ComposedSineClass(), CLIPPED_ABS, grid_points=50_000)
    report = excess_risk(tilde, inst, SineSingletonClass())
    assert report.excess >= 0.2


def test_sign_complete_fit_risk_predicts_zero_off_the_sample():
    # 4 draws cannot cover the 8 support points
    inst = make_sine(0.7, support=8)
    block = draw_labeled(inst, 1, 4, SEED).tasks[0]
    sol = fit_unimodal(np.column_stack((block.x[:, 0], block.z)),
                       SignCompleteClass(), CLIPPED_ABS)
    support = inst.support_enumeration(0)
    table = dict(sol.member.mapping)
    assert len(table) < len(support)
    preds = [table.get(x, 0.0) for x in support.x[:, 0].tolist()]
    expected = sum(Fraction(min(abs(p - z), 1.0))
                   for p, z in zip(preds, support.z.tolist())) / len(support)
    report = excess_risk(sol, inst, SineSingletonClass())
    assert math.isfinite(report.risk)
    assert report.exact_risk == expected


def test_monte_carlo_mode_close_to_exact():
    inst = make_sine_subset([1, 2, 3], 0.73)
    sol = _sine_solution(inst)
    exact = excess_risk(sol, inst, SineSingletonClass())
    mc = excess_risk(sol, inst, SineSingletonClass(), mode="monte-carlo",
                     mc_points=4000, seed=SEED)
    assert mc.mode == "monte-carlo" and mc.mc_points == 4000
    assert abs(mc.risk - exact.risk) <= max(4.0 * mc.mc_stderr, 1e-9)


class _FixedSupport:
    """A one-task instance whose finite support is the given block."""

    task_count = 1

    def __init__(self, block):
        self.block = block

    def support_enumeration(self, t):
        return self.block


@pytest.mark.parametrize("route", ["unimodal", "composed"])
def test_excess_risk_names_the_first_point_at_a_pole(route):
    # rows 1 and 3 sit at the pole; -0.0 and 0.0 tell them apart
    block = Block(x=[0.5, -0.0, 0.25, 0.0, 1.0], y=[1.0] * 5, z=[0.0] * 5)
    if route == "unimodal":
        solution = UnimodalSolution(member=SineComposition(0.5), objective=0.0,
                                    path="grid-upper-bound")
        cause = "composed sine undefined at theta*x = 0"
    else:
        solution = MultimodalSolution(connection=ScalingConnection(0.5),
                                      predictors=(SinePredictor(),),
                                      stage1_objective=0.0, stage2_objective=0.0)
        cause = "sin(1/y) undefined at y = 0"
    with pytest.raises(SingularityError) as raised:
        excess_risk(solution, _FixedSupport(block), SineSingletonClass())
    assert str(raised.value) == f"{cause} at support point x={block.x[1, 0]!r}"
    assert "-0.0" in str(raised.value)


def test_risk_bound_frozen_arithmetic():
    report = risk_bound([0.0], 5.0, 0.0, lipschitz=1.0, delta=0.05,
                        n=1, m=100, T=1)
    assert report.term1 == 0.0
    assert report.term2 == pytest.approx(0.2507, abs=2e-4)
    assert report.term4 == pytest.approx(12.0 * math.sqrt(math.log(160.0) / 2.0),
                                         rel=1e-12)
    assert report.term4 == pytest.approx(19.116, abs=1e-3)
    assert report.total == pytest.approx(19.366, abs=1e-2)


def test_risk_bound_degenerate_lipschitz():
    report = risk_bound([0.0, 0.0], 7.0, 0.3, lipschitz=0.0, delta=0.1,
                        n=4, m=16, T=2)
    assert report.term2 == 0.0 and report.term3 == 0.0
    assert report.total == pytest.approx(
        4.0 * math.sqrt(math.log(80.0) / 16.0))


def test_risk_bound_validation():
    with pytest.raises(DomainError):
        risk_bound([0.0], 1.0, 0.0, 1.0, delta=1.5, n=1, m=1, T=1)
    with pytest.raises(DomainError):
        risk_bound([0.0, 0.0], 1.0, 0.0, 1.0, delta=0.1, n=1, m=1, T=1)


def test_boolean_realizability_formula_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        xs = rng.integers(0, 2, size=32)
        ys = rng.integers(0, 2, size=32)
        assert boolean_realizability_exact(xs, ys) == boolean_count_formula(xs, ys)


def test_boolean_population_excess_exact_half():
    assert boolean_population_excess(make_boolean([(0, 1)])) == Fraction(1, 2)
    assert boolean_population_excess(make_boolean([(1, 0), (0, 1)])) == Fraction(1, 2)
    # constant tables admit a perfect composition
    assert boolean_population_excess(make_boolean([(1, 1)])) == 0


def test_necessity_experiment_small_run():
    stats = realizability_necessity_experiment(n=32, T=2, trials=40, seed=SEED)
    assert stats.excess_always_half
    assert stats.freq_count_event >= 0.75
    assert stats.freq_r_event >= 0.5
    rows = stats.rows()
    assert len(rows) == 40 and "realizability" in rows[0]


def test_separation_experiment_small_run():
    stats = unimodal_failure_experiment(n=4, trials=15, seed=SEED,
                                        grid_points=20_000)
    assert stats.m == 64
    assert stats.max_multimodal_excess == 0.0
    assert stats.mean_unimodal_excess >= 0.2
    assert stats.duplicate_free_frequency >= 0.5
    assert stats.summary()["pass"]


def test_separation_single_point_always_duplicate_free():
    stats = unimodal_failure_experiment(n=1, trials=5, seed=SEED,
                                        grid_points=5000)
    assert stats.duplicate_free_frequency == 1.0


def test_heterogeneity_gap_identical_modalities_is_zero():
    # theta* = 1 makes y == x bitwise; the same class on both sides cancels
    inst = make_sine(1.0, support=6)
    report = heterogeneity_gap(inst, ScalingClass(),
                               XOnlyPredictorClass(ScalingClass()),
                               n=5, draws=400, resamples=6, seed=SEED)
    assert report.h == 0.0
    assert report.h_stderr == 0.0
    assert report.intrinsic == 0.0


def test_heterogeneity_gap_composed_sine_large():
    inst = make_sine(0.9, support=16)
    report = heterogeneity_gap(inst, ComposedSineClass(), SineSingletonClass(),
                               n=8, draws=400, resamples=8, seed=SEED)
    assert report.multimodal_average == 0.0
    assert report.multimodal_risk == 0.0
    assert report.h >= 0.35
    # gap identity: h minus the average terms equals the intrinsic gap
    assert report.h - (report.unimodal_average - report.multimodal_average) == \
        pytest.approx(report.intrinsic, rel=1e-12)


def test_heterogeneity_gap_scaling_risk_floor():
    # alternating signs keep half the labels near -1 while theta*x stays
    # positive, so even the best scaling predictor misses by >= 1/8
    inst = make_sine_shattered([1, -1, 1, -1, 1, -1, 1, -1])
    value, member, method = best_unimodal_population_risk(inst, ScalingClass(),
                                                          ABSOLUTE)
    assert method == "exact-lad"
    assert value >= 0.125
    report = heterogeneity_gap(inst, ScalingClass(), SineSingletonClass(),
                               n=8, draws=400, resamples=6, seed=SEED)
    assert report.unimodal_risk >= 0.125


def test_representation_comparison_small():
    rep = representation_comparison(n=4, k=8, seed=SEED, draws=2000)
    assert rep.adversarial.mode == "enumeration-exact"
    assert rep.collinear.mode == "witness-lower-bound"
    assert rep.ratio > 1.0
    rep1 = representation_comparison(n=1, k=4, seed=SEED, draws=500)
    assert rep1.collinear.value == rep1.adversarial.value
    with pytest.raises(DomainError):
        representation_comparison(n=5, k=4, seed=SEED)
    with pytest.raises(DomainError):
        representation_comparison(n=0, k=4, seed=SEED)


def test_experiments_reject_empty_runs():
    with pytest.raises(DomainError):
        unimodal_failure_experiment(n=2, trials=0, seed=SEED)
    with pytest.raises(DomainError):
        realizability_necessity_experiment(n=8, T=2, trials=0, seed=SEED)
    with pytest.raises(DomainError):
        realizability_necessity_experiment(n=0, T=2, trials=3, seed=SEED)
    with pytest.raises(DomainError):
        heterogeneity_gap(make_sine(0.7, support=8), ComposedSineClass(),
                          SineSingletonClass(), n=4, resamples=0)


def test_separability_check():
    inst = make_separable_from_fixed_points(
        [0, Fraction(3, 10), Fraction(7, 10), 1])
    sample = draw_labeled(inst, 1, 400, SEED)
    report = separability_check(inst, sample)
    assert report.separable
    assert report.canonical_margin > 0.0
    assert report.crossings == 2 == report.interior_fixed_points
    empty = separability_check(inst, [])
    assert empty.separable and empty.crossings == 0
    assert empty.margin == empty.canonical_margin == 1.0


def test_separability_tie_row_keeps_a_positive_margin():
    inst = make_separable_from_fixed_points([0, Fraction(1, 2), 1])
    block = Block(x=np.array([0.25, 0.5, 0.75]), y=np.array([0.5, 0.5, 0.625]),
                  z=np.array([-1.0, 1.0, 1.0]))
    report = separability_check(inst, block)
    assert report.canonical_margin == 0.0
    assert report.separable
    assert report.separator == (1.0, -1.0, 0.125) and report.margin == 0.125


def test_separability_rejects_a_flipped_label():
    inst = make_separable_from_fixed_points([0, Fraction(1, 2), 1])
    block = Block(x=np.array([0.25, 0.75]), y=np.array([0.5, 0.625]),
                  z=np.array([-1.0, -1.0]))
    with pytest.raises(DomainError):
        separability_check(inst, block)


def test_bound_scaling_mini_grid():
    report = bound_scaling_experiment(ns=(4, 16), ms=(16, 64), Ts=(1, 2),
                                      seeds=3, seed=SEED)
    assert report.dominance_fraction == 1.0
    assert report.term2_slope == pytest.approx(-1.0, abs=1e-9)
    assert report.term4_slope == pytest.approx(-0.5, abs=1e-9)


def test_bound_scaling_rejects_grid_without_two_sizes():
    # one size cell leaves nothing to regress the rates on
    with pytest.raises(DomainError):
        bound_scaling_experiment(ns=(64,), ms=(256,), Ts=(4,), seeds=2, seed=SEED)
    # two n*T values but a single m*T value
    with pytest.raises(DomainError):
        bound_scaling_experiment(ns=(4, 16), ms=(64,), Ts=(1,), seeds=1, seed=SEED)


def _composed(c_exact):
    return MultimodalSolution(connection=ScalingConnection(0.5, c_exact=c_exact),
                              predictors=(SinePredictor(),),
                              stage1_objective=0.0, stage2_objective=0.0)


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.integers(1, 216), convention=st.sampled_from(CONVENTIONS),
       data=st.data())
def test_composed_predictions_match_lattice_sine_per_index(m, convention, data):
    """Both routes of an exact composed solution against lattice_sine, one
    index at a time: the witness's own c (the certificate's sines) and any
    other c (integer reduction from the support table), on the whole
    support and on a drawn block with repeated rows."""
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m))
    top = data.draw(st.integers(m, 216))
    indices = sorted(data.draw(st.permutations(range(1, top + 1)))[:m])
    inst = make_sine_shattered(signs, indices=indices, convention=convention)
    c = inst.witness.c
    shift = data.draw(st.sampled_from([Fraction(1, 3), Fraction(-1, 7), Fraction(5, 2),
                                       -c + Fraction(3, 11)]))
    blocks = (inst.support_enumeration(0),
              draw_labeled(inst, 1, 2 * m, SeedSpec(m)).tasks[0])
    for c_exact in (c, c + shift):
        for block in blocks:
            preds = _predictions(_composed(c_exact), 0, inst, block)
            expected = [lattice_sine(c_exact, inst.support[p])
                        for p in block.support_index.tolist()]
            assert _hex(preds) == _hex(expected)


def test_composed_predictions_refuse_a_negative_c():
    inst = make_sine_shattered([1, -1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        _predictions(_composed(Fraction(-1, 3)), 0, inst, inst.support_enumeration(0))


def _reference_report(solution, instance):
    """excess_risk's figures as the lab computed them one index at a time:
    float x from each exact lattice point, a composed solution's predictions
    from lattice_sine at its c, and the comparator sin(1/y) from lattice_sine
    at the witness's c, all against the certificate's labels."""
    support = instance.support
    zs = list(instance.witness.sines)
    if isinstance(solution, UnimodalSolution):
        preds = [solution.member.map(np.array([float(lattice_point(i))]))[0]
                 for i in support]
    else:
        preds = [lattice_sine(solution.connection.c_exact, i) for i in support]
    truth = [lattice_sine(instance.witness.c, i) for i in support]

    def risk(values):
        losses = loss_values(CLIPPED_ABS, values, zs).tolist()
        return sum(map(Fraction, losses)) / len(support)

    return risk(preds), risk(truth)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_excess_risk_matches_per_index_reference_on_criterion_5_seeds(n):
    """Both fitted solutions of criterion 5's first 12 trials, at m = n^3."""
    seed = SeedSpec(505)
    m = n ** 3
    for trial in range(12):
        root = seed.child("trial", trial)
        signs = root.child("signs").generator().integers(0, 2, size=m) * 2 - 1
        inst = make_sine_shattered(signs, indices=range(1, m + 1))
        labeled = draw_labeled(inst, 1, n, root)
        unlabeled = draw_unlabeled(inst, 1, n, root)
        block = labeled.tasks[0]
        tilde = fit_unimodal(np.column_stack((block.x[:, 0], block.z)),
                             ComposedSineClass(), CLIPPED_ABS)
        two_stage = fit_multimodal(labeled, unlabeled, ScalingClass(),
                                   SineSingletonClass(), CLIPPED_ABS)
        for solution in (tilde, two_stage):
            report = excess_risk(solution, inst, SineSingletonClass(), CLIPPED_ABS)
            risk, comparator = _reference_report(solution, inst)
            assert report.exact_risk == risk
            assert report.exact_comparator == comparator
            assert report.task_risks == (float(risk),)
            assert report.excess == float(risk - comparator)
        assert report.excess == 0.0
