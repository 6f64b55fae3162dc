"""Two-stage, unimodal, and joint training procedures."""

import math

import numpy as np
import pytest

from modalgap.cli import _CLASSES
from modalgap.core import (ABSOLUTE, CLIPPED_ABS, Block, DomainError,
                           MultiSample, SeedSpec, UnsupportedClassError,
                           draw_labeled, draw_unlabeled)
from modalgap.erm import (fit_joint, fit_multimodal, fit_unimodal,
                          predict_unimodal)
from modalgap.hypotheses import (BooleanLookupClass, BooleanMapClass,
                                 ComposedSineClass, PolynomialClass,
                                 ScalingClass, SignCompleteClass,
                                 SineSingletonClass)
from modalgap.instances import (make_boolean, make_sine, make_sine_shattered,
                                make_subspace)

SEED = SeedSpec(99)


def test_multimodal_sine_recovers_theta_exactly():
    # dyadic theta* so float emission is lossless
    inst = make_sine(0.5, support=4)
    labeled = draw_labeled(inst, 1, 3, SEED)
    unlabeled = draw_unlabeled(inst, 1, 5, SEED)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())
    assert sol.connection.theta == 0.5
    assert sol.stage1_objective == 0.0
    assert sol.stage2_objective == 0.0


def test_multimodal_witness_instance_exact_recovery():
    inst = make_sine_shattered([1, -1, 1, -1, 1, -1])
    labeled = draw_labeled(inst, 2, 4, SEED)
    unlabeled = draw_unlabeled(inst, 2, 3, SEED)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())
    assert sol.connection.c_exact == inst.witness.c
    assert sol.stage1_objective == 0.0
    assert sol.stage2_objective == 0.0
    assert sol.provenance["stage1"] == "exact-lad"


def test_multimodal_subspace_polynomial_recovery():
    rng = np.random.default_rng(2)
    k = 4
    v = rng.uniform(-0.3, 0.3, size=k)
    y0 = rng.uniform(-0.3, 0.3, size=k)
    inst = make_subspace(v, y0)
    labeled = draw_labeled(inst, 1, 6, SEED)
    unlabeled = draw_unlabeled(inst, 1, 3 * k, SEED)
    sol = fit_multimodal(labeled, unlabeled, PolynomialClass(degree=k, out_dim=k),
                         SignCompleteClass())
    assert np.allclose(sol.connection.coeffs[0], y0, atol=1e-10)
    assert np.allclose(sol.connection.coeffs[1], v, atol=1e-10)
    assert sol.stage1_objective <= 1e-10
    # composition with a vector-valued connection stays well-typed
    assert isinstance(predict_unimodal(sol, 0, 0.3), float)


def test_multimodal_boolean_stage1_residual_near_half():
    inst = make_boolean([(0, 1)])
    labeled = draw_labeled(inst, 1, 64, SEED)
    unlabeled = draw_unlabeled(inst, 1, 4096, SEED)
    sol = fit_multimodal(labeled, unlabeled, BooleanMapClass(), BooleanLookupClass())
    assert sol.stage1_objective == pytest.approx(0.5, abs=3.0 / math.sqrt(4096))
    assert sol.stage2_objective == 0.0   # table b fits the labeled data exactly


def test_predict_unimodal_composition():
    inst = make_sine(0.25, support=3)
    labeled = draw_labeled(inst, 1, 4, SEED)
    unlabeled = draw_unlabeled(inst, 1, 4, SEED)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())
    x = float(inst._x_floats[0])
    assert predict_unimodal(sol, 0, x) == math.sin(1.0 / (0.25 * x))
    with pytest.raises(Exception):
        predict_unimodal(sol, 5, x)


def test_stage_independence():
    inst = make_sine(0.7, support=6)
    labeled = draw_labeled(inst, 1, 4, SEED)
    unlabeled = draw_unlabeled(inst, 1, 8, SEED)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())

    def rows(order):
        block = unlabeled.tasks[0]
        return MultiSample(tasks=(Block(block.x[order], block.y[order],
                                        support_index=block.support_index[order]),),
                           instance=unlabeled.instance)

    # permuting the unlabeled sample leaves the fitted connection unchanged
    permuted = rows(np.arange(8)[::-1])
    sol_p = fit_multimodal(labeled, permuted, ScalingClass(), SineSingletonClass())
    assert sol_p.connection.theta == sol.connection.theta

    # duplicating it twice changes nothing either
    doubled = rows(np.tile(np.arange(8), 2))
    sol_d = fit_multimodal(labeled, doubled, ScalingClass(), SineSingletonClass())
    assert sol_d.connection.theta == sol.connection.theta


def test_unimodal_scaling_realizable_regression():
    xs = np.array([0.2, 0.6, 0.9])
    sol = fit_unimodal(list(zip(xs, 0.3 * xs)), ScalingClass(), ABSOLUTE)
    assert sol.member.theta == pytest.approx(0.3)
    assert sol.objective <= 1e-15


def test_unimodal_grid_fit_records_resolution():
    xs = np.array([0.5, 0.8])
    zs = np.array([0.1, -0.2])
    sol = fit_unimodal(list(zip(xs, zs)), ComposedSineClass(), CLIPPED_ABS,
                       grid_points=5000)
    assert sol.grid_resolution == 1.0 / 5000
    assert 0.0 < sol.member.theta <= 1.0
    # randomized optimality audit at the recorded resolution
    rng = np.random.default_rng(0)
    thetas = rng.uniform(1e-6, 1.0, size=2000)
    preds = np.sin(1.0 / np.outer(thetas, xs))
    objs = np.minimum(np.abs(preds - zs), 1.0).mean(axis=1)
    assert sol.objective <= objs.min() + 1.0 / 5000


def test_unimodal_oscillatory_fit_small_training_loss():
    # two labeled points from a shattered distribution: the composed sine
    # family interpolates them on the grid, though the population risk of
    # that fit is large (checked in the analysis tests)
    inst = make_sine_shattered([1, -1, 1, -1, 1, -1, 1, -1])
    labeled = draw_labeled(inst, 1, 2, SEED)
    block = labeled.tasks[0]
    xz = np.column_stack((block.x[:, 0], block.z))
    sol = fit_unimodal(xz, ComposedSineClass(), CLIPPED_ABS, grid_points=100_000)
    assert sol.objective <= 0.25


def test_unimodal_finite_class_enumeration():
    xs = np.array([0.0, 0.0, 1.0, 1.0])
    zs = np.array([1.0, 1.0, 0.0, 0.0])
    sol = fit_unimodal(list(zip(xs, zs)), BooleanMapClass(), CLIPPED_ABS)
    assert sol.member.table == (1, 0)
    assert sol.objective == 0.0
    assert sol.path == "enumeration-exact"


@pytest.mark.parametrize("name", sorted(_CLASSES))
def test_every_cli_class_fits_on_x_or_says_it_cannot(name):
    cls = _CLASSES[name]
    xz = [(0.25, 0.5), (0.5, -0.5), (1.0, 0.9)]
    if name == "singleton":
        with pytest.raises(UnsupportedClassError):
            fit_unimodal(xz, cls, CLIPPED_ABS)
        return
    sol = fit_unimodal(xz, cls, CLIPPED_ABS, grid_points=500)
    assert math.isfinite(sol.objective) and sol.path in (
        "exact-lad", "enumeration-exact", "grid-upper-bound")
    preds = [float(np.atleast_1d(sol.member.map(x))[0]) for x, _ in xz]
    loss = np.mean([min(abs(p - z), 1.0) for p, (_, z) in zip(preds, xz)])
    assert loss == pytest.approx(sol.objective, rel=1e-12, abs=1e-15)


def test_unimodal_rejects_singleton():
    with pytest.raises(UnsupportedClassError):
        fit_unimodal([(0.5, 0.1)], SineSingletonClass(), CLIPPED_ABS)


def test_unimodal_rejects_lookup_predictors():
    # boolean lookup members read y, so none of them is a map of x alone
    with pytest.raises(UnsupportedClassError):
        fit_unimodal([(0.0, 1.0), (1.0, 0.0)], BooleanLookupClass(), CLIPPED_ABS)


def test_stage1_degeneracy_carries_stage_tag():
    from modalgap.core import DegenerateDataError
    labeled = MultiSample(tasks=(Block(x=[0.5], y=[0.2], z=[0.1]),))
    unlabeled = MultiSample(tasks=(Block(x=[0.0], y=[0.2]),))
    with pytest.raises(DegenerateDataError, match="stage 1"):
        fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())


def test_joint_fit_tie_census():
    # one labeled point from the theta*=1 sine law at x = 2/pi: every
    # theta = 1/(1+4k) puts the composed sine back on its maximum, so the
    # grid census finds several zero-loss parameters (theta = 1 and 0.2 are
    # exactly on the 100-point grid)
    x = 2.0 / math.pi
    point = Block(x=[x], y=[x], z=[math.sin(1.0 / x)])
    sol = fit_joint(point, ScalingClass(), SineSingletonClass(),
                    CLIPPED_ABS, budget=100)
    assert sol.zero_loss_ties > 1
    assert sol.objective <= 1e-12


def test_joint_fit_boolean_reduces_to_per_task():
    inst = make_boolean([(0, 1), (1, 0)])
    labeled = draw_labeled(inst, 2, 16, SEED)
    sol = fit_joint(labeled, BooleanMapClass(), BooleanLookupClass(), CLIPPED_ABS)
    assert sol.evaluations <= 4 * 32
    assert len(sol.predictors) == 2
    # y is a coin flip independent of x: no composition beats 1/2 by much
    assert sol.objective >= 0.25


def test_joint_fit_budget_flag():
    inst = make_sine(0.5, support=4)
    labeled = draw_labeled(inst, 1, 8, SEED)
    sol = fit_joint(labeled, ScalingClass(), SineSingletonClass(),
                    CLIPPED_ABS, budget=40)
    assert sol.budget_exhausted


def test_joint_fit_rejects_an_empty_budget():
    labeled = draw_labeled(make_sine(0.5, support=4), 1, 8, SEED)
    with pytest.raises(DomainError, match="budget"):
        fit_joint(labeled, ScalingClass(), SineSingletonClass(), CLIPPED_ABS,
                  budget=0)


def test_joint_objective_audit():
    inst = make_sine(0.61, support=6)
    labeled = draw_labeled(inst, 1, 4, SEED)
    sol = fit_joint(labeled, ScalingClass(), SineSingletonClass(),
                    CLIPPED_ABS, budget=50_000)
    xs, zs = labeled.tasks[0].x[:, 0], labeled.tasks[0].z
    rng = np.random.default_rng(1)
    thetas = rng.uniform(1e-6, 1.0, size=10_000)
    objs = np.minimum(np.abs(np.sin(1.0 / np.outer(thetas, xs)) - zs), 1.0).mean(axis=1)
    assert sol.objective <= objs.min() + 1e-9
