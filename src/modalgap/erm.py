"""The three training procedures compared by the experiments.

Two-stage multimodal ERM fits the connection on pooled unlabeled pairs and
one predictor per task on the labeled blocks (the stages are independent).
The unimodal baseline fits a single-modality predictor; the joint baseline
searches connection and predictors together from x-only labeled data.

Each class owns its own fits (see the hypotheses module).  This module
owns what lies between them: the input checks of the x-only ERM, the
exact-rational stage 1 on witness-backed lattice samples, the certified
labels of stage 2 on those samples, the per-task loop of the two-stage fit,
and the joint search: the composed sine grid, or the four boolean tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexity import approximate_realizability
from .core import (Block, DegenerateDataError, DomainError, Loss, CLIPPED_ABS,
                   MultiSample, SingularityError, UnsupportedClassError)
# UnimodalSolution and _grid_erm live with the classes that fit them; they
# stay importable from here, where the benchmark's tracer finds _grid_erm
from .hypotheses import (BooleanMapClass, ScalingClass, ScalingConnection,  # noqa: F401
                         SineSingletonClass, UnimodalSolution, _grid_erm,
                         _grid_objective, _sine_values, fit_scaling_lad_exact)
from .instances import SineInstance


@dataclass(frozen=True, eq=False, slots=True)
class MultimodalSolution:
    connection: object
    predictors: tuple
    stage1_objective: float
    stage2_objective: float
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "connection": self.connection.to_json(),
            "predictors": [p.to_json() for p in self.predictors],
            "stage1_objective": self.stage1_objective,
            "stage2_objective": self.stage2_objective,
            "provenance": self.provenance,
        }


@dataclass(frozen=True, eq=False)
class JointSolution:
    connection: object
    predictors: tuple
    objective: float
    evaluations: int
    zero_loss_ties: int
    budget_exhausted: bool

    def to_json(self) -> dict:
        return {
            "connection": self.connection.to_json(),
            "predictors": [p.to_json() for p in self.predictors],
            "objective": self.objective,
            "evaluations": self.evaluations,
            "zero_loss_ties": self.zero_loss_ties,
            "budget_exhausted": self.budget_exhausted,
        }


def _witness_backed(sample) -> bool:
    inst = sample.instance
    return (isinstance(inst, SineInstance) and inst.witness is not None
            and all(block.support_index is not None for block in sample.tasks))


def _stage1(unlabeled: MultiSample, connection_cls):
    """Pooled connection fit: the realizability ERM of the class.
    Witness-backed lattice samples go through the exact-rational LAD (the
    float emission of y loses the deep-lattice parameter, so recovery must
    happen on the exact side)."""
    if isinstance(connection_cls, ScalingClass) and _witness_backed(unlabeled):
        inst = unlabeled.instance
        pairs = []
        for block in unlabeled.tasks:
            pairs.extend(inst.exact_scaled_pairs(block.support_index))
        tau = fit_scaling_lad_exact(pairs)            # tau = 2*pi*theta exactly
        c_exact = Fraction(1, 1) / tau
        theta = float(tau) / (2.0 * math.pi)
        member = ScalingConnection(theta=theta, c_exact=c_exact)
        # scaled pairs carry 2*pi*y, so bring the residual back to y units
        residual = float(sum(abs(tau * x - y) for x, y in pairs)) / (2.0 * math.pi)
        return member, residual / len(pairs), {"stage1": "exact-lad"}
    xs, ys = unlabeled.pooled_xy()
    report = approximate_realizability(connection_cls, xs[:, 0], ys)
    return report.witness, report.value, {"stage1": "float"}


def fit_multimodal(labeled: MultiSample, unlabeled: MultiSample,
                   connection_cls, predictor_cls,
                   loss: Loss = CLIPPED_ABS) -> MultimodalSolution:
    """Two-stage ERM: connection on pooled unlabeled pairs, then one
    predictor per task on true (x, y) labeled data."""
    try:
        connection, stage1, prov = _stage1(unlabeled, connection_cls)
    except (DegenerateDataError, DomainError) as err:
        raise type(err)(f"stage 1: {err}") from err

    # sin(1/y) at the emitted float y is meaningless for deep lattices; on
    # witness-backed samples the certified sine values are the evaluation
    certified = (isinstance(predictor_cls, SineSingletonClass)
                 and _witness_backed(labeled))

    predictors = []
    totals = []
    for t, block in enumerate(labeled.tasks):
        truth = labeled.instance._z_floats[block.support_index] if certified else None
        try:
            member, objective = predictor_cls.fit_predictor(block, loss, truth=truth)
        except (DegenerateDataError, DomainError) as err:
            raise type(err)(f"stage 2, task {t}: {err}") from err
        predictors.append(member)
        totals.append(objective)
    return MultimodalSolution(connection=connection, predictors=tuple(predictors),
                              stage1_objective=stage1,
                              stage2_objective=float(np.mean(totals)),
                              provenance=prov)


def predict_unimodal(solution: MultimodalSolution, t: int, x) -> float:
    """Inference on x alone: the task predictor composed with the learned
    connection."""
    if t >= len(solution.predictors):
        raise DomainError(f"task {t} out of range")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    y_hat = np.atleast_1d(solution.connection.map(x0))
    return solution.predictors[t].predict(np.atleast_1d(x), y_hat)


def fit_unimodal(xz_pairs, cls, loss: Loss = CLIPPED_ABS,
                 grid_points: int = 100_000) -> UnimodalSolution:
    """Single-modality ERM on (x, z) pairs, e.g. an (n, 2) array, through
    the class's own fit_x; classes whose members read y have none."""
    xs, zs = np.asarray(xz_pairs, dtype=float).reshape(-1, 2).T.copy()
    if len(xs) == 0:
        raise DomainError("empty training data")
    if grid_points < 1:
        raise DomainError("the grid needs at least one point")
    fit_x = getattr(cls, "fit_x", None)
    if fit_x is None:
        raise UnsupportedClassError(f"no x-only ERM for {cls!r}")
    return fit_x(xs, zs, loss, grid_points)


def fit_joint(labeled, connection_cls, predictor_cls,
              loss: Loss = CLIPPED_ABS, budget: int = 10**6) -> JointSolution:
    """Representation-style joint ERM from x-only labeled data: a labeled
    MultiSample, or one labeled Block.  The budget counts row evaluations.

    Boolean maps try their tables in order while the budget lasts, each
    task's predictor fit exactly inside; a tie is a loss within 1e-12.
    Scaling with the sine singleton is the composed sine grid on the pooled
    rows, max(1, min(100_000, budget // rows)) thetas, all evaluated; a tie
    is within the grid resolution.  No other pair has a joint search.
    """
    if budget < 1:
        raise DomainError("the budget must buy at least one evaluation")
    blocks = labeled.tasks if isinstance(labeled, MultiSample) else (labeled,)
    rows = sum(len(b) for b in blocks)

    if isinstance(connection_cls, BooleanMapClass):
        # a table is tried while the evaluations so far are below the budget
        tables = connection_cls.members()[:-(-budget // rows)]
        fits = [[predictor_cls.fit_predictor(Block(b.x, g.map(b.x[:, 0]), b.z), loss)
                 for b in blocks] for g in tables]
        objectives = [sum(obj * len(b) for (_, obj), b in zip(fit, blocks)) / rows
                      for fit in fits]
        best = min(range(len(tables)), key=objectives.__getitem__)
        return JointSolution(connection=tables[best],
                             predictors=tuple(member for member, _ in fits[best]),
                             objective=objectives[best], evaluations=len(tables) * rows,
                             zero_loss_ties=sum(v <= 1e-12 for v in objectives),
                             budget_exhausted=len(tables) < 4)

    if connection_cls != ScalingClass() or not isinstance(predictor_cls, SineSingletonClass):
        raise UnsupportedClassError(
            f"no joint search for {connection_cls!r} with {predictor_cls!r}")
    xs = np.concatenate([b.x[:, 0] for b in blocks])
    if np.any(xs == 0.0):
        raise SingularityError("sin(1/y) undefined at y = 0")
    points = max(1, min(100_000, budget // rows))
    grid_objective = _grid_objective(_sine_values, xs,
                                     np.concatenate([b.z for b in blocks]), loss)
    ties = 0

    def objective(thetas):
        nonlocal ties
        values = grid_objective(thetas)
        ties += int(np.count_nonzero(values <= 1.0 / points))
        return values

    theta, value = _grid_erm(objective, points)
    return JointSolution(connection=ScalingConnection(theta),
                         predictors=tuple(predictor_cls.member() for _ in blocks),
                         objective=value, evaluations=points * rows,
                         zero_loss_ties=ties, budget_exhausted=budget // rows < 100_000)
