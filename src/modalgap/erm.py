"""The three training procedures compared by the experiments.

Two-stage multimodal ERM fits the connection on pooled unlabeled pairs and
one predictor per task on the labeled blocks (the stages are independent).
The unimodal baseline fits a single-modality predictor; the joint baseline
searches connection and predictors together from x-only labeled data.

Each class owns its own fits (see the hypotheses module).  This module
owns what lies between them: the input checks of the x-only ERM, the
exact-rational stage 1 on witness-backed lattice samples, the certified
labels of stage 2 on those samples, the per-task loop of the two-stage fit,
and the budgeted candidate loop and zero-loss census of the joint search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexity import approximate_realizability
from .core import (Block, DegenerateDataError, DomainError, Loss, CLIPPED_ABS,
                   MultiSample, UnsupportedClassError)
# UnimodalSolution and _grid_erm live with the classes that fit them; they
# stay importable from here, where the benchmark's tracer finds _grid_erm
from .hypotheses import (ScalingClass, ScalingConnection, SineSingletonClass,  # noqa: F401
                         UnimodalSolution, _grid_erm, fit_scaling_lad_exact)
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
    MultiSample, or one labeled Block.

    The connection class supplies its candidates: all members of a finite
    class, or a grid sized to the budget for a 1-D class.  Predictors are
    fit exactly inside each candidate.  The number of objective evaluations
    is capped by the budget and reported.  The zero-loss tie census uses
    the class's own tolerance.
    """
    if budget < 1:
        raise DomainError("the budget must buy at least one evaluation")
    blocks = labeled.tasks if isinstance(labeled, MultiSample) else (labeled,)

    candidates, tolerance, exhausted = connection_cls.joint_candidates(
        sum(len(b) for b in blocks), budget)

    best = None
    ties = 0
    evals = 0
    for g in candidates:
        if evals >= budget:
            exhausted = True
            break
        members = []
        total = 0.0
        count = 0
        for block in blocks:
            composed = Block(block.x, g.map(block.x[:, 0]), block.z)
            member, objective = predictor_cls.fit_predictor(composed, loss)
            members.append(member)
            total += objective * len(block)
            count += len(block)
        evals += count
        objective = total / count
        if objective <= tolerance:
            ties += 1
        if best is None or objective < best[1]:
            best = ((g, tuple(members)), objective)
    (g, members), objective = best
    return JointSolution(connection=g, predictors=members, objective=objective,
                         evaluations=evals, zero_loss_ties=ties,
                         budget_exhausted=exhausted)
