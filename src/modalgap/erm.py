"""The three training procedures compared by the experiments.

Two-stage multimodal ERM fits the connection on pooled unlabeled pairs and
one predictor per task on the labeled blocks (the stages are independent).
The unimodal baseline fits a single-modality predictor; the joint baseline
searches connection and predictors together from x-only labeled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (Block, DegenerateDataError, DomainError, Loss, CLIPPED_ABS,
                   MultiSample, UnsupportedClassError)
from .hypotheses import (BooleanMapClass, ComposedSineClass, ScalingClass,
                         ScalingConnection, SineComposition,
                         SineSingletonClass, fit_scaling_lad_exact)
from .instances import SineInstance


@dataclass(frozen=True, eq=False)
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
class UnimodalSolution:
    """Fitted x-only member and its mean loss.  path names how the minimum
    was found: "exact-lad", "enumeration-exact" or "grid-upper-bound" (an
    upper bound on the true minimum, at the recorded grid resolution)."""

    member: object
    objective: float
    path: str
    grid_resolution: Optional[float] = None

    def to_json(self) -> dict:
        return {"member": self.member.to_json(), "objective": self.objective,
                "grid_resolution": self.grid_resolution}


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
    """Pooled connection fit.  Witness-backed lattice samples go through the
    exact-rational LAD (the float emission of y loses the deep-lattice
    parameter, so recovery must happen on the exact side)."""
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
    result = connection_cls.fit_connection(xs.reshape(len(xs), -1).squeeze(axis=-1)
                                           if xs.shape[1] == 1 else xs, ys)
    member, residuals = result[0], np.asarray(result[1], dtype=float)
    if residuals.ndim > 1:
        residuals = np.linalg.norm(residuals, axis=1)
    return member, float(residuals.mean()), {"stage1": "float"}


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
    from .hypotheses import eval_connection

    if t >= len(solution.predictors):
        raise DomainError(f"task {t} out of range")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    y_hat = np.atleast_1d(eval_connection(solution.connection, x0))
    return solution.predictors[t].predict(np.atleast_1d(x), y_hat)


def _grid_erm(objective, grid_points: int, refine: bool):
    """Dense grid over (0, 1] plus golden-section refinement of the best cell.

    The objective may be violently oscillatory, so the recorded resolution
    is part of the result; refinement only replaces the grid optimum when it
    actually improves it.
    """
    thetas = np.arange(1, grid_points + 1, dtype=float) / grid_points
    best_val = math.inf
    best_theta = thetas[-1]
    block = 8192
    for lo in range(0, grid_points, block):
        chunk = thetas[lo:lo + block]
        vals = objective(chunk)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_theta = float(chunk[j])
    if refine:
        # scipy.optimize costs about 50 MB to import; load it where it is used
        from scipy.optimize import minimize_scalar

        lo = max(best_theta - 1.0 / grid_points, 1e-12)
        hi = min(best_theta + 1.0 / grid_points, 1.0)
        res = minimize_scalar(lambda t: float(objective(np.array([t]))[0]),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_theta = float(res.x)
    return best_theta, best_val


def _clipped_mean_losses(preds, zs, loss: Loss):
    d = loss.scale * np.abs(preds - zs)
    if loss.kind == "clipped-absolute":
        d = np.minimum(d, 1.0)
    return d.mean(axis=-1)


def fit_unimodal(xz_pairs, cls, loss: Loss = CLIPPED_ABS,
                 grid_points: int = 100_000, refine: bool = True) -> UnimodalSolution:
    """Single-modality ERM on (x, z) pairs, e.g. an (n, 2) array.

    Scaling fits use the exact weighted-median solver when the loss is plain
    absolute; 1-D parametric families otherwise go through the recorded-
    resolution grid search; finite connection classes are enumerated.
    """
    xs, zs = np.asarray(xz_pairs, dtype=float).reshape(-1, 2).T.copy()
    if len(xs) == 0:
        raise DomainError("empty training data")
    if grid_points < 1:
        raise DomainError("the grid needs at least one point")

    if isinstance(cls, SineSingletonClass):
        raise UnsupportedClassError("sine singleton needs y, not x alone")

    if isinstance(cls, ScalingClass) and loss.kind == "absolute" and loss.scale == 1.0:
        from .hypotheses import fit_scaling_lad
        theta = fit_scaling_lad(xs, zs, signed=cls.signed)
        member = ScalingConnection(theta)
        objective = float(np.mean(np.abs(theta * xs - zs)))
        return UnimodalSolution(member=member, objective=objective,
                                path="exact-lad")

    if isinstance(cls, ScalingClass):
        def objective(thetas):
            preds = np.outer(thetas, xs)
            return _clipped_mean_losses(preds, zs, loss)
        theta, val = _grid_erm(objective, grid_points, refine)
        return UnimodalSolution(member=ScalingConnection(theta), objective=val,
                                path="grid-upper-bound",
                                grid_resolution=1.0 / grid_points)

    if isinstance(cls, ComposedSineClass):
        def objective(thetas):
            preds = np.sin(1.0 / np.outer(thetas, xs))
            return _clipped_mean_losses(preds, zs, loss)
        theta, val = _grid_erm(objective, grid_points, refine)
        return UnimodalSolution(member=SineComposition(theta), objective=val,
                                path="grid-upper-bound",
                                grid_resolution=1.0 / grid_points)

    # connection members are maps of x; predictor members also need y
    if hasattr(cls, "members") and hasattr(cls, "fit_connection"):
        best = None
        for member in cls.members():
            preds = np.asarray(member.map(xs), dtype=float).reshape(-1)
            val = float(_clipped_mean_losses(preds, zs, loss))
            if best is None or val < best[1]:
                best = (member, val)
        return UnimodalSolution(member=best[0], objective=best[1],
                                path="enumeration-exact")

    raise UnsupportedClassError(f"no unimodal ERM for {cls!r}")


def fit_joint(labeled, connection_cls, predictor_cls,
              loss: Loss = CLIPPED_ABS, budget: int = 10**6,
              zero_tol: Optional[float] = None) -> JointSolution:
    """Representation-style joint ERM from x-only labeled data: a labeled
    MultiSample, or one labeled Block.

    The connection is searched exhaustively (finite class) or on a grid
    (1-D class); predictors are fit exactly inside each candidate.  The
    number of objective evaluations is capped by the budget and reported.
    zero_tol governs the zero-loss tie census; for grids it defaults to the
    grid resolution (an off-grid zero-loss parameter shows up at that
    scale), for finite classes to 1e-12.
    """
    if budget < 1:
        raise DomainError("the budget must buy at least one evaluation")
    blocks = labeled.tasks if isinstance(labeled, MultiSample) else (labeled,)

    exhausted = False
    if isinstance(connection_cls, BooleanMapClass):
        candidates = connection_cls.members()
        if zero_tol is None:
            zero_tol = 1e-12
    elif isinstance(connection_cls, ScalingClass):
        per_eval = sum(len(b) for b in blocks)
        affordable = budget // max(per_eval, 1)
        points = max(1, min(100_000, affordable))
        exhausted = affordable < 100_000
        candidates = [ScalingConnection(float(i) / points)
                      for i in range(1, points + 1)]
        if zero_tol is None:
            zero_tol = 1.0 / points
    else:
        raise UnsupportedClassError("joint search needs a finite or 1-D class")

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
        if objective <= zero_tol:
            ties += 1
        if best is None or objective < best[1]:
            best = ((g, tuple(members)), objective)
    (g, members), objective = best
    return JointSolution(connection=g, predictors=members, objective=objective,
                         evaluations=evals, zero_loss_ties=ties,
                         budget_exhausted=exhausted)
