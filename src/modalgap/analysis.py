"""Risk evaluation, bound assembly, gaps, and the separation experiments.

Finite supports are evaluated by exact enumeration with rational
probabilities (exactly rational for boolean instances); continuous supports
fall back to seeded Monte Carlo.  Witness-backed sine instances are
evaluated through exact range reduction, so a connection that recovers the
exact parameter reproduces every label bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (CLIPPED_ABS, ABSOLUTE, DomainError, Loss, MultiSample,
                   SeedSpec, SingularityError, draw_labeled, draw_unlabeled,
                   exact_mean, loss_values)
from .complexity import ComplexityEstimate, gaussian_average
from .erm import UnimodalSolution, fit_multimodal, fit_unimodal
from .hypotheses import (ComposedSineClass, ScalingClass, SinePredictor,
                         SineSingletonClass, SmoothedHyperplaneClass)
from .instances import (BooleanInstance, SeparableInstance, SineInstance,
                        make_boolean, make_sine, make_sine_shattered)

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# population risk


@dataclass(frozen=True, eq=False, slots=True)
class RiskReport:
    """Task-averaged population risk of a solution against the best
    both-modality comparator."""

    task_risks: tuple
    risk: float
    comparator: float
    excess: float
    mode: str
    exact_risk: Optional[Fraction] = None
    exact_comparator: Optional[Fraction] = None
    mc_points: Optional[int] = None
    mc_stderr: Optional[float] = None

    def to_json(self) -> dict:
        return {"task_risks": list(self.task_risks), "risk": self.risk,
                "comparator": self.comparator, "excess": self.excess,
                "mode": self.mode, "mc_points": self.mc_points,
                "mc_stderr": self.mc_stderr}


def _at_row(err, block, i) -> SingularityError:
    return SingularityError(f"{err} at support point x={block.x[i, 0]!r}")


def _predictions(solution, t: int, instance, block):
    """Predictions of a solution at every row of a block, each with the bits
    of its one-row evaluation.  A pole raises SingularityError naming the
    first row that hits it.

    A unimodal member maps all rows in one call.  A composed solution goes
    through exact range reduction when both sides carry exact parameters,
    decided once per block, and row by row otherwise; a task past its
    predictors raises DomainError.
    """
    if isinstance(solution, UnimodalSolution):
        member = solution.member
        try:
            return member.map(block.x[:, 0])
        except SingularityError as err:
            for i, x in enumerate(block.x[:, 0].tolist()):
                try:
                    member.map(x)
                except SingularityError as first:
                    raise _at_row(first, block, i) from first
            raise
    predictors = solution.predictors
    if t >= len(predictors):
        tasks = getattr(instance, "task_count", None) or 1
        raise DomainError(f"the instance has {tasks} tasks, but the solution "
                          f"has predictors for {len(predictors)}")
    predictor = predictors[t]
    connection = solution.connection
    if (isinstance(instance, SineInstance) and instance.witness is not None
            and isinstance(predictor, SinePredictor)
            and getattr(connection, "c_exact", None) is not None
            and block.support_index is not None):
        return instance.lattice_sines(connection.c_exact, block.support_index)
    preds = []
    for i, x in enumerate(block.x):
        try:
            preds.append(predictor.predict(x, np.atleast_1d(connection.map(x[0]))))
        except SingularityError as err:
            raise _at_row(err, block, i) from err
    return preds


def excess_risk(solution, instance, comparator_cls, loss: Loss = CLIPPED_ABS,
                mode: str = "auto", mc_points: int = 100_000,
                seed: SeedSpec = SeedSpec(90210)) -> RiskReport:
    """Population excess risk of a fitted solution on unimodal inference,
    against the best member of comparator_cls.

    Exact enumeration when the instance has a finite support, otherwise
    Monte Carlo with the given point budget.
    """
    T = getattr(instance, "task_count", None) or 1
    enumerable = instance.support_enumeration(0) is not None
    if mode == "auto":
        mode = "exact-finite-support" if enumerable else "monte-carlo"
    if mode == "exact-finite-support" and not enumerable:
        raise DomainError("instance has no finite support to enumerate")

    task_risks = []
    exact_risks = []
    exact_comps = []
    spreads = []
    for t in range(T):
        if mode == "exact-finite-support":
            block = instance.support_enumeration(t)
        else:
            block = instance.draw_labeled_task(
                seed.child("risk-mc", t).generator(), t, mc_points)
        losses = loss_values(loss, _predictions(solution, t, instance, block),
                             block.z)
        risk = exact_mean(losses)
        exact_risks.append(risk)
        exact_comps.append(comparator_cls.comparator_risk(instance, t, loss, block))
        task_risks.append(float(risk))
        if mode == "monte-carlo":
            spreads.append(np.var(losses, ddof=1) if len(losses) > 1 else 0.0)

    exact_risk = sum(exact_risks) / T
    exact_comp = sum(exact_comps) / T
    excess = exact_risk - exact_comp
    exact = mode == "exact-finite-support"
    stderr = None
    if not exact:
        stderr = float(math.sqrt(sum(spreads) / (T * T) / mc_points))
    return RiskReport(task_risks=tuple(task_risks), risk=float(exact_risk),
                      comparator=float(exact_comp), excess=float(excess),
                      mode=mode,
                      exact_risk=exact_risk if exact else None,
                      exact_comparator=exact_comp if exact else None,
                      mc_points=None if exact else mc_points,
                      mc_stderr=stderr)


def best_unimodal_population_risk(instance, cls, loss: Loss,
                                  grid_points: int = 100_000, task: int = 0):
    """Best-in-class population risk of x-only prediction, as
    (risk, member, path) with the path fit_unimodal took.

    Every finite support in the lab carries a uniform law, so the sample ERM
    on the support points, each listed once, is the population minimizer.
    """
    block = instance.support_enumeration(task)
    if block is None:
        raise DomainError("population risk needs a finite support")
    solution = fit_unimodal(np.column_stack((block.x[:, 0], block.z)), cls,
                            loss, grid_points=grid_points)
    return solution.objective, solution.member, solution.path


# ---------------------------------------------------------------------------
# generalization bound assembly


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Four-term decomposition of the two-stage excess-risk bound."""

    term1: float   # sqrt(2 pi)/(nT) * sum_t avg(F on hat-sample_t)
    term2: float   # 2 sqrt(2 pi) L/(mT) * avg(G on unlabeled inputs)
    term3: float   # L * realizability
    term4: float   # (8L+4) sqrt(log(8/delta) / (2 nT))
    total: float
    delta: float
    lipschitz: float
    indicative: bool
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"term1": self.term1, "term2": self.term2, "term3": self.term3,
                "term4": self.term4, "total": self.total, "delta": self.delta,
                "lipschitz": self.lipschitz, "indicative": self.indicative,
                "inputs": self.inputs}


def risk_bound(predictor_averages: Sequence[float], connection_average: float,
               realizability: float, lipschitz: float, delta: float,
               n: int, m: int, T: int, indicative: bool = False) -> BoundReport:
    """Assemble the high-probability excess-risk bound from its inputs.

    predictor_averages are the per-task complexity averages on the
    hat-sample (x, g_hat(x)); connection_average is measured on the pooled
    unlabeled inputs.  Set indicative when any input is only a witness
    lower bound rather than exact/closed-form.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("confidence delta must lie in (0, 1)")
    if len(predictor_averages) != T:
        raise DomainError("need one predictor average per task")
    L = float(lipschitz)
    term1 = SQRT_2PI / (n * T) * float(np.sum(predictor_averages))
    term2 = 2.0 * SQRT_2PI * L / (m * T) * float(connection_average)
    term3 = L * float(realizability)
    term4 = (8.0 * L + 4.0) * math.sqrt(math.log(8.0 / delta) / (2.0 * n * T))
    total = term1 + term2 + term3 + term4
    return BoundReport(term1=term1, term2=term2, term3=term3, term4=term4,
                       total=total, delta=delta, lipschitz=L,
                       indicative=indicative,
                       inputs={"n": n, "m": m, "T": T,
                               "predictor_averages": list(map(float, predictor_averages)),
                               "connection_average": float(connection_average),
                               "realizability": float(realizability)})


# ---------------------------------------------------------------------------
# heterogeneity gap


@dataclass(frozen=True)
class GapReport:
    """Difference of (complexity/n + best risk) between x-only and
    both-modality learning, plus the intrinsic risk-only gap."""

    h: float
    h_stderr: float
    intrinsic: float
    unimodal_average: float
    multimodal_average: float
    unimodal_risk: float
    multimodal_risk: float
    components: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"h": self.h, "h_stderr": self.h_stderr,
                "intrinsic": self.intrinsic, "components": self.components}


def heterogeneity_gap(instance, unimodal_cls, predictor_cls, n: int,
                      draws: int = 2000, resamples: int = 30,
                      seed: SeedSpec = SeedSpec(7),
                      grid_points: int = 100_000, workers: int = 1) -> GapReport:
    """Estimate the heterogeneity gap for one distribution.

    The outer expectation over the size-n sample is averaged over resamples;
    the two inner complexity estimates share draw streams so identical
    classes cancel exactly.  Risk components are population risks under the
    absolute loss (exact where the class admits it; the composed-sine grid
    value is an upper bound on the true best risk and is tagged in
    components).
    """
    if resamples < 1:
        raise DomainError("the gap needs at least one resample")
    g_terms = []
    f_terms = []
    for r in range(resamples):
        sample = draw_labeled(instance, 1, n, seed.child("resample", r))
        block = sample.tasks[0]
        inner = seed.child("avg", r)
        g_est, f_est = (gaussian_average(cls, cls.oracle_input(instance, block),
                                         draws=draws, seed=inner, workers=workers)
                        for cls in (unimodal_cls, predictor_cls))
        g_terms.append(g_est.value / n)
        f_terms.append(f_est.value / n)

    g_avg = float(np.mean(g_terms))
    f_avg = float(np.mean(f_terms))
    diffs = np.array(g_terms) - np.array(f_terms)
    stderr = float(diffs.std(ddof=1) / math.sqrt(resamples)) if resamples > 1 else 0.0

    support = instance.support_enumeration(0)
    if support is None:
        raise DomainError("gap risks need a finite-support instance")
    g_risk, _, g_method = best_unimodal_population_risk(
        instance, unimodal_cls, ABSOLUTE, grid_points=grid_points)
    f_risk = float(predictor_cls.comparator_risk(instance, 0, ABSOLUTE, support))

    h = (g_avg + g_risk) - (f_avg + f_risk)
    intrinsic = g_risk - f_risk
    return GapReport(h=h, h_stderr=stderr, intrinsic=intrinsic,
                     unimodal_average=g_avg, multimodal_average=f_avg,
                     unimodal_risk=g_risk, multimodal_risk=f_risk,
                     components={"unimodal_average": g_avg,
                                 "multimodal_average": f_avg,
                                 "unimodal_risk": g_risk,
                                 "unimodal_risk_method": g_method,
                                 "multimodal_risk": f_risk,
                                 "resamples": resamples, "draws": draws})


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True, eq=False, slots=True)
class SeparationStats:
    """Per-trial unimodal excess risks against the always-zero multimodal
    comparator on shattered lattice distributions."""

    n: int
    m: int
    trials: int
    unimodal_excess: np.ndarray
    multimodal_excess: np.ndarray
    duplicate_free: np.ndarray

    @property
    def mean_unimodal_excess(self) -> float:
        return float(self.unimodal_excess.mean())

    @property
    def duplicate_free_frequency(self) -> float:
        return float(self.duplicate_free.mean())

    @property
    def max_multimodal_excess(self) -> float:
        return float(np.abs(self.multimodal_excess).max())

    def summary(self) -> dict:
        return {
            "n": self.n, "m": self.m, "trials": self.trials,
            "mean_unimodal_excess": self.mean_unimodal_excess,
            "duplicate_free_frequency": self.duplicate_free_frequency,
            "max_multimodal_excess": self.max_multimodal_excess,
            "thresholds": {"mean_unimodal_excess": 0.2,
                           "duplicate_free_frequency": 0.5,
                           "max_multimodal_excess": 0.0},
            "pass": bool(self.mean_unimodal_excess >= 0.2
                         and self.duplicate_free_frequency >= 0.5
                         and self.max_multimodal_excess == 0.0),
        }

    def rows(self) -> list:
        return [{"trial": i,
                 "unimodal_excess": float(self.unimodal_excess[i]),
                 "multimodal_excess": float(self.multimodal_excess[i]),
                 "duplicate_free": bool(self.duplicate_free[i])}
                for i in range(self.trials)]


def unimodal_failure_experiment(n: int, trials: int, seed: SeedSpec,
                                m: Optional[int] = None,
                                grid_points: int = 100_000) -> SeparationStats:
    """Draw shattered lattice distributions (support size m = n^3), run the
    unimodal grid ERM and the two-stage fit (on n unlabeled pairs) on the
    same trials under the clipped absolute loss, and report excess risks
    plus the duplicate-free-sample frequency."""
    if n < 1 or trials < 1:
        raise DomainError("n and trials must be at least 1")
    m = m if m is not None else n ** 3
    uni = np.empty(trials)
    multi = np.empty(trials)
    dupfree = np.zeros(trials, dtype=bool)
    scaling = ScalingClass()
    singleton = SineSingletonClass()
    composed = ComposedSineClass()
    for trial in range(trials):
        root = seed.child("trial", trial)
        sign_rng = root.child("signs").generator()
        signs = sign_rng.integers(0, 2, size=m) * 2 - 1
        instance = make_sine_shattered(signs, indices=range(1, m + 1))

        labeled = draw_labeled(instance, 1, n, root)
        unlabeled = draw_unlabeled(instance, 1, n, root)
        block = labeled.tasks[0]
        dupfree[trial] = len(np.unique(block.support_index)) == n

        tilde = fit_unimodal(np.column_stack((block.x[:, 0], block.z)), composed,
                             CLIPPED_ABS, grid_points=grid_points)
        uni[trial] = excess_risk(tilde, instance, singleton, CLIPPED_ABS).excess

        solution = fit_multimodal(labeled, unlabeled, scaling, singleton,
                                  CLIPPED_ABS)
        multi[trial] = excess_risk(solution, instance, singleton, CLIPPED_ABS).excess
    return SeparationStats(n=n, m=m, trials=trials, unimodal_excess=uni,
                           multimodal_excess=multi, duplicate_free=dupfree)


_NONCONSTANT_TABLES = ((0, 1), (1, 0))


def boolean_realizability_exact(xs, ys):
    """Exact R over the four boolean connection tables, as a Fraction."""
    xs = np.asarray(xs, dtype=int).reshape(-1)
    ys = np.asarray(ys, dtype=int).reshape(-1)
    total = len(xs)
    mismatches = 0
    for group in (0, 1):
        yy = ys[xs == group]
        ones = int(yy.sum())
        mismatches += min(ones, len(yy) - ones)
    return Fraction(mismatches, total)


def boolean_count_formula(xs, ys):
    """Group-count closed form for R: sum over x-groups of
    (c/total)(1/2 - |sum sigma|/(2c)) with sigma the +-1 coding of y."""
    xs = np.asarray(xs, dtype=int).reshape(-1)
    ys = np.asarray(ys, dtype=int).reshape(-1)
    total = len(xs)
    value = Fraction(0)
    for group in (0, 1):
        yy = ys[xs == group]
        c = len(yy)
        if c == 0:
            continue
        s = abs(int((2 * yy - 1).sum()))
        value += Fraction(c, total) * (Fraction(1, 2) - Fraction(s, 2 * c))
    return value


def boolean_population_excess(instance: BooleanInstance) -> Fraction:
    """Exact excess of the best x-only composition over the best (x, y)
    predictor, in closed form.

    The best (x, y) predictor reads b_t(y) and has risk 0.  The composition
    predicts one value p for both labels b0, b1 of task t, at mean loss
    (|p - b0| + |p - b1|)/2, whose minimum |b0 - b1|/2 is reached at either
    label.
    """
    return sum(Fraction(abs(b0 - b1), 2)
               for b0, b1 in instance.tables) / instance.task_count


@dataclass(frozen=True, eq=False)
class NecessityStats:
    n: int
    T: int
    trials: int
    realizability: list
    count_gaps: np.ndarray
    freq_r_event: float
    freq_count_event: float
    excess_always_half: bool
    r_threshold: float
    count_threshold: float

    def summary(self) -> dict:
        return {
            "nT": self.n * self.T, "trials": self.trials,
            "freq_r_event": self.freq_r_event,
            "freq_count_event": self.freq_count_event,
            "excess_always_half": self.excess_always_half,
            "thresholds": {"freq_r_event": 0.5, "freq_count_event": 0.75,
                           "r_event": self.r_threshold,
                           "count_event": self.count_threshold},
            "pass": bool(self.freq_r_event >= 0.5
                         and self.freq_count_event >= 0.75
                         and self.excess_always_half),
        }

    def rows(self) -> list:
        return [{"trial": i, "realizability": float(self.realizability[i]),
                 "count_gap": int(self.count_gaps[i])}
                for i in range(self.trials)]


def realizability_necessity_experiment(n: int, T: int, trials: int,
                                       seed: SeedSpec) -> NecessityStats:
    """Frequencies of the concentration events for the boolean construction.

    Tables are drawn from the two non-constant maps so the population label
    is a fair coin independent of x, making the exact x-only excess 1/2 in
    every trial.  R is enumerated exactly each trial and cross-checked
    against the group-count closed form.
    """
    if n < 1 or T < 1 or trials < 1:
        raise DomainError("n, T and trials must be at least 1")
    nT = n * T
    r_threshold = 0.5 - 4.0 * math.sqrt(3.0) / math.sqrt(nT)
    count_threshold = 3.0 * math.sqrt(nT)
    r_values = []
    count_gaps = np.empty(trials, dtype=int)
    r_hits = 0
    count_hits = 0
    excess_ok = True
    for trial in range(trials):
        root = seed.child("trial", trial)
        table_rng = root.child("tables").generator()
        tables = tuple(_NONCONSTANT_TABLES[int(i)]
                       for i in table_rng.integers(0, 2, size=T))
        instance = make_boolean(tables)
        sample = draw_labeled(instance, T, n, root)
        xs, ys = (column[:, 0].astype(int) for column in sample.pooled_xy())

        r_exact = boolean_realizability_exact(xs, ys)
        if r_exact != boolean_count_formula(xs, ys):
            raise AssertionError("realizability closed form mismatch")
        r_values.append(r_exact)
        gap = abs(int((xs == 0).sum()) - int((xs == 1).sum()))
        count_gaps[trial] = gap
        if float(r_exact) >= r_threshold:
            r_hits += 1
        if gap <= count_threshold:
            count_hits += 1
        if boolean_population_excess(instance) != Fraction(1, 2):
            excess_ok = False
    return NecessityStats(n=n, T=T, trials=trials, realizability=r_values,
                          count_gaps=count_gaps,
                          freq_r_event=r_hits / trials,
                          freq_count_event=count_hits / trials,
                          excess_always_half=excess_ok,
                          r_threshold=r_threshold,
                          count_threshold=count_threshold)


@dataclass(frozen=True, eq=False)
class ReprComparisonReport:
    """Complexity of the hyperplane class on the hat-sample produced by the
    correct low-degree connection (collinear) versus the adversarial
    basis-vector sample (every pattern achievable)."""

    n: int
    k: int
    epsilon: float
    collinear: ComplexityEstimate
    adversarial: ComplexityEstimate

    @property
    def ratio(self) -> float:
        return self.adversarial.value / self.collinear.value

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "epsilon": self.epsilon,
                "collinear": self.collinear.to_json(),
                "adversarial": self.adversarial.to_json(),
                "ratio": self.ratio}


def representation_comparison(n: int, k: int, seed: SeedSpec,
                              draws: int = 4096,
                              workers: int = 1) -> ReprComparisonReport:
    """Paired complexity estimates behind the sqrt(n) representation-learning
    separation, for the hyperplane class with margin 1/(10 sqrt(k)); both use
    the same draw streams so the ratio is paired."""
    if n < 1:
        raise DomainError("the comparison needs at least one point")
    if n > k:
        raise DomainError("shattering needs n <= k")
    eps = 1.0 / (10.0 * math.sqrt(k))
    collinear_points, adversarial_points = _representation_samples(n, k, seed)
    cls = SmoothedHyperplaneClass(1 + k, eps)
    inner = seed.child("draws")
    collinear_oracle = cls.sup_oracle(collinear_points, mode="collinear")
    adversarial_oracle = cls.sup_oracle(adversarial_points, mode="patterns")
    collinear = gaussian_average(cls, collinear_points, draws=draws,
                                 seed=inner, workers=workers,
                                 oracle=collinear_oracle)
    adversarial = gaussian_average(cls, adversarial_points, draws=draws,
                                   seed=inner, workers=workers,
                                   oracle=adversarial_oracle)
    return ReprComparisonReport(n, k, eps, collinear, adversarial)


def _representation_samples(n: int, k: int, seed: SeedSpec):
    """The two n-point samples in R^(1+k) of representation_comparison:
    (x, x v + y0) on one line, and (x, e_i), which every sign pattern
    separates."""
    rng = seed.child("sample").generator()
    v = rng.standard_normal(k)
    # lengths as math.fsum, correctly rounded: a BLAS norm's bits follow
    # the CPU's kernel
    v *= 0.9 / math.sqrt(math.fsum(v * v))
    y0 = rng.standard_normal(k)
    y0 *= 0.05 / math.sqrt(math.fsum(y0 * y0))
    xs = rng.uniform(-1.0, 1.0, size=n)
    while len(np.unique(xs)) != n:
        xs = rng.uniform(-1.0, 1.0, size=n)

    collinear_points = np.column_stack([xs, np.outer(xs, v) + y0])
    basis = np.zeros((n, k))
    basis[np.arange(n), np.arange(n)] = 1.0
    return collinear_points, np.column_stack([xs, basis])


@dataclass(frozen=True, eq=False)
class SeparabilityReport:
    separable: bool
    separator: tuple
    margin: float
    canonical_margin: float
    crossings: int
    interior_fixed_points: int

    def to_json(self) -> dict:
        return {"separable": self.separable, "separator": list(self.separator),
                "margin": self.margin, "canonical_margin": self.canonical_margin,
                "crossings": self.crossings,
                "interior_fixed_points": self.interior_fixed_points}


def _exact_extreme(xs, ys, pick, empty):
    """pick (max or min) of the exact y - x over the rows as a Fraction, or
    empty when there are none.  Float subtraction rounds monotonically, so
    the extreme lies among the rows at the extreme float difference."""
    if len(xs) == 0:
        return Fraction(empty)
    d = ys - xs
    at = np.flatnonzero(d == pick(d.tolist()))
    return pick(Fraction(y) - Fraction(x)
                for x, y in zip(xs[at].tolist(), ys[at].tolist()))


def separability_check(instance: SeparableInstance, sample) -> SeparabilityReport:
    """Exact linear separability of (x, y) plus the x-axis crossing count,
    on a labeled block or the first task of a labeled sample.

    The labels must be sign(x - y), ties sent to +1 (else DomainError), and
    a float difference has the exact sign.  So x - y + b = 0 separates the
    rows exactly when lo < b < hi, for lo = max(y - x) over z = +1 and
    hi = min(y - x) over z = -1.  A class with no rows is stood in for by
    its corner of the unit square, (1, 0) or (0, 1), so lo = -1 or hi = 1.
    The separator (1, -1, b) takes the midpoint b; margin is the exact least
    z(x - y + b) at that b and canonical_margin the same at b = 0, each
    rounded once.

    The crossing count of the labels along sorted x equals the number of
    interior fixed points of the connection whenever the sample touches
    every inter-fixed-point interval.
    """
    block = sample.tasks[0] if isinstance(sample, MultiSample) else sample
    interior = len(instance.fixed_points) - 2
    if len(block) == 0:
        xs = ys = zs = np.empty(0)
    else:
        xs, ys, zs = block.x[:, 0], block.y[:, 0], block.z
        if not np.array_equal(zs, np.where(xs >= ys, 1.0, -1.0)):
            raise DomainError("separability needs the labels sign(x - y), "
                              "ties sent to +1")
    positive = zs > 0
    lo = _exact_extreme(xs[positive], ys[positive], max, -1)
    hi = _exact_extreme(xs[~positive], ys[~positive], min, 1)
    b = float((lo + hi) / 2)
    margin = float(min(Fraction(b) - lo, hi - Fraction(b)))

    order = np.argsort(xs)
    flips = int(np.sum(zs[order][1:] != zs[order][:-1]))
    return SeparabilityReport(separable=margin > 0, separator=(1.0, -1.0, b),
                              margin=margin, canonical_margin=float(min(-lo, hi)),
                              crossings=flips, interior_fixed_points=interior)


@dataclass(frozen=True, eq=False)
class BoundScalingReport:
    rows: list
    dominance_fraction: float
    term2_slope: float
    term4_slope: float

    def summary(self) -> dict:
        return {"dominance_fraction": self.dominance_fraction,
                "term2_slope": self.term2_slope,
                "term4_slope": self.term4_slope,
                "runs": len(self.rows)}


def bound_trial(instance, n: int, m: int, T: int, delta: float,
                seed: SeedSpec):
    """One two-stage fit of the scaling connection and the sine predictor
    on fresh samples, its excess risk under the clipped absolute loss, and
    the bound assembled from closed-form inputs, as (BoundReport,
    RiskReport)."""
    scaling = ScalingClass()
    singleton = SineSingletonClass()
    labeled = draw_labeled(instance, T, n, seed)
    unlabeled = draw_unlabeled(instance, T, m, seed)
    solution = fit_multimodal(labeled, unlabeled, scaling, singleton,
                              CLIPPED_ABS)
    report = excess_risk(solution, instance, singleton, CLIPPED_ABS)
    xs_pool, _ = unlabeled.pooled_xy()
    g_avg = scaling.closed_form_gaussian(xs_pool.reshape(-1))
    lipschitz = SineSingletonClass.lipschitz_on(instance.min_support_y())
    bound = risk_bound([0.0] * T, g_avg, solution.stage1_objective, lipschitz,
                       delta, n, m, T)
    return bound, report


def bound_scaling_experiment(ns, ms, Ts, seeds, theta_star: float = 0.7,
                             support_size: int = 12, delta: float = 0.05,
                             seed: SeedSpec = SeedSpec(11)) -> BoundScalingReport:
    """Fit the two-stage solution over a size grid and compare the measured
    excess risk against the assembled bound with closed-form inputs.

    term2's structural rate is regressed after dividing out the measured
    connection average (whose own sqrt(mT) growth is a property of the
    sample, not of the assembly); term4 is regressed as-is against nT.
    """
    if (len({m * T for m in ms for T in Ts}) < 2
            or len({n * T for n in ns for T in Ts}) < 2):
        raise DomainError("the size grid needs two distinct m*T and two "
                          "distinct n*T values to fit the rates")
    instance = make_sine(theta_star, support=support_size)
    rows = []
    for n in ns:
        for m in ms:
            for T in Ts:
                for s in range(seeds):
                    bound, report = bound_trial(instance, n, m, T, delta,
                                                seed.child("run", n, m, T, s))
                    rows.append({
                        "n": n, "m": m, "T": T, "seed": s,
                        "excess": report.excess,
                        "total": bound.total,
                        "term2": bound.term2,
                        "term2_factor": bound.term2 / bound.inputs["connection_average"],
                        "term4": bound.term4,
                        "dominated": bool(report.excess <= bound.total),
                    })
    dominance = float(np.mean([r["dominated"] for r in rows]))
    log_mt = np.log([r["m"] * r["T"] for r in rows])
    log_nt = np.log([r["n"] * r["T"] for r in rows])
    slope2 = float(np.polyfit(log_mt, np.log([r["term2_factor"] for r in rows]), 1)[0])
    slope4 = float(np.polyfit(log_nt, np.log([r["term4"] for r in rows]), 1)[0])
    return BoundScalingReport(rows=rows, dominance_fraction=dominance,
                              term2_slope=slope2, term4_slope=slope4)
