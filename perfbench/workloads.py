"""The benchmark's workloads: one operation shape each, only the seed varies.

Every operation calls the public modalgap entry points that the acceptance
criteria and the CLI subcommands call, with one worker. Each workload checks
every result against values computed here, apart from the program:
``check`` judges one operation and ``check_run`` the run as a whole. Both
return None when the result is right and a reason when it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from modalgap import analysis, complexity, core, erm
from modalgap.core import CLIPPED_ABS
from modalgap.hypotheses import ComposedSineClass, ScalingClass, SineSingletonClass
from modalgap.instances import make_sine

# E|g| for a standard normal g: the Gaussian average of a sign-complete
# class with unit bound is n times this.
ABS_GAUSS_MEAN = math.sqrt(2.0 / math.pi)
SQRT_HALF = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class Separation:
    """Criterion 5 and ``modalgap separation``: one trial per operation.

    One depth-n^3 shattered lattice, a grid ERM on x alone, the exact-LAD
    two-stage fit and two exact rational risk sums over the support.
    """

    n: int = 4
    grid_points: int = 100_000
    name = "separation"

    def setup(self):
        return None

    def op(self, ctx, spec):
        return analysis.unimodal_failure_experiment(
            n=self.n, trials=1, seed=spec, grid_points=self.grid_points)

    def check(self, ctx, stats):
        if stats.multimodal_excess[0] != 0.0:
            return f"multimodal excess {stats.multimodal_excess[0]!r} is not 0"
        if not 0.0 <= stats.unimodal_excess[0] <= 1.0:
            return f"unimodal excess {stats.unimodal_excess[0]!r} outside [0, 1]"
        return None

    def check_run(self, ctx, results):
        mean = sum(float(s.unimodal_excess[0]) for s in results) / len(results)
        dupfree = sum(bool(s.duplicate_free[0]) for s in results) / len(results)
        if mean < 0.2:
            return f"mean unimodal excess {mean:.3f} < 0.2"
        if dupfree < 0.5:
            return f"duplicate-free share {dupfree:.3f} < 0.5"
        return None


@dataclass(frozen=True)
class WitnessMC:
    """Criterion 3 and ``modalgap gaussavg --cls composed-sine``.

    Each draw's value lies between (sqrt(2)/2) sum|sigma_i|, the window
    guarantee, and sum|sigma_i|, the sign-complete supremum, so the estimate
    lies between those two multiples of n sqrt(2/pi), up to its own error.
    """

    n: int = 12
    draws: int = 1000
    name = "witness-mc"

    def setup(self):
        return ComposedSineClass(), list(range(1, self.n + 1))

    def op(self, ctx, spec):
        cls, indices = ctx
        return complexity.gaussian_average(cls, indices, draws=self.draws,
                                           seed=spec, workers=1)

    def check(self, ctx, est):
        if est.mode != "witness-lower-bound":
            return f"mode {est.mode!r} is not witness-lower-bound"
        if est.draws != self.draws:
            return f"{est.draws} draws, asked for {self.draws}"
        top = self.n * ABS_GAUSS_MEAN
        lo = SQRT_HALF * top - 4.0 * est.stderr
        hi = top + 4.0 * est.stderr
        if not lo <= est.value <= hi:
            return f"estimate {est.value:.4f} outside [{lo:.4f}, {hi:.4f}]"
        return None

    def check_run(self, ctx, results):
        return None


@dataclass(frozen=True)
class SampleFit:
    """Criterion 7 and ``modalgap bound`` on the support-12 sine lattice."""

    n: int = 64
    m: int = 1024
    T: int = 4
    support: int = 12
    theta_star: float = 0.7
    delta: float = 0.05
    name = "sample-fit"

    def setup(self):
        return make_sine(self.theta_star, support=self.support)

    def op(self, instance, spec):
        scaling = ScalingClass()
        singleton = SineSingletonClass()
        labeled = core.draw_labeled(instance, self.T, self.n, spec)
        unlabeled = core.draw_unlabeled(instance, self.T, self.m, spec)
        solution = erm.fit_multimodal(labeled, unlabeled, scaling, singleton,
                                      CLIPPED_ABS)
        report = analysis.excess_risk(solution, instance, singleton, CLIPPED_ABS)
        xs_pool, _ = unlabeled.pooled_xy()
        g_avg = scaling.closed_form_gaussian(xs_pool.reshape(-1))
        lipschitz = SineSingletonClass.lipschitz_on(instance.min_support_y())
        bound = analysis.risk_bound([0.0] * self.T, g_avg,
                                    solution.stage1_objective, lipschitz,
                                    self.delta, self.n, self.m, self.T)
        return solution, report, bound

    def expected_term4(self):
        """(8L+4) sqrt(log(8/delta)/(2nT)) with L = 1/y_min^2, where the
        smallest support point is the first lattice point 16/17."""
        y_min = self.theta_star * float(Fraction(16, 17))
        lipschitz = 1.0 / (y_min * y_min)
        return (8.0 * lipschitz + 4.0) * math.sqrt(
            math.log(8.0 / self.delta) / (2.0 * self.n * self.T))

    def check(self, instance, result):
        solution, report, bound = result
        theta = solution.connection.theta
        if abs(theta - self.theta_star) > 1e-12:
            return f"stage 1 theta {theta!r} is not {self.theta_star}"
        if report.excess != 0.0:
            return f"excess risk {report.excess!r} is not 0"
        if not math.isclose(bound.term4, self.expected_term4(), rel_tol=1e-12):
            return f"term4 {bound.term4!r} is not {self.expected_term4()!r}"
        if not bound.total >= report.excess:
            return f"bound {bound.total!r} below excess {report.excess!r}"
        return None

    def check_run(self, instance, results):
        return None


@dataclass(frozen=True)
class ReprPatterns:
    """Criterion 8 and ``modalgap repr-compare``.

    On the adversarial sample every sign pattern is realized at margin
    epsilon, so each draw's supremum is exactly sum|sigma_i| and the
    estimate is an unbiased mean of n sqrt(2/pi). The limit is 5 standard
    errors, not 4: a set of ten runs makes about 800 of these operations,
    and a 4-sigma miss would then turn up by chance in about one set in
    twenty.
    """

    n: int = 12
    k: int = 16
    draws: int = 4096
    name = "repr-patterns"

    def setup(self):
        return None

    def op(self, ctx, spec):
        return analysis.representation_comparison(
            n=self.n, k=self.k, seed=spec, draws=self.draws, workers=1)

    def check(self, ctx, report):
        adv = report.adversarial
        if adv.mode != "enumeration-exact":
            return f"adversarial mode {adv.mode!r} is not enumeration-exact"
        expected = self.n * ABS_GAUSS_MEAN
        if abs(adv.value - expected) > 5.0 * adv.stderr:
            return (f"adversarial estimate {adv.value:.4f} is more than "
                    f"5 stderr from {expected:.4f}")
        if not report.collinear.value < adv.value:
            return (f"collinear estimate {report.collinear.value:.4f} is not "
                    f"below {adv.value:.4f}")
        return None

    def check_run(self, ctx, results):
        return None


WORKLOADS = {w.name: w for w in (Separation(), WitnessMC(), SampleFit(),
                                 ReprPatterns())}
