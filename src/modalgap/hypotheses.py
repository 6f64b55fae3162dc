"""Hypothesis classes: connections X -> Y and predictors (X, Y) -> R.

Each class answers for itself through the methods it has; callers do not
branch on its type:

- fit_x(xs, zs, loss, grid_points, refine): the x-only ERM, as a
  UnimodalSolution (scaling, composed sine, boolean maps, sign-complete).
- comparator_risk(instance, t, loss, block): the exact best-in-class risk
  under the uniform law on the rows of a labeled block (the predictor
  classes that serve as both-modality comparators).
- oracle_input(instance, block): what the sup oracle reads from a block:
  lattice indices, (x, y) or x.
- sup_oracle(sample): the per-sample supremum solver used by the
  complexity estimators.  Oracles always return a feasible member (or an
  explicitly not-attained limit value), so estimates built from them are
  valid lower bounds of the true supremum.
- fit_connection(xs, ys) and joint_candidates(per_eval, budget): the
  connection fit and the candidates of the joint search.

Every connection member is called as member.map(x).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (DegenerateDataError, DomainError, Loss, SingularityError,
                   UnsupportedClassError, loss_eval, mean_loss)
from .instances import SineInstance
from . import shatter

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# connection members


@dataclass(frozen=True)
class ScalingConnection:
    """g(x) = theta * x.  For witness-backed fits, c_exact carries the exact
    parameter theta = 1/(2*pi*c_exact); the float theta may underflow."""

    theta: float
    c_exact: Optional[Fraction] = None

    def map(self, x):
        return self.theta * np.asarray(x, dtype=float)

    def to_json(self):
        data = {"member": "scaling", "theta": self.theta}
        if self.c_exact is not None:
            data["c_exact"] = f"{self.c_exact.numerator}/{self.c_exact.denominator}"
        return data


@dataclass(frozen=True)
class BooleanConnection:
    """Lookup g: {0,1} -> {0,1}."""

    table: tuple

    def map(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.5, float(self.table[1]), float(self.table[0]))

    def to_json(self):
        return {"member": "boolean", "table": list(self.table)}


@dataclass(frozen=True, eq=False)
class PolynomialConnection:
    """g(x) = project(sum_i x^i v_i) with projection onto a centered ball."""

    coeffs: np.ndarray           # (degree+1, k)
    radius: float = 2.0

    def map(self, x: float) -> np.ndarray:
        powers = np.power(float(x), np.arange(self.coeffs.shape[0]))
        raw = powers @ self.coeffs
        norm = np.linalg.norm(raw)
        if norm > self.radius:
            raw = raw * (self.radius / norm)
        return raw

    def to_json(self):
        return {"member": "polynomial", "coeffs": self.coeffs.tolist(),
                "radius": self.radius}


@dataclass(frozen=True, eq=False)
class TableConnection:
    """Finite lookup on a fixed support, values clipped to [-1, 1]."""

    mapping: tuple    # ((x, value), ...)

    def map(self, x):
        table = dict(self.mapping)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([table[float(v)] for v in x])

    def to_json(self):
        return {"member": "table", "mapping": [list(p) for p in self.mapping]}


# ---------------------------------------------------------------------------
# predictor members


@dataclass(frozen=True)
class SinePredictor:
    """f(x, y) = sin(1/y); singular at y = 0."""

    def predict(self, x, y) -> float:
        y = float(np.atleast_1d(y)[0])
        if y == 0.0:
            raise SingularityError("sin(1/y) undefined at y = 0")
        return math.sin(1.0 / y)

    def to_json(self):
        return {"member": "sine"}


@dataclass(frozen=True)
class BooleanPredictor:
    """f(x, y) = table[y] for y in {0, 1}."""

    table: tuple

    def predict(self, x, y) -> float:
        y = float(np.atleast_1d(y)[0])
        return float(self.table[1] if y >= 0.5 else self.table[0])

    def to_json(self):
        return {"member": "boolean-lookup", "table": list(self.table)}


@dataclass(frozen=True, eq=False)
class HyperplanePredictor:
    """f(p) = (p.v - c) / max(|p.v - c|, eps) on the stacked point (x, y)."""

    v: np.ndarray
    c: float
    epsilon: float

    def value(self, point: np.ndarray) -> float:
        s = float(np.dot(self.v, point)) - self.c
        return s / max(abs(s), self.epsilon)

    def predict(self, x, y) -> float:
        point = np.concatenate([np.atleast_1d(x), np.atleast_1d(y)])
        return self.value(point)

    def to_json(self):
        return {"member": "hyperplane", "v": self.v.tolist(), "c": self.c,
                "epsilon": self.epsilon}


@dataclass(frozen=True, eq=False)
class TabulatedPredictor:
    """Point-by-point memorized values in [-1, 1]; 0 off the training set."""

    points: tuple    # ((x_bytes, y_bytes, value), ...)

    @staticmethod
    def _key(x, y):
        return (np.atleast_1d(np.asarray(x, float)).tobytes(),
                np.atleast_1d(np.asarray(y, float)).tobytes())

    def predict(self, x, y) -> float:
        key = self._key(x, y)
        for xb, yb, val in self.points:
            if (xb, yb) == key:
                return val
        return 0.0

    def to_json(self):
        return {"member": "tabulated", "size": len(self.points)}


@dataclass(frozen=True)
class SineComposition:
    """Unimodal member x -> sin(1/(theta x)) of the composed sine family."""

    theta: float

    def map(self, x) -> np.ndarray:
        """Elementwise math.sin, so every value keeps the bits of the scalar
        evaluation (np.sin may differ in the last bit)."""
        scaled = self.theta * np.asarray(x, dtype=float)
        if np.any(scaled == 0.0):
            raise SingularityError("composed sine undefined at theta*x = 0")
        return np.array([math.sin(1.0 / v) for v in scaled.reshape(-1).tolist()]
                        ).reshape(scaled.shape)

    def to_json(self):
        return {"member": "sine-composition", "theta": self.theta}


# ---------------------------------------------------------------------------
# sup oracles


@dataclass(frozen=True)
class Witness:
    """A feasible member together with its inner-product value.  When the
    supremum is only approached (open parameter domain), attained is False
    and member may be None; the value is still the exact supremum."""

    value: float
    member: object = None
    attained: bool = True


class SupOracle:
    """Per-(class, sample) supremum solver: batch for Monte Carlo loops and
    witness for single draws.  exact means the per-draw supremum is solved
    exactly; otherwise values are certified lower bounds."""

    size: int
    exact: bool
    zero_mean: bool = False

    def batch(self, sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def witness(self, sigma: np.ndarray) -> Witness:
        raise NotImplementedError


class _ScalingOracle(SupOracle):
    def __init__(self, x: np.ndarray, signed: bool):
        self.x = np.asarray(x, dtype=float).reshape(-1)
        self.size = len(self.x)
        self.exact = True
        self.signed = signed

    def batch(self, sigma):
        s = sigma @ self.x
        return np.abs(s) if self.signed else np.maximum(s, 0.0)

    def witness(self, sigma):
        s = float(np.dot(sigma, self.x))
        if self.signed:
            # sup over theta in (-1,0) u (0,1) is |s|, approached at |theta| -> 1
            return Witness(value=abs(s), member=None, attained=False)
        if s > 0:
            return Witness(value=s, member=ScalingConnection(1.0), attained=True)
        # sup over (0, 1] is 0, approached as theta -> 0+
        return Witness(value=0.0, member=None, attained=False)


class _SingletonOracle(SupOracle):
    """sup over one member is linear in sigma, hence exactly zero-mean."""

    def __init__(self, values: np.ndarray, member):
        self.values = np.asarray(values, dtype=float).reshape(-1)
        self.size = len(self.values)
        self.exact = True
        self.zero_mean = True
        self.member = member

    def batch(self, sigma):
        return sigma @ self.values

    def witness(self, sigma):
        return Witness(value=float(np.dot(sigma, self.values)),
                       member=self.member, attained=True)


class _BooleanMapOracle(SupOracle):
    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=float).reshape(-1)
        self.mask1 = x >= 0.5
        self.size = len(x)
        self.exact = True

    def batch(self, sigma):
        s0 = sigma[:, ~self.mask1].sum(axis=1)
        s1 = sigma[:, self.mask1].sum(axis=1)
        return np.maximum(s0, 0.0) + np.maximum(s1, 0.0)

    def witness(self, sigma):
        s0 = float(sigma[~self.mask1].sum())
        s1 = float(sigma[self.mask1].sum())
        member = BooleanConnection((int(s0 > 0), int(s1 > 0)))
        return Witness(value=max(s0, 0.0) + max(s1, 0.0), member=member)


class _SignCompleteOracle(SupOracle):
    """sup over [-bound, bound]^n of sigma . f is bound * sum |sigma_i|,
    attained at the vertex f = bound * sign(sigma).

    Copies of one point share a value, so with repeated points the sum runs
    over the groups of copies: bound * sum_g |sum_{i in g} sigma_i|.  The
    group sums are one 0/1 matrix product; distinct points skip it.
    """

    def __init__(self, slot: np.ndarray, groups: int, bound: float):
        self.size = len(slot)
        self.exact = True
        self.bound = bound
        self._incidence = (None if groups == self.size else
                           (slot[:, None] == np.arange(groups)).astype(float))

    def _group_sums(self, sigma):
        return sigma if self._incidence is None else sigma @ self._incidence

    def batch(self, sigma):
        return self.bound * np.abs(self._group_sums(sigma)).sum(axis=1)

    def witness(self, sigma):
        return Witness(value=self.bound * float(np.abs(self._group_sums(sigma)).sum()))


class _PatternOracle(SupOracle):
    """Supremum over an explicit matrix of member value vectors (C, n)."""

    def __init__(self, value_matrix: np.ndarray, members=None, exact=False,
                 block: int = 128):
        self.values = np.asarray(value_matrix, dtype=float)
        self.members = members
        self.size = self.values.shape[1]
        self.exact = exact
        self.block = block

    def batch(self, sigma):
        out = np.empty(sigma.shape[0])
        # block the rows so candidate matmuls stay within a bounded footprint
        for lo in range(0, sigma.shape[0], self.block):
            hi = min(lo + self.block, sigma.shape[0])
            out[lo:hi] = (sigma[lo:hi] @ self.values.T).max(axis=1)
        return out

    def witness(self, sigma):
        scores = self.values @ sigma
        best = int(np.argmax(scores))
        member = self.members[best] if self.members is not None else None
        return Witness(value=float(scores[best]), member=member)


class _ShatterWitnessOracle(SupOracle):
    """Composed sine family on lattice points: per draw, realize the sign
    pattern of sigma exactly and collect sigma . sin values.  Lower bound
    (>= sum |sigma_i| / 2 by the window guarantee), not the exact supremum.

    Repeated indices (iid draws can hit the same lattice point) share one
    sign, chosen to match the group's sigma sum.
    """

    def __init__(self, indices):
        self.positions = tuple(int(i) for i in indices)
        self.unique = tuple(sorted(set(self.positions)))
        self._slot = np.array([self.unique.index(i) for i in self.positions])
        self.size = len(self.positions)
        self.exact = False
        self._cache = {}

    def _sines_for(self, signs: tuple):
        cached = self._cache.get(signs)
        if cached is None:
            cert = shatter.construct(signs, convention="sine-sign",
                                     indices=self.unique)
            cached = (np.array(cert.sine_values()), cert)
            if len(self._cache) < 1 << 16:
                self._cache[signs] = cached
        return cached

    def _one(self, sigma):
        sums = np.zeros(len(self.unique))
        np.add.at(sums, self._slot, sigma)
        signs = tuple(int(s) for s in np.where(sums >= 0, 1, -1))
        sines, cert = self._sines_for(signs)
        return float(np.dot(sums, sines)), cert

    def batch(self, sigma):
        return np.array([self._one(row)[0] for row in sigma])

    def witness(self, sigma):
        value, cert = self._one(np.asarray(sigma, dtype=float))
        member = SineComposition(theta=cert.theta)
        return Witness(value=value, member=member)


# ---------------------------------------------------------------------------
# x-only ERM


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


def _grid_fit(member_at, values, xs, zs, loss, grid_points, refine):
    """Grid ERM of the one-parameter family theta -> member_at(theta), whose
    predictions at the rows xs are values(outer(thetas, xs))."""
    def objective(thetas):
        return _clipped_mean_losses(values(np.outer(thetas, xs)), zs, loss)
    theta, val = _grid_erm(objective, grid_points, refine)
    return UnimodalSolution(member=member_at(theta), objective=val,
                            path="grid-upper-bound",
                            grid_resolution=1.0 / grid_points)


def _reads_x(self, instance, block):
    return block.x[:, 0]


def _reads_xy(self, instance, block):
    return block.x[:, 0], block.y


# ---------------------------------------------------------------------------
# connection classes


SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _scalar_pairs(xs, ys):
    """x and y as flat float vectors; a connection into R reads one y column."""
    ys = np.asarray(ys, dtype=float)
    if ys.ndim > 1 and ys.shape[1] != 1:
        raise DomainError(f"the class maps x into R, but y has {ys.shape[1]} columns")
    return np.asarray(xs, dtype=float).reshape(-1), ys.reshape(-1)


def fit_scaling_lad(xs, ys, signed: bool = False):
    """Least-absolute-deviations fit of y ~ theta*x, solved exactly as the
    |x|-weighted median of the ratios y/x, then clamped to the domain.

    Ties are broken toward the smaller theta.  Points with x = 0 contribute
    a constant to the objective and are dropped; if every x is 0 the fit is
    degenerate.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    mask = xs != 0.0
    if not np.any(mask):
        raise DegenerateDataError("all regressors are zero")
    ratios = ys[mask] / xs[mask]
    weights = np.abs(xs[mask])
    order = np.argsort(ratios, kind="stable")
    ratios = ratios[order]
    weights = weights[order]
    cum = np.cumsum(weights)
    half = cum[-1] / 2.0
    pos = int(np.searchsorted(cum, half, side="left"))
    theta = float(ratios[min(pos, len(ratios) - 1)])
    if signed:
        theta = max(-1.0 + 1e-12, min(1.0 - 1e-12, theta))
        if theta == 0.0:
            theta = 1e-12
    else:
        theta = max(1e-12, min(1.0, theta))
    return theta


def fit_scaling_lad_exact(pairs) -> Fraction:
    """Exact-rational weighted-median LAD on (x, y) Fraction pairs."""
    items = [(Fraction(y) / Fraction(x), abs(Fraction(x)))
             for x, y in pairs if x != 0]
    if not items:
        raise DegenerateDataError("all regressors are zero")
    items.sort(key=lambda p: p[0])
    total = sum(w for _, w in items)
    half = total / 2
    acc = Fraction(0)
    for ratio, w in items:
        acc += w
        if acc >= half:
            return ratio
    return items[-1][0]


@dataclass(frozen=True)
class ScalingClass:
    """{g(x) = theta x}; domain (0,1] by default, (-1,0) u (0,1) if signed.

    The domain is half-open, so suprema approached at theta -> 0+ (or the
    open endpoints of the signed domain) are reported with attained=False.
    """

    signed: bool = False

    oracle_input = _reads_x

    def fit_connection(self, xs, ys):
        xs, ys = _scalar_pairs(xs, ys)
        theta = fit_scaling_lad(xs, ys, signed=self.signed)
        return ScalingConnection(theta), np.abs(theta * xs - ys)

    def fit_x(self, xs, zs, loss: Loss, grid_points: int, refine: bool):
        """The exact weighted-median LAD under plain absolute loss, the
        recorded-resolution grid over (0, 1] otherwise."""
        if loss.kind == "absolute" and loss.scale == 1.0:
            theta = fit_scaling_lad(xs, zs, signed=self.signed)
            return UnimodalSolution(member=ScalingConnection(theta),
                                    objective=float(np.mean(np.abs(theta * xs - zs))),
                                    path="exact-lad")
        return _grid_fit(ScalingConnection, lambda p: p, xs, zs, loss,
                         grid_points, refine)

    def joint_candidates(self, per_eval: int, budget: int):
        """Grid over (0, 1] sized to the evaluation budget, as (members,
        zero-loss tolerance, whether the budget cut the grid short).  An
        off-grid zero-loss parameter shows up at the grid resolution."""
        affordable = budget // max(per_eval, 1)
        points = max(1, min(100_000, affordable))
        members = [ScalingConnection(float(i) / points) for i in range(1, points + 1)]
        return members, 1.0 / points, affordable < 100_000

    def sup_oracle(self, sample):
        return _ScalingOracle(sample, signed=self.signed)

    def closed_form_gaussian(self, sample):
        norm = float(np.linalg.norm(np.asarray(sample, dtype=float)))
        if self.signed:
            return norm * SQRT_2_OVER_PI
        return norm / SQRT_2PI

    def closed_form_rademacher(self, sample):
        x = np.asarray(sample, dtype=float).reshape(-1)
        if len(x) == 1:
            return abs(float(x[0])) * (1.0 if self.signed else 0.5)
        return None

    def to_json(self):
        return {"class": "scaling", "signed": self.signed}


_ALL_TABLES = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class BooleanMapClass:
    """All four maps {0,1} -> {0,1}."""

    oracle_input = _reads_x

    def members(self):
        return [BooleanConnection(t) for t in _ALL_TABLES]

    def fit_x(self, xs, zs, loss: Loss, grid_points: int, refine: bool):
        """Enumeration of the four tables; the first minimum wins."""
        members = self.members()
        values = [float(_clipped_mean_losses(m.map(xs), zs, loss)) for m in members]
        best = int(np.argmin(values))
        return UnimodalSolution(member=members[best], objective=values[best],
                                path="enumeration-exact")

    def joint_candidates(self, per_eval: int, budget: int):
        return self.members(), 1e-12, False

    def fit_connection(self, xs, ys):
        xs, ys = _scalar_pairs(xs, ys)
        best = None
        # lexicographic enumeration; strict improvement keeps the smallest table
        for table in _ALL_TABLES:
            pred = np.where(xs >= 0.5, float(table[1]), float(table[0]))
            value = float(np.abs(pred - ys).sum())
            if best is None or value < best[0]:
                best = (value, table, np.abs(pred - ys))
        return BooleanConnection(best[1]), best[2]

    def sup_oracle(self, sample):
        return _BooleanMapOracle(sample)

    def closed_form_gaussian(self, sample):
        return None

    def to_json(self):
        return {"class": "boolean-map"}


@dataclass(frozen=True)
class PolynomialClass:
    """Degree-d polynomial connections into R^k, outputs projected onto a
    centered ball at evaluation time."""

    degree: int
    out_dim: int
    radius: float = 2.0

    def fit_connection(self, xs, ys):
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys = np.asarray(ys, dtype=float)
        if ys.ndim == 1:
            ys = ys.reshape(-1, 1)
        vander = np.vander(xs, N=self.degree + 1, increasing=True)
        coeffs, _, rank, _ = np.linalg.lstsq(vander, ys, rcond=None)
        member = PolynomialConnection(coeffs=coeffs, radius=self.radius)
        fitted = np.array([member.map(x) for x in xs])
        residuals = np.linalg.norm(fitted - ys, axis=1)
        unique = rank == self.degree + 1
        return member, residuals, unique

    def sup_oracle(self, sample):
        raise UnsupportedClassError("no sup oracle for polynomial connections")

    def closed_form_gaussian(self, sample):
        return None

    def to_json(self):
        return {"class": "polynomial", "degree": self.degree,
                "out_dim": self.out_dim, "radius": self.radius}


@dataclass(frozen=True)
class TableLookupClass:
    """Lookup tables on a finite scalar support with values in [-1, 1]."""

    support: tuple

    def fit_connection(self, xs, ys):
        xs, ys = _scalar_pairs(xs, ys)
        mapping = []
        residuals = np.empty(len(xs))
        for point in self.support:
            mask = xs == float(point)
            if np.any(mask):
                value = float(np.clip(np.median(ys[mask]), -1.0, 1.0))
            else:
                value = 0.0
            mapping.append((float(point), value))
            residuals[mask] = np.abs(ys[mask] - value)
        return TableConnection(tuple(mapping)), residuals

    def sup_oracle(self, sample):
        x = np.asarray(sample, dtype=float).reshape(-1)
        groups = [np.flatnonzero(x == float(p)) for p in self.support]

        class _Oracle(SupOracle):
            size = len(x)
            exact = True

            def batch(_, sigma):
                total = np.zeros(sigma.shape[0])
                for g in groups:
                    if len(g):
                        total += np.abs(sigma[:, g].sum(axis=1))
                return total

            def witness(_, sigma):
                mapping = []
                value = 0.0
                for point, g in zip(self.support, groups):
                    s = float(sigma[g].sum()) if len(g) else 0.0
                    mapping.append((float(point), 1.0 if s >= 0 else -1.0))
                    value += abs(s)
                return Witness(value=value, member=TableConnection(tuple(mapping)))

        return _Oracle()

    def closed_form_gaussian(self, sample):
        return None

    def to_json(self):
        return {"class": "table-lookup", "support": list(self.support)}


# ---------------------------------------------------------------------------
# predictor classes


def _row_predictions(member, block) -> list:
    return [member.predict(x, y) for x, y in zip(block.x, block.y)]


def _total_loss(loss: Loss, preds, zs) -> float:
    """Sum of pointwise losses, accumulated left to right."""
    total = 0.0
    for pred, z in zip(preds, zs.tolist()):
        total += loss_eval(loss, pred, z)
    return total


@dataclass(frozen=True)
class SineSingletonClass:
    """The singleton {f(x, y) = sin(1/y)}.

    Not globally Lipschitz: the effective constant is declared per support
    via lipschitz_on (1/y_min^2 bounds the difference quotient wherever the
    support keeps y away from 0).
    """

    oracle_input = _reads_xy

    def member(self):
        return SinePredictor()

    def fit_predictor(self, block, loss: Loss, truth=None):
        """truth, when given, holds one prediction per point to use in place
        of sin(1/y) (the certified values of a deep lattice)."""
        member = self.member()
        preds = _row_predictions(member, block) if truth is None else truth
        return member, _total_loss(loss, preds, block.z) / len(block)

    def comparator_risk(self, instance, t: int, loss: Loss, block) -> Fraction:
        """Risk of sin(1/y) itself, read from the certified values on
        lattice supports."""
        if isinstance(instance, SineInstance) and block.support_index is not None:
            preds = instance._z_floats[block.support_index].tolist()
        else:
            ys = block.y[:, 0].tolist()
            if 0.0 in ys:
                raise SingularityError("sin(1/y) undefined at y = 0")
            preds = [math.sin(1.0 / y) for y in ys]
        return mean_loss(loss, preds, block.z)

    def sup_oracle(self, sample):
        xs, ys = sample
        values = np.array([SinePredictor().predict(x, y) for x, y in zip(xs, ys)])
        return _SingletonOracle(values, SinePredictor())

    def closed_form_gaussian(self, sample):
        return 0.0

    def closed_form_rademacher(self, sample):
        return 0.0

    @staticmethod
    def lipschitz_on(y_min: float) -> float:
        if y_min <= 0:
            raise DomainError("support must keep y away from 0")
        return 1.0 / (y_min * y_min)

    def to_json(self):
        return {"class": "sine-singleton"}


@dataclass(frozen=True)
class BooleanLookupClass:
    """f(x, y) = table[y] for the four boolean tables."""

    oracle_input = _reads_xy

    def members(self):
        return [BooleanPredictor(t) for t in _ALL_TABLES]

    def fit_predictor(self, block, loss: Loss, truth=None):
        best = None
        for member in self.members():
            total = _total_loss(loss, _row_predictions(member, block), block.z)
            if best is None or total < best[0]:
                best = (total, member)
        return best[1], best[0] / len(block)

    def comparator_risk(self, instance, t: int, loss: Loss, block) -> Fraction:
        return min(mean_loss(loss, _row_predictions(member, block), block.z)
                   for member in self.members())

    def sup_oracle(self, sample):
        xs, ys = sample
        ys = np.asarray(ys, dtype=float).reshape(-1)
        mask1 = ys >= 0.5
        values = [np.where(mask1, float(t[1]), float(t[0])) for t in _ALL_TABLES]
        return _PatternOracle(np.array(values), members=self.members(), exact=True)

    def closed_form_gaussian(self, sample):
        return None

    def to_json(self):
        return {"class": "boolean-lookup"}


@dataclass(frozen=True)
class SignCompleteClass:
    """All maps of the distinct points of a finite sample into [-bound, bound].

    The per-draw supremum over the hypercube is attained at the vertex
    bound * sign(sigma), so the oracle returns bound * sum |sigma_i| in
    closed form for any number of points.  Copies of one point (resamples
    drawn with replacement) share a value, so their sigmas are summed first.
    """

    bound: float = 1.0

    oracle_input = _reads_x

    def fit_predictor(self, block, loss: Loss, truth=None):
        values = np.clip(block.z, -self.bound, self.bound).tolist()
        member = TabulatedPredictor(tuple(
            TabulatedPredictor._key(x, y) + (v,)
            for x, y, v in zip(block.x, block.y, values)))
        total = _total_loss(loss, _row_predictions(member, block), block.z)
        return member, total / len(block)

    @staticmethod
    def _slots(points):
        """Group index of each point (first-seen order) and the group count."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        groups = {}
        slot = np.array([groups.setdefault(row.tobytes(), len(groups))
                         for row in points], dtype=int)
        return slot, len(groups)

    @classmethod
    def _group_sizes(cls, points):
        slot, groups = cls._slots(points)
        return np.bincount(slot, minlength=groups).tolist()

    def fit_x(self, xs, zs, loss: Loss, grid_points: int, refine: bool):
        """Exact x-only ERM on the rows (xs, zs): each distinct x takes its
        own value, so the minimum splits over the groups of equal x.

        The loss is piecewise linear in the value with convex kinks only at
        the labels, so a group's minimum sits at a clipped label or a bound.
        """
        groups = {}
        for x, z in zip(xs.tolist(), zs.tolist()):
            groups.setdefault(x, []).append(z)
        total = 0.0
        mapping = []
        for x, labels in groups.items():
            candidates = {min(max(z, -self.bound), self.bound) for z in labels}
            group_loss, value = min(
                (sum(loss_eval(loss, v, z) for z in labels), v)
                for v in sorted(candidates | {-self.bound, self.bound}))
            total += group_loss
            mapping.append((x, value))
        return UnimodalSolution(member=TableConnection(tuple(mapping)),
                                objective=total / len(xs), path="enumeration-exact")

    def comparator_risk(self, instance, t: int, loss: Loss, block) -> Fraction:
        # every map is in the class, so the pointwise best value clip(z) is
        # also the population minimizer
        preds = [min(max(z, -self.bound), self.bound) for z in block.z.tolist()]
        return mean_loss(loss, preds, block.z)

    def sup_oracle(self, sample):
        return _SignCompleteOracle(*self._slots(sample), self.bound)

    def closed_form_gaussian(self, sample):
        """bound * sqrt(2/pi) * sum_g sqrt(|g|): sum_{i in g} g_i ~ N(0, |g|)."""
        root_sizes = sum(math.sqrt(k) for k in self._group_sizes(sample))
        return self.bound * root_sizes * SQRT_2_OVER_PI

    def closed_form_rademacher(self, sample):
        """bound * sum_g E|S_g| with S_k a sum of k Rademacher signs:
        E|S_k| = k * C(k-1, (k-1)//2) / 2^(k-1), which is 1 for k = 1."""
        means = sum(k * math.comb(k - 1, (k - 1) // 2) / 2 ** (k - 1)
                    for k in self._group_sizes(sample))
        return self.bound * means

    def to_json(self):
        return {"class": "sign-complete", "bound": self.bound}


@dataclass(frozen=True)
class SmoothedHyperplaneClass:
    """f(p) = (p.v - c)/max(|p.v - c|, eps) with ||v|| <= 1; (1/eps)-Lipschitz.

    The sup oracle enumerates an explicit feasible member set: thresholds
    along the line for collinear samples, or all 2^n patterns when the
    sample admits every pattern at margin >= eps (then the enumeration is
    exact, since sum |sigma_i| is the outright maximum over [-1,1]^n).
    """

    dim: int
    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise DomainError("epsilon must be positive")

    @property
    def lipschitz(self) -> float:
        return 1.0 / self.epsilon

    def member(self, v, c) -> HyperplanePredictor:
        v = np.asarray(v, dtype=float)
        if len(v) != self.dim:
            raise DomainError("normal vector has wrong dimension")
        if np.linalg.norm(v) > 1 + 1e-12:
            raise DomainError("normal vector must lie in the unit ball")
        return HyperplanePredictor(v=v, c=float(c), epsilon=self.epsilon)

    def _collinear_direction(self, points):
        centered = points - points.mean(axis=0)
        norms = np.linalg.norm(centered, axis=1)
        lead = centered[int(np.argmax(norms))]
        if np.linalg.norm(lead) == 0:
            # single point (or all coincident): any direction will do
            u = np.zeros(points.shape[1])
            u[0] = 1.0
            return u
        u = lead / np.linalg.norm(lead)
        residual = centered - np.outer(centered @ u, u)
        if np.max(np.linalg.norm(residual, axis=1)) > 1e-9:
            return None
        return u

    def threshold_members(self, points, polarity: str = "rising") -> list:
        """Feasible threshold members along a collinear sample.

        "rising" is the canonical threshold family sign(t - c) (+1 past the
        cut); "both" adds every negated member as well.  Either set is a
        valid witness collection; "both" realizes every hyperplane dichotomy
        of the line and so never estimates lower.
        """
        points = np.asarray(points, dtype=float)
        u = self._collinear_direction(points)
        if u is None:
            raise DomainError("threshold members need a collinear sample")
        t = points @ u
        spots = np.sort(t)
        cuts = np.concatenate([[spots[0] - 1.0],
                               (spots[:-1] + spots[1:]) / 2.0,
                               [spots[-1] + 1.0]])
        signs = (1.0,) if polarity == "rising" else (1.0, -1.0)
        members = []
        for c in cuts:
            for sign in signs:
                members.append(self.member(sign * u, sign * c))
        return members

    def pattern_members(self, points) -> Optional[list]:
        """One member per sign pattern when every pattern has margin >= eps.

        Uses v = (pattern restricted to the point coordinates)/sqrt(n); the
        construction certifies itself by checking the realized margins.
        """
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        if n > 20:
            raise DomainError("pattern enumeration capped at 20 points")
        members = []
        for pattern in itertools.product((-1.0, 1.0), repeat=n):
            p = np.array(pattern)
            v, _, _, _ = np.linalg.lstsq(points, p / math.sqrt(n), rcond=None)
            norm = np.linalg.norm(v)
            if norm > 1:
                return None
            margins = points @ v
            if np.any(np.sign(margins) != np.sign(p)) or np.min(np.abs(margins)) < self.epsilon:
                return None
            members.append(self.member(v, 0.0))
        return members

    def sup_oracle(self, sample, mode: str = "auto", polarity: str = "rising"):
        points = np.asarray(sample, dtype=float)
        if mode in ("auto", "collinear"):
            u = self._collinear_direction(points)
            if u is not None:
                members = self.threshold_members(points, polarity=polarity)
                values = np.array([[m.value(p) for p in points] for m in members])
                return _PatternOracle(values, members=members, exact=False)
            if mode == "collinear":
                raise DomainError("sample is not collinear")
        if mode in ("auto", "patterns"):
            members = self.pattern_members(points)
            if members is not None:
                values = np.array([[m.value(p) for p in points] for m in members])
                return _PatternOracle(values, members=members, exact=True)
        raise UnsupportedClassError("no certified member set for this sample")

    def closed_form_gaussian(self, sample):
        return None

    def to_json(self):
        return {"class": "smoothed-hyperplane", "dim": self.dim,
                "epsilon": self.epsilon}


@dataclass(frozen=True)
class ComposedSineClass:
    """Unimodal family {x -> sin(1/(theta x)), theta in (0,1]}.

    On lattice supports the sup oracle realizes any sign pattern through an
    exact shattering witness; ERM over the oscillatory objective goes
    through the grid search in the erm module.
    """

    indices: Optional[tuple] = None

    def member(self, theta: float) -> SineComposition:
        if not (0.0 < theta <= 1.0):
            raise DomainError("theta must lie in (0, 1]")
        return SineComposition(theta)

    def fit_x(self, xs, zs, loss: Loss, grid_points: int, refine: bool):
        return _grid_fit(SineComposition, lambda p: np.sin(1.0 / p), xs, zs,
                         loss, grid_points, refine)

    def oracle_input(self, instance, block):
        """The lattice indices of the rows: the oracle certifies patterns on
        the exact lattice, which float x cannot carry."""
        if not isinstance(instance, SineInstance) or block.support_index is None:
            raise DomainError("the composed sine oracle needs draws from a "
                              "lattice sine instance")
        return [instance.support[p] for p in block.support_index.tolist()]

    def sup_oracle(self, sample=None):
        idx = self.indices if sample is None else tuple(sample)
        if idx is None:
            raise UnsupportedClassError("sup oracle needs lattice indices")
        return _ShatterWitnessOracle(idx)

    def closed_form_gaussian(self, sample):
        return None

    def to_json(self):
        return {"class": "composed-sine",
                "indices": list(self.indices) if self.indices else None}


@dataclass(frozen=True)
class XOnlyPredictorClass:
    """Adapter presenting a connection class as a predictor ignoring y.

    Used to compare 'both modalities with the same class' against the
    unimodal view: Gaussian averages and risks then coincide by definition.
    """

    inner: object

    oracle_input = _reads_xy

    def comparator_risk(self, instance, t: int, loss: Loss, block) -> Fraction:
        """The inner class's x-only ERM on the support of task t, which is
        its population minimizer under the uniform law there."""
        support = instance.support_enumeration(t)
        if support is None:
            raise DomainError("population risk needs a finite support")
        solution = self.inner.fit_x(support.x[:, 0], support.z, loss,
                                    grid_points=100_000, refine=False)
        return Fraction(solution.objective)

    def sup_oracle(self, sample):
        xs, _ = sample
        return self.inner.sup_oracle(xs)

    def closed_form_gaussian(self, sample):
        xs, _ = sample
        return self.inner.closed_form_gaussian(xs)

    def to_json(self):
        return {"class": "x-only", "inner": self.inner.to_json()}


def measured_lipschitz(predict, support_sampler, pairs: int = 10**4,
                       seed: int = 0) -> float:
    """Largest difference quotient of a predictor over random support pairs.

    The declared class constant must upper-bound this measurement; used by
    the audit tests, not by the estimators themselves.
    """
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
