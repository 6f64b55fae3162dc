"""Hypothesis classes: connections X -> Y and predictors (X, Y) -> R.

Every class exposes evaluation, an ERM sub-oracle where one exists, and a
sup oracle used by the complexity estimators.  Oracles always return a
feasible member (or an explicitly not-attained limit value), so estimates
built from them are valid lower bounds of the true supremum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (DegenerateDataError, DomainError, Loss, SingularityError,
                   UnsupportedClassError, loss_eval)
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

    def map_one(self, x: float) -> np.ndarray:
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

    def predict_x(self, x) -> float:
        x = float(np.atleast_1d(x)[0])
        if self.theta * x == 0.0:
            raise SingularityError("composed sine undefined at theta*x = 0")
        return math.sin(1.0 / (self.theta * x))

    def to_json(self):
        return {"member": "sine-composition", "theta": self.theta}


# ---------------------------------------------------------------------------
# evaluation wrapper


def eval_connection(member, x):
    if isinstance(member, PolynomialConnection):
        return member.map_one(x)
    return member.map(x)


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


def sup_witness(cls, sample, sigma) -> Witness:
    """Solve (or certify a lower bound for) sup over the class of the inner
    product of sigma with the member values on the sample."""
    oracle = cls.sup_oracle(sample)
    return oracle.witness(np.asarray(sigma, dtype=float))


# ---------------------------------------------------------------------------
# connection classes


SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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

    def fit_connection(self, xs, ys):
        theta = fit_scaling_lad(xs, ys, signed=self.signed)
        member = ScalingConnection(theta)
        residuals = np.abs(theta * np.asarray(xs, float).reshape(-1)
                           - np.asarray(ys, float).reshape(-1))
        return member, residuals

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

    def members(self):
        return [BooleanConnection(t) for t in _ALL_TABLES]

    def fit_connection(self, xs, ys):
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys = np.asarray(ys, dtype=float).reshape(-1)
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


def fit_boolean_table(samples):
    """Exact minimizer of sum |g(x) - y| over the four boolean tables."""
    xs = np.array([p[0] for p in samples], dtype=float)
    ys = np.array([p[1] for p in samples], dtype=float)
    member, residuals = BooleanMapClass().fit_connection(xs, ys)
    return member.table, float(residuals.sum())


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
        fitted = np.array([member.map_one(x) for x in xs])
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


def fit_polynomial_connection(pairs, degree: int, out_dim: Optional[int] = None):
    """Least-squares polynomial fit; minimum-norm solution (flagged
    non-unique) under rank deficiency."""
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([np.atleast_1d(p[1]) for p in pairs], dtype=float)
    cls = PolynomialClass(degree=degree, out_dim=out_dim or ys.shape[1])
    member, residuals, unique = cls.fit_connection(xs, ys)
    return member, unique


@dataclass(frozen=True)
class TableLookupClass:
    """Lookup tables on a finite scalar support with values in [-1, 1]."""

    support: tuple

    def fit_connection(self, xs, ys):
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys = np.asarray(ys, dtype=float).reshape(-1)
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

    def member(self):
        return SinePredictor()

    def fit_predictor(self, block, loss: Loss, truth=None):
        """truth, when given, holds one prediction per point to use in place
        of sin(1/y) (the certified values of a deep lattice)."""
        member = self.member()
        preds = _row_predictions(member, block) if truth is None else truth
        return member, _total_loss(loss, preds, block.z) / len(block)

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

    def members(self):
        return [BooleanPredictor(t) for t in _ALL_TABLES]

    def fit_predictor(self, block, loss: Loss, truth=None):
        best = None
        for member in self.members():
            total = _total_loss(loss, _row_predictions(member, block), block.z)
            if best is None or total < best[0]:
                best = (total, member)
        return best[1], best[0] / len(block)

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

    def population_risk(self, xs, zs, loss: Loss):
        """Best risk of x-only prediction under the uniform law on the rows
        (xs, zs), as (risk, member): each distinct x takes its own value.

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
        return total / len(xs), TableConnection(tuple(mapping))

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
