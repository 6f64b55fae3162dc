"""Hypothesis classes: connections X -> Y and predictors (X, Y) -> R.

Each class answers for itself through the methods it has; callers do not
branch on its type:

- fit_x(xs, zs, loss, grid_points): the x-only ERM, as a
  UnimodalSolution (scaling, composed sine, boolean maps, sign-complete).
- comparator_risk(instance, t, loss, block): the exact best-in-class risk
  under the uniform law on the rows of a labeled block (the predictor
  classes that serve as both-modality comparators).
- oracle_input(instance, block): what the sup oracle reads from a block:
  lattice indices, (x, y) or x.
- sup_oracle(sample): the per-sample supremum solver used by the
  complexity estimators.  Its batch(sigma) gives one value per row of
  sigma, with no member: the exact supremum where the oracle is exact,
  otherwise the value of a feasible member, so estimates built from it are
  valid lower bounds of the true supremum.  Oracles work on arrays: the
  hyperplane oracle keeps no sign pattern, and the composed sine oracle
  builds one certificate per distinct sign pattern of a batch.
- closed_form_gaussian(sample) / closed_form_rademacher(sample): the
  analytic average, defined only on the classes that have one.
- joint_candidates(per_eval, budget): the candidates of the joint search,
  an iterable read once.
  A class with it is a connection class (scaling, boolean maps), and its
  fit_x under the absolute loss is the connection fit of
  complexity.approximate_realizability and of stage 1.

Every connection member is called as member.map(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .complexity import gaussian_average_closed_form
from .core import (DegenerateDataError, DomainError, Loss, SingularityError,
                   UnsupportedClassError, loss_eval, mean_loss)
from .instances import SineInstance
from . import shatter

TWO_PI = 2.0 * math.pi

# a hyperplane normal's norm bound; lstsq returns norm 1 as 1 + O(1e-16)
UNIT_BALL = 1.0 + 1e-12

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
class TableConnection:
    """Finite lookup on a fixed support, values clipped to [-1, 1]; 0 off
    the support, as for TabulatedPredictor."""

    mapping: tuple    # ((x, value), ...)

    def map(self, x):
        table = dict(self.mapping)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([table.get(float(v), 0.0) for v in x])

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


def _smoothed_sign(s, epsilon):
    """s / max(|s|, eps), elementwise: the hyperplane value at offset s."""
    return s / np.maximum(np.abs(s), epsilon)


@dataclass(frozen=True, eq=False)
class HyperplanePredictor:
    """f(p) = (p.v - c) / max(|p.v - c|, eps) on the stacked point (x, y)."""

    v: np.ndarray
    c: float
    epsilon: float

    def value(self, point: np.ndarray) -> float:
        """The projection p.v is a math.fsum, correctly rounded, so no BLAS
        kernel sets its bits."""
        return float(_smoothed_sign(math.fsum(self.v * point) - self.c,
                                    self.epsilon))

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


class SupOracle:
    """Per-(class, sample) supremum solver: batch(sigma) maps each row of
    sigma to its supremum.  exact means the per-draw supremum is solved
    exactly; otherwise values are certified lower bounds."""

    size: int
    exact: bool
    zero_mean: bool = False

    def batch(self, sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _ScalingOracle(SupOracle):
    def __init__(self, x: np.ndarray, signed: bool):
        self.x = np.asarray(x, dtype=float).reshape(-1)
        self.size = len(self.x)
        self.exact = True
        self.signed = signed

    def batch(self, sigma):
        # numpy's own sum, not a BLAS product: the order of addition, and so
        # the last bits, must not depend on the CPU's BLAS kernel
        s = (sigma * self.x).sum(axis=1)
        return np.abs(s) if self.signed else np.maximum(s, 0.0)


class _SingletonOracle(SupOracle):
    """sup over one member is linear in sigma, hence exactly zero-mean; the
    estimators return 0 before they draw, so it has no batch."""

    zero_mean = True
    exact = True

    def __init__(self, size: int):
        self.size = size


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


def _column_sum(a):
    """Per row of the 2-D array a, its columns added left to right from
    +0.0: a BLAS product's order can change with the CPU's kernel."""
    total = np.zeros(a.shape[0])
    for column in a.T:
        total += column
    return total


def _sum_copies(sigma, slot, groups):
    """Column g of the result sums the columns of sigma whose slot is g.

    np.add.at adds a group's copies one at a time in draw order, so the
    last bits do not depend on the CPU's BLAS kernel; a 0/1 matrix product
    may add three or more copies in another order.
    """
    sums = np.zeros((len(sigma), groups))
    np.add.at(sums, (slice(None), slot), sigma)
    return sums


class _SignCompleteOracle(SupOracle):
    """sup over [-bound, bound]^n of sigma . f is bound * sum |sigma_i|,
    reached at the vertex f = bound * sign(sigma).

    Copies of one point share a value, so with repeated points the sum runs
    over the groups of copies: bound * sum_g |sum_{i in g} sigma_i|, each
    group summed in draw order and the groups added left to right.  Distinct
    points skip the grouping.
    """

    def __init__(self, slot: np.ndarray, groups: int, bound: float):
        self.size = len(slot)
        self.exact = True
        self.bound = bound
        self._slot = slot
        self._groups = groups

    def batch(self, sigma):
        if self._groups != self.size:
            sigma = _sum_copies(sigma, self._slot, self._groups)
        return self.bound * _column_sum(np.abs(sigma))


class _PatternOracle(SupOracle):
    """Supremum over an explicit matrix of member value vectors (C, n).

    Per member, sigma . f adds its products left to right from +0.0, as
    _column_sum does, and a running maximum keeps the best member: no BLAS
    product sets the bits, and no (rows x members) or (rows x n) array is
    built.
    """

    exact = False

    def __init__(self, value_matrix: np.ndarray):
        self.values = np.asarray(value_matrix, dtype=float)
        self.size = self.values.shape[1]

    def batch(self, sigma):
        best = np.full(len(sigma), -np.inf)
        for member in self.values.tolist():
            total = np.zeros(len(sigma))
            for column, value in zip(sigma.T, member):
                total += column * value
            np.maximum(best, total, out=best)
        return best


class _ShatterWitnessOracle(SupOracle):
    """Composed sine family on lattice points: per draw, realize the sign
    pattern of sigma exactly and collect sigma . sin values.  Lower bound
    (>= sum |sigma_i| / 2 by the window guarantee), not the exact supremum.

    Repeated indices (iid draws can hit the same lattice point) share one
    sign, chosen to match the group's sigma sum, which adds the copies in
    draw order.  A batch keys each row's sign pattern by its packed bits and
    builds one certificate per distinct pattern; a row's value adds its
    sums times its pattern's sines left to right.
    """

    exact = False

    def __init__(self, indices):
        unique, self._slot = np.unique([int(i) for i in indices],
                                       return_inverse=True)
        self.unique = tuple(unique.tolist())
        self.size = len(self._slot)

    def batch(self, sigma):
        sums = _sum_copies(sigma, self._slot, len(self.unique))
        # one byte string per row, bit set where the sum is >= 0; bytes
        # compare as the +-1 rows did, so the patterns keep their order
        bits = np.packbits(sums >= 0, axis=1)
        width = bits.shape[1]
        keys, which = np.unique(bits.view(np.dtype((np.void, width))).reshape(-1),
                                return_inverse=True)
        patterns = 2 * np.unpackbits(keys.view(np.uint8).reshape(-1, width),
                                     axis=1, count=sums.shape[1]).astype(int) - 1
        # filled in place: a list of per-pattern rows would raise peak memory
        sines = np.empty(patterns.shape)
        for j, signs in enumerate(patterns.tolist()):
            sines[j] = shatter.construct(signs, convention="sine-sign",
                                         indices=self.unique).sines
        products = sines[which]
        products *= sums
        return _column_sum(products)


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


# the grid's evaluation block, the sub-block its floor certifies, and the
# blocks whose floors are taken in one pass (a bounded floor array)
GRID_BLOCK = 8192
GRID_SUB_BLOCK = 512
GRID_GROUP = 16 * GRID_BLOCK


def _grid_erm(objective, grid_points: int, floor=None):
    """Dense grid over (0, 1]; the first minimum wins, and a NaN value
    counts as +inf, so it never hides a finite value of its block.

    objective maps a 1-D array of thetas to one value per theta.  The grid
    walks blocks of 8192 thetas, each theta k / grid_points built from its
    own integer k, and makes at most one call per block, so the memory does
    not grow with grid_points.  The objective may be violently
    oscillatory, so the recorded resolution is part of the result.

    floor(firsts, lasts), when given, maps the first and last thetas of the
    512-theta sub-blocks of up to 16 blocks, in one call, to a lower bound
    per sub-block on every value in it.  A sub-block whose floor is not
    below the best value so far holds nothing that could replace it, so
    the block's call gets only the block's other sub-blocks, in grid order,
    and a block with none is skipped; a NaN floor skips nothing.  The
    result is that of the full search.  Without floor every block is
    evaluated whole.
    """
    if grid_points < 1:
        raise DomainError("the grid needs at least one point")
    best_val = math.inf
    best_theta = 1.0
    for start in range(0, grid_points, GRID_GROUP):
        stop = min(start + GRID_GROUP, grid_points)
        cuts = np.append(np.arange(start, stop, GRID_SUB_BLOCK), stop)
        # (k + 1) / grid_points has the bits of the sub-block's first theta
        floors = (np.full(len(cuts) - 1, -math.inf) if floor is None else
                  floor((cuts[:-1] + 1) / grid_points, cuts[1:] / grid_points))
        sizes = np.diff(cuts)
        for lo in range(start, stop, GRID_BLOCK):
            first = (lo - start) // GRID_SUB_BLOCK
            subs = slice(first, first + GRID_BLOCK // GRID_SUB_BLOCK)
            live = ~(floors[subs] >= best_val)
            if not live.any():
                continue
            chunk = np.arange(lo + 1, min(lo + GRID_BLOCK, stop) + 1, dtype=float)
            if not live.all():
                chunk = chunk[np.repeat(live, sizes[subs])]
            chunk /= grid_points
            vals = objective(chunk)
            j = int(np.argmin(np.where(np.isnan(vals), math.inf, vals)))
            if vals[j] < best_val:
                best_val = float(vals[j])
                best_theta = float(chunk[j])
    return best_theta, best_val


def _clipped_mean_losses(preds, zs, loss: Loss):
    d = np.abs(preds - zs)
    if loss.kind == "clipped-absolute":
        d = np.minimum(d, 1.0)
    return d.mean(axis=-1)


def _pairwise_sum(rows):
    """The sum of the rows of the 2-D array rows, as whole vectors, in the
    order of numpy's pairwise sum: one after another below 8 rows; up to
    128 rows, eight running sums over the rows i = 0..7 (mod 8), combined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rows
    left over, in order; above 128 rows, the sums of the two parts split at
    n/2 rounded down to a multiple of 8."""
    n = len(rows)
    if n < 8:
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        return total
    if n <= 128:
        stop = n - n % 8
        r = rows[:8].copy()
        for lo in range(8, stop, 8):
            r += rows[lo:lo + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in rows[stop:]:
            total += row
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])


def _row_mean(d):
    """The mean of the rows of the 2-D array d, one value per column, with
    the bits of numpy's mean along the last axis of a C-contiguous copy of
    d.T, but with no copy: _pairwise_sum's sum, plus the +0.0 numpy's
    reduce starts from (so a column of -0.0 sums to +0.0), divided by the
    row count."""
    total = _pairwise_sum(d)
    total += 0.0
    total /= len(d)
    return total


def _distinct_rows(xs):
    """(distinct x, the row of each x among them), or (xs, None) when no x
    repeats and there is nothing to share."""
    distinct, slot = np.unique(xs, return_inverse=True)
    if len(distinct) == len(xs):
        return xs, None
    return distinct, slot


def _grid_objective(values, xs, zs, loss):
    """The mean loss over the rows (xs, zs) of the members whose predictions
    are values(theta * x), elementwise, as a map from a 1-D array of thetas
    to one mean per theta.  values gets a (distinct x, thetas) array of its
    own and may write its result into it.

    values runs once per distinct x, on a row that runs along the thetas,
    and |prediction - z| and the clip run on those long rows.  The mean is
    _row_mean's, whole rows added in numpy's pairwise order, so every value
    has the bits of the one-row-per-theta form
    _clipped_mean_losses(values(np.outer(thetas, xs)), zs, loss).
    """
    distinct, slot = _distinct_rows(xs)
    labels = zs[:, None]

    def objective(thetas):
        d = values(np.multiply.outer(distinct, thetas))
        if slot is not None:
            d = d[slot]
        d -= labels
        np.abs(d, out=d)
        if loss.kind == "clipped-absolute":
            np.minimum(d, 1.0, out=d)
        return _row_mean(d)

    return objective


def _grid_floor(span, xs, zs, loss):
    """floor(firsts, lasts): for each pair of thetas first <= last, a lower
    bound on every value that _grid_objective(values, xs, zs, loss) gives
    the thetas from first to last, where span(lo, hi) bounds, elementwise,
    the values the value map gives the floats from lo to hi.

    Rounding is monotone, so the computed theta * x of those thetas lies
    between the ones of first and last, each row's computed |prediction -
    z| is at least the computed distance from z to span's bounds, and the
    clip keeps that order.  The floor adds those distances in the
    objective's own row order, with _row_mean, and so is below the mean of
    every theta from first to last, bit for bit and at any size of the
    losses.  One pass takes every pair: a (distinct x, pairs) array.
    """
    distinct, slot = _distinct_rows(xs)
    labels = zs[:, None]

    def floor(firsts, lasts):
        ends = np.multiply.outer(distinct, firsts), np.multiply.outer(distinct, lasts)
        low, high = span(np.minimum(*ends), np.maximum(*ends))
        if slot is not None:
            low, high = low[slot], high[slot]
        gap = np.maximum(np.maximum(low - labels, labels - high), 0.0)
        if loss.kind == "clipped-absolute":
            np.minimum(gap, 1.0, out=gap)
        return _row_mean(gap)

    return floor


def _grid_fit(member_at, values, span, xs, zs, loss, grid_points):
    """Grid ERM of the one-parameter family theta -> member_at(theta) over
    the _grid_objective of its value map, skipping the blocks that
    _grid_floor, from the map's span, shows cannot beat the best so far."""
    theta, val = _grid_erm(_grid_objective(values, xs, zs, loss), grid_points,
                           floor=_grid_floor(span, xs, zs, loss))
    return UnimodalSolution(member=member_at(theta), objective=val,
                            path="grid-upper-bound",
                            grid_resolution=1.0 / grid_points)


def _sine_values(p):
    """sin(1 / p), written into p."""
    return np.sin(np.divide(1.0, p, out=p), out=p)


def _holds(a, b, phase):
    """Whether each [a, b], widened by 1e-6, holds a point phase + 2 pi k;
    the widening covers the rounding of this test for |a|, |b| <= 2^20."""
    k = np.floor((b + 1e-6 - phase) / TWO_PI)
    return phase + k * TWO_PI >= a - 1e-6


def _sine_span(lo, hi):
    """Bounds, elementwise, on numpy's sin(1 / p) for every float p from lo
    to hi: -1 where the arguments reach a trough, +1 where they reach a
    peak, and otherwise the sines of the two end arguments, widened by
    1e-12 for the error of numpy's sin.  An interval that holds or touches
    0, and arguments that are not finite or exceed 2^20 in size, get
    [-1, 1]."""
    with np.errstate(all="ignore"):
        a, b = 1.0 / hi, 1.0 / lo
        wide = ~((lo * hi > 0.0) & (-2.0 ** 20 <= a) & (b <= 2.0 ** 20))
        sa, sb = np.sin(a), np.sin(b)
        return (np.where(wide | _holds(a, b, -0.5 * math.pi), -1.0,
                         np.minimum(sa, sb) - 1e-12),
                np.where(wide | _holds(a, b, 0.5 * math.pi), 1.0,
                         np.maximum(sa, sb) + 1e-12))


def _reads_x(self, instance, block):
    return block.x[:, 0]


def _reads_xy(self, instance, block):
    return block.x[:, 0], block.y


# ---------------------------------------------------------------------------
# connection classes


SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# below this norm a sum of squares is subnormal
SQRT_TINY = math.sqrt(np.finfo(float).tiny)


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

    The sup oracle gives sup_theta theta * (sigma . x) in closed form:
    max(s, 0) on (0, 1], approached as theta -> 0+ when s <= 0, and |s| on
    the signed domain, approached at its open endpoints.
    """

    signed: bool = False

    oracle_input = _reads_x

    def fit_x(self, xs, zs, loss: Loss, grid_points: int):
        """The exact weighted-median LAD under plain absolute loss, the
        recorded-resolution grid over (0, 1] otherwise."""
        if loss.kind == "absolute":
            theta = fit_scaling_lad(xs, zs, signed=self.signed)
            return UnimodalSolution(member=ScalingConnection(theta),
                                    objective=float(np.mean(np.abs(theta * xs - zs))),
                                    path="exact-lad")
        return _grid_fit(ScalingConnection, lambda p: p, lambda lo, hi: (lo, hi),
                         xs, zs, loss, grid_points)

    def joint_candidates(self, per_eval: int, budget: int):
        """Grid over (0, 1] sized to the evaluation budget, as (members,
        zero-loss tolerance, whether the budget cut the grid short).  The
        members are made one at a time, as the search reads them.  An
        off-grid zero-loss parameter shows up at the grid resolution."""
        affordable = budget // max(per_eval, 1)
        points = max(1, min(100_000, affordable))
        members = (ScalingConnection(float(i) / points) for i in range(1, points + 1))
        return members, 1.0 / points, affordable < 100_000

    def sup_oracle(self, sample):
        return _ScalingOracle(sample, signed=self.signed)

    def closed_form_gaussian(self, sample):
        x = np.asarray(sample, dtype=float)
        norm = float(np.linalg.norm(x))
        if norm < SQRT_TINY:
            # x . x is subnormal or 0.0, so it lost bits; x / max|x| does not
            top = float(np.max(np.abs(x), initial=0.0))
            if top > 0.0:
                norm = top * float(np.linalg.norm(x / top))
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

    def fit_x(self, xs, zs, loss: Loss, grid_points: int):
        """Enumeration of the four tables; the first least mean wins, also
        where the totals differ but round to one mean."""
        members = self.members()
        values = [float(_clipped_mean_losses(m.map(xs), zs, loss)) for m in members]
        best = int(np.argmin(values))
        return UnimodalSolution(member=members[best], objective=values[best],
                                path="enumeration-exact")

    def joint_candidates(self, per_eval: int, budget: int):
        return self.members(), 1e-12, False

    def sup_oracle(self, sample):
        return _BooleanMapOracle(sample)

    def to_json(self):
        return {"class": "boolean-map"}


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
        ys = np.asarray(ys, dtype=float)
        if np.any((ys[:, 0] if ys.ndim > 1 else ys) == 0.0):
            raise SingularityError("sin(1/y) undefined at y = 0")
        return _SingletonOracle(len(xs))

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

    def comparator_risk(self, instance, t: int, loss: Loss, block) -> Fraction:
        return min(mean_loss(loss, _row_predictions(member, block), block.z)
                   for member in self.members())

    def to_json(self):
        return {"class": "boolean-lookup"}


@dataclass(frozen=True)
class SignCompleteClass:
    """All maps of the distinct points of a finite sample into [-bound, bound].

    The per-draw supremum over the hypercube is reached at the vertex
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

    def fit_x(self, xs, zs, loss: Loss, grid_points: int):
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

    The sup oracle takes one of two modes the caller names: "collinear",
    the value matrix of the n+1 rising thresholds along the line of a
    collinear sample (a certified lower bound), or "patterns", which
    certifies all 2^n sign patterns at margin >= eps; the class is then
    sign-complete on the sample, and the sign-complete oracle gives the
    supremum sum |sigma_i|, the outright maximum over [-1,1]^n.
    """

    dim: int
    epsilon: float

    PATTERN_BLOCK = 256    # sign patterns certified per block

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
        if np.linalg.norm(v) > UNIT_BALL:
            raise DomainError("normal vector must lie in the unit ball")
        return HyperplanePredictor(v, float(c), self.epsilon)

    def _collinear_direction(self, points):
        """The unit direction of the line through a sample, or None when a
        point lies more than 1e-9 off it.  Every length and projection is a
        math.fsum, correctly rounded, so no BLAS kernel sets its bits."""
        centered = points - points.mean(axis=0)
        lengths = [math.sqrt(math.fsum(row * row)) for row in centered]
        lead = int(np.argmax(lengths))
        if lengths[lead] == 0:
            # single point (or all coincident): any direction will do
            u = np.zeros(points.shape[1])
            u[0] = 1.0
            return u
        u = centered[lead] / lengths[lead]
        residual = centered - np.outer([math.fsum(u * row) for row in centered], u)
        if max(math.sqrt(math.fsum(row * row)) for row in residual) > 1e-9:
            return None
        return u

    def _threshold_values(self, points):
        """Values of the rising threshold members sign(t - c) (+1 past the
        cut) along a collinear sample, one per cut between consecutive points
        and one beyond each end: a feasible witness collection.  Each
        projection t is computed once, as a member scores it."""
        u = self._collinear_direction(points)
        if u is None:
            raise DomainError("threshold members need a collinear sample")
        t = np.array([math.fsum(u * p) for p in points])
        spots = np.sort(t)
        cuts = np.concatenate([[spots[0] - 1.0],
                               (spots[:-1] + spots[1:]) / 2.0,
                               [spots[-1] + 1.0]])
        return _smoothed_sign(t - cuts[:, None], self.epsilon)

    def _certify_patterns(self, points):
        """Certify the 2^n sign patterns at margin >= eps, a block at a
        time, keeping none.

        Pattern p gets v = lstsq(points, p/sqrt(n)); one matrix product gives
        a block's margins.  Each value s/max(|s|, eps) is then exactly the
        sign of p.
        """
        n = points.shape[0]
        if n > 20:
            raise DomainError("pattern enumeration capped at 20 points")
        shifts = np.arange(n - 1, -1, -1)
        for lo in range(0, 2 ** n, self.PATTERN_BLOCK):
            codes = np.arange(lo, min(lo + self.PATTERN_BLOCK, 2 ** n))
            patterns = 2.0 * ((codes[:, None] >> shifts) & 1) - 1.0
            normals = np.array([np.linalg.lstsq(points, p / math.sqrt(n),
                                                rcond=None)[0]
                                for p in patterns])
            margins = normals @ points.T
            if (np.linalg.norm(normals, axis=1).max() > UNIT_BALL
                    or np.any(np.sign(margins) != patterns)
                    or np.min(np.abs(margins)) < self.epsilon):
                raise UnsupportedClassError("no certified member set for this sample")

    def sup_oracle(self, sample, mode: str):
        points = np.asarray(sample, dtype=float)
        if points.shape[1] != self.dim:
            raise DomainError("sample points have the wrong dimension")
        if mode == "collinear":
            return _PatternOracle(self._threshold_values(points))
        if mode == "patterns":
            self._certify_patterns(points)
            return SignCompleteClass().sup_oracle(points)
        raise DomainError(f"unknown oracle mode {mode!r}")

    def to_json(self):
        return {"class": "smoothed-hyperplane", "dim": self.dim,
                "epsilon": self.epsilon}


@dataclass(frozen=True)
class ComposedSineClass:
    """Unimodal family {x -> sin(1/(theta x)), theta in (0,1]}.

    On lattice supports the sup oracle realizes any sign pattern through an
    exact shattering witness; ERM over the oscillatory objective goes
    through the grid search of this module, _grid_erm.
    """

    def member(self, theta: float) -> SineComposition:
        if not (0.0 < theta <= 1.0):
            raise DomainError("theta must lie in (0, 1]")
        return SineComposition(theta)

    def fit_x(self, xs, zs, loss: Loss, grid_points: int):
        """Grid ERM; every member is undefined at x = 0, so such a row has
        no loss to minimize."""
        if np.any(xs == 0.0):
            raise SingularityError("composed sine undefined at theta*x = 0")
        return _grid_fit(SineComposition, _sine_values, _sine_span, xs, zs,
                         loss, grid_points)

    def oracle_input(self, instance, block):
        """The lattice indices of the rows: the oracle certifies patterns on
        the exact lattice, which float x cannot carry."""
        if not isinstance(instance, SineInstance) or block.support_index is None:
            raise DomainError("the composed sine oracle needs draws from a "
                              "lattice sine instance")
        return [instance.support[p] for p in block.support_index.tolist()]

    def sup_oracle(self, sample):
        return _ShatterWitnessOracle(sample)

    def to_json(self):
        return {"class": "composed-sine", "indices": None}


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
                                    grid_points=100_000)
        return Fraction(solution.objective)

    def sup_oracle(self, sample):
        xs, _ = sample
        return self.inner.sup_oracle(xs)

    def closed_form_gaussian(self, sample):
        xs, _ = sample
        return gaussian_average_closed_form(self.inner, xs)

    def to_json(self):
        return {"class": "x-only", "inner": self.inner.to_json()}
