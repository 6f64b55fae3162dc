"""Concrete distribution families used by the experiments.

Each family is an immutable value object with pure seeded draws.  Finite
sine supports keep their points as exact rationals 16^i/(16^i+1) and only
convert to float at emission, because the shattering machinery needs exact
values downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Block, DomainError, ModalgapError
from . import shatter
from .shatter import (ShatterCertificate, certificate_from_json,
                      certificate_to_json, lattice_point)

TWO_PI = 2.0 * math.pi


def _sin(values) -> np.ndarray:
    """Elementwise math.sin: an emitted label equals the scalar re-evaluation
    sin(1/y) of the predictors and the risk bit for bit on any platform."""
    return np.array([math.sin(v) for v in np.asarray(values).tolist()])


@dataclass(frozen=True, eq=False)
class SineInstance:
    """x in (0,1], y = theta* x, z = sin(1/y).

    Either theta_star is a float in (0,1], or the instance is backed by an
    exact shattering witness (theta* = 1/(2*pi*c) with rational c, far below
    float range for deep lattices).  Support is the continuous interval or a
    uniform law on chosen lattice indices.
    """

    theta_star: Optional[float] = None
    support: Optional[tuple] = None        # lattice indices, None = continuous
    witness: Optional[ShatterCertificate] = None

    task_count = None
    q = 1
    k = 1

    def __post_init__(self):
        if (self.theta_star is None) == (self.witness is None):
            raise DomainError("exactly one of theta_star / witness required")
        if self.theta_star is not None:
            if not (0.0 < self.theta_star <= 1.0):
                raise DomainError("theta* must lie in (0, 1]")
        if self.support is not None:
            idx = tuple(int(i) for i in self.support)
            if len(idx) < 1 or any(i < 1 for i in idx):
                raise DomainError("support indices must be positive")
            if len(set(idx)) != len(idx):
                raise DomainError("support indices must be distinct")
            object.__setattr__(self, "support", tuple(sorted(idx)))
        if self.witness is not None:
            if self.support is None:
                raise DomainError("witness-backed instances need a finite support")
            if self.support != tuple(self.witness.indices):
                raise DomainError("support must match the witness index set")
            # fail fast if the lattice is too deep for float64 emission
            if np.any(self._y_floats == 0.0):
                raise DomainError("support too deep: y underflows float64")

    @property
    def continuous(self) -> bool:
        return self.support is None

    @property
    def theta(self) -> float:
        """Float view of theta*; may underflow for deep witnesses."""
        if self.theta_star is not None:
            return self.theta_star
        return self.witness.theta

    @cached_property
    def support_points(self) -> tuple:
        """Exact rational support points x_i."""
        if self.continuous:
            raise DomainError("continuous support has no point list")
        return tuple(lattice_point(i) for i in self.support)

    @cached_property
    def _x_floats(self) -> np.ndarray:
        return np.array([float(p) for p in self.support_points])

    def _scaled_y_ratio(self, index: int) -> tuple:
        """(num, den) with num/den = 2*pi*y_index = 1/(c * a_index)."""
        c = self.witness.c
        w = 16 ** index
        return c.denominator * w, c.numerator * (w + 1)

    @cached_property
    def _y_floats(self) -> np.ndarray:
        if self.witness is not None:
            # int-by-int true division rounds once, as float(Fraction) does
            return np.array([num / den / TWO_PI for num, den in
                             map(self._scaled_y_ratio, self.support)])
        return self.theta_star * self._x_floats

    @cached_property
    def _z_floats(self) -> np.ndarray:
        if self.witness is not None:
            return np.array([self.witness.entry_for(i).sine for i in self.support])
        return _sin(1.0 / self._y_floats)

    def _lattice_block(self, pos) -> Block:
        return Block(x=self._x_floats[pos], y=self._y_floats[pos],
                     z=self._z_floats[pos], support_index=pos)

    def exact_scaled_pairs(self, positions) -> list:
        """Exact (x, 2*pi*y) rational pairs for witness-backed supports.

        Scaling y by 2*pi keeps the pair rational: 2*pi*y_i = 1/(c*a_i).
        The scaling drops out of any ratio- or argmin-based fit.
        """
        if self.witness is None:
            raise DomainError("exact pairs need a witness-backed instance")
        indices = [self.support[pos] for pos in positions]
        return [(lattice_point(i), Fraction(*self._scaled_y_ratio(i)))
                for i in indices]

    def draw_labeled_task(self, rng, t, count):
        if self.continuous:
            x = 1.0 - rng.random(count)          # uniform on (0, 1]
            y = self.theta_star * x
            return Block(x=x, y=y, z=_sin(1.0 / y))
        return self._lattice_block(rng.integers(0, len(self.support), size=count))

    def support_enumeration(self, t: int):
        """The finite support as one labeled block, uniform over its rows;
        None if the support is continuous."""
        if self.continuous:
            return None
        return self._lattice_block(np.arange(len(self.support)))

    def min_support_y(self) -> float:
        if self.continuous:
            raise DomainError("continuous support has no minimum y")
        return float(np.min(self._y_floats))

    def to_json(self) -> dict:
        data = {"family": "sine",
                "support": list(self.support) if self.support else None}
        if self.witness is not None:
            data["witness"] = certificate_to_json(self.witness)
        else:
            data["theta_star"] = self.theta_star
        return data

    @staticmethod
    def from_json(data: dict) -> "SineInstance":
        support = data.get("support")
        if data.get("witness") is not None:
            cert = certificate_from_json(data["witness"])
            return SineInstance(witness=cert, support=tuple(support))
        return make_sine(data["theta_star"],
                         support=tuple(support) if support else None)


def make_sine(theta_star: float, support=None) -> SineInstance:
    """Sine family instance; support None = continuous, int m = indices 1..m,
    or an explicit collection of distinct lattice indices."""
    if support is None:
        return SineInstance(theta_star=theta_star, support=None)
    if isinstance(support, int):
        if support < 1:
            raise DomainError("finite support size must be positive")
        support = range(1, support + 1)
    return SineInstance(theta_star=theta_star, support=tuple(support))


def make_sine_subset(indices: Sequence[int], theta_star: float) -> SineInstance:
    """Uniform law on a chosen subset of lattice indices with sine labels."""
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise DomainError("subset indices must be distinct")
    return SineInstance(theta_star=theta_star, support=idx)


def make_sine_shattered(signs: Sequence[int], indices=None,
                        convention: str = "sine-sign") -> SineInstance:
    """Witness-backed instance whose labels realize the given sign pattern
    (|z| >= sqrt(2)/2 at every support point)."""
    cert = shatter.construct(signs, convention=convention, indices=indices)
    return SineInstance(witness=cert, support=tuple(cert.indices))


THREE_PARAM_RULES = ("sine-of-sum", "raw-sum")


@dataclass(frozen=True, eq=False)
class ThreeParamInstance:
    """Per-draw latents c in (0,1), t1 in (1,2), t2 in (-2,-1), t1+t2 != 0;
    emits (x, y) = (c*t1, c*t2).

    The label is governed by label_rule: "sine-of-sum" gives z = sin(1/(x+y))
    so the composed-class analysis applies; "raw-sum" gives z = x + y.  Both
    are retained because only complexity measurements depend on the choice.
    Note |x|, |y| can reach 2, beyond the usual unit-ball convention.
    """

    label_rule: str = "sine-of-sum"

    task_count = None
    q = 1
    k = 1

    def __post_init__(self):
        if self.label_rule not in THREE_PARAM_RULES:
            raise DomainError(f"unknown label rule {self.label_rule!r}")

    def draw_latent_task(self, rng, t, count):
        c = rng.random(count)
        t1 = 1.0 + rng.random(count)
        t2 = -2.0 + rng.random(count)
        # retry the measure-zero degeneracies c=0 and t1+t2=0
        bad = (c == 0.0) | (t1 + t2 == 0.0)
        while np.any(bad):
            c[bad] = rng.random(int(bad.sum()))
            t1[bad] = 1.0 + rng.random(int(bad.sum()))
            t2[bad] = -2.0 + rng.random(int(bad.sum()))
            bad = (c == 0.0) | (t1 + t2 == 0.0)
        x = c * t1
        y = c * t2
        z = _sin(1.0 / (x + y)) if self.label_rule == "sine-of-sum" else x + y
        return Block(x=x, y=y, z=z), np.stack([c, t1, t2], axis=1)

    def draw_labeled_task(self, rng, t, count):
        block, _ = self.draw_latent_task(rng, t, count)
        return block

    def support_enumeration(self, t):
        return None

    def to_json(self) -> dict:
        return {"family": "three-param", "label_rule": self.label_rule}

    @staticmethod
    def from_json(data: dict) -> "ThreeParamInstance":
        return make_three_param(data.get("label_rule", "sine-of-sum"))


def make_three_param(label_rule: str = "sine-of-sum") -> ThreeParamInstance:
    return ThreeParamInstance(label_rule=label_rule)


# the four support points (x, y), in support-position order
_BOOL_X = np.array([0.0, 1.0, 0.0, 1.0])
_BOOL_Y = np.array([0, 0, 1, 1])


@dataclass(frozen=True, eq=False)
class BooleanInstance:
    """Uniform law on the four observations (x, y, b_t(y)) with x, y in {0,1};
    the label depends on y alone, so no x-only predictor can beat chance when
    b_t is non-constant."""

    tables: tuple   # one (b(0), b(1)) pair per task

    q = 1
    k = 1

    def __post_init__(self):
        tabs = tuple((int(a), int(b)) for a, b in self.tables)
        if len(tabs) < 1:
            raise DomainError("need at least one task table")
        if any(v not in (0, 1) for tab in tabs for v in tab):
            raise DomainError("truth tables take values in {0, 1}")
        object.__setattr__(self, "tables", tabs)

    @property
    def task_count(self) -> int:
        return len(self.tables)

    def _patterns(self, t: int, which) -> Block:
        y = _BOOL_Y[which]
        return Block(x=_BOOL_X[which], y=y, z=np.array(self.tables[t])[y],
                     support_index=which)

    def draw_labeled_task(self, rng, t, count):
        return self._patterns(t, rng.integers(0, 4, size=count))

    def support_enumeration(self, t: int):
        """The four support points as one labeled block, uniform over its rows."""
        return self._patterns(t, np.arange(4))

    def to_json(self) -> dict:
        return {"family": "boolean", "tables": [list(t) for t in self.tables]}

    @staticmethod
    def from_json(data: dict) -> "BooleanInstance":
        return make_boolean(tuple(tuple(t) for t in data["tables"]))


def make_boolean(tables) -> BooleanInstance:
    return BooleanInstance(tables=tuple(tables))


@dataclass(frozen=True, eq=False)
class HyperplaneLabel:
    """z = sign(wx*x + wy.y - offset), ties resolved to +1."""

    wx: float = 1.0
    wy: tuple = ()
    offset: float = 0.0

    def __call__(self, x: float, y: np.ndarray) -> float:
        s = self.wx * x + float(np.dot(np.asarray(self.wy or [0.0] * len(y)), y))
        return 1.0 if s - self.offset >= 0 else -1.0

    def to_json(self) -> dict:
        return {"rule": "hyperplane", "wx": self.wx,
                "wy": list(self.wy), "offset": self.offset}


@dataclass(frozen=True, eq=False)
class SubspaceInstance:
    """x uniform on [-1, 1], y = x*v + y0 exactly (so y lives on a line in
    the radius-2 ball); the label is any measurable map of (x, y)."""

    v: np.ndarray
    y0: np.ndarray
    label_rule: Callable = None

    task_count = None
    q = 1

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        y0 = np.asarray(self.y0, dtype=np.float64)
        if v.shape != y0.shape or v.ndim != 1:
            raise DomainError("v and y0 must be 1-D vectors of equal length")
        if np.linalg.norm(v) > 1 + 1e-12 or np.linalg.norm(y0) > 1 + 1e-12:
            raise DomainError("v and y0 must lie in the unit ball")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "y0", y0)
        if self.label_rule is None:
            object.__setattr__(self, "label_rule", HyperplaneLabel())

    @property
    def k(self) -> int:
        return len(self.v)

    def draw_labeled_task(self, rng, t, count):
        xs = rng.uniform(-1.0, 1.0, size=count)
        ys = np.outer(xs, self.v) + self.y0
        # the label rule is any map of one point (x, y)
        zs = [self.label_rule(x, y) for x, y in zip(xs, ys)]
        return Block(x=xs, y=ys, z=zs)

    def support_enumeration(self, t):
        return None

    def to_json(self) -> dict:
        rule = self.label_rule
        rule_json = rule.to_json() if hasattr(rule, "to_json") else "custom"
        return {"family": "subspace", "v": list(self.v),
                "y0": list(self.y0), "label_rule": rule_json}

    @staticmethod
    def from_json(data: dict) -> "SubspaceInstance":
        rule = data.get("label_rule")
        label = None
        if isinstance(rule, dict) and rule.get("rule") == "hyperplane":
            label = HyperplaneLabel(wx=rule["wx"], wy=tuple(rule["wy"]),
                                    offset=rule["offset"])
        return make_subspace(data["v"], data["y0"], label_rule=label)


def make_subspace(v, y0, label_rule=None) -> SubspaceInstance:
    return SubspaceInstance(v=np.asarray(v, dtype=float),
                            y0=np.asarray(y0, dtype=float),
                            label_rule=label_rule)


@dataclass(frozen=True, eq=False)
class SeparableInstance:
    """y = f(x) for a strictly increasing piecewise-linear f on [0,1] with
    f(0)=0, f(1)=1; z = sign(x - y) with ties sent to +1.

    The pair (x, y) is always separated by the line x - y = 0, while the
    x-axis decision regions alternate across the interior fixed points of f.
    The identity map is rejected: its label would be a tie everywhere.
    """

    breakpoints: tuple   # ((Fraction x, Fraction y), ...) strictly increasing

    task_count = None
    q = 1
    k = 1

    def __post_init__(self):
        pts = tuple((Fraction(a), Fraction(b)) for a, b in self.breakpoints)
        if len(pts) < 2:
            raise DomainError("need at least the two endpoint breakpoints")
        if pts[0] != (Fraction(0), Fraction(0)) or pts[-1] != (Fraction(1), Fraction(1)):
            raise DomainError("breakpoints must start at (0,0) and end at (1,1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if not (x1 > x0 and y1 > y0):
                raise DomainError("breakpoints must increase strictly in x and y")
        if all(a == b for a, b in pts):
            raise DomainError("f must differ from the identity map")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if y0 == x0 and y1 == x1:
                raise DomainError("diagonal segments make the fixed-point set infinite")
        object.__setattr__(self, "breakpoints", pts)

    @cached_property
    def fixed_points(self) -> tuple:
        """Exact solutions of f(x) = x, always including 0 and 1."""
        found = []
        for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            slope = (y1 - y0) / (x1 - x0)
            if slope == 1:
                continue  # parallel to the diagonal, crossings only at ends
            xstar = (y0 - slope * x0) / (1 - slope)
            if x0 <= xstar <= x1:
                found.append(xstar)
        found.extend([Fraction(0), Fraction(1)])
        return tuple(sorted(set(found)))

    @cached_property
    def _bx(self) -> np.ndarray:
        return np.array([float(a) for a, _ in self.breakpoints])

    @cached_property
    def _by(self) -> np.ndarray:
        return np.array([float(b) for _, b in self.breakpoints])

    def f(self, x):
        return np.interp(x, self._bx, self._by)

    def f_exact(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise DomainError("x outside [0, 1]")

    def draw_labeled_task(self, rng, t, count):
        xs = rng.random(count)
        ys = self.f(xs)
        return Block(x=xs, y=ys, z=np.where(xs >= ys, 1.0, -1.0))

    def support_enumeration(self, t):
        return None

    def to_json(self) -> dict:
        return {"family": "separable",
                "breakpoints": [[str(a), str(b)] for a, b in self.breakpoints]}

    @staticmethod
    def from_json(data: dict) -> "SeparableInstance":
        pts = tuple((Fraction(a), Fraction(b)) for a, b in data["breakpoints"])
        return make_separable(pts)


def make_separable(breakpoints) -> SeparableInstance:
    return SeparableInstance(breakpoints=tuple(breakpoints))


def make_separable_from_fixed_points(points, wobble=Fraction(1, 4)) -> SeparableInstance:
    """Piecewise-linear f whose fixed-point set is exactly the given points.

    Between consecutive fixed points the graph detours above/below the
    diagonal alternately, by wobble * gap (< gap/2 keeps f strictly
    increasing).
    """
    pts = sorted(Fraction(p) for p in points)
    if pts[0] != 0 or pts[-1] != 1 or len(set(pts)) != len(pts):
        raise DomainError("fixed points must be distinct and include 0 and 1")
    wobble = Fraction(wobble)
    if not (0 < wobble < Fraction(1, 2)):
        raise DomainError("wobble must lie in (0, 1/2)")
    breakpoints = [(Fraction(0), Fraction(0))]
    side = 1
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        breakpoints.append((mid, mid + side * wobble * (b - a)))
        breakpoints.append((b, b))
        side = -side
    return SeparableInstance(breakpoints=tuple(breakpoints))


def instance_to_json(instance) -> dict:
    return instance.to_json()


class UnsupportedFamily(ModalgapError, TypeError):
    """An instance family the lab cannot read from JSON."""


_FAMILIES = {"sine": SineInstance, "three-param": ThreeParamInstance,
             "boolean": BooleanInstance, "subspace": SubspaceInstance,
             "separable": SeparableInstance}


def instance_from_json(data: dict):
    try:
        family = _FAMILIES.get(data["family"])
        if family is None:
            raise UnsupportedFamily(data["family"])
        return family.from_json(data)
    except UnsupportedFamily:
        raise
    except (KeyError, TypeError) as err:   # a missing field, or not an object
        raise DomainError(f"malformed instance JSON: {err!r}") from err
