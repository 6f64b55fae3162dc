"""Observations, multitask samples, losses, and seeded sampling.

Everything here is immutable after construction, and sampling is a pure
function of (instance, counts, seed): identical seeds give byte-identical
samples regardless of evaluation order or worker count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class ModalgapError(Exception):
    """Common base of the lab's own errors; the CLI maps it to exit code 1.
    Each subclass also keeps a builtin base that says what kind it is."""


class InvalidInputError(ModalgapError, ValueError):
    """Non-finite or malformed numeric input."""


class DomainError(ModalgapError, ValueError):
    """Parameter outside the declared domain of a family or operation."""


class DegenerateDataError(ModalgapError, ValueError):
    """Data admits no well-posed fit (e.g. every regressor is zero)."""


class SingularityError(ModalgapError, ArithmeticError):
    """Evaluation at a pole of a hypothesis, e.g. sin(1/y) at y = 0."""


class UnsupportedClassError(ModalgapError, TypeError):
    """No oracle or sub-oracle registered for this hypothesis class."""


LOSS_KINDS = ("clipped-absolute", "absolute")


@dataclass(frozen=True)
class Loss:
    """Pointwise loss on (prediction, label).

    clipped-absolute maps into [0, 1] for any inputs; plain absolute is the
    caller's responsibility to keep in range.  Both are 1-Lipschitz in the
    prediction when scale == 1.
    """

    kind: str = "clipped-absolute"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise DomainError(f"unknown loss kind {self.kind!r}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise DomainError("loss scale must be positive and finite")


CLIPPED_ABS = Loss("clipped-absolute")
ABSOLUTE = Loss("absolute")


def loss_eval(loss: Loss, prediction: float, z: float) -> float:
    """Evaluate the loss; clipped-absolute is min(scale*|p - z|, 1)."""
    if not (math.isfinite(prediction) and math.isfinite(z)):
        raise InvalidInputError("loss_eval needs finite prediction and label")
    d = loss.scale * abs(prediction - z)
    if loss.kind == "clipped-absolute":
        return min(d, 1.0)
    return d


_SEED_MASK = (1 << 64) - 1


def _label_word(label) -> int:
    data = f"{type(label).__name__}:{label!r}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a hierarchical stream label path.

    Streams are counter-based (Philox) and keyed by the hashed path, so the
    same (root, path) yields the same stream no matter in which order or on
    how many workers streams are consumed.
    """

    root: int
    path: tuple = ()

    def child(self, *labels) -> "SeedSpec":
        return SeedSpec(self.root, self.path + tuple(labels))

    def generator(self) -> np.random.Generator:
        words = [self.root & _SEED_MASK] + [_label_word(b) for b in self.path]
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))

    def to_json(self) -> dict:
        return {"root": self.root, "path": list(self.path)}

    @staticmethod
    def from_json(data: dict) -> "SeedSpec":
        return SeedSpec(int(data["root"]), tuple(data.get("path", ())))


def _as_vector(v) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if arr.ndim != 1:
        raise InvalidInputError("observation coordinates must be 1-D vectors")
    return arr


@dataclass(frozen=True, eq=False)
class Observation:
    """One (x, y, z) triple; x and y are float64 vectors, z a scalar label."""

    x: np.ndarray
    y: np.ndarray
    z: float
    support_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x))
        object.__setattr__(self, "y", _as_vector(self.y))
        object.__setattr__(self, "z", float(self.z))
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))
                and math.isfinite(self.z)):
            raise InvalidInputError("observation has non-finite entries")

    def in_unit_ball(self, tol: float = 1e-12) -> bool:
        return (np.linalg.norm(self.x) <= 1 + tol
                and np.linalg.norm(self.y) <= 1 + tol)


@dataclass(frozen=True, eq=False)
class UnlabeledPair:
    """An (x, y) pair with the label withheld by construction."""

    x: np.ndarray
    y: np.ndarray
    support_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x))
        object.__setattr__(self, "y", _as_vector(self.y))
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise InvalidInputError("pair has non-finite entries")


def _check_blocks(tasks, what):
    if len(tasks) < 1:
        raise DomainError(f"{what} needs at least one task block")
    sizes = {len(block) for block in tasks}
    if len(sizes) != 1 or min(sizes) < 1:
        raise DomainError(f"{what} blocks must be nonempty and equal-length")


@dataclass(frozen=True, eq=False)
class LabeledMultiSample:
    """T task blocks of n labeled observations each."""

    tasks: tuple
    instance: object = None

    def __post_init__(self):
        _check_blocks(self.tasks, "labeled sample")

    @property
    def T(self) -> int:
        return len(self.tasks)

    @property
    def n(self) -> int:
        return len(self.tasks[0])

    def pooled(self) -> list:
        return [o for block in self.tasks for o in block]

    def pooled_xy(self):
        obs = self.pooled()
        return np.array([o.x for o in obs]), np.array([o.y for o in obs])

    def support_indices(self, t: int):
        idx = [o.support_index for o in self.tasks[t]]
        return None if any(i is None for i in idx) else idx


@dataclass(frozen=True, eq=False)
class UnlabeledMultiSample:
    """T task blocks of m unlabeled (x, y) pairs each."""

    tasks: tuple
    instance: object = None

    def __post_init__(self):
        _check_blocks(self.tasks, "unlabeled sample")

    @property
    def T(self) -> int:
        return len(self.tasks)

    @property
    def m(self) -> int:
        return len(self.tasks[0])

    def pooled(self) -> list:
        return [p for block in self.tasks for p in block]

    def pooled_xy(self):
        pairs = self.pooled()
        return np.array([p.x for p in pairs]), np.array([p.y for p in pairs])

    def support_indices(self, t: int):
        idx = [p.support_index for p in self.tasks[t]]
        return None if any(i is None for i in idx) else idx


def _check_task_count(instance, T):
    fixed = getattr(instance, "task_count", None)
    if fixed is not None and T != fixed:
        raise DomainError(f"instance defines {fixed} tasks, got T={T}")


def draw_labeled(instance, T: int, n: int, seed: SeedSpec) -> LabeledMultiSample:
    """Draw T iid task blocks of n labeled observations."""
    if T < 1 or n < 1:
        raise DomainError("T and n must be at least 1")
    _check_task_count(instance, T)
    tasks = tuple(
        tuple(instance.draw_labeled_task(seed.child("labeled", t).generator(), t, n))
        for t in range(T)
    )
    return LabeledMultiSample(tasks=tasks, instance=instance)


def draw_unlabeled(instance, T: int, m: int, seed: SeedSpec) -> UnlabeledMultiSample:
    """Draw T iid task blocks of m unlabeled pairs, independent of any labeled draw."""
    if T < 1 or m < 1:
        raise DomainError("T and m must be at least 1")
    _check_task_count(instance, T)
    tasks = tuple(
        tuple(instance.draw_unlabeled_task(seed.child("unlabeled", t).generator(), t, m))
        for t in range(T)
    )
    return UnlabeledMultiSample(tasks=tasks, instance=instance)


def sample_to_csv(sample) -> str:
    """Columnar CSV: task, index, x..., y..., z (z only for labeled samples)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    first = sample.tasks[0][0]
    q, k = len(first.x), len(first.y)
    labeled = isinstance(sample, LabeledMultiSample)
    header = (["task", "index"] + [f"x{i}" for i in range(q)]
              + [f"y{i}" for i in range(k)] + (["z"] if labeled else []))
    writer.writerow(header)
    for t, block in enumerate(sample.tasks):
        for i, point in enumerate(block):
            row = ([t, i] + [repr(float(v)) for v in point.x]
                   + [repr(float(v)) for v in point.y])
            if labeled:
                row.append(repr(float(point.z)))
            writer.writerow(row)
    return buf.getvalue()


def sample_from_csv(text: str, labeled: bool):
    """Inverse of sample_to_csv; instance provenance is not restored."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    q = sum(1 for h in header if h.startswith("x"))
    k = sum(1 for h in header if h.startswith("y"))
    blocks = {}
    for row in reader:
        t = int(row[0])
        x = [float(v) for v in row[2:2 + q]]
        y = [float(v) for v in row[2 + q:2 + q + k]]
        if labeled:
            point = Observation(x=x, y=y, z=float(row[2 + q + k]))
        else:
            point = UnlabeledPair(x=x, y=y)
        blocks.setdefault(t, []).append(point)
    tasks = tuple(tuple(blocks[t]) for t in sorted(blocks))
    cls = LabeledMultiSample if labeled else UnlabeledMultiSample
    return cls(tasks=tasks)


def sample_hash(sample) -> str:
    return hashlib.sha256(sample_to_csv(sample).encode()).hexdigest()


def sample_envelope(sample, seed: Optional[SeedSpec] = None) -> dict:
    """JSON sidecar recording instance parameters, sizes, and the seed."""
    from .instances import instance_to_json  # local import to avoid a cycle

    labeled = isinstance(sample, LabeledMultiSample)
    first = sample.tasks[0][0]
    env = {
        "kind": "labeled" if labeled else "unlabeled",
        "T": sample.T,
        ("n" if labeled else "m"): len(sample.tasks[0]),
        "q": len(first.x),
        "k": len(first.y),
        "hash": sample_hash(sample),
    }
    if sample.instance is not None:
        env["instance"] = instance_to_json(sample.instance)
    if seed is not None:
        env["seed"] = seed.to_json()
    return env
