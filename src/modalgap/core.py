"""Columnar multitask samples, losses, and seeded sampling.

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
from fractions import Fraction
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


def mean_loss(loss: Loss, preds, zs) -> Fraction:
    """Exact mean of the pointwise losses, as a rational: the risk under the
    uniform law on the rows they were evaluated at."""
    losses = [loss_eval(loss, pred, z) for pred, z in zip(preds, zs.tolist())]
    return sum(map(Fraction, losses), Fraction(0)) / len(losses)


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


def _column(values, dtype, what: str, ndim: int) -> np.ndarray:
    try:
        arr = np.array(values, dtype=dtype)
    except ValueError as err:          # ragged or non-numeric entries
        raise DomainError(f"block column {what} is malformed: {err}") from err
    if ndim == 2 and arr.ndim == 1:
        arr = arr.reshape(-1, 1)       # one coordinate per point
    if arr.ndim != ndim:
        raise DomainError(f"block column {what} must be {ndim}-D, got shape {arr.shape}")
    if dtype is np.float64 and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"block column {what} has non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Block:
    """One task's n points as read-only columns: x (n, q), y (n, k), labels
    z (n,) or None for an unlabeled block, and support positions (n,) or
    None when the points come from a continuous law.  A 1-D x or y is read
    as one coordinate per point."""

    x: np.ndarray
    y: np.ndarray
    z: Optional[np.ndarray] = None
    support_index: Optional[np.ndarray] = None

    def __post_init__(self):
        columns = {"x": _column(self.x, np.float64, "x", 2),
                   "y": _column(self.y, np.float64, "y", 2)}
        if self.z is not None:
            columns["z"] = _column(self.z, np.float64, "z", 1)
        if self.support_index is not None:
            columns["support_index"] = _column(self.support_index, np.int64,
                                               "support_index", 1)
        if len({len(col) for col in columns.values()}) != 1:
            raise DomainError("block columns must have one row per point")
        for name, col in columns.items():
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True, eq=False)
class MultiSample:
    """T task blocks of n points each; labeled when the blocks carry z."""

    tasks: tuple
    instance: object = None

    def __post_init__(self):
        tasks = tuple(self.tasks)
        if len(tasks) < 1:
            raise DomainError("sample needs at least one task block")
        if len({len(block) for block in tasks}) != 1 or len(tasks[0]) < 1:
            raise DomainError("sample blocks must be nonempty and equal-length")
        shapes = {(b.x.shape[1], b.y.shape[1], b.z is None) for b in tasks}
        if len(shapes) != 1:
            raise DomainError("sample blocks must share dimensions and labeling")
        object.__setattr__(self, "tasks", tasks)

    @property
    def labeled(self) -> bool:
        return self.tasks[0].z is not None

    @property
    def T(self) -> int:
        return len(self.tasks)

    @property
    def n(self) -> int:
        return len(self.tasks[0])

    def pooled_xy(self):
        return (np.concatenate([b.x for b in self.tasks]),
                np.concatenate([b.y for b in self.tasks]))


def _check_task_count(instance, T):
    fixed = getattr(instance, "task_count", None)
    if fixed is not None and T != fixed:
        raise DomainError(f"instance defines {fixed} tasks, got T={T}")


def draw_labeled(instance, T: int, n: int, seed: SeedSpec) -> MultiSample:
    """Draw T iid task blocks of n labeled points."""
    if T < 1 or n < 1:
        raise DomainError("T and n must be at least 1")
    _check_task_count(instance, T)
    tasks = tuple(instance.draw_labeled_task(seed.child("labeled", t).generator(), t, n)
                  for t in range(T))
    return MultiSample(tasks=tasks, instance=instance)


def draw_unlabeled(instance, T: int, m: int, seed: SeedSpec) -> MultiSample:
    """Draw T iid task blocks of m unlabeled pairs, independent of any labeled
    draw: a labeled draw on its own stream with the labels dropped."""
    if T < 1 or m < 1:
        raise DomainError("T and m must be at least 1")
    _check_task_count(instance, T)
    tasks = []
    for t in range(T):
        block = instance.draw_labeled_task(seed.child("unlabeled", t).generator(), t, m)
        tasks.append(Block(block.x, block.y, support_index=block.support_index))
    return MultiSample(tasks=tuple(tasks), instance=instance)


def sample_to_csv(sample: MultiSample) -> str:
    """Columnar CSV: task, index, x..., y..., z (z only for labeled samples)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    first = sample.tasks[0]
    q, k = first.x.shape[1], first.y.shape[1]
    header = (["task", "index"] + [f"x{i}" for i in range(q)]
              + [f"y{i}" for i in range(k)] + (["z"] if sample.labeled else []))
    writer.writerow(header)
    for t, block in enumerate(sample.tasks):
        columns = [block.x, block.y]
        if sample.labeled:
            columns.append(block.z.reshape(-1, 1))
        rows = np.hstack(columns).tolist()
        writer.writerows([t, i] + [repr(v) for v in row]
                         for i, row in enumerate(rows))
    return buf.getvalue()


def sample_from_csv(text: str) -> MultiSample:
    """Inverse of sample_to_csv; a z column in the header marks a labeled
    sample.  Instance provenance is not restored."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise DomainError("empty sample CSV")
    q = sum(1 for h in header if h.startswith("x"))
    k = sum(1 for h in header if h.startswith("y"))
    labeled = "z" in header
    rows = {}
    for row in reader:
        if len(row) != len(header):
            raise DomainError(f"CSV row has {len(row)} fields, header has {len(header)}")
        rows.setdefault(int(row[0]), []).append([float(v) for v in row[2:]])
    blocks = []
    for t in sorted(rows):
        values = np.array(rows[t], dtype=np.float64)
        blocks.append(Block(x=values[:, :q], y=values[:, q:q + k],
                            z=values[:, q + k] if labeled else None))
    return MultiSample(tasks=tuple(blocks))


def sample_hash(sample) -> str:
    return hashlib.sha256(sample_to_csv(sample).encode()).hexdigest()


def sample_envelope(sample, seed: Optional[SeedSpec] = None) -> dict:
    """JSON sidecar recording instance parameters, sizes, and the seed."""
    from .instances import instance_to_json  # local import to avoid a cycle

    first = sample.tasks[0]
    env = {
        "kind": "labeled" if sample.labeled else "unlabeled",
        "T": sample.T,
        ("n" if sample.labeled else "m"): sample.n,
        "q": first.x.shape[1],
        "k": first.y.shape[1],
        "hash": sample_hash(sample),
    }
    if sample.instance is not None:
        env["instance"] = instance_to_json(sample.instance)
    if seed is not None:
        env["seed"] = seed.to_json()
    return env
