"""Monte Carlo Gaussian / Rademacher averages and approximate realizability.

Draws are chunked with per-chunk streams derived from the chunk index, so
the estimate is identical for any worker count.  Per-draw suprema come from
the class oracle: enumeration-exact where the supremum is solved exactly,
witness-lower-bound where a feasible member certifies a lower bound.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DomainError, SeedSpec, UnsupportedClassError

CHUNK = 4096

KINDS = ("gaussian", "rademacher")
MODES = ("enumeration-exact", "witness-lower-bound")


@dataclass(frozen=True)
class ComplexityEstimate:
    value: float
    stderr: float
    draws: int
    kind: str
    mode: str

    def agrees_with(self, reference: float, sigmas: float = 4.0) -> bool:
        return abs(self.value - reference) <= sigmas * self.stderr

    def to_json(self, **extra) -> dict:
        data = {"value": self.value, "stderr": self.stderr, "draws": self.draws,
                "kind": self.kind, "mode": self.mode}
        data.update(extra)
        return data


def _chunk_sigma(kind: str, rng, rows: int, size: int) -> np.ndarray:
    if kind == "gaussian":
        return rng.standard_normal((rows, size))
    return rng.integers(0, 2, size=(rows, size)).astype(float) * 2.0 - 1.0


def _mc_average(oracle, draws: int, seed: SeedSpec, kind: str,
                workers: int) -> ComplexityEstimate:
    if kind not in KINDS:
        raise DomainError(f"unknown draw kind {kind!r}")
    if draws < 100:
        raise DomainError("need at least 100 draws")
    mode = "enumeration-exact" if oracle.exact else "witness-lower-bound"
    if getattr(oracle, "zero_mean", False):
        # linear-in-sigma supremum: the average is analytically zero
        return ComplexityEstimate(0.0, 0.0, draws, kind, mode)

    spans = [(lo, min(lo + CHUNK, draws)) for lo in range(0, draws, CHUNK)]

    def run(idx_span):
        idx, (lo, hi) = idx_span
        rng = seed.child(kind, idx).generator()
        sigma = _chunk_sigma(kind, rng, hi - lo, oracle.size)
        return oracle.batch(sigma)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, enumerate(spans)))
    else:
        parts = [run(item) for item in enumerate(spans)]
    values = np.concatenate(parts)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    return ComplexityEstimate(mean, stderr, draws, kind, mode)


def gaussian_average(cls, sample, draws: int = 10_000,
                     seed: SeedSpec = SeedSpec(0), workers: int = 1,
                     oracle=None) -> ComplexityEstimate:
    """Monte Carlo estimate of E_sigma sup over the class of sigma . values."""
    oracle = oracle if oracle is not None else cls.sup_oracle(sample)
    return _mc_average(oracle, draws, seed, "gaussian", workers)


def rademacher_average(cls, sample, draws: int = 10_000,
                       seed: SeedSpec = SeedSpec(0), workers: int = 1,
                       oracle=None) -> ComplexityEstimate:
    """Same functional with uniform +-1 coefficients."""
    oracle = oracle if oracle is not None else cls.sup_oracle(sample)
    return _mc_average(oracle, draws, seed, "rademacher", workers)


def gaussian_average_closed_form(cls, sample) -> Optional[float]:
    """Analytic value for the classes that admit one, else None."""
    fn = getattr(cls, "closed_form_gaussian", None)
    if fn is None:
        return None
    return fn(sample)


def rademacher_average_closed_form(cls, sample) -> Optional[float]:
    fn = getattr(cls, "closed_form_rademacher", None)
    if fn is None:
        return None
    return fn(sample)


@dataclass(frozen=True, eq=False)
class RealizabilityReport:
    """Best achievable mean connection residual on a sample."""

    value: float
    witness: object
    residuals: np.ndarray
    exact: bool
    surrogate: Optional[str] = None

    def to_json(self) -> dict:
        data = {"value": self.value, "exact": self.exact,
                "witness": self.witness.to_json()}
        if self.surrogate:
            data["surrogate"] = self.surrogate
        return data


def approximate_realizability(cls, xs, ys) -> RealizabilityReport:
    """min over the class of the mean residual |g(x_i) - y_i|.

    Exact for scaling / boolean / table classes; the polynomial class is fit
    in least squares and its mean Euclidean residual is flagged as a
    surrogate upper bound.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise DomainError("empty sample")

    fit = getattr(cls, "fit_connection", None)
    if fit is None:
        raise UnsupportedClassError(f"{cls!r} has no ERM sub-oracle")
    result = fit(xs, ys)
    member, residuals = result[0], np.asarray(result[1], dtype=float)
    surrogate = "least-squares" if len(result) == 3 else None
    return RealizabilityReport(value=float(np.mean(residuals)), witness=member,
                               residuals=residuals, exact=surrogate is None,
                               surrogate=surrogate)


def sample_bytes_hash(sample) -> str:
    return hashlib.sha256(np.ascontiguousarray(np.asarray(sample, dtype=float)).tobytes()).hexdigest()
