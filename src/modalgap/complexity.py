"""Monte Carlo Gaussian / Rademacher averages and approximate realizability.

Draws are chunked with per-chunk streams derived from the chunk index, so
the estimate is identical for any worker count.  Per-draw suprema come from
the class oracle: enumeration-exact where the supremum is solved exactly,
witness-lower-bound where a feasible member certifies a lower bound.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ABSOLUTE, DomainError, SeedSpec, UnsupportedClassError

CHUNK = 4096


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
    if draws < 100:
        raise DomainError("need at least 100 draws")
    mode = "enumeration-exact" if oracle.exact else "witness-lower-bound"
    if oracle.zero_mean:
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
    # scaling by 2^-e, e the exponent of the largest |value|, is exact and
    # keeps the squared deviations of tiny values from going subnormal
    e = math.frexp(float(np.max(np.abs(values))))[1]
    spread = math.ldexp(float(np.ldexp(values, -e).std(ddof=1)), e)
    stderr = spread / math.sqrt(draws) if draws > 1 else 0.0
    return ComplexityEstimate(mean, stderr, draws, kind, mode)


def gaussian_average(cls, sample, draws: int = 10_000,
                     seed: SeedSpec = SeedSpec(0), workers: int = 1,
                     oracle=None) -> ComplexityEstimate:
    """Monte Carlo estimate of E_sigma sup over the class of sigma . values."""
    oracle = oracle if oracle is not None else cls.sup_oracle(sample)
    return _mc_average(oracle, draws, seed, "gaussian", workers)


def rademacher_average(cls, sample, draws: int = 10_000,
                       seed: SeedSpec = SeedSpec(0),
                       workers: int = 1) -> ComplexityEstimate:
    """Same functional with uniform +-1 coefficients."""
    return _mc_average(cls.sup_oracle(sample), draws, seed, "rademacher", workers)


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

    # every connection class solves its residual fit exactly
    exact = True

    def to_json(self) -> dict:
        return {"value": self.value, "exact": self.exact,
                "witness": self.witness.to_json()}


def approximate_realizability(cls, xs, ys) -> RealizabilityReport:
    """min over a connection class of the mean residual |g(x_i) - y_i|.

    A connection class is one with connection = True (scaling, signed
    scaling, boolean maps).  Its own x-only ERM fit_x under the absolute
    loss solves the minimum exactly (scaling: the weighted-median LAD;
    boolean maps: the first of the four tables with the least mean), and
    this fit is also stage 1 of the two-stage ERM.  Boolean tables are
    compared by their means: on labels outside {0, 1}, two totals that differ
    in the last bit can round to one mean, and then the earlier table wins.
    A connection maps x into R, so y has one column.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise DomainError("empty sample")
    if not getattr(cls, "connection", False):
        raise UnsupportedClassError(f"{cls!r} is not a connection class")
    if ys.ndim > 1 and ys.shape[1] != 1:
        raise DomainError(f"the class maps x into R, but y has {ys.shape[1]} columns")
    ys = ys.reshape(-1)
    member = cls.fit_x(xs, ys, ABSOLUTE, grid_points=100_000).member
    residuals = np.abs(member.map(xs) - ys)
    return RealizabilityReport(value=float(np.mean(residuals)), witness=member,
                               residuals=residuals)
