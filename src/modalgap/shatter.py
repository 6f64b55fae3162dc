"""Exact sign-shattering witnesses for the parametric sine family.

The lattice points x_i = 16^i / (16^i + 1) can be given any sign pattern by
a member sin(1/(theta x)) of the composed sine family.  The witness is a
rational number c built digit-by-digit in base 16; theta = 1/(2*pi*c).  All
range reduction is done in exact integer arithmetic: 4c is an integer, so
frac(c * a_i) = r / (4 * 16^i) with r = 4c * (16^i + 1) mod 4 * 16^i, and the
window tests compare integers (c grows like 16^n and overflows both 64-bit
integers and float64 very quickly, so these are Python ints).  The sine
itself is only evaluated in floating point after the exact fractional part
is known; an int-by-int true division is correctly rounded, so r / (4 * 16^i)
is the same float as float(Fraction(r, 4 * 16^i)).
ShatterCertificate.verify() re-checks every entry on Fractions and is the
independent reference for the integer construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Optional, Sequence

TWO_PI = 2.0 * math.pi

# Fractional parts inside these windows keep |sin(2*pi*frac)| >= sqrt(2)/2.
POSITIVE_WINDOW = (Fraction(1, 8), Fraction(3, 8))
NEGATIVE_WINDOW = (Fraction(5, 8), Fraction(7, 8))

CONVENTIONS = ("interval", "sine-sign")


def frac_exact(c: Fraction, a: Fraction) -> Fraction:
    """Fractional part of c*a in [0, 1), computed on arbitrary-size integers."""
    c = Fraction(c)
    a = Fraction(a)
    if c < 0 or a < 0:
        raise ValueError("frac_exact requires nonnegative operands")
    q = c.denominator * a.denominator
    return Fraction(c.numerator * a.numerator % q, q)


@lru_cache(maxsize=1024)
def lattice_multiplier(index: int) -> Fraction:
    """a_i = 1 + 16^-i, the reciprocal of the i-th lattice point."""
    if index < 1:
        raise ValueError("lattice indices start at 1")
    w = 16 ** index
    return Fraction(w + 1, w)


def _lattice_residue(num: int, den: int, index: int) -> tuple:
    """(r, d) with frac((num/den) * a_index) = r/d and 0 <= r < d."""
    w = 16 ** index
    d = den * w
    return num * (w + 1) % d, d


def lattice_sine(c: Fraction, index: int) -> float:
    """sin(2*pi*frac(c * a_index)) for an exact nonnegative c, reduced in
    integers; equal to math.sin(TWO_PI * float(frac_exact(c, a_index)))."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("lattice_sine requires a nonnegative c")
    if index < 1:
        raise ValueError("lattice indices start at 1")
    r, d = _lattice_residue(c.numerator, c.denominator, index)
    return math.sin(TWO_PI * (r / d))


def lattice_point(index: int) -> Fraction:
    """x_i = 16^i / (16^i + 1) = 1 / a_i."""
    if index < 1:
        raise ValueError("lattice indices start at 1")
    w = 16 ** index
    return Fraction(w, w + 1)


@dataclass(frozen=True)
class IndexCertificate:
    """Exact record for one lattice index covered by a witness."""

    index: int
    multiplier: Fraction          # a_i, exact
    frac: Fraction                # frac(c * a_i), exact
    window: tuple                 # certified window for frac
    sine: float                   # sin(2*pi*frac), float after exact reduction

    @property
    def in_window(self) -> bool:
        lo, hi = self.window
        return lo <= self.frac <= hi


@dataclass(frozen=True)
class ShatterCertificate:
    """Witness c realizing a requested sign pattern on lattice points.

    c = 1/2 + sum over covered indices i of (1 + c_i) * 16^i with c_i = +-1/4.
    Under the "interval" convention c_i = delta_i / 4 verbatim, which places
    frac(c * a_i) in the upper window for delta_i = +1 (so the realized sine
    is negative).  Under "sine-sign" the digit is flipped so that
    sign(sin(2*pi*c*a_i)) equals delta_i.  The construction is symmetric, so
    both are exposed; every certificate records the realized sine values.
    """

    signs: tuple
    indices: tuple
    convention: str
    c: Fraction
    entries: tuple

    @property
    def n(self) -> int:
        return len(self.signs)

    @property
    def theta(self) -> float:
        """theta = 1/(2*pi*c) as a float; underflows to 0.0 for huge c."""
        return float(Fraction(1, 1) / self.c) / TWO_PI

    @property
    def scale(self) -> float:
        """b = 2*pi*c as a float; overflows to inf once c exceeds float range."""
        try:
            return TWO_PI * float(self.c)
        except OverflowError:
            return math.inf

    def entry_for(self, index: int) -> IndexCertificate:
        return self._by_index[index]

    @property
    def _by_index(self) -> dict:
        cached = self.__dict__.get("_by_index_cache")
        if cached is None:
            cached = {e.index: e for e in self.entries}
            self.__dict__["_by_index_cache"] = cached
        return cached

    def sine_values(self) -> list:
        return [e.sine for e in self.entries]

    def verify(self) -> bool:
        """Re-check every window membership by exact rational comparison."""
        for entry in self.entries:
            if frac_exact(self.c, entry.multiplier) != entry.frac:
                return False
            if not entry.in_window:
                return False
        return True


def construct(signs: Sequence[int], convention: str = "sine-sign",
              indices: Optional[Iterable[int]] = None) -> ShatterCertificate:
    """Build the exact witness c for the requested sign pattern.

    signs: one of +1/-1 per covered index.  indices defaults to 1..n and may
    be any strictly increasing set of positive integers (sub-lattices keep
    the same digit argument, since higher digits drop out of the fractional
    part and lower digits perturb it by at most 1/12 + 1/32 < 1/8).
    """
    signs = tuple(int(s) for s in signs)
    if len(signs) < 1:
        raise ValueError("need at least one sign")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if indices is None:
        indices = range(1, len(signs) + 1)
    indices = tuple(int(i) for i in indices)
    if len(indices) != len(signs):
        raise ValueError("indices and signs must have equal length")
    if any(i < 1 for i in indices):
        raise ValueError("lattice indices start at 1")
    if sorted(set(indices)) != list(indices):
        raise ValueError("indices must be strictly increasing and distinct")

    # digit c_i = flip * s_i / 4, so 4c = 2 + sum (4 + flip * s_i) 16^i
    flip = 1 if convention == "interval" else -1
    c4 = 2 + sum((4 + flip * s) * 16 ** i for i, s in zip(indices, signs))

    entries = []
    for i, s in zip(indices, signs):
        r, d = _lattice_residue(c4, 4, i)
        # a positive digit targets NEGATIVE_WINDOW, a negative one
        # POSITIVE_WINDOW; both windows are in eighths, so 8r/d is compared
        upper = flip * s > 0
        lo, hi = (5, 7) if upper else (1, 3)
        if not lo * d <= 8 * r <= hi * d:
            raise AssertionError("window membership failed; construction bug")
        entries.append(IndexCertificate(
            index=i, multiplier=lattice_multiplier(i), frac=Fraction(r, d),
            window=NEGATIVE_WINDOW if upper else POSITIVE_WINDOW,
            sine=math.sin(TWO_PI * (r / d))))
    return ShatterCertificate(signs=signs, indices=indices,
                              convention=convention, c=Fraction(c4, 4),
                              entries=tuple(entries))


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _frac_parse(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def certificate_to_json(cert: ShatterCertificate) -> dict:
    return {
        "signs": list(cert.signs),
        "indices": list(cert.indices),
        "convention": cert.convention,
        "c": _frac_str(cert.c),
        "scale": cert.scale,
        "theta": cert.theta,
        "entries": [
            {
                "index": e.index,
                "multiplier": _frac_str(e.multiplier),
                "frac": _frac_str(e.frac),
                "window": [_frac_str(e.window[0]), _frac_str(e.window[1])],
                "in_window": e.in_window,
                "sine": e.sine,
            }
            for e in cert.entries
        ],
    }


def certificate_from_json(data: dict) -> ShatterCertificate:
    entries = tuple(
        IndexCertificate(
            index=e["index"],
            multiplier=_frac_parse(e["multiplier"]),
            frac=_frac_parse(e["frac"]),
            window=(_frac_parse(e["window"][0]), _frac_parse(e["window"][1])),
            sine=e["sine"],
        )
        for e in data["entries"]
    )
    return ShatterCertificate(
        signs=tuple(data["signs"]),
        indices=tuple(data["indices"]),
        convention=data["convention"],
        c=_frac_parse(data["c"]),
        entries=entries,
    )


def certificate_table_rows(cert: ShatterCertificate) -> list:
    """Per-index rows for the CLI table dump."""
    rows = []
    for s, e in zip(cert.signs, cert.entries):
        rows.append({
            "index": e.index,
            "sign": s,
            "multiplier": _frac_str(e.multiplier),
            "frac": _frac_str(e.frac),
            "frac_float": float(e.frac),
            "window_lo": _frac_str(e.window[0]),
            "window_hi": _frac_str(e.window[1]),
            "in_window": e.in_window,
            "sine": e.sine,
        })
    return rows
