"""Exact sign-shattering witnesses for the parametric sine family.

The lattice points x_i = 16^i / (16^i + 1) can be given any sign pattern by
a member sin(1/(theta x)) of the composed sine family.  The witness is a
rational number c built digit-by-digit in base 16; theta = 1/(2*pi*c).  All
range reduction is done in exact integer arithmetic (c grows like 16^n and
overflows both 64-bit integers and float64 very quickly, so these are
Python ints).

With digits d_j = +-1, 4c = 2 + sum over covered j of (4 + d_j) * 16^j is
an integer, and for w = 16^i, frac(c * a_i) = r_i / (4w) with
r_i = 4c * (w + 1) mod 4w.  The residue needs neither that multiply nor
that mod.  Digits above i are multiples of 16w and drop out; digit i adds
d_i * w modulo 4w; and the prefix 4c_{<i} = 2 + sum_{j<i} (4 + d_j) * 16^j
is 2 mod 4 and below 2 + 5 * (w - 16) / 15 < w / 3.  So
r_i = (2 + d_i) * w + 4c_{<i}, which lies in [w, 4w) as it stands, and
construct() accumulates 4c as that prefix sum.  Everything else it needs
depends only on the index set, the convention and each sign, so one small
cached table per index set holds, per index and sign, the offset
(2 + d_i) * w, the window bounds on r, the step (4 + d_i) * w of 4c and
the denominator 4w as plain ints: an index then costs a lookup, two
additions, the window test and a sine.  The window tests compare
integers.  The sine itself is only evaluated in floating point after the
exact fractional part is known; an int-by-int true division is correctly
rounded, so r / (4w) is the same float as float(Fraction(r, 4w)).

A certificate stores integers and floats only: 4c, the residues and the
sines.  Its Fraction views (c, and the per-index entries with their
multipliers, fractional parts and windows) are built on first use, so a
caller that reads only the sines, such as the Monte Carlo oracle, builds no
Fraction.  ShatterCertificate.verify() re-checks every entry on Fractions
and is the independent reference for the integer construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def lattice_sine(c: Fraction, index: int) -> float:
    """sin(2*pi*frac(c * a_index)) for an exact nonnegative c, reduced in
    integers; equal to math.sin(TWO_PI * float(frac_exact(c, a_index)))."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("lattice_sine requires a nonnegative c")
    if index < 1:
        raise ValueError("lattice indices start at 1")
    w = 16 ** index
    d = c.denominator * w
    return math.sin(TWO_PI * ((c.numerator * (w + 1) % d) / d))


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
    c4: int                       # 4c, exact
    residues: tuple               # r_i with frac(c * a_i) = r_i / (4 * 16^i)
    sines: tuple                  # sin(2*pi*frac), float after exact reduction

    @property
    def n(self) -> int:
        return len(self.signs)

    @cached_property
    def c(self) -> Fraction:
        return Fraction(self.c4, 4)

    @cached_property
    def entries(self) -> tuple:
        """Exact per-index records, built from the stored integers."""
        flip = 1 if self.convention == "interval" else -1
        return tuple(
            IndexCertificate(
                index=i, multiplier=lattice_multiplier(i),
                frac=Fraction(r, 4 * 16 ** i),
                window=NEGATIVE_WINDOW if flip * s > 0 else POSITIVE_WINDOW,
                sine=sine)
            for i, s, r, sine in zip(self.indices, self.signs, self.residues,
                                     self.sines))

    @property
    def theta(self) -> float:
        """theta = 1/(2*pi*c) as a float; underflows to 0.0 for huge c."""
        return 4 / self.c4 / TWO_PI

    @property
    def scale(self) -> float:
        """b = 2*pi*c as a float; overflows to inf once c exceeds float range."""
        try:
            return TWO_PI * (self.c4 / 4)
        except OverflowError:
            return math.inf

    def sine_values(self) -> list:
        return list(self.sines)

    def verify(self) -> bool:
        """Re-check every window membership by exact rational comparison."""
        for entry in self.entries:
            if frac_exact(self.c, entry.multiplier) != entry.frac:
                return False
            if not entry.in_window:
                return False
        return True


@lru_cache(maxsize=16)
def _index_table(indices: tuple, convention: str) -> tuple:
    """The integers construct() needs for each index of a strictly
    increasing index set, by sign: {s: (offset, lo, hi, step, d)}.

    With w = 16^i, d = 4w and the digit flip * s, the residue is
    r = offset + 4c_{<i} with offset = (2 + digit) * w, and step =
    (4 + digit) * w extends the prefix 4c_{<i} to 4c_{<=i}.  A positive
    digit targets NEGATIVE_WINDOW, a negative one POSITIVE_WINDOW; both are
    in eighths, so frac = r / d lies in [lo8 / 8, hi8 / 8] exactly when
    lo8 * d <= 8r <= hi8 * d, that is lo8 * w / 2 <= r <= hi8 * w / 2 (w is
    even), and those two integers are lo and hi.  Bad indices raise
    ValueError and are not cached, so every call with them raises.
    """
    if min(indices) < 1:
        raise ValueError("lattice indices start at 1")
    if sorted(set(indices)) != list(indices):
        raise ValueError("indices must be strictly increasing and distinct")
    flip = 1 if convention == "interval" else -1
    table = []
    for i in indices:
        w = 16 ** i
        d = 4 * w
        choices = {}
        for s in (-1, 1):
            digit = flip * s
            lo8, hi8 = (5, 7) if digit > 0 else (1, 3)
            choices[s] = ((2 + digit) * w, lo8 * w // 2, hi8 * w // 2,
                          (4 + digit) * w, d)
        table.append(choices)
    return tuple(table)


def construct(signs: Sequence[int], convention: str = "sine-sign",
              indices: Optional[Iterable[int]] = None) -> ShatterCertificate:
    """Build the exact witness c for the requested sign pattern.

    signs: one of +1/-1 per covered index.  indices defaults to 1..n and may
    be any strictly increasing set of positive integers (sub-lattices keep
    the same digit argument, since higher digits drop out of the fractional
    part and lower digits perturb it by less than 1/12 < 1/8).
    """
    signs = tuple(map(int, signs))
    if len(signs) < 1:
        raise ValueError("need at least one sign")
    if not set(signs) <= {-1, 1}:
        raise ValueError("signs must be +1 or -1")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if indices is None:
        indices = range(1, len(signs) + 1)
    indices = tuple(map(int, indices))
    if len(indices) != len(signs):
        raise ValueError("indices and signs must have equal length")
    # c4 holds the prefix sum 4c_{<i} until the loop ends, and then 4c itself
    c4 = 2
    residues = []
    sines = []
    for s, choices in zip(signs, _index_table(indices, convention)):
        offset, lo, hi, step, d = choices[s]
        r = offset + c4
        if not lo <= r <= hi:
            raise AssertionError("window membership failed; construction bug")
        residues.append(r)
        sines.append(math.sin(TWO_PI * (r / d)))
        c4 += step
    return ShatterCertificate(signs=signs, indices=indices,
                              convention=convention, c4=c4,
                              residues=tuple(residues), sines=tuple(sines))


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


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
    """Rebuild the witness from its signs, convention and indices.  A
    document whose c or entries differ from the rebuilt ones raises
    ValueError, so an edited fraction or sine is never trusted."""
    cert = construct(data["signs"], convention=data["convention"],
                     indices=data["indices"])
    rebuilt = certificate_to_json(cert)
    for key in ("c", "entries"):
        if data[key] != rebuilt[key]:
            raise ValueError(f"certificate {key} differs from the witness "
                             "rebuilt from its signs")
    return cert


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
