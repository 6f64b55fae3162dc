"""Exact-rational shattering construction checks.

Expected rationals below were computed by hand-evaluating the digit formula
c = 1/2 + sum(1 + s_i/4) 16^i and long division; they are frozen here and
every comparison is exact (Fraction equality, no tolerances).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from modalgap.shatter import (construct,
                              certificate_from_json, certificate_to_json,
                              certificate_table_rows, frac_exact,
                              lattice_multiplier, lattice_point)

SQRT_HALF = math.sqrt(2.0) / 2.0


def test_single_positive_sign_interval_convention():
    cert = construct([+1], convention="interval")
    assert cert.c == Fraction(41, 2)
    assert cert.entries[0].frac == Fraction(25, 32)
    assert float(cert.entries[0].frac) == 0.78125
    assert Fraction(5, 8) <= cert.entries[0].frac <= Fraction(7, 8)


def test_single_negative_sign_interval_convention():
    cert = construct([-1], convention="interval")
    assert cert.c == Fraction(25, 2)
    assert cert.entries[0].frac == Fraction(9, 32)
    assert Fraction(1, 8) <= cert.entries[0].frac <= Fraction(3, 8)


def test_two_positive_signs():
    cert = construct([+1, +1], convention="interval")
    assert cert.c == Fraction(681, 2)
    assert cert.entries[0].frac == Fraction(25, 32)
    assert float(cert.entries[1].frac) == 0.830078125
    for entry in cert.entries:
        assert Fraction(5, 8) <= entry.frac <= Fraction(7, 8)


def test_frac_exact_values():
    assert frac_exact(Fraction(41, 2), Fraction(17, 16)) == Fraction(25, 32)
    assert frac_exact(Fraction(1), Fraction(7)) == 0
    assert frac_exact(Fraction(25, 2), Fraction(257, 256)) == Fraction(281, 512)


def test_frac_exact_matches_integer_arithmetic():
    # independent oracle: reduce p/q via plain integer modulo
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = Fraction(int(rng.integers(0, 10**9)), int(rng.integers(1, 10**6)))
        a = Fraction(int(rng.integers(0, 10**9)), int(rng.integers(1, 10**6)))
        p = c * a
        expected = Fraction(p.numerator % p.denominator, p.denominator)
        assert frac_exact(c, a) == expected


def test_frac_exact_rejects_negative():
    with pytest.raises(ValueError):
        frac_exact(Fraction(-1, 2), Fraction(1))


def test_lattice_points_are_reciprocal():
    for i in (1, 2, 5, 20):
        assert lattice_point(i) * lattice_multiplier(i) == 1
    assert lattice_point(1) == Fraction(16, 17)
    assert lattice_point(2) == Fraction(256, 257)


@pytest.mark.parametrize("convention", ["interval", "sine-sign"])
def test_windows_hold_exactly_for_all_sizes(convention):
    rng = np.random.default_rng(11)
    for n in list(range(1, 12)) + [24, 48, 64]:
        signs = rng.integers(0, 2, size=n) * 2 - 1
        cert = construct(signs, convention=convention)
        assert cert.verify()
        for entry in cert.entries:
            lo, hi = entry.window
            assert lo <= entry.frac <= hi   # exact rational comparison
            assert abs(entry.sine) >= SQRT_HALF - 1e-12


def test_sine_sign_convention_realizes_requested_signs():
    signs = [+1, -1, +1, -1, -1, +1]
    cert = construct(signs, convention="sine-sign")
    for s, entry in zip(signs, cert.entries):
        assert math.copysign(1, entry.sine) == s


def test_interval_convention_realizes_opposite_signs():
    signs = [+1, -1]
    cert = construct(signs, convention="interval")
    for s, entry in zip(signs, cert.entries):
        assert math.copysign(1, entry.sine) == -s


def test_witness_theta_value_and_range():
    cert = construct([-1], convention="interval")
    assert cert.theta == pytest.approx(1.0 / (25.0 * math.pi), rel=1e-12)
    assert cert.entries[0].sine == pytest.approx(0.98078528, abs=1e-7)
    # the paper-style sign pairing fails here while sine-sign matches
    assert abs(cert.entries[0].sine - (-1)) > 0.5
    flipped = construct([-1], convention="sine-sign")
    assert abs(flipped.entries[0].sine - (-1)) <= 0.5

    for n in (1, 3, 6):
        cert = construct([1] * n)
        assert 0.0 < cert.theta <= 1.0


def test_theta_shrinks_with_depth():
    thetas = [construct([1] * n).theta for n in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))


def test_subset_indices():
    cert = construct([+1, -1], indices=[3, 7])
    assert cert.indices == (3, 7)
    assert cert.verify()


def test_modularity_of_sign_flips():
    # flipping one digit never moves any other index out of its window
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        signs = list(rng.integers(0, 2, size=n) * 2 - 1)
        j = int(rng.integers(0, n))
        base = construct(signs)
        signs[j] = -signs[j]
        flipped = construct(signs)
        for pos in range(n):
            if pos == j:
                continue
            lo, hi = base.entries[pos].window
            assert base.entries[pos].window == flipped.entries[pos].window
            assert lo <= flipped.entries[pos].frac <= hi


def test_json_round_trip():
    cert = construct([+1, -1, +1], convention="interval")
    data = certificate_to_json(cert)
    assert data["c"] == f"{cert.c.numerator}/{cert.c.denominator}"
    back = certificate_from_json(data)
    assert back.c == cert.c
    assert back.signs == cert.signs
    assert [e.frac for e in back.entries] == [e.frac for e in cert.entries]
    assert back == cert
    rows = certificate_table_rows(cert)
    assert len(rows) == 3 and rows[0]["in_window"]
    # the file is rebuilt from its signs; an edited c, frac or sine is refused
    for field, value in (("c", "43/2"), ("frac", "1/2"), ("sine", 5.0)):
        tampered = certificate_to_json(cert)
        if field == "c":
            tampered["c"] = value
        else:
            tampered["entries"][1][field] = value
        with pytest.raises(ValueError):
            certificate_from_json(tampered)


def test_bad_inputs():
    with pytest.raises(ValueError):
        construct([])
    with pytest.raises(ValueError):
        construct([2])
    with pytest.raises(ValueError):
        construct([1, 1], indices=[2, 2])
    with pytest.raises(ValueError):
        construct([1], convention="mystery")
    # the convention is checked before the index set
    with pytest.raises(ValueError, match="mystery"):
        construct([1, 1], convention="mystery", indices=[1])


def test_bad_index_sets_raise_on_every_call():
    # the per-index-set table is cached; a set that fails its checks is not,
    # so every call raises, and a good set built after it is unaffected
    for indices, message in (([2, 2], "strictly increasing"),
                             ([0], "start at 1"),
                             ([3, 1], "strictly increasing")):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                construct([1] * len(indices), indices=indices)
    assert construct([1, -1], indices=[1, 3]).verify()
