"""Differential properties: closed forms and the shared ERM against brute force.

The sign-complete oracle is checked against the 2^n vertex enumeration it
replaces, and the population risk (the sample ERM on the uniform support)
against a direct minimization written out here.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modalgap.analysis import best_unimodal_population_risk
from modalgap.complexity import gaussian_average, gaussian_average_closed_form
from modalgap.core import ABSOLUTE, CLIPPED_ABS, DomainError, SeedSpec
from modalgap.hypotheses import BooleanMapClass, ScalingClass, SignCompleteClass
from modalgap.instances import make_boolean, make_sine

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(n=st.integers(1, 10), bound=st.floats(0.01, 100.0),
       seed=st.integers(0, 2**32 - 1))
def test_sign_complete_closed_form_matches_vertex_enumeration(n, bound, seed):
    sigma = np.random.default_rng(seed).standard_normal((8, n))
    oracle = SignCompleteClass(bound=bound).sup_oracle(np.arange(float(n)))
    patterns = bound * np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    brute = (sigma @ patterns.T).max(axis=1)
    assert np.allclose(oracle.batch(sigma), brute, rtol=1e-12, atol=0.0)
    for row, expected in zip(sigma, brute):
        witness = oracle.witness(row)
        assert witness.value == pytest.approx(expected, rel=1e-12)
        assert witness.attained and witness.member is None


def test_sign_complete_estimate_beyond_twenty_points():
    cls = SignCompleteClass()
    points = np.linspace(0.0, 1.0, 21)
    est = gaussian_average(cls, points, draws=4000, seed=SeedSpec(21))
    assert est.mode == "enumeration-exact"
    assert est.agrees_with(gaussian_average_closed_form(cls, points))
    with pytest.raises(DomainError):
        cls.sup_oracle(np.zeros(21))     # the points must stay distinct


def _clamped(theta, signed):
    if signed:
        theta = min(max(theta, -1.0 + 1e-12), 1.0 - 1e-12)
        return 1e-12 if theta == 0.0 else theta
    return min(max(theta, 1e-12), 1.0)


@PROPERTY
@given(theta=st.floats(0.05, 1.0), support=st.integers(1, 12),
       signed=st.booleans())
def test_exact_lad_population_risk_matches_breakpoint_scan(theta, support, signed):
    inst = make_sine(theta, support=support)
    value, member, path = best_unimodal_population_risk(
        inst, ScalingClass(signed=signed), ABSOLUTE)
    assert path == "exact-lad"
    points = inst.support_enumeration(0)
    xs = np.array([obs.x[0] for _, obs in points])
    zs = np.array([obs.z for _, obs in points])
    probs = np.array([float(p) for p, _ in points])
    # the risk is convex and piecewise linear in theta, so its minimum over
    # the clamped domain sits at a clamped breakpoint z_i / x_i
    brute = min(float(np.sum(probs * np.abs(_clamped(r, signed) * xs - zs)))
                for r in zs / xs)
    assert value == pytest.approx(brute, rel=1e-12, abs=1e-11)
    assert float(np.sum(probs * np.abs(member.theta * xs - zs))) == \
        pytest.approx(value, rel=1e-12)


_TABLES = ((0, 0), (0, 1), (1, 0), (1, 1))


@PROPERTY
@given(tables=st.lists(st.sampled_from(_TABLES), min_size=1, max_size=3),
       data=st.data())
def test_boolean_population_risk_matches_exact_table_enumeration(tables, data):
    inst = make_boolean(tables)
    task = data.draw(st.integers(0, len(tables) - 1))
    value, member, path = best_unimodal_population_risk(
        inst, BooleanMapClass(), CLIPPED_ABS, task=task)
    assert path == "enumeration-exact"
    points = inst.support_enumeration(task)
    risks = {table: sum(Fraction(p) * abs(table[int(obs.x[0])] - Fraction(obs.z))
                        for p, obs in points)
             for table in _TABLES}
    assert Fraction(value) == min(risks.values())
    assert risks[member.table] == min(risks.values())
