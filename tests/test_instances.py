"""Distribution family construction and invariants."""

import math
import tempfile
import tracemalloc
from contextlib import redirect_stderr
from fractions import Fraction
from io import StringIO

import numpy as np
import pytest

from modalgap import shatter
from modalgap.cli import main
from modalgap.core import DomainError, SeedSpec, draw_labeled
from modalgap.instances import (SineInstance, _support_table, instance_from_json,
                                instance_to_json, make_boolean,
                                make_separable, make_separable_from_fixed_points,
                                make_sine, make_sine_shattered,
                                make_sine_subset, make_subspace,
                                make_three_param)

SQRT_HALF = math.sqrt(2.0) / 2.0


def test_make_sine_validation():
    with pytest.raises(DomainError):
        make_sine(0.0)
    with pytest.raises(DomainError):
        make_sine(1.5)
    with pytest.raises(DomainError):
        make_sine(0.5, support=[1, 1])
    with pytest.raises(DomainError):
        make_sine_subset([2, 2, 3], 0.5)


def test_finite_support_exact_points():
    inst = make_sine(0.9, support=2)
    assert inst.support_points == (Fraction(16, 17), Fraction(256, 257))


def test_sine_identity_connection():
    inst = make_sine(1.0)
    sample = draw_labeled(inst, 1, 4, SeedSpec(13))
    block = sample.tasks[0]
    for x, y, z in zip(block.x[:, 0], block.y[:, 0], block.z):
        assert y == x
        assert z == math.sin(1.0 / x)


def test_sine_draws_satisfy_equations_to_one_ulp():
    inst = make_sine(0.37, support=6)
    sample = draw_labeled(inst, 1, 64, SeedSpec(3))
    block = sample.tasks[0]
    for x, z in zip(block.x[:, 0], block.z):
        assert abs(z - math.sin(1.0 / (0.37 * x))) <= 1e-12


def test_subset_instance_uniform_probabilities():
    inst = make_sine_subset([1, 2, 3, 4], 0.5)
    # the law is uniform over the rows of the support block
    support = inst.support_enumeration(0)
    assert len(support) == 4
    assert support.support_index.tolist() == [0, 1, 2, 3]
    assert len(np.unique(support.x[:, 0])) == 4


def test_single_index_point_mass():
    inst = make_sine_subset([5], 0.5)
    sample = draw_labeled(inst, 1, 10, SeedSpec(0))
    xs = set(sample.tasks[0].x[:, 0].tolist())
    assert xs == {float(Fraction(16 ** 5, 16 ** 5 + 1))}


def test_shattered_instance_realizes_signs():
    signs = [+1, -1, -1, +1, -1]
    inst = make_sine_shattered(signs)
    for s, z in zip(signs, inst._z_floats):
        assert math.copysign(1.0, z) == s
        assert abs(z) >= SQRT_HALF - 1e-12


def test_shattered_instance_too_deep_rejected():
    with pytest.raises(DomainError):
        make_sine_shattered([1] * 300)


def _deep_patterns(top):
    """Sign patterns over 1..top and over the lone index top: all +1 (4c
    smallest), all -1 (largest) and alternating."""
    for signs in ([1] * top, [-1] * top, [(-1) ** i for i in range(top)]):
        yield signs, None
        yield signs[-1:], (top,)


def test_early_depth_check_rejects_only_what_the_exact_check_rejects(monkeypatch):
    # the early check's cut, top = 269, is where 3 * 16^top reaches 2^1076
    assert 3 * 16 ** 269 >= 2 ** 1076 > 3 * 16 ** 268
    built = []
    construct = shatter.construct

    def recorded(*args, **kwargs):
        built.append(True)
        return construct(*args, **kwargs)

    monkeypatch.setattr(shatter, "construct", recorded)
    early = 0
    for top in range(262, 276):
        for signs, indices in _deep_patterns(top):
            built.clear()
            try:
                make_sine_shattered(signs, indices=indices)
            except DomainError as err:
                assert "too deep" in str(err)
                if built:
                    continue
                early += 1
                cert = construct(signs, indices=indices)
                with pytest.raises(DomainError, match="too deep"):
                    SineInstance(witness=cert, support=cert.indices)
    assert early > 0


def test_deep_separation_fails_fast_in_little_memory():
    """m = 8000: the early check refuses the lattice before its witness,
    whose index table alone would grow with m^2."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(StringIO()) as err:
        tracemalloc.start()
        try:
            code = main(["separation", "--n", "20", "--trials", "1", "--out", tmp])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 1
    assert "too deep" in err.getvalue()
    assert peak < 5 * 2**20


def test_three_param_ratio_invariant():
    inst = make_three_param()
    rng = SeedSpec(21).child("latent").generator()
    block, latents = inst.draw_latent_task(rng, 0, 300)
    for x, y, z, (c, t1, t2) in zip(block.x[:, 0], block.y[:, 0], block.z, latents):
        assert x == pytest.approx(c * t1)
        assert y == pytest.approx(c * t2)
        ratio = (x + y) / x
        assert ratio != 0.0
        assert 1 - 2 / t1 < ratio < 1 - 1 / t1
        assert -1.0 < ratio < 0.5  # union over the whole parameter box
        assert z == math.sin(1.0 / (x + y))


def test_three_param_raw_sum_labels():
    inst = make_three_param("raw-sum")
    sample = draw_labeled(inst, 1, 50, SeedSpec(4))
    block = sample.tasks[0]
    for x, y, z in zip(block.x[:, 0], block.y[:, 0], block.z):
        assert z == x + y
    with pytest.raises(DomainError):
        make_three_param("other")


def test_boolean_constant_table_gives_constant_label():
    inst = make_boolean([(0, 0)])
    sample = draw_labeled(inst, 1, 100, SeedSpec(5))
    assert all(z == 0.0 for z in sample.tasks[0].z)


def test_boolean_label_balance_and_independence():
    # b(0)=0, b(1)=1: half the mass has z=1
    inst = make_boolean([(0, 1)])
    # (the law is uniform over the rows of the support block)
    support = inst.support_enumeration(0)
    p = Fraction(1, len(support))
    mass_z1 = sum(p for z in support.z if z == 1.0)
    assert mass_z1 == Fraction(1, 2)
    # b(0)=1, b(1)=0: exact covariance of x and z is zero
    inst2 = make_boolean([(1, 0)])
    pts = inst2.support_enumeration(0)
    p = Fraction(1, len(pts))
    e_x = sum(p * x for x in pts.x[:, 0])
    e_z = sum(p * z for z in pts.z)
    e_xz = sum(p * x * z for x, z in zip(pts.x[:, 0], pts.z))
    assert e_xz - e_x * e_z == 0
    sample = draw_labeled(inst2, 1, 4000, SeedSpec(6))
    xs, zs = sample.tasks[0].x[:, 0], sample.tasks[0].z
    assert abs(np.corrcoef(xs, zs)[0, 1]) < 3.0 / math.sqrt(4000)


def test_boolean_validation():
    with pytest.raises(DomainError):
        make_boolean([(0, 2)])
    with pytest.raises(DomainError):
        make_boolean([])


def test_subspace_constant_connection():
    inst = make_subspace(np.zeros(3), np.array([0.1, 0.0, 0.2]))
    sample = draw_labeled(inst, 1, 8, SeedSpec(7))
    for y in sample.tasks[0].y:
        assert np.array_equal(y, np.array([0.1, 0.0, 0.2]))


def test_subspace_validation():
    with pytest.raises(DomainError):
        make_subspace(np.ones(3), np.zeros(3))  # norm sqrt(3) > 1
    with pytest.raises(DomainError):
        make_subspace(np.zeros(2), np.zeros(3))


def test_separable_rejects_identity_and_diagonal_segments():
    with pytest.raises(DomainError):
        make_separable([(0, 0), (1, 1)])
    with pytest.raises(DomainError):
        make_separable([(0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 1)])
    with pytest.raises(DomainError):
        make_separable([(0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, 2)])


def test_separable_fixed_points_exact():
    inst = make_separable_from_fixed_points(
        [0, Fraction(3, 10), Fraction(7, 10), 1])
    assert inst.fixed_points == (Fraction(0), Fraction(3, 10),
                                 Fraction(7, 10), Fraction(1))
    # f stays strictly increasing and hits the diagonal only on A
    for a, b in zip(inst.breakpoints, inst.breakpoints[1:]):
        assert b[0] > a[0] and b[1] > a[1]
    assert inst.f_exact(Fraction(3, 10)) == Fraction(3, 10)
    assert inst.f_exact(Fraction(1, 2)) != Fraction(1, 2)


def test_separable_labels_match_sign_rule():
    inst = make_separable_from_fixed_points([0, Fraction(1, 2), 1])
    sample = draw_labeled(inst, 1, 200, SeedSpec(8))
    block = sample.tasks[0]
    for x, y, z in zip(block.x[:, 0], block.y[:, 0], block.z):
        assert z == (1.0 if x >= y else -1.0)
        assert y == pytest.approx(float(inst.f_exact(Fraction(x))), abs=1e-12)


def test_instance_json_round_trips():
    cases = [
        make_sine(0.4),
        make_sine(0.4, support=5),
        make_sine_shattered([1, -1, 1]),
        make_three_param("raw-sum"),
        make_boolean([(0, 1), (1, 1)]),
        make_subspace(np.array([0.3, 0.4]), np.array([0.0, 0.1])),
        make_separable_from_fixed_points([0, Fraction(1, 4), 1]),
    ]
    for inst in cases:
        data = instance_to_json(inst)
        back = instance_from_json(data)
        assert instance_to_json(back) == data
        T = getattr(inst, "task_count", None) or 1
        sample_a = draw_labeled(inst, T, 6, SeedSpec(77))
        sample_b = draw_labeled(back, T, 6, SeedSpec(77))
        block_a, block_b = sample_a.tasks[0], sample_b.tasks[0]
        assert np.array_equal(block_a.x, block_b.x)
        assert np.array_equal(block_a.y, block_b.y)
        assert np.array_equal(block_a.z, block_b.z)


def _hex(values):
    return [float(v).hex() for v in values]


def test_support_table_x_is_the_exact_point_rounded_once():
    support = tuple(range(1, 269))
    table = _support_table(support)
    assert _hex(table.x) == _hex(shatter.lattice_point(i) for i in support)
    assert table.powers == tuple((16 ** i, 16 ** i + 1) for i in support)
    assert not table.x.flags.writeable
    assert _support_table(support) is table
    # a sub-lattice keys its own table, and a non-witness instance reads it
    inst = make_sine_subset([3, 17, 40], 0.6)
    assert _hex(inst._x_floats) == _hex(shatter.lattice_point(i) for i in (3, 17, 40))


@pytest.mark.parametrize("convention", shatter.CONVENTIONS)
def test_witness_y_from_the_table_matches_the_scaled_ratio(convention):
    """y from the table's ints against _scaled_y_ratio's num / den / 2 pi on
    the whole lattice 1..268, the deepest whose y can stay above 0 (with the
    smallest 4c, every digit -1), and on sub-lattices of random witnesses."""
    rng = np.random.default_rng(27)
    smallest = -1 if convention == "interval" else 1
    cases = [([smallest] * 268, None)]
    for _ in range(10):
        m = int(rng.integers(1, 217))
        indices = np.sort(rng.choice(np.arange(1, 217), size=m, replace=False))
        cases.append((rng.choice((-1, 1), size=m).tolist(), indices.tolist()))
    for signs, indices in cases:
        inst = make_sine_shattered(signs, indices=indices, convention=convention)
        expected = [num / den / shatter.TWO_PI
                    for num, den in map(inst._scaled_y_ratio, inst.support)]
        assert _hex(inst._y_floats) == _hex(expected)
        assert _hex(inst._x_floats) == _hex(shatter.lattice_point(i)
                                            for i in inst.support)


@pytest.mark.parametrize("inst", [make_sine_shattered([1, -1, -1, 1, 1]),
                                  make_sine(0.7, support=12),
                                  make_sine_subset([2, 9, 30], 0.4)])
def test_support_block_is_built_once_read_only_and_fresh_equal(inst):
    block = inst.support_enumeration(0)
    assert inst.support_enumeration(0) is block
    fresh = inst._lattice_block(np.arange(len(inst.support)))
    for name in ("x", "y", "z", "support_index"):
        column = getattr(block, name)
        assert not column.flags.writeable
        assert column.tobytes() == getattr(fresh, name).tobytes()
    with pytest.raises(ValueError):
        block.z[0] = 0.0
