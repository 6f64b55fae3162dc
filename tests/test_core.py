"""Losses, seeded streams, and multitask sample plumbing."""

import math

import numpy as np
import pytest

from modalgap.core import (ABSOLUTE, CLIPPED_ABS, Block, DomainError,
                           InvalidInputError, Loss, MultiSample, SeedSpec,
                           draw_labeled, draw_unlabeled, loss_eval,
                           sample_from_csv, sample_hash, sample_to_csv,
                           sample_envelope)
from modalgap.instances import make_boolean, make_sine, make_subspace


def test_loss_examples():
    assert loss_eval(CLIPPED_ABS, 0.4, 0.4) == 0.0
    assert loss_eval(CLIPPED_ABS, 1.0, -1.0) == 1.0
    assert loss_eval(ABSOLUTE, 0.25, 0.75) == 0.5


def test_loss_symmetry_and_clipping():
    rng = np.random.default_rng(1)
    for _ in range(500):
        p, z = rng.uniform(-2, 2, size=2)
        assert loss_eval(CLIPPED_ABS, p, z) == loss_eval(CLIPPED_ABS, z, p)
        assert loss_eval(ABSOLUTE, p, z) == loss_eval(ABSOLUTE, z, p)
        assert loss_eval(CLIPPED_ABS, p, z) <= loss_eval(ABSOLUTE, p, z)
        assert 0.0 <= loss_eval(CLIPPED_ABS, p, z) <= 1.0


def test_loss_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        loss_eval(CLIPPED_ABS, float("nan"), 0.0)
    with pytest.raises(InvalidInputError):
        loss_eval(CLIPPED_ABS, 0.0, float("inf"))
    with pytest.raises(DomainError):
        Loss(kind="hinge")


def test_seed_spec_streams_are_stable_and_independent():
    a = SeedSpec(7).child("labeled", 0).generator().random(4)
    b = SeedSpec(7).child("labeled", 0).generator().random(4)
    assert np.array_equal(a, b)
    c = SeedSpec(7).child("labeled", 1).generator().random(4)
    assert not np.array_equal(a, c)
    # consuming streams in any order leaves each stream unchanged
    s = SeedSpec(7)
    first = s.child("x").generator().random(3)
    _ = s.child("y").generator().random(100)
    again = s.child("x").generator().random(3)
    assert np.array_equal(first, again)
    # int and str labels must not collide
    assert not np.array_equal(SeedSpec(7).child(1).generator().random(2),
                              SeedSpec(7).child("1").generator().random(2))


def test_seed_spec_round_trip():
    spec = SeedSpec(123).child("a", 4)
    assert SeedSpec.from_json(spec.to_json()) == spec


def test_block_validation():
    block = Block(x=[0.5], y=[0.25], z=[1.0])
    assert len(block) == 1
    assert block.x.shape == (1, 1) and block.y.shape == (1, 1)
    assert block.z.shape == (1,) and block.support_index is None
    with pytest.raises(InvalidInputError):
        Block(x=[float("nan")], y=[0.0], z=[0.0])
    with pytest.raises(ValueError):
        block.x[0, 0] = 2.0                      # columns are read-only


def test_block_rejects_ragged_columns():
    with pytest.raises(DomainError):
        Block(x=[0.1, 0.2], y=[0.3], z=[1.0, 1.0])
    with pytest.raises(DomainError):
        Block(x=[[0.1], [0.2, 0.3]], y=[0.3, 0.4])
    with pytest.raises(DomainError):
        Block(x=[0.1], y=[0.2], support_index=[0, 1])
    with pytest.raises(DomainError):
        Block(x=np.zeros((2, 1, 1)), y=[0.1, 0.2])


def test_sample_block_invariants():
    block = Block(x=[0.5], y=[0.25], z=[1.0])
    empty = Block(x=np.empty(0), y=np.empty(0), z=np.empty(0))
    with pytest.raises(DomainError):
        MultiSample(tasks=(block, empty))
    with pytest.raises(DomainError):
        MultiSample(tasks=())
    with pytest.raises(DomainError):
        MultiSample(tasks=(block, Block(x=[0.5], y=[0.25])))
    assert MultiSample(tasks=(block,)).labeled
    assert not MultiSample(tasks=(Block(x=[0.5], y=[0.25]),)).labeled


def test_draw_determinism():
    inst = make_sine(0.3)
    s1 = draw_labeled(inst, 2, 5, SeedSpec(9))
    s2 = draw_labeled(inst, 2, 5, SeedSpec(9))
    assert sample_to_csv(s1) == sample_to_csv(s2)
    s3 = draw_labeled(inst, 2, 5, SeedSpec(10))
    assert sample_to_csv(s1) != sample_to_csv(s3)
    u1 = draw_unlabeled(inst, 2, 5, SeedSpec(9))
    u2 = draw_unlabeled(inst, 2, 5, SeedSpec(9))
    assert sample_to_csv(u1) == sample_to_csv(u2)


def test_draw_counts_validated():
    inst = make_sine(0.3)
    with pytest.raises(DomainError):
        draw_labeled(inst, 0, 5, SeedSpec(0))
    with pytest.raises(DomainError):
        draw_unlabeled(inst, 1, 0, SeedSpec(0))
    boolean = make_boolean([(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        draw_labeled(boolean, 3, 5, SeedSpec(0))


def test_sine_draw_satisfies_connection():
    sample = draw_labeled(make_sine(0.5), 1, 3, SeedSpec(7))
    assert sample.n == 3
    block = sample.tasks[0]
    for x, y, z in zip(block.x[:, 0], block.y[:, 0], block.z):
        assert y == 0.5 * x                      # exact: *0.5 is lossless
        assert z == math.sin(2.0 / x)            # z = sin(1/y) = sin(2/x)
        assert 0.0 < x <= 1.0


def test_unlabeled_sine_ratio_exact():
    sample = draw_unlabeled(make_sine(0.5), 1, 2, SeedSpec(3))
    block = sample.tasks[0]
    assert block.z is None
    assert np.all(block.y[:, 0] / block.x[:, 0] == 0.5)


def test_boolean_pattern_frequencies():
    # exact uniform law over four patterns, checked by counting
    inst = make_boolean([(0, 1)])
    sample = draw_labeled(inst, 1, 400, SeedSpec(1))
    counts = np.bincount(sample.tasks[0].support_index, minlength=4)
    assert np.all(np.abs(counts / 400 - 0.25) < 0.05)


def test_subspace_pairs_lie_on_the_line():
    v = np.array([0.6, 0.0, -0.3])
    y0 = np.array([0.1, 0.2, 0.0])
    sample = draw_unlabeled(make_subspace(v, y0), 1, 5, SeedSpec(9))
    for y in sample.tasks[0].y:
        shifted = y - y0
        # y - y0 is parallel to v
        cross = shifted - (shifted @ v) / (v @ v) * v
        assert np.linalg.norm(cross) < 1e-12


def test_csv_round_trip_and_hash():
    inst = make_sine(0.77)
    sample = draw_labeled(inst, 2, 4, SeedSpec(5))
    text = sample_to_csv(sample)
    back = sample_from_csv(text)
    assert back.labeled
    assert sample_to_csv(back) == text
    assert sample_hash(back) == sample_hash(sample)
    unlabeled = draw_unlabeled(inst, 1, 4, SeedSpec(5))
    text_u = sample_to_csv(unlabeled)
    assert "z" not in text_u.splitlines()[0].split(",")
    back_u = sample_from_csv(text_u)
    assert not back_u.labeled
    assert sample_to_csv(back_u) == text_u
    for bad in ("", text_u.splitlines()[0] + "\n", text + "1,9,0.5\n"):
        with pytest.raises(DomainError):
            sample_from_csv(bad)


def test_envelope_records_instance_and_seed():
    inst = make_sine(0.25, support=3)
    sample = draw_labeled(inst, 1, 4, SeedSpec(2))
    env = sample_envelope(sample, SeedSpec(2))
    assert env["kind"] == "labeled"
    assert env["n"] == 4 and env["T"] == 1
    assert env["instance"]["family"] == "sine"
    assert env["seed"] == {"root": 2, "path": []}
