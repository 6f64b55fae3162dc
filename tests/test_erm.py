"""Two-stage, unimodal, and joint training procedures."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modalgap.cli import _CLASSES
from modalgap.core import (ABSOLUTE, CLIPPED_ABS, Block, DomainError,
                           MultiSample, SeedSpec, UnsupportedClassError,
                           draw_labeled, draw_unlabeled)
from modalgap.erm import (fit_joint, fit_multimodal, fit_unimodal,
                          predict_unimodal)
from modalgap import hypotheses
from modalgap.hypotheses import (BooleanLookupClass, BooleanMapClass,
                                 ComposedSineClass, ScalingClass,
                                 ScalingConnection, SineSingletonClass,
                                 _clipped_mean_losses, _grid_erm, _grid_floor,
                                 _grid_objective, _row_mean, _sine_span,
                                 _sine_values)
from modalgap.instances import make_boolean, make_sine, make_sine_shattered
from modalgap.shatter import lattice_point

SEED = SeedSpec(99)


def test_multimodal_sine_recovers_theta_exactly():
    # dyadic theta* so float emission is lossless
    inst = make_sine(0.5, support=4)
    labeled = draw_labeled(inst, 1, 3, SEED)
    unlabeled = draw_unlabeled(inst, 1, 5, SEED)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())
    assert sol.connection.theta == 0.5
    assert sol.stage1_objective == 0.0
    assert sol.stage2_objective == 0.0


def test_multimodal_witness_instance_exact_recovery():
    inst = make_sine_shattered([1, -1, 1, -1, 1, -1])
    labeled = draw_labeled(inst, 2, 4, SEED)
    unlabeled = draw_unlabeled(inst, 2, 3, SEED)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())
    assert sol.connection.c_exact == inst.witness.c
    assert sol.stage1_objective == 0.0
    assert sol.stage2_objective == 0.0
    assert sol.provenance["stage1"] == "exact-lad"


def test_multimodal_boolean_stage1_residual_near_half():
    inst = make_boolean([(0, 1)])
    labeled = draw_labeled(inst, 1, 64, SEED)
    unlabeled = draw_unlabeled(inst, 1, 4096, SEED)
    sol = fit_multimodal(labeled, unlabeled, BooleanMapClass(), BooleanLookupClass())
    assert sol.stage1_objective == pytest.approx(0.5, abs=3.0 / math.sqrt(4096))
    assert sol.stage2_objective == 0.0   # table b fits the labeled data exactly


def test_predict_unimodal_composition():
    inst = make_sine(0.25, support=3)
    labeled = draw_labeled(inst, 1, 4, SEED)
    unlabeled = draw_unlabeled(inst, 1, 4, SEED)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())
    x = float(inst._x_floats[0])
    assert predict_unimodal(sol, 0, x) == math.sin(1.0 / (0.25 * x))
    with pytest.raises(Exception):
        predict_unimodal(sol, 5, x)


def test_stage_independence():
    inst = make_sine(0.7, support=6)
    labeled = draw_labeled(inst, 1, 4, SEED)
    unlabeled = draw_unlabeled(inst, 1, 8, SEED)
    sol = fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())

    def rows(order):
        block = unlabeled.tasks[0]
        return MultiSample(tasks=(Block(block.x[order], block.y[order],
                                        support_index=block.support_index[order]),),
                           instance=unlabeled.instance)

    # permuting the unlabeled sample leaves the fitted connection unchanged
    permuted = rows(np.arange(8)[::-1])
    sol_p = fit_multimodal(labeled, permuted, ScalingClass(), SineSingletonClass())
    assert sol_p.connection.theta == sol.connection.theta

    # duplicating it twice changes nothing either
    doubled = rows(np.tile(np.arange(8), 2))
    sol_d = fit_multimodal(labeled, doubled, ScalingClass(), SineSingletonClass())
    assert sol_d.connection.theta == sol.connection.theta


def test_unimodal_scaling_realizable_regression():
    xs = np.array([0.2, 0.6, 0.9])
    sol = fit_unimodal(list(zip(xs, 0.3 * xs)), ScalingClass(), ABSOLUTE)
    assert sol.member.theta == pytest.approx(0.3)
    assert sol.objective <= 1e-15


def test_unimodal_grid_fit_records_resolution():
    xs = np.array([0.5, 0.8])
    zs = np.array([0.1, -0.2])
    sol = fit_unimodal(list(zip(xs, zs)), ComposedSineClass(), CLIPPED_ABS,
                       grid_points=5000)
    assert sol.grid_resolution == 1.0 / 5000
    assert 0.0 < sol.member.theta <= 1.0
    # randomized optimality audit at the recorded resolution
    rng = np.random.default_rng(0)
    thetas = rng.uniform(1e-6, 1.0, size=2000)
    preds = np.sin(1.0 / np.outer(thetas, xs))
    objs = np.minimum(np.abs(preds - zs), 1.0).mean(axis=1)
    assert sol.objective <= objs.min() + 1.0 / 5000


# the value maps of the two grid classes, as their fit_x hands them over
# (they write into the array they get), their spans, and the same maps with
# new arrays
GRID_VALUES = {"sine": _sine_values, "scaling": lambda p: p}
GRID_SPANS = {"sine": _sine_span, "scaling": lambda lo, hi: (lo, hi)}
REFERENCE_VALUES = {"sine": lambda p: np.sin(1.0 / p), "scaling": lambda p: p}


def _reference_objective(kind, xs, zs, loss):
    """The one-row-per-theta form the grid objective must match bit for bit."""
    values = REFERENCE_VALUES[kind]
    return lambda thetas: _clipped_mean_losses(values(np.outer(thetas, xs)), zs,
                                               loss)


def _materialised_grid_erm(objective, grid_points: int):
    """The grid search with the whole grid in one array, the reference of
    the block-built _grid_erm; a NaN value counts as +inf."""
    thetas = np.arange(1, grid_points + 1, dtype=float) / grid_points
    best_val = math.inf
    best_theta = thetas[-1]
    block = 8192
    for lo in range(0, grid_points, block):
        chunk = thetas[lo:lo + block]
        vals = objective(chunk)
        j = int(np.argmin(np.where(np.isnan(vals), math.inf, vals)))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_theta = float(chunk[j])
    return best_theta, best_val


def _grid_rows(n, kind, rng):
    """n sample x values with repeats: lattice points, indices >= 14 of which
    all round to 1.0, and for the scaling class both signs of zero."""
    if kind == "sine":
        indices = rng.integers(1, 65, size=n)
        return np.array([float(lattice_point(int(i))) for i in indices])
    pool = np.array([0.0, -0.0, 0.25, 1.0, float(lattice_point(20)),
                     float(lattice_point(3))])
    xs = rng.choice(pool, size=n)
    xs[rng.random(n) < 0.3] = rng.uniform(-1.0, 1.0)
    xs[:2] = (0.0, -0.0)[:n]
    return xs


# every branch of _row_mean's pairwise order: below 8 rows, whole and
# partial groups of 8 up to 128, and one or two levels of splitting above
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 127,
                               128, 129, 136, 255, 256, 257, 1000])
@pytest.mark.parametrize("kind", sorted(GRID_VALUES))
@pytest.mark.parametrize("loss", [CLIPPED_ABS, ABSOLUTE], ids=lambda l: l.kind)
def test_grid_objective_matches_one_row_per_theta_bitwise(n, kind, loss):
    rng = np.random.default_rng(1000 * n + len(kind))
    thetas = np.arange(1, 100_001, dtype=float) / 100_000
    # the first grid block, the last partial one (100,000 mod 8192 = 1,696
    # rows) and a single off-grid theta
    blocks = [thetas[:8192], thetas[98_304:], np.array([0.123456789])]
    assert len(blocks[1]) == 1696
    for xs in (_grid_rows(n, kind, rng), rng.uniform(0.01, 1.0, size=n)):
        zs = rng.uniform(-1.5, 1.5, size=n)
        new = _grid_objective(GRID_VALUES[kind], xs, zs, loss)
        old = _reference_objective(kind, xs, zs, loss)
        for block in blocks:
            got, want = new(block), old(block)
            assert got.shape == want.shape == block.shape
            assert got.tobytes() == want.tobytes()


def _mixed_columns(rows, seed):
    """rows x 8 floats: a column of -0.0, one of +0.0 and -0.0 mixed, one
    of subnormals, one of pairs x, -x that cancel, and four of both signs
    with magnitudes from 1e-300 to 1e300 (too small for 600 rows to
    overflow)."""
    rng = np.random.default_rng(seed)
    d = np.empty((rows, 8))
    d[:, 0] = -0.0
    d[:, 1] = np.where(rng.random(rows) < 0.5, -0.0, 0.0)
    d[:, 2] = rng.integers(-2**20, 2**20, size=rows) * 5e-324
    d[:, 3] = rng.standard_normal(rows)
    d[1::2, 3] = -d[0:rows - 1:2, 3]
    d[:, 4:] = (rng.choice([-1.0, 1.0], size=(rows, 4))
                * rng.uniform(1.0, 10.0, size=(rows, 4))
                * 10.0 ** rng.integers(-300, 300, size=(rows, 4)))
    return d


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_row_mean_matches_numpy_mean_bitwise(rows, seed):
    d = _mixed_columns(rows, seed)
    got = _row_mean(d)
    want = np.ascontiguousarray(d.T).mean(axis=-1)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[0])      # numpy's sum of -0.0 is +0.0
    assert d.tobytes() == _mixed_columns(rows, seed).tobytes()   # d is not written


def test_row_mean_leaves_nothing_for_the_collector():
    d = _mixed_columns(300, 5)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        _row_mean(d)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_unimodal_scaling_fit_above_256_rows_matches_one_row_per_theta():
    """fit_unimodal on 300 rows runs _row_mean's split twice over; its theta
    and objective equal the grid search over the one-row-per-theta form."""
    rng = np.random.default_rng(257)
    xs = _grid_rows(300, "scaling", rng)
    zs = 0.6 * xs + rng.normal(0.0, 0.2, size=300)
    sol = fit_unimodal(np.column_stack((xs, zs)), ScalingClass(), CLIPPED_ABS)
    theta, objective = _materialised_grid_erm(
        _reference_objective("scaling", xs, zs, CLIPPED_ABS), 100_000)
    assert sol.path == "grid-upper-bound"
    assert sol.member.theta.hex() == theta.hex()
    assert sol.objective.hex() == objective.hex()


def test_unimodal_fit_matches_one_row_per_theta_on_criterion_5_seeds():
    """fit_unimodal's theta and objective against the grid search over the
    one-row-per-theta objective, on the first trials of criterion 5 (n = 4
    draws from a 64-point shattered lattice)."""
    seed = SeedSpec(505)
    repeated = 0
    for trial in range(12):
        root = seed.child("trial", trial)
        signs = root.child("signs").generator().integers(0, 2, size=64) * 2 - 1
        instance = make_sine_shattered(signs, indices=range(1, 65))
        block = draw_labeled(instance, 1, 4, root).tasks[0]
        xs, zs = block.x[:, 0].copy(), block.z.copy()
        repeated += len(np.unique(xs)) < len(xs)
        sol = fit_unimodal(np.column_stack((xs, zs)), ComposedSineClass(),
                           CLIPPED_ABS)
        objective = _reference_objective("sine", xs, zs, CLIPPED_ABS)
        want = _materialised_grid_erm(objective, 100_000)
        assert _grid_erm(objective, 100_000) == want
        assert sol.member.theta.hex() == want[0].hex()
        assert sol.objective.hex() == want[1].hex()
    assert repeated > 0      # the shared-row path was exercised


def test_grid_floor_skips_blocks_on_criterion_5_seeds(monkeypatch):
    """On the trials above, the floor spares most of the 100,000 thetas of
    each fit (10,539 are evaluated per fit on average; whole-block floors
    left 31,403); without it every theta is evaluated."""
    evaluated = []

    def counted_grid(objective, *args, **kwargs):
        def counted(thetas):
            evaluated.append(len(thetas))
            return objective(thetas)
        return _grid_erm(counted, *args, **kwargs)

    monkeypatch.setattr(hypotheses, "_grid_erm", counted_grid)
    seed = SeedSpec(505)
    for trial in range(12):
        root = seed.child("trial", trial)
        signs = root.child("signs").generator().integers(0, 2, size=64) * 2 - 1
        block = draw_labeled(make_sine_shattered(signs, indices=range(1, 65)),
                             1, 4, root).tasks[0]
        fit_unimodal(np.column_stack((block.x[:, 0], block.z)),
                     ComposedSineClass(), CLIPPED_ABS)
    assert 12 <= len(evaluated) < 12 * 13 // 2
    assert sum(evaluated) < 12 * 12_000


# x of both signs from 1e-8 to 1e3, one so small that 1 / (theta x) is
# infinite, and the non-finite ones; labels that tie with the sine's bounds
# and 0, or reach 1e300
GRID_XS = st.one_of(
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(-8, 3)),
    st.sampled_from([1e-320, -1e-320, math.inf, -math.inf, math.nan]))
GRID_ZS = st.one_of(st.floats(-2, 2), st.sampled_from([-1.0, 1.0, 0.0, -0.0]),
                    st.floats(-1e300, 1e300))


def _scalar_holds(a, b, phase):
    """Whether [a, b], widened by 1e-6, holds a point phase + 2 pi k."""
    k = math.floor((b + 1e-6 - phase) / (2.0 * math.pi))
    return phase + k * 2.0 * math.pi >= a - 1e-6


def _scalar_sine_span(lo, hi):
    """One interval at a time, with math.sin: the reference of the
    elementwise _sine_span."""
    if not lo * hi > 0.0:
        return -1.0, 1.0
    a, b = 1.0 / hi, 1.0 / lo
    if not (-2.0 ** 20 <= a and b <= 2.0 ** 20):
        return -1.0, 1.0
    sa, sb = math.sin(a), math.sin(b)
    return (-1.0 if _scalar_holds(a, b, -0.5 * math.pi) else min(sa, sb) - 1e-12,
            1.0 if _scalar_holds(a, b, 0.5 * math.pi) else max(sa, sb) + 1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xs=st.lists(GRID_XS, min_size=1, max_size=8),
       ends=st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)),
                     min_size=1, max_size=8))
def test_sine_span_contains_the_scalar_span(xs, ends):
    """The elementwise span against the scalar one on the intervals x * [first,
    last] of the grid's floor: the same [-1, 1] cases and bounds at least as
    wide, up to one ulp of numpy's sin against math.sin."""
    firsts, lasts = np.array([min(e) for e in ends]), np.array([max(e) for e in ends])
    with np.errstate(all="ignore"):
        a, b = np.multiply.outer(xs, firsts), np.multiply.outer(xs, lasts)
        low, high = _sine_span(np.minimum(a, b), np.maximum(a, b))
    for i, j in np.ndindex(a.shape):
        want = _scalar_sine_span(*sorted((xs[i] * firsts[j], xs[i] * lasts[j])))
        assert low[i, j] <= want[0] + 2.0 ** -52 and high[i, j] >= want[1] - 2.0 ** -52
        assert (low[i, j] == -1.0) == (want[0] == -1.0)
        assert (high[i, j] == 1.0) == (want[1] == 1.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(GRID_VALUES)),
       loss=st.sampled_from([CLIPPED_ABS, ABSOLUTE]),
       rows=st.lists(st.tuples(GRID_XS, GRID_ZS), min_size=1, max_size=6),
       repeat=st.booleans(),
       grid_points=st.one_of(st.integers(8180, 8200), st.integers(1, 20_000)),
       block=st.integers(0, 2),
       size=st.sampled_from([1, 7, 64, 512]))
def test_grid_floor_is_below_every_value_of_its_block(kind, loss, rows, repeat,
                                                      grid_points, block, size):
    """One floor call over the sub-blocks of size thetas (the last one
    shorter) of one grid block; no theta's value is below its sub-block's
    floor."""
    xs, zs = (np.array(column) for column in zip(*rows))
    if repeat:
        xs = np.append(xs, xs[0])
        zs = np.append(zs, -zs[0])
    lo = 8192 * min(block, (grid_points - 1) // 8192)
    hi = min(lo + 8192, grid_points)
    cuts = np.append(np.arange(lo, hi, size), hi)
    floors = _grid_floor(GRID_SPANS[kind], xs, zs, loss)(
        (cuts[:-1] + 1) / grid_points, cuts[1:] / grid_points)
    assert floors.shape == (len(cuts) - 1,)
    thetas = np.arange(lo + 1, hi + 1, dtype=float)
    thetas /= grid_points
    with np.errstate(all="ignore"):     # sin(1 / 0) and sin(inf) are NaN
        values = _grid_objective(GRID_VALUES[kind], xs, zs, loss)(thetas)
    assert not np.any(values < np.repeat(floors, np.diff(cuts)))


def _recorded(objective, seen):
    """objective, also keeping a copy of every block of thetas it gets."""
    def record(thetas):
        seen.append(thetas.copy())
        return objective(thetas)
    return record


# one theta, two, one block less one, one whole block, one block and one
# more, the default (12 whole blocks and a 1,696-theta tail), and two floor
# groups of 16 blocks, the second one block and 3 thetas long
GRID_SIZES = [1, 2, 8191, 8192, 8193, 100_000, 17 * 8192 + 3]


@pytest.mark.parametrize("grid_points", GRID_SIZES)
@pytest.mark.parametrize("kind", sorted(GRID_VALUES))
@pytest.mark.parametrize("loss", [CLIPPED_ABS, ABSOLUTE], ids=lambda l: l.kind)
def test_grid_erm_matches_the_materialised_grid_bitwise(grid_points, kind, loss):
    rng = np.random.default_rng(grid_points)
    xs = _grid_rows(5, kind, rng)
    zs = rng.uniform(-1.5, 1.5, size=5)
    streamed, materialised = [], []
    got = _grid_erm(_recorded(_grid_objective(GRID_VALUES[kind], xs, zs, loss),
                              streamed), grid_points)
    want = _materialised_grid_erm(
        _recorded(_reference_objective(kind, xs, zs, loss), materialised),
        grid_points)
    assert got[0].hex() == want[0].hex() and got[1].hex() == want[1].hex()
    assert [len(b) for b in streamed] == [len(b) for b in materialised]
    assert all(len(b) == 8192 for b in streamed[:-1])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(streamed, materialised))


@pytest.mark.parametrize("grid_points", GRID_SIZES)
@pytest.mark.parametrize("kind", sorted(GRID_VALUES))
@pytest.mark.parametrize("loss", [CLIPPED_ABS, ABSOLUTE], ids=lambda l: l.kind)
def test_grid_erm_with_its_floor_matches_the_materialised_grid_bitwise(
        grid_points, kind, loss):
    """The sub-block floor changes which thetas are evaluated, not the
    result; each call gets the thetas of one block, in grid order, with the
    bits of the materialised grid."""
    rng = np.random.default_rng(grid_points)
    xs = _grid_rows(5, kind, rng)
    zs = rng.uniform(-1.5, 1.5, size=5)
    streamed = []
    got = _grid_erm(_recorded(_grid_objective(GRID_VALUES[kind], xs, zs, loss),
                              streamed), grid_points,
                    floor=_grid_floor(GRID_SPANS[kind], xs, zs, loss))
    want = _materialised_grid_erm(_reference_objective(kind, xs, zs, loss),
                                  grid_points)
    assert got[0].hex() == want[0].hex() and got[1].hex() == want[1].hex()
    thetas = np.arange(1, grid_points + 1, dtype=float) / grid_points
    for chunk in streamed:
        k = np.rint(chunk * grid_points).astype(int) - 1
        assert np.all(np.diff(k) > 0) and k[-1] // 8192 == k[0] // 8192
        assert chunk.tobytes() == thetas[k].tobytes()
    assert np.all(np.diff(np.concatenate(streamed)) > 0)


def test_grid_erm_hands_the_floor_its_sub_blocks_and_evaluates_the_rest():
    """A floor that rules out every other 512-theta sub-block.  It is called
    once per group of 16 blocks, with the bits of each sub-block's first
    and last theta, and the objective gets, one block per call, exactly the
    thetas of the sub-blocks it leaves, the short last one too."""
    grid_points = 17 * 8192 + 700
    thetas = np.arange(1, grid_points + 1, dtype=float) / grid_points
    calls, seen = [], []

    def floor(firsts, lasts):
        calls.append((firsts.copy(), lasts.copy()))
        floors = np.full(len(firsts), -math.inf)
        floors[1::2] = math.inf
        return floors

    got = _grid_erm(_recorded(lambda t: t.copy(), seen), grid_points, floor)
    assert got == (thetas[0], thetas[0])
    starts = [np.arange(0, 16 * 8192, 512), np.arange(16 * 8192, grid_points, 512)]
    ends = [starts[0] + 511, np.minimum(starts[1] + 511, grid_points - 1)]
    assert len(calls) == 2
    for (firsts, lasts), a, b in zip(calls, starts, ends):
        assert firsts.tobytes() == thetas[a].tobytes()
        assert lasts.tobytes() == thetas[b].tobytes()
    kept = (np.arange(grid_points) // 512) % 2 == 0
    assert np.concatenate(seen).tobytes() == thetas[kept].tobytes()
    assert [len(b) for b in seen] == [4096] * 17 + [512]


def test_grid_erm_sees_past_a_nan_in_its_block():
    """theta * 1e-305 underflows for small theta, so 1 / p is inf and the
    sine NaN.  A NaN counts as +inf, and the finite values of its block
    still compete: the grid point 0.05 fits these labels exactly."""
    xs = np.array([1e-305, 0.5])
    zs = np.sin(1.0 / (0.05 * xs))
    objective = _reference_objective("sine", xs, zs, CLIPPED_ABS)
    with np.errstate(all="ignore"):
        values = objective(np.arange(1, 8193, dtype=float) / 100_000)
        want = _materialised_grid_erm(objective, 100_000)
        sol = ComposedSineClass().fit_x(xs, zs, CLIPPED_ABS, 100_000)
    assert np.isnan(values[0]) and not np.isnan(values).all()
    assert sol.member.theta.hex() == want[0].hex()
    assert sol.objective.hex() == want[1].hex()
    assert (sol.member.theta, sol.objective) == (0.05, 0.0)


def test_grid_erm_keeps_the_last_point_when_nothing_beats_infinity():
    assert _grid_erm(lambda t: np.full(len(t), math.inf), 10_000) == (1.0, math.inf)
    assert _grid_erm(lambda t: np.full(len(t), math.nan), 3) == (1.0, math.inf)


@pytest.mark.parametrize("cls", [ComposedSineClass(), ScalingClass()],
                         ids=["sine", "scaling"])
@pytest.mark.parametrize("grid_points", [0, -1])
def test_grid_fit_rejects_an_empty_grid(cls, grid_points):
    xs, zs = np.array([0.25, 0.5]), np.array([0.1, -0.2])
    with pytest.raises(DomainError, match="at least one point"):
        cls.fit_x(xs, zs, CLIPPED_ABS, grid_points)


def _grid_fit_peak(grid_points):
    """The tracemalloc peak, above what is held before it, of a 4-row
    composed-sine fit_unimodal."""
    xz = [(float(lattice_point(i)), z) for i, z in
          ((3, 0.5), (5, -0.5), (5, -0.5), (9, 0.9))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit_unimodal(xz, ComposedSineClass(), CLIPPED_ABS, grid_points=grid_points)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_grid_memory_does_not_grow_with_the_grid():
    small, large = _grid_fit_peak(10**5), _grid_fit_peak(10**6)
    assert large < 1.5 * small
    assert large < 2 * 2**20


def test_unimodal_oscillatory_fit_small_training_loss():
    # two labeled points from a shattered distribution: the composed sine
    # family interpolates them on the grid, though the population risk of
    # that fit is large (checked in the analysis tests)
    inst = make_sine_shattered([1, -1, 1, -1, 1, -1, 1, -1])
    labeled = draw_labeled(inst, 1, 2, SEED)
    block = labeled.tasks[0]
    xz = np.column_stack((block.x[:, 0], block.z))
    sol = fit_unimodal(xz, ComposedSineClass(), CLIPPED_ABS, grid_points=100_000)
    assert sol.objective <= 0.25


def test_unimodal_finite_class_enumeration():
    xs = np.array([0.0, 0.0, 1.0, 1.0])
    zs = np.array([1.0, 1.0, 0.0, 0.0])
    sol = fit_unimodal(list(zip(xs, zs)), BooleanMapClass(), CLIPPED_ABS)
    assert sol.member.table == (1, 0)
    assert sol.objective == 0.0
    assert sol.path == "enumeration-exact"


@pytest.mark.parametrize("name", sorted(_CLASSES))
def test_every_cli_class_fits_on_x_or_says_it_cannot(name):
    cls = _CLASSES[name]
    xz = [(0.25, 0.5), (0.5, -0.5), (1.0, 0.9)]
    if name == "singleton":
        with pytest.raises(UnsupportedClassError):
            fit_unimodal(xz, cls, CLIPPED_ABS)
        return
    sol = fit_unimodal(xz, cls, CLIPPED_ABS, grid_points=500)
    assert math.isfinite(sol.objective) and sol.path in (
        "exact-lad", "enumeration-exact", "grid-upper-bound")
    preds = [float(np.atleast_1d(sol.member.map(x))[0]) for x, _ in xz]
    loss = np.mean([min(abs(p - z), 1.0) for p, (_, z) in zip(preds, xz)])
    assert loss == pytest.approx(sol.objective, rel=1e-12, abs=1e-15)


def test_unimodal_rejects_singleton():
    with pytest.raises(UnsupportedClassError):
        fit_unimodal([(0.5, 0.1)], SineSingletonClass(), CLIPPED_ABS)


def test_unimodal_rejects_lookup_predictors():
    # boolean lookup members read y, so none of them is a map of x alone
    with pytest.raises(UnsupportedClassError):
        fit_unimodal([(0.0, 1.0), (1.0, 0.0)], BooleanLookupClass(), CLIPPED_ABS)


def test_stage1_degeneracy_carries_stage_tag():
    from modalgap.core import DegenerateDataError
    labeled = MultiSample(tasks=(Block(x=[0.5], y=[0.2], z=[0.1]),))
    unlabeled = MultiSample(tasks=(Block(x=[0.0], y=[0.2]),))
    with pytest.raises(DegenerateDataError, match="stage 1"):
        fit_multimodal(labeled, unlabeled, ScalingClass(), SineSingletonClass())


def test_joint_fit_tie_census():
    # one labeled point from the theta*=1 sine law at x = 2/pi: every
    # theta = 1/(1+4k) puts the composed sine back on its maximum, so the
    # grid census finds several zero-loss parameters (theta = 1 and 0.2 are
    # exactly on the 100-point grid)
    x = 2.0 / math.pi
    point = Block(x=[x], y=[x], z=[math.sin(1.0 / x)])
    sol = fit_joint(point, ScalingClass(), SineSingletonClass(),
                    CLIPPED_ABS, budget=100)
    assert sol.zero_loss_ties > 1
    assert sol.objective <= 1e-12


def test_joint_fit_boolean_reduces_to_per_task():
    inst = make_boolean([(0, 1), (1, 0)])
    labeled = draw_labeled(inst, 2, 16, SEED)
    sol = fit_joint(labeled, BooleanMapClass(), BooleanLookupClass(), CLIPPED_ABS)
    assert sol.evaluations <= 4 * 32
    assert len(sol.predictors) == 2
    # y is a coin flip independent of x: no composition beats 1/2 by much
    assert sol.objective >= 0.25


def _per_candidate_joint(blocks, loss, budget):
    """The joint search over scaling with the sine singleton, one candidate
    at a time: for each grid theta a ScalingConnection, and per task the
    class's fit_predictor on the composed block, added up weighted by task
    size.  Returns the grid, the objective at each theta, the evaluations,
    the zero-loss ties and whether the budget cut the grid short."""
    rows = sum(len(b) for b in blocks)
    points = max(1, min(100_000, budget // rows))
    thetas = [float(i) / points for i in range(1, points + 1)]
    objectives = []
    for theta in thetas:
        g = ScalingConnection(theta)
        total = 0.0
        for b in blocks:
            _, objective = SineSingletonClass().fit_predictor(
                Block(b.x, g.map(b.x[:, 0]), b.z), loss)
            total += objective * len(b)
        objectives.append(total / rows)
    ties = sum(v <= 1.0 / points for v in objectives)
    return thetas, objectives, points * rows, ties, budget // rows < 100_000


@st.composite
def joint_samples(draw):
    """Labeled blocks from the lab's sine law, or x in (0, 1] with labels
    anywhere in [-1.5, 1.5]; 1 to 3 tasks of 1 to 6 rows."""
    tasks, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        inst = make_sine(draw(st.floats(0.05, 1.0)), support=draw(st.integers(1, 12)))
        return draw_labeled(inst, tasks, n, SeedSpec(draw(st.integers(0, 99)))).tasks
    rows = st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(-1.5, 1.5)),
                    min_size=n, max_size=n)
    return tuple(Block(x=[x for x, _ in r], y=[x for x, _ in r], z=[z for _, z in r])
                 for r in (draw(rows) for _ in range(tasks)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(blocks=joint_samples(), loss=st.sampled_from([CLIPPED_ABS, ABSOLUTE]),
       budget=st.integers(1, 5000))
def test_joint_fit_matches_the_per_candidate_search(blocks, loss, budget):
    thetas, objectives, evals, ties, exhausted = _per_candidate_joint(blocks, loss, budget)
    sol = fit_joint(MultiSample(tasks=blocks), ScalingClass(), SineSingletonClass(),
                    loss, budget=budget)
    assert (sol.evaluations, sol.zero_loss_ties, sol.budget_exhausted) == (
        evals, ties, exhausted)
    best = int(np.argmin(objectives))
    assert sol.objective == pytest.approx(objectives[best], rel=1e-12, abs=0.0)
    if sol.connection.theta != thetas[best]:
        # the sums may round apart in their last bits, and then pick
        # another theta of the same objective
        other = objectives[thetas.index(sol.connection.theta)]
        assert other == pytest.approx(objectives[best], rel=1e-12, abs=0.0)
    assert len(sol.predictors) == len(blocks)


def test_joint_fit_budget_flag():
    inst = make_sine(0.5, support=4)
    labeled = draw_labeled(inst, 1, 8, SEED)
    sol = fit_joint(labeled, ScalingClass(), SineSingletonClass(),
                    CLIPPED_ABS, budget=40)
    assert sol.budget_exhausted
    # the budget cuts the grid short until it buys 100,000 thetas of 8 rows
    for budget, exhausted in ((799_999, True), (800_000, False)):
        sol = fit_joint(labeled, ScalingClass(), SineSingletonClass(),
                        CLIPPED_ABS, budget=budget)
        assert (sol.budget_exhausted, sol.evaluations) == (exhausted, budget // 8 * 8)


def test_joint_fit_rejects_an_empty_budget():
    labeled = draw_labeled(make_sine(0.5, support=4), 1, 8, SEED)
    with pytest.raises(DomainError, match="budget"):
        fit_joint(labeled, ScalingClass(), SineSingletonClass(), CLIPPED_ABS,
                  budget=0)


def test_joint_objective_audit():
    inst = make_sine(0.61, support=6)
    labeled = draw_labeled(inst, 1, 4, SEED)
    sol = fit_joint(labeled, ScalingClass(), SineSingletonClass(),
                    CLIPPED_ABS, budget=50_000)
    xs, zs = labeled.tasks[0].x[:, 0], labeled.tasks[0].z
    rng = np.random.default_rng(1)
    thetas = rng.uniform(1e-6, 1.0, size=10_000)
    objs = np.minimum(np.abs(np.sin(1.0 / np.outer(thetas, xs)) - zs), 1.0).mean(axis=1)
    assert sol.objective <= objs.min() + 1e-9
