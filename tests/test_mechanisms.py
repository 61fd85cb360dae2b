"""Mechanism tests: exactness, streaming/batch equality, ledger bounds, audits."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from karycount import mechanisms
from karycount.digits import DigitSystem, max_value
from karycount.lowerbound import LowerBoundConfig
from karycount.mechanisms import (
    BatchRunner,
    BlockNoise,
    Mechanism,
    MechanismConfig,
    MechanismStateError,
    output_keys,
)
from karycount.noise import vertex_laplace
from karyref import (
    encode,
    laplace,
    output_keys_at,
    run_oracle,
    sensitivity_audit,
    walk_at,
    weight,
)

VARIANT_ARITIES = [
    (DigitSystem.PLAIN, 2),
    (DigitSystem.PLAIN, 3),
    (DigitSystem.OFFSET_ODD, 3),
    (DigitSystem.OFFSET_ODD, 5),
    (DigitSystem.OFFSET_EVEN, 4),
    (DigitSystem.OFFSET_EVEN, 6),
]


def _random_bits(T, seed):
    return np.random.default_rng(seed).integers(0, 2, size=T).tolist()


def test_config_heights():
    assert MechanismConfig(DigitSystem.PLAIN, 3, 80, 1.0).height == 4
    assert MechanismConfig(DigitSystem.PLAIN, 3, 81, 1.0).height == 5
    assert MechanismConfig(DigitSystem.OFFSET_ODD, 3, 40, 1.0).height == 4
    assert MechanismConfig(DigitSystem.OFFSET_ODD, 3, 41, 1.0).height == 5
    assert MechanismConfig(DigitSystem.OFFSET_EVEN, 4, 42, 1.0).height == 3
    assert MechanismConfig(DigitSystem.OFFSET_EVEN, 4, 43, 1.0).height == 4
    assert MechanismConfig(DigitSystem.OFFSET_ODD, 19, 1, 1.0).height == 1


def test_config_height_is_computed_once():
    # the cached height equals the smallest h whose digit range covers T, at
    # both ends of every height's range, and later reads hit the cache
    for variant, k in [(DigitSystem.PLAIN, 2), (DigitSystem.OFFSET_ODD, 19),
                       (DigitSystem.OFFSET_EVEN, 20)]:
        for h in range(1, 21):
            for T in (max_value(variant, k, h - 1) + 1 if h > 1 else 1, max_value(variant, k, h)):
                cfg = MechanismConfig(variant, k, T, 1.0)
                want = 1
                while max_value(variant, k, want) < T:
                    want += 1
                assert cfg.height == want == h
                assert cfg.__dict__["height"] == h
                assert cfg.scale == h / 1.0


def test_config_scale():
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 40, 0.5)
    assert cfg.scale == cfg.height / 0.5
    assert MechanismConfig(DigitSystem.OFFSET_ODD, 3, 40, 0.5, zero_noise=True).scale == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        MechanismConfig(DigitSystem.OFFSET_ODD, 4, 10, 1.0)
    with pytest.raises(ValueError):
        MechanismConfig(DigitSystem.PLAIN, 3, 0, 1.0)
    with pytest.raises(ValueError):
        MechanismConfig(DigitSystem.PLAIN, 3, 10, 0.0)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, -1.0])
def test_config_rejects_bad_epsilon(epsilon):
    # epsilon=inf would give scale 0: exact counts released as private
    with pytest.raises(ValueError, match="epsilon"):
        MechanismConfig(DigitSystem.PLAIN, 3, 10, epsilon)


def test_config_seed_range():
    MechanismConfig(DigitSystem.PLAIN, 3, 10, 1.0, seed=2**64 - 1)
    MechanismConfig(DigitSystem.PLAIN, 3, 10, 1.0, seed=np.uint64(2**64 - 1))
    for seed in (-1, 2**64, 2**70, 1.0):
        with pytest.raises(ValueError, match="seed"):
            MechanismConfig(DigitSystem.PLAIN, 3, 10, 1.0, seed=seed)


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_zero_noise_is_exact(variant, k):
    T = 150
    cfg = MechanismConfig(variant, k, T, 1.0, zero_noise=True)
    bits = _random_bits(T, 7)
    mech = Mechanism(cfg)
    true_sum = 0
    for b in bits:
        true_sum += b
        assert mech.feed(b) == true_sum


def test_feed_guards():
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 4, 1.0, zero_noise=True)
    mech = Mechanism(cfg)
    for x in (2, -1, 1.0, 0.0, True, False, np.int64(1), "1"):
        with pytest.raises(ValueError):
            mech.feed(x)
    assert mech.t == 0
    for b in (1, 0, 1, 1):
        mech.feed(b)
    with pytest.raises(MechanismStateError):
        mech.feed(0)


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_output_keys_count_equals_digit_weight(variant, k):
    T = 200
    cfg = MechanismConfig(variant, k, T, 1.0)
    keysets = output_keys(cfg)
    for t, keys in enumerate(keysets, start=1):
        assert len(keys) == weight(encode(t, k, cfg.height, variant))
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_streaming_equals_oracle_bitwise(k):
    for stream_seed in range(10):
        T = 200
        cfg = MechanismConfig(DigitSystem.OFFSET_ODD, k, T, 1.0, seed=stream_seed + 100)
        bits = _random_bits(T, stream_seed)
        mech = Mechanism(cfg)
        streamed = [mech.feed(b) for b in bits]
        assert streamed == run_oracle(bits, cfg)


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_streaming_equals_oracle_all_variants(variant, k):
    T = 120
    cfg = MechanismConfig(variant, k, T, 2.0, seed=5)
    bits = _random_bits(T, 11)
    mech = Mechanism(cfg)
    streamed = [mech.feed(b) for b in bits]
    assert streamed == run_oracle(bits, cfg)


# every pair of VARIANT_ARITIES, and the paper's arities 19 and 20
BATCH_CASES = VARIANT_ARITIES + [(DigitSystem.OFFSET_ODD, 19), (DigitSystem.OFFSET_EVEN, 20)]


@pytest.mark.parametrize("variant,k", BATCH_CASES)
def test_batch_runner_equals_feed(variant, k):
    # one Laplace transform on both noise paths: the runner's rows are the
    # streamed floats, bit for bit, at all and at chosen times
    T = 3000
    bits = _random_bits(T, k)
    for seed in (0, 7, 2**64 - 1):
        cfg = MechanismConfig(variant, k, T, 1.0, seed=seed)
        mech = Mechanism(cfg)
        streamed = [mech.feed(b) for b in bits]
        assert BatchRunner(cfg).run(bits, seed).tolist() == streamed
        times = [1, 1, 17, 1500, 2999, 3000]
        got = BatchRunner(cfg, times=times).run(bits, seed).tolist()
        assert got == [streamed[t - 1] for t in times]


@pytest.mark.parametrize("variant,k", BATCH_CASES)
def test_batch_runner_noise_of_many_seeds_is_each_run(variant, k, monkeypatch):
    # a batch of seeds gives, seed by seed, the noise of a one-seed run, and
    # draws each of the plan's keys once under each seed
    T = 500
    cfg = MechanismConfig(variant, k, T, 1.0)
    runner = BatchRunner(cfg, times=[1, 250, 250, T])
    seeds = np.array([[0, 3, 2**64 - 1], [5, 5, 2**63]], dtype=np.uint64)
    draws = []

    def counted(scale, seed, keys, **arrays):
        draws.append(np.broadcast(seed, keys).size)
        return vertex_laplace(scale, seed, keys, **arrays)

    monkeypatch.setattr(mechanisms, "vertex_laplace", counted)
    batch = runner.noise(seeds)
    assert draws == [len(runner.keys) * seeds.size]
    monkeypatch.undo()
    assert batch.shape == (4, 2, 3)
    zeros = [0] * T
    for r, c in np.ndindex(seeds.shape):
        assert batch[:, r, c].tolist() == runner.run(zeros, int(seeds[r, c])).tolist()
    assert runner.noise(7).tolist() == runner.run(zeros, 7).tolist()


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(BATCH_CASES + [(DigitSystem.OFFSET_ODD, 2**10 + 1)]),
    times=st.lists(st.integers(1, 1000), min_size=1, max_size=60).map(sorted),
    seeds=st.lists(st.sampled_from([0, 7, 2**64 - 1]), min_size=1, max_size=3),
)
def test_batch_runner_noise_equals_feed_any_times(case, times, seeds):
    # one plan evaluated under an array of seeds: each seed's column is the
    # noise `feed` gives under that seed, at sorted times with repeats
    cfg = MechanismConfig(*case, 1000, 1.0)
    got = BatchRunner(cfg, times).noise(np.array(seeds, dtype=np.uint64))
    assert got.shape == (len(times), len(seeds))
    for c, seed in enumerate(seeds):
        noise = _fed_noise(*case, cfg.T, seed)
        assert got[:, c].tolist() == [noise[t - 1] for t in times]


def test_batch_runner_warm_noise_allocates_no_draw_sized_array():
    # the plan of `bench --variant offset-even --k 20 --h 3` (4,210 keys)
    # under a block of 15 seeds: a draw of 505 KB, hashed, transformed, summed
    # and gathered in the runner's own arrays
    cfg = MechanismConfig(DigitSystem.OFFSET_EVEN, 20, 4210, 1.0)
    runner = BatchRunner(cfg)
    seeds = np.arange(runner.seeds_per_block(), dtype=np.uint64)
    assert len(runner.keys) * len(seeds) == 63_150
    runner.noise(seeds)
    tracemalloc.start()
    try:
        runner.noise(seeds + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("variant,k", BATCH_CASES)
def test_block_noise_equals_feed(variant, k):
    # one grid in the canonical order: the streamed noise, bit for bit, over
    # all times at once; in blocks whose edges cut carries, through one
    # engine that carries its state and through a new engine per block; and
    # at sparse sorted times with repeats
    T = 3000
    for seed in (0, 7, 2**64 - 1):
        cfg = MechanismConfig(variant, k, T, 1.0, seed=seed)
        mech = Mechanism(cfg)
        noise = [mech.feed(0) for _ in range(T)]
        assert BlockNoise(cfg)(np.arange(1, T + 1)).tolist() == noise
        for rows in (1, 97):
            starts = range(1, T + 1, rows) if rows > 1 else range(1, 401)
            engine = BlockNoise(cfg)
            blocks = [engine(range(s, min(s + rows, T + 1))) for s in starts]
            assert np.concatenate(blocks).tolist() == noise[: len(blocks) * rows]
        blocks = [BlockNoise(cfg)(range(s, min(s + 97, T + 1))) for s in range(1, T + 1, 97)]
        assert np.concatenate(blocks).tolist() == noise
        times = [1, 1, 17, 1500, 2999, 3000]
        assert BlockNoise(cfg)(times).tolist() == [noise[t - 1] for t in times]
        engine = BlockNoise(cfg)
        got = [engine(times[:2]), engine([]), engine(times[2:4]), engine(times[4:])]
        assert np.concatenate(got).tolist() == [noise[t - 1] for t in times]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(VARIANT_ARITIES + [(DigitSystem.OFFSET_ODD, 19), (DigitSystem.PLAIN, 50)]),
    times=st.lists(st.integers(1, 600), max_size=80).map(sorted),
    cuts=st.lists(st.integers(0, 80), max_size=8).map(sorted),
)
def test_block_noise_carries_state_across_any_calls(case, times, cuts):
    # sorted times with repeats and jumps, cut into calls of any size, some
    # empty, through one engine: `feed`'s noise at those times, bit for bit
    cfg = MechanismConfig(*case, 600, 1.0, seed=11)
    mech = Mechanism(cfg)
    noise = [mech.feed(0) for _ in range(cfg.T)]
    engine = BlockNoise(cfg)
    got = [engine(part) for part in np.split(np.array(times, dtype=np.int64), cuts)]
    assert np.concatenate(got).tolist() == [noise[t - 1] for t in times]


COLLAPSE_CASES = [(DigitSystem.PLAIN, 2), (DigitSystem.PLAIN, 3),
                  (DigitSystem.OFFSET_ODD, 19), (DigitSystem.OFFSET_EVEN, 20)]


@functools.cache
def _fed_noise(variant, k, T, seed):
    mech = Mechanism(MechanismConfig(variant, k, T, 1.0, seed=seed))
    return [mech.feed(0) for _ in range(T)]


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(COLLAPSE_CASES),
    seed=st.sampled_from([0, 2**64 - 1]),
    start=st.integers(1, 200),
    calls=st.lists(st.tuples(st.sampled_from(["one", "few", "wide"]), st.integers(0, 10**6),
                             st.integers(0, 3)), min_size=1, max_size=6),
)
@example(case=COLLAPSE_CASES[0], seed=0, start=1,
         calls=[("wide", 0, 0), ("one", 0, 0), ("few", 5, 1), ("one", 0, 3)])
def test_block_noise_equals_feed_across_the_run_collapse(case, seed, start, calls):
    # calls of one row and of fewer than k rows, whose levels above 0 (or
    # above 1) have one run each, and "wide" calls of more than k^(h-1)
    # rows, where even the top level has several runs, each after a gap in
    # time of 0 to 3, through one engine: `feed`'s noise at those times,
    # bit for bit
    variant, k = case
    T = 1000
    cfg = MechanismConfig(variant, k, T, 1.0, seed=seed)
    wide = k ** (cfg.height - 1) + 1
    noise = _fed_noise(variant, k, T, seed)
    engine = BlockNoise(cfg)
    t, got, want = start, [], []
    for kind, r, gap in calls:
        rows = {"one": 1, "few": 1 + r % (k - 1), "wide": wide + r % (T - wide + 1)}[kind]
        times = np.arange(t + gap, min(t + gap + rows, T + 1))
        got.append(engine(times))
        want += [noise[s - 1] for s in times]
        t += gap + rows
    assert np.concatenate(got).tolist() == want


def test_block_noise_memory_does_not_grow_with_height():
    # a call holds a few arrays of its runs, about rows*k/(k-1) + h of them,
    # and no (h, rows) array: one 4,096-row call at h = 20 peaks below one
    # (h, rows) int64 array
    cfg = MechanismConfig(DigitSystem.PLAIN, 2, 10**6, 1.0, seed=3)
    assert cfg.height == 20
    engine = BlockNoise(cfg)
    engine(np.arange(1, 5000))
    times = np.arange(5000, 5000 + 4096)
    tracemalloc.start()
    try:
        engine(times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cfg.height * 4096 * 8


@pytest.mark.parametrize("variant,k", [(DigitSystem.PLAIN, 2**20), (DigitSystem.OFFSET_ODD, 2**10 + 1)]
                         + BATCH_CASES)
def test_block_noise_draws_each_key_once_on_wide_trees(variant, k, monkeypatch):
    # a call draws only the walked keys its carried state lacks: over sorted
    # times with repeats and gaps, cut into calls at random places, some
    # empty, and over one-row calls at every t, as from a producer that sends
    # one bit at a time, the draws are the distinct keys of the times' walks,
    # each once, on trees wider than a call too; checked against `feed` bit
    # for bit
    T = 3000
    rng = np.random.default_rng(k)
    times = np.sort(rng.integers(1, T + 1, 600))
    cut = np.split(times, np.sort(rng.integers(0, len(times) + 1, 40)))
    cfg = MechanismConfig(variant, k, T, 1.0, seed=5)
    noise = _fed_noise(variant, k, T, 5)
    walks = {t: output_keys_at(cfg, t) for t in range(1, T + 1)}
    drawn = []

    def counted(scale, seed, keys, **arrays):
        drawn.extend(np.ravel(keys).tolist())
        return vertex_laplace(scale, seed, keys, **arrays)

    monkeypatch.setattr(mechanisms, "vertex_laplace", counted)
    for calls in (cut, [[t] for t in range(1, T + 1)]):
        drawn.clear()
        engine = BlockNoise(cfg)
        got = np.concatenate([engine(part) for part in calls])
        called = np.concatenate(calls).tolist()
        assert got.tolist() == [noise[t - 1] for t in called]
        assert sorted(drawn) == sorted(set().union(*(walks[t] for t in called)))


def test_block_noise_bounds():
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 40, 1.0)
    assert BlockNoise(cfg)([]).shape == (0,)
    with pytest.raises(ValueError, match="sorted"):
        BlockNoise(cfg)([3, 2])
    engine = BlockNoise(cfg)
    engine([5])
    with pytest.raises(ValueError, match="sorted"):
        engine([4])
    for times in ([0], [41]):
        with pytest.raises(ValueError, match="lie in"):
            BlockNoise(cfg)(times)
    # a float would be truncated, to the noise of another time, and a bool read as 1
    for times in ([2.7], [True], np.array([1.0]), [1, 2.0]):
        with pytest.raises(ValueError, match="integers"):
            BlockNoise(cfg)(times)
    with pytest.raises(OverflowError, match="int64"):
        BlockNoise(MechanismConfig(DigitSystem.PLAIN, 2, 2**63, 1.0))
    zero = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 40, 1.0, zero_noise=True)
    assert BlockNoise(zero)(np.arange(1, 41)).tolist() == [0.0] * 40


def test_batch_runner_selected_times():
    T = 64
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, T, 1.0, seed=9)
    times = [8, 16, 64]
    full = BatchRunner(cfg).run([1] * T, seed=9)
    partial = BatchRunner(cfg, times=times).run([1] * T, seed=9)
    assert np.array_equal(partial, full[np.array(times) - 1])


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_batch_runner_is_true_plus_canonical_vector_draws(variant, k):
    # exact: each output is its prefix sum plus the canonical-order sum of
    # the draws over its walk
    for h in (1, 2, 3):
        T = max_value(variant, k, h)
        cfg = MechanismConfig(variant, k, T, 1.0, seed=40 + h)
        bits = _random_bits(T, h)
        got = BatchRunner(cfg).run(bits, seed=cfg.seed)
        true_sum = 0
        for t, b in enumerate(bits, start=1):
            true_sum += b
            assert got[t - 1] == true_sum + canonical_noise(cfg, t, output_keys_at(cfg, t))


def test_batch_runner_unsorted_duplicate_times():
    T = 200
    cfg = MechanismConfig(DigitSystem.OFFSET_EVEN, 6, T, 1.0)
    bits = np.array(_random_bits(T, 5), dtype=np.int8)
    full = BatchRunner(cfg).run(bits, seed=12)
    for times in ([1, 3, 3, 77, 77, 77, 150], [2, 149, 150], [5], [1, 200]):
        got = BatchRunner(cfg, times=times).run(bits, seed=12)
        # the last time may fall short of T; rows are computed one by one
        assert np.array_equal(got, full[np.array(times) - 1])
    exact = MechanismConfig(DigitSystem.OFFSET_EVEN, 6, T, 1.0, zero_noise=True)
    times = [9, 9, 40, 190]
    assert BatchRunner(exact, times=times).run(bits, seed=0).tolist() == [
        int(bits[:t].sum()) for t in times
    ]
    with pytest.raises(ValueError, match="empty"):
        BatchRunner(cfg, times=[])
    for times in ([0], [T + 1], [[1, 2]]):
        with pytest.raises(ValueError):
            BatchRunner(cfg, times=times)
    # a plan's level-0 runs are its times in order, as a `BlockNoise` call takes them
    for times in ([77, 3, 150, 3, 1, 77, 77], [150, 149, 2], [200, 1]):
        with pytest.raises(ValueError, match="sorted"):
            BatchRunner(cfg, times=times)
    for times in ([2.7], [True], np.array([1.0]), [1, 2.0]):
        with pytest.raises(ValueError, match="integers"):
            BatchRunner(cfg, times=times)
    with pytest.raises(OverflowError, match="int64"):
        BatchRunner(MechanismConfig(DigitSystem.PLAIN, 2, 2**63, 1.0), times=[1])


def test_batch_runner_builds_at_a_trillion():
    # only the requested times are walked
    T = 10**12
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, T, 1.0)
    runner = BatchRunner(cfg, times=[T])
    assert sorted(runner.keys.tolist()) == sorted(output_keys_at(cfg, T))
    assert len(runner.keys) == weight(encode(T, 3, cfg.height, DigitSystem.OFFSET_ODD))
    assert runner.noise(0).shape == (1,)


# small arities of every variant
WALK_CASES = [
    (DigitSystem.PLAIN, 2),
    (DigitSystem.PLAIN, 3),
    (DigitSystem.PLAIN, 5),
    (DigitSystem.OFFSET_ODD, 3),
    (DigitSystem.OFFSET_ODD, 5),
    (DigitSystem.OFFSET_ODD, 7),
    (DigitSystem.OFFSET_EVEN, 4),
    (DigitSystem.OFFSET_EVEN, 6),
]


def walk_config(case, h: int, data) -> MechanismConfig:
    """A config of height exactly h, with T drawn from that height's range."""
    variant, k = case
    low = max_value(variant, k, h - 1) + 1 if h > 1 else 1
    T = data.draw(st.integers(low, max_value(variant, k, h)), label="T")
    cfg = MechanismConfig(variant, k, T, 1.0, zero_noise=True)
    assert cfg.height == h
    return cfg


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WALK_CASES), st.integers(1, 6), st.data())
def test_batch_runner_keys_are_the_walked_keys_any_times(case, h, data):
    # the plan holds each key of the requested outputs once, and no other
    cfg = walk_config(case, h, data)
    times = data.draw(st.lists(st.integers(1, cfg.T), min_size=1, max_size=50).map(sorted),
                      label="times")
    runner = BatchRunner(cfg, times)
    walked = set().union(*(output_keys_at(cfg, t) for t in times))
    assert sorted(runner.keys.tolist()) == sorted(walked)
    assert runner.noise(0).shape == (len(times),)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WALK_CASES), st.integers(1, 12), st.data())
def test_each_key_is_one_vertex(case, h, data):
    # over the outputs of a full tree, every output when it has at most
    # 2,000 and a sample of them past that, a key always stands for the same
    # level and the same interval: the walk's step from the previous
    # position.  The plan's keys are those vertices, and `output_keys` walks
    # them as the digits do.
    variant, k = case
    cfg = MechanismConfig(variant, k, max_value(variant, k, h), 1.0, zero_noise=True)
    if cfg.T <= 2000:
        times = list(range(1, cfg.T + 1))
        keys = output_keys(cfg)
        assert all(keys[t - 1] == output_keys_at(cfg, t) for t in times)
    else:
        times = data.draw(st.lists(st.integers(1, cfg.T), min_size=1, max_size=300).map(sorted),
                          label="times")
    vertex = {}
    for t in times:
        for lvl, prev, p in walk_at(cfg, t):
            assert vertex.setdefault(p, (lvl, min(prev, p))) == (lvl, min(prev, p))
    assert sorted(BatchRunner(cfg, times).keys.tolist()) == sorted(vertex)


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_ledger_tracks_current_keys(variant, k):
    # the lazy ledger holds exactly the vertices of the current output's walk
    T = 150
    cfg = MechanismConfig(variant, k, T, 1.0, zero_noise=True)
    mech = Mechanism(cfg)
    for t in range(1, T + 1):
        mech.feed(1 if t % 2 else 0)
        keys = output_keys_at(cfg, t)
        assert mech.ledger_keys() == keys
        assert mech.ledger_size == len(keys)


def canonical_noise(cfg: MechanismConfig, t: int, keys: list[int]) -> float:
    """0.0 plus the level sums from level h-1 down to 0; each level sum is
    0.0 plus that level's draws in walk order (the mechanisms docstring)."""
    digits = encode(t, cfg.k, cfg.height, cfg.variant)
    walk = iter(keys)
    noise = 0.0
    for lvl in range(cfg.height - 1, -1, -1):
        level_sum = 0.0
        for _ in range(abs(digits[lvl])):
            level_sum += laplace(cfg.scale, cfg.seed, next(walk))
        noise += level_sum
    assert next(walk, None) is None
    return noise


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_feed_sums_in_canonical_order(variant, k):
    # pinned on the definition itself, not only on streaming == oracle
    for h in (1, 2, 3, 4):
        T = max_value(variant, k, h)
        cfg = MechanismConfig(variant, k, T, 1.0, seed=31 + h)
        assert cfg.height == h
        bits = _random_bits(T, h)
        mech = Mechanism(cfg)
        true_sum = 0
        for t, (b, keys) in enumerate(zip(bits, output_keys(cfg)), start=1):
            true_sum += b
            assert mech.feed(b) == true_sum + canonical_noise(cfg, t, keys)


@pytest.mark.parametrize(
    "variant,k",
    [
        (DigitSystem.OFFSET_ODD, 3),
        (DigitSystem.OFFSET_ODD, 7),
        (DigitSystem.OFFSET_EVEN, 4),
        (DigitSystem.PLAIN, 3),
    ],
)
def test_ledger_high_water_cap(variant, k):
    # peak ledger size: one entry per unit of digit magnitude per level, so
    # h(k-1)/2 for odd offset digits, h*k/2 for even, h(k-1) for plain
    per_level = {
        DigitSystem.OFFSET_ODD: (k - 1) / 2,
        DigitSystem.OFFSET_EVEN: k / 2,
        DigitSystem.PLAIN: k - 1,
    }[variant]
    T = 400
    cfg = MechanismConfig(variant, k, T, 1.0, zero_noise=True)
    mech = Mechanism(cfg)
    for _ in range(T):
        mech.feed(1)
    assert mech.high_water <= cfg.height * per_level


def test_ledger_lifetimes_are_contiguous():
    # each vertex enters the ledger once and leaves once
    T = 364  # full capacity of offset-odd k=3 h=6
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, T, 1.0, zero_noise=True)
    mech = Mechanism(cfg)
    present: dict[int, list[list[int]]] = {}
    for t in range(1, T + 1):
        mech.feed(0)
        for p in mech.ledger_keys():
            spans = present.setdefault(p, [])
            if spans and spans[-1][1] == t - 1:
                spans[-1][1] = t
            else:
                spans.append([t, t])
    for p, spans in present.items():
        assert len(spans) == 1, f"vertex {p} was resident in {len(spans)} separate spans"


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_work_is_linear_in_kT(variant, k):
    T = 2000
    cfg = MechanismConfig(variant, k, T, 1.0, zero_noise=True)
    mech = Mechanism(cfg)
    for _ in range(T):
        mech.feed(0)
    assert mech.work <= 4 * k * T


def test_plain_binary_ledger_is_popcount():
    # for k=2 the plain ledger holds one vertex per set bit of t
    T = 257
    cfg = MechanismConfig(DigitSystem.PLAIN, 2, T, 1.0, zero_noise=True)
    mech = Mechanism(cfg)
    for t in range(1, T + 1):
        mech.feed(0)
        assert mech.ledger_size == bin(t).count("1")


def test_noise_is_unbiased_with_correct_variance():
    # across seeds, the output at a fixed t has mean = true sum and
    # variance = weight(t) * 2 h^2 / eps^2
    T = 13
    eps = 1.0
    cfg0 = MechanismConfig(DigitSystem.OFFSET_ODD, 3, T, eps)
    h = cfg0.height
    bits = [1] * T
    trials = 20_000
    runner = BatchRunner(cfg0, times=[T])
    outs = np.array([runner.run(bits, seed=s)[0] for s in range(trials)])
    w = weight(encode(T, 3, h, DigitSystem.OFFSET_ODD))
    var = w * 2.0 * h**2 / eps**2
    assert abs(outs.mean() - T) < 4.0 * math.sqrt(var / trials)
    assert abs(outs.var() - var) < 0.1 * var


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_sensitivity_audit_exactly_height(variant, k):
    # and at the natural maximum T of heights 1..4, the full tree of each
    for T in (17, 100, *(max_value(variant, k, h) for h in (1, 2, 3, 4))):
        cfg = MechanismConfig(variant, k, T, 1.0)
        audit = sensitivity_audit(cfg)
        assert audit.max_count == cfg.height
        assert (audit.counts == cfg.height).all()


# seeds a caller might pass: ints around both ends of [0, 2^64), numpy ints,
# floats and bools
SEEDS = st.one_of(
    st.integers(-2**10, 2**10),
    st.integers(2**64 - 2**10, 2**64 + 2**10),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.floats(), SEEDS)
@example(5e-324, 0)
@example(1e-320, 0)
def test_configs_accept_exactly_finite_epsilon_and_seeds_in_range(epsilon, seed):
    integer = type(seed) in (int, np.uint64, np.int64)
    # a lowerbound trial uses seeds seed .. seed + 3; each config also needs a
    # finite per-vertex scale h/epsilon, which a subnormal epsilon overflows
    # (h = 3 for the plain tree, 6 for the lowerbound's offset-odd k=3 tree)
    makers = [
        (lambda: MechanismConfig(DigitSystem.PLAIN, 3, 10, epsilon, seed=seed), 2**64 - 1, 3),
        (lambda: LowerBoundConfig(T=256, k=4, epsilon=epsilon, trials=1, seed=seed), 2**64 - 4, 6),
    ]
    for make, top, h in makers:
        eps_ok = math.isfinite(epsilon) and epsilon > 0 and math.isfinite(h / epsilon)
        if eps_ok and integer and 0 <= int(seed) <= top:
            cfg = make()
            assert type(cfg.seed) is int and cfg.seed == int(seed)
        else:
            with pytest.raises(ValueError):
                make()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32))
def test_streaming_oracle_property(T, seed):
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, T, 1.0, seed=seed)
    bits = _random_bits(T, seed)
    mech = Mechanism(cfg)
    assert [mech.feed(b) for b in bits] == run_oracle(bits, cfg)
