"""Mechanism tests: exactness, streaming/batch equality, ledger bounds, audits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from karycount import mechanisms
from karycount.analysis import natural_max_T
from karycount.digits import DigitSystem, digit_bounds, encode, max_value, weight
from karycount.lowerbound import LowerBoundConfig
from karycount.mechanisms import (
    BatchRunner,
    BlockNoise,
    Mechanism,
    MechanismConfig,
    MechanismStateError,
    output_keys,
    run_oracle,
    sensitivity_audit,
    walk_keys,
)
from karycount.noise import vertex_laplace

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


def output_keys_at(cfg: MechanismConfig, t: int) -> list[int]:
    """The walk of one time step, written out with `digits.encode`."""
    digits = encode(t, cfg.k, cfg.height, cfg.variant).digits
    p, keys = 0, []
    for lvl in range(cfg.height - 1, -1, -1):
        for _ in range(abs(digits[lvl])):
            p += cfg.k**lvl if digits[lvl] > 0 else -(cfg.k**lvl)
            keys.append(p)
    return keys


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
        times = [2999, 1, 1500, 1, 3000, 17]
        got = BatchRunner(cfg, times=times).run(bits, seed).tolist()
        assert got == [streamed[t - 1] for t in times]


@pytest.mark.parametrize("variant,k", BATCH_CASES)
def test_batch_runner_noise_of_many_seeds_is_each_run(variant, k):
    # a batch of seeds gives, seed by seed, the noise of a one-seed run
    T = 500
    cfg = MechanismConfig(variant, k, T, 1.0)
    runner = BatchRunner(cfg, times=[T, 1, 250, 250])
    seeds = np.array([[0, 3, 2**64 - 1], [5, 5, 2**63]], dtype=np.uint64)
    batch = runner.noise(seeds)
    assert batch.shape == (4, 2, 3)
    zeros = [0] * T
    for r, c in np.ndindex(seeds.shape):
        assert batch[:, r, c].tolist() == runner.run(zeros, int(seeds[r, c])).tolist()
    assert runner.noise(7).tolist() == runner.run(zeros, 7).tolist()


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


@pytest.mark.parametrize("variant,k", [(DigitSystem.PLAIN, 2**20), (DigitSystem.OFFSET_ODD, 2**10 + 1)])
def test_block_noise_draws_each_key_once_on_wide_trees(variant, k, monkeypatch):
    # a block draws only the keys its carried state lacks, so one-row blocks
    # on a tree wider than a block draw about what `feed` draws, not O(t)
    # each; checked against `feed` bit for bit
    T = 3000
    cfg = MechanismConfig(variant, k, T, 1.0, seed=5)
    mech = Mechanism(cfg)
    noise = [mech.feed(0) for _ in range(T)]
    draws = []

    def counted(scale, seed, keys):
        draws.append(np.size(keys))
        return vertex_laplace(scale, seed, keys)

    monkeypatch.setattr(mechanisms, "vertex_laplace", counted)
    engine = BlockNoise(cfg)
    got = [engine([t]) for t in range(1, T + 1)]
    assert np.concatenate(got).tolist() == noise
    # feed's ledger insertions, plus at most two unread keys per level and call
    assert sum(draws) <= mech.work + 2 * cfg.height * T


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
    for times in ([77, 3, 150, 3, 1, 77, 77], [150, 149, 2], [5], [200, 1]):
        got = BatchRunner(cfg, times=times).run(bits, seed=12)
        # the last time may fall short of T; rows are computed one by one
        assert np.array_equal(got, full[np.array(times) - 1])
    exact = MechanismConfig(DigitSystem.OFFSET_EVEN, 6, T, 1.0, zero_noise=True)
    times = [9, 190, 9, 40]
    assert BatchRunner(exact, times=times).run(bits, seed=0).tolist() == [
        int(bits[:t].sum()) for t in times
    ]
    with pytest.raises(ValueError, match="empty"):
        BatchRunner(cfg, times=[])


def test_batch_runner_builds_at_a_trillion():
    # only the requested times are walked
    T = 10**12
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, T, 1.0)
    runner = BatchRunner(cfg, times=[T])
    assert runner.keys.tolist() == sorted(output_keys_at(cfg, T))
    assert len(runner.keys) == weight(encode(T, 3, cfg.height, DigitSystem.OFFSET_ODD))
    assert runner.index.shape[1] == 1


def test_walk_keys_bounds():
    cfg = MechanismConfig(DigitSystem.PLAIN, 3, 100, 1.0)
    for times in ([0], [101], [[1, 2]]):
        with pytest.raises(ValueError):
            walk_keys(cfg, times)
    keys, mask = walk_keys(cfg, [])
    assert keys.shape == mask.shape == (0, cfg.height * 2)
    with pytest.raises(OverflowError, match="int64"):
        walk_keys(MechanismConfig(DigitSystem.PLAIN, 2, 2**63, 1.0), [1])


# small arities of every variant; at h = 6 the largest T is 58,824 (offset-odd k=7)
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


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(WALK_CASES), st.integers(1, 6), st.data())
def test_walk_keys_rows_are_the_ledger(case, h, data):
    cfg = walk_config(case, h, data)
    keys, mask = walk_keys(cfg, np.arange(1, cfg.T + 1))
    mech = Mechanism(cfg)
    for t in range(1, cfg.T + 1):
        mech.feed(0)
        assert mech.ledger_keys() == keys[t - 1][mask[t - 1]].tolist()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WALK_CASES), st.integers(1, 6), st.data())
def test_walk_keys_row_weight_any_times(case, h, data):
    cfg = walk_config(case, h, data)
    times = data.draw(st.lists(st.integers(1, cfg.T), max_size=50), label="times")
    keys, mask = walk_keys(cfg, times)
    lo, hi = digit_bounds(cfg.variant, cfg.k)
    assert keys.shape == mask.shape == (len(times), h * max(hi, -lo))
    assert not keys[~mask].any()
    for row, t in enumerate(times):
        assert mask[row].sum() == weight(encode(t, cfg.k, h, cfg.variant))
        assert keys[row][mask[row]].tolist() == output_keys_at(cfg, t)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(WALK_CASES), st.integers(1, 6))
def test_each_key_is_one_vertex(case, h):
    # over every output of the full tree, a key always stands for the same
    # level and the same interval: the walk's step from the previous position
    variant, k = case
    cfg = MechanismConfig(variant, k, max_value(variant, k, h), 1.0)
    keys, mask = walk_keys(cfg, np.arange(1, cfg.T + 1))
    rows, cols = np.nonzero(mask)
    p = keys[rows, cols]
    level = h - 1 - cols // (keys.shape[1] // h)
    start = np.concatenate(([True], rows[1:] != rows[:-1]))
    prev = np.where(start, 0, np.concatenate(([0], p[:-1])))
    lo, hi = np.minimum(prev, p), np.maximum(prev, p)
    assert np.array_equal(hi - lo, k ** level)
    vertices = np.unique(np.stack([p, level, lo]), axis=1)
    assert vertices.shape[1] == len(np.unique(p))


@pytest.mark.parametrize("variant,k", VARIANT_ARITIES)
def test_ledger_tracks_current_keys(variant, k):
    # the lazy ledger holds exactly the vertices of the current output's walk
    T = 150
    cfg = MechanismConfig(variant, k, T, 1.0, zero_noise=True)
    keysets = output_keys(cfg)
    mech = Mechanism(cfg)
    for t in range(1, T + 1):
        mech.feed(1 if t % 2 else 0)
        assert mech.ledger_keys() == keysets[t - 1]
        assert mech.ledger_size == len(keysets[t - 1])


def canonical_noise(cfg: MechanismConfig, t: int, keys: list[int]) -> float:
    """0.0 plus the level sums from level h-1 down to 0; each level sum is
    0.0 plus that level's draws in walk order (the mechanisms docstring)."""
    digits = encode(t, cfg.k, cfg.height, cfg.variant).digits
    walk = iter(keys)
    noise = 0.0
    for lvl in range(cfg.height - 1, -1, -1):
        level_sum = 0.0
        for _ in range(abs(digits[lvl])):
            level_sum += vertex_laplace(cfg.scale, cfg.seed, next(walk))
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
    for T in (17, 100, *(natural_max_T(variant, k, h) for h in (1, 2, 3, 4))):
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
