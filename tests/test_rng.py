import numpy as np
import pytest

from xood.rng import Stream, derive_seed

MASK = (1 << 64) - 1


def reference_splitmix64(seed, n):
    """Sequential SplitMix64 as usually written: advance state, finalize."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_words_match_sequential_splitmix64():
    # the counter-based form must reproduce the stateful reference exactly
    for seed in (0, 1, 42, 0xDEADBEEF, MASK):
        got = Stream(seed).words(100)
        want = reference_splitmix64(seed, 100)
        assert [int(w) for w in got] == want


def test_words_resume_mid_sequence():
    a = Stream(9)
    first = a.words(7)
    second = a.words(5)
    whole = Stream(9).words(12)
    assert np.array_equal(np.concatenate([first, second]), whole)


def test_words_rejects_negative_count():
    with pytest.raises(ValueError):
        Stream(0).words(-1)


def test_uniform_range_and_determinism():
    u = Stream(3).uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, Stream(3).uniform(10000))
    scaled = Stream(3).uniform(10000, -2.0, 5.0)
    np.testing.assert_allclose(scaled, -2.0 + u * 7.0, rtol=0, atol=1e-15)


def test_uniform_moments():
    u = Stream(11).uniform(200000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments():
    z = Stream(5).normal(200001, mean=1.5, std=2.0)
    assert z.shape == (200001,)
    assert abs(z.mean() - 1.5) < 0.02
    assert abs(z.std() - 2.0) < 0.02
    # odd n truncates the trailing Box-Muller partner
    np.testing.assert_array_equal(z[:1000], Stream(5).normal(200001)[:1000] * 2.0 + 1.5)


def test_normal_finite_even_at_extreme_words():
    # u1 is shifted into (0, 1]; no -inf from log(0) over a long run
    z = Stream(0).normal(1 << 16)
    assert np.isfinite(z).all()


def test_integers_bounds():
    v = Stream(17).integers(50000, 7)
    assert v.min() >= 0 and v.max() <= 6
    assert set(np.unique(v)) == set(range(7))
    with pytest.raises(ValueError):
        Stream(0).integers(3, 0)


def test_permutation_is_permutation():
    for seed in range(5):
        p = Stream(seed).permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))
    assert not np.array_equal(Stream(1).permutation(257), Stream(2).permutation(257))


def test_fork_streams_are_distinct():
    parent = Stream(1000)
    seen = {tuple(int(w) for w in parent.fork(i).words(4)) for i in range(1, 64)}
    assert len(seen) == 63


def test_fork_does_not_disturb_parent():
    a = Stream(77)
    a.words(3)
    a.fork(5).words(100)
    b = Stream(77)
    b.words(3)
    assert np.array_equal(a.words(4), b.words(4))


def test_derive_seed_tag_sensitivity():
    assert derive_seed(0, "train") != derive_seed(0, "calibration-split")
    assert derive_seed(0, "train") != derive_seed(1, "train")
    assert derive_seed(12, "x") == derive_seed(12, "x")
    assert 0 <= derive_seed(12, "x") <= MASK


@pytest.mark.parametrize("seed, tag, want", [
    (0, "train", 0x6C4DE05E3AC71DAD),
    (7, "calibration-split", 0x79684CE13FE68908),
    (MASK, "distort-noise", 0xD2CA1CC5E6FB1AEA),
    (-1, "train", 0x066F8004B392D199),
    (-123456789, "distort-blur", 0x7144409CACB38DFD),
    (42, "", 0x4E43D7F82E037C16),
])
def test_derive_seed_is_pinned(seed, tag, want):
    # every split, initialization and fold hangs on these values
    got = derive_seed(seed, tag)
    assert type(got) is int and got == want


def test_mix64_avalanche():
    # flipping one seed bit flips one input bit of the finalizer, which
    # should flip roughly half the output bits
    flips = []
    for bit in range(0, 64, 7):
        flipped = derive_seed(1234567, "x") ^ derive_seed(1234567 ^ (1 << bit), "x")
        flips.append(bin(flipped).count("1"))
    assert min(flips) > 10 and max(flips) < 54


LOCKSTEP_INDICES = np.array(
    [0, 1, 7, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 63, MASK], dtype=np.uint64
)


@pytest.mark.parametrize("seed", [0, MASK])
def test_lockstep_fork_rows_equal_single_forks(seed):
    # one counter for all rows: each draw below must line up with the same
    # sequence of calls on the single stream fork(i)
    lockstep = Stream(seed).fork(LOCKSTEP_INDICES[:, None])
    draws = [
        lockstep.words(5),
        lockstep.uniform(4, -2.0, 5.0),
        lockstep.normal(7, mean=1.5, std=2.0),
        lockstep.normal(6),
        lockstep.uniform(3),
    ]
    for row, index in enumerate(LOCKSTEP_INDICES):
        single = Stream(seed).fork(int(index))
        want = [
            single.words(5),
            single.uniform(4, -2.0, 5.0),
            single.normal(7, mean=1.5, std=2.0),
            single.normal(6),
            single.uniform(3),
        ]
        for got, expected in zip(draws, want):
            assert got.shape == (len(LOCKSTEP_INDICES),) + expected.shape
            assert got[row].tobytes() == expected.tobytes()
