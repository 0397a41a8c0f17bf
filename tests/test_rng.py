"""Counter-based streams: re-keying one generator equals building a new one."""
import numpy as np
import pytest

from stochaction.rng import GENERIC, INITIAL, PRIOR, SIGNS, rekey, stream

PURPOSES = (GENERIC, INITIAL, SIGNS, PRIOR)
SEED_MAX = 2**64 - 1
INDEX_MAX = 2**48 - 1


def draws(gen):
    """A mix of the draw kinds the package uses, including a 32-bit one."""
    return np.concatenate([gen.uniform(0.0, 2.0 * np.pi, 9), gen.normal(0.3, 0.05, 5),
                           gen.integers(0, 2, 7), [gen.integers(0, 2)],
                           gen.random(6), gen.uniform(-1.0, 1.0, 3)])


@pytest.mark.parametrize("purpose", PURPOSES)
@pytest.mark.parametrize("index", [0, INDEX_MAX])
@pytest.mark.parametrize("seed", [0, 7, SEED_MAX])
def test_rekey_equals_new_stream(seed, purpose, index):
    gen = stream(5, SIGNS, 3)
    gen.normal(size=3)                 # leave a used, part-consumed state behind
    gen.integers(0, 2)
    assert rekey(gen, seed, purpose, index) is gen
    assert np.array_equal(draws(gen), draws(stream(seed, purpose, index)))


def test_saved_state_resumes_across_keys():
    gen = stream(0)
    rekey(gen, 11, INITIAL, 4)
    head_a = draws(gen)
    saved = gen.bit_generator.state
    rekey(gen, 11, SIGNS, 4)
    head_b = draws(gen)
    gen.bit_generator.state = saved
    tail_a = draws(gen)
    ref_a, ref_b = stream(11, INITIAL, 4), stream(11, SIGNS, 4)
    assert np.array_equal(head_a, draws(ref_a))
    assert np.array_equal(tail_a, draws(ref_a))
    assert np.array_equal(head_b, draws(ref_b))


@pytest.mark.parametrize("index", [-1, INDEX_MAX + 1])
def test_out_of_range_index_rejected(index):
    with pytest.raises(ValueError, match="out of range"):
        stream(1, GENERIC, index)
    gen = stream(1)
    with pytest.raises(ValueError, match="out of range"):
        rekey(gen, 1, GENERIC, index)


@pytest.mark.parametrize("seed", [-1, SEED_MAX + 1])
def test_out_of_range_seed_rejected(seed):
    # masked to 64 bits these would alias the streams of SEED_MAX and 0
    with pytest.raises(ValueError, match="seed out of range"):
        stream(seed)
    gen = stream(1)
    with pytest.raises(ValueError, match="seed out of range"):
        rekey(gen, seed)


def test_rekey_draws_equal_new_streams_over_many_keys():
    # 1,000 keys spread over the whole seed and index ranges
    r = np.random.default_rng(3)
    seeds = r.integers(0, SEED_MAX, 1000, dtype=np.uint64, endpoint=True)
    indices = r.integers(0, INDEX_MAX, 1000, dtype=np.uint64, endpoint=True)
    purposes = r.choice(PURPOSES, 1000)
    gen = stream(0)
    for seed, purpose, index in zip(seeds, purposes, indices):
        key = int(seed), int(purpose), int(index)
        assert np.array_equal(draws(rekey(gen, *key)), draws(stream(*key)))
