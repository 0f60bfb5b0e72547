import numpy as np
import pytest

from hybridabc.rng import substream


def _reference(seed, path):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


@pytest.mark.parametrize("seed", [0, 11, 2**32 - 1, 2**32, 2**70])
@pytest.mark.parametrize("path", [(), (3,), (2, 7), (3, 40, 2**33 + 1)])
def test_substream_equals_the_spawn_key_seed_sequence(seed, path):
    got, want = substream(seed, *path), _reference(seed, path)
    assert got.bit_generator.state == want.bit_generator.state
    for a, b in zip(got.spawn(3), want.spawn(3)):
        assert a.bit_generator.state == b.bit_generator.state
    np.testing.assert_array_equal(got.standard_normal(8), want.standard_normal(8))


def test_substream_accepts_numpy_integers_and_rejects_negatives():
    want = _reference(5, (2, 9)).bit_generator.state
    assert substream(np.int64(5), np.uint32(2), np.int32(9)).bit_generator.state == want
    with pytest.raises(ValueError):
        substream(-1, 2)
    with pytest.raises(ValueError):
        substream(1, 2, -3)
