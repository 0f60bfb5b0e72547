import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hybridabc
from hybridabc.rng import substream


def _reference(seed, path):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


@pytest.mark.parametrize("seed", [0, 11, 2**32 - 1, 2**32, 2**70, 2**130])
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


KEYS = (0, 1, 77, 2**32 - 1)


@pytest.mark.parametrize("seed", [0, 11, 2**32 - 1, 2**32, 2**70, 2**130])
@pytest.mark.parametrize("path", [(), (3,), (2, 7), (3, 40, 2**33 + 1)])
def test_batch_substream_equals_one_spawn_key_seed_sequence_per_key(seed, path):
    batch = substream(seed, *path, np.array(KEYS, dtype=np.int64))
    assert len(batch) == len(KEYS)
    for key, got in zip(KEYS, batch):
        want = _reference(seed, path + (key,))
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.standard_normal(8), want.standard_normal(8))


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint32, np.uint64])
def test_batch_substream_accepts_numpy_integer_keys(dtype):
    batch = substream(np.int64(5), np.uint32(2), np.arange(3, 6, dtype=dtype))
    for key, got in zip(range(3, 6), batch):
        assert got.bit_generator.state == _reference(5, (2, key)).bit_generator.state


@pytest.mark.parametrize(
    "keys",
    [
        np.array([3, -1]),
        np.array([2**32], dtype=np.uint64),
        np.arange(4).reshape(2, 2),
        np.array(3),
        np.array([1.0, 2.0]),
    ],
)
def test_batch_substream_rejects_keys_that_do_not_fit_one_word(keys):
    with pytest.raises(ValueError):
        substream(1, 2, keys)


def test_batch_substream_of_no_keys_is_empty():
    assert substream(1, 2, np.arange(0)) == []


def test_batch_generators_cannot_spawn():
    (rng,) = substream(1, 2, np.array([4]))
    with pytest.raises(TypeError):
        rng.spawn(1)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    src = str(Path(hybridabc.__file__).resolve().parents[1])
    code = "import sys, hybridabc.cli; print('numpy.random' in sys.modules)"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
