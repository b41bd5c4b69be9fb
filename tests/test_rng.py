import numpy as np
import pytest

from gomptest.rng import derive_key, mix64, substream


def test_mix64_known_vector():
    # first output of the SplitMix64 sequence seeded with 0
    assert mix64(0) == 0xE220A8397B1DCDAF


def test_mix64_is_64_bit():
    for z in (0, 1, 2**63, 2**64 - 1, 123456789):
        assert 0 <= mix64(z) < 2**64


def test_derive_key_depends_on_path():
    keys = {derive_key(7), derive_key(7, 0), derive_key(7, 1), derive_key(7, 0, 0)}
    assert len(keys) == 4
    assert derive_key(7, 3, 1) == derive_key(7, 3, 1)


def test_substream_reproducible():
    a = substream(11, 2, 5).random(16)
    b = substream(11, 2, 5).random(16)
    assert np.array_equal(a, b)


def test_substream_distinct_paths_differ():
    a = substream(11, 2, 5).random(16)
    b = substream(11, 2, 6).random(16)
    assert not np.array_equal(a, b)


def test_seeds_outside_64_bits_are_rejected_not_aliased():
    # 2^64 would alias 0 and -1 would alias 2^64 - 1 if reduced modulo 2^64
    assert not np.array_equal(substream(0).random(4), substream(2**64 - 1).random(4))
    for bad in (2**64, -1):
        with pytest.raises(ValueError):
            derive_key(bad)
        with pytest.raises(ValueError):
            derive_key(0, 1, bad)
        with pytest.raises(ValueError):
            substream(bad)
