from __future__ import annotations

import hashlib

import numpy as np
import pytest

from sawbridge import rng
from sawbridge.rng import VECTOR_MAX_DRAWS, replicate_generator, stream_key, uniform_block


def reference_block(seed: int, replicates: list[int], draws: int) -> np.ndarray:
    """One np.random.Philox stream per replicate, row for row."""
    rows = [replicate_generator(seed, rep).random(draws) for rep in replicates]
    return np.array(rows, dtype=np.float64).reshape(len(replicates), draws)


@pytest.mark.parametrize(
    "draws", [1, 3, 4, 5, 8, VECTOR_MAX_DRAWS, VECTOR_MAX_DRAWS + 1, 512]
)
def test_uniform_block_matches_per_replicate_generators(draws):
    # both sides of the short/long stream threshold, partial and whole
    # Philox blocks of four words
    replicates = [0, 1, 2, 3, 17, 1000, 123456]
    got = uniform_block(5, replicates, draws)
    assert got.shape == (len(replicates), draws)
    assert got.dtype == np.float64
    assert np.array_equal(got, reference_block(5, replicates, draws))


@pytest.mark.parametrize("draws", [5, VECTOR_MAX_DRAWS + 1])
def test_uniform_block_rows_follow_a_non_contiguous_replicate_list(draws):
    replicates = [42, 7, 7, 300, 2]
    got = uniform_block(9, replicates, draws)
    assert np.array_equal(got, reference_block(9, replicates, draws))
    assert np.array_equal(got[1], got[2])
    assert np.array_equal(got[0], uniform_block(9, [42], draws)[0])


@pytest.mark.parametrize("seed", [0, 7, -3, 2**40])
def test_stream_keys_follow_the_stated_rule(seed):
    # the key of a stream is the low 128 bits, little-endian, of SHA-256
    # over "{seed}:{replicate}", for single keys and for whole blocks alike
    replicates = [0, 9, 9, 10**9]
    keys = [
        int.from_bytes(hashlib.sha256(f"{seed}:{rep}".encode()).digest()[:16], "little")
        for rep in replicates
    ]
    assert [stream_key(seed, rep) for rep in replicates] == keys
    for draws in (5, VECTOR_MAX_DRAWS + 1):
        rows = [np.random.Generator(np.random.Philox(key=k)).random(draws) for k in keys]
        assert np.array_equal(uniform_block(seed, replicates, draws), np.array(rows))


def test_key_with_top_bit_set():
    # seed 0 replicates 0-3 all have bit 127 clear; replicate 4 has it set
    assert all(stream_key(0, rep) >> 127 == 0 for rep in range(4))
    assert stream_key(0, 4) >> 127 == 1
    for draws in (5, 512):
        assert np.array_equal(
            uniform_block(0, [4, 0], draws), reference_block(0, [4, 0], draws)
        )


@pytest.mark.parametrize("draws", [0, 5, 512])
def test_empty_replicate_list_has_empty_rows(draws):
    assert uniform_block(3, [], draws).shape == (0, draws)


@pytest.mark.parametrize("count", [0, 3])
def test_zero_draws_give_empty_rows(count):
    block = uniform_block(3, list(range(count)), 0)
    assert block.shape == (count, 0)
    assert block.dtype == np.float64


def test_threshold_selects_the_vectorised_generator(monkeypatch):
    # short streams never build a np.random.Philox; long ones build one each
    built = []
    real = rng.replicate_generator

    def counting(seed, replicate):
        built.append(replicate)
        return real(seed, replicate)

    monkeypatch.setattr(rng, "replicate_generator", counting)
    uniform_block(1, [0, 1, 2], VECTOR_MAX_DRAWS)
    assert built == []
    uniform_block(1, [0, 1, 2], VECTOR_MAX_DRAWS + 1)
    assert built == [0, 1, 2]
