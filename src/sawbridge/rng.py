"""Reproducible counter-based random streams.

Each (seed, replicate) pair owns an independent Philox 4x64 stream keyed
by the low 128 bits of SHA-256 over the string "{seed}:{replicate}".
Counter-based generation makes draws position-stable: the j-th variate
of a replicate is the same whether sampled alone, in a batch, or on a
different thread count, which is what the byte-identical-output
guarantees rest on.

A block of replicates is keyed in one hash pass, and both generators
read those keys as (low, high) 64-bit words.  Short streams are
generated for all replicates at once by a numpy Philox4x64-10 (Salmon et
al., SC'11) that reproduces `np.random.Philox(key=...).random()` bit for
bit; long streams keep one `np.random.Philox` per replicate, which is
faster once the per-stream construction cost is spread over many draws.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

# Largest draw count generated by the vectorised Philox.  Measured on a
# 2-vCPU x86-64 box (numpy 2.4), per replicate at 4096 replicates: the
# vectorised path costs 0.9 us at 8 draws, 18 us at 128 and 30 us at 224,
# growing with the draw count, while one np.random.Philox costs 18-28 us
# almost regardless of it.  They cross near 200 draws (near 300 at 250
# replicates); 128 keeps a margin for the box's 10-20 % speed drift.
VECTOR_MAX_DRAWS = 128

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def _key_bytes(seed: int, replicates: Sequence[int]) -> bytes:
    """The replicates' 16-byte stream keys, concatenated, each hashed on
    from one copy of the hashed "{seed}:" prefix."""
    prefix = hashlib.sha256(b"%d:" % seed)
    states = [prefix.copy() for _ in replicates]
    for state, replicate in zip(states, replicates):
        state.update(b"%d" % replicate)
    return b"".join([state.digest()[:16] for state in states])


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of m * x, the high word from 32-bit halves."""
    m_lo, m_hi = m & _MASK32, m >> _SHIFT32
    x_lo, x_hi = x & _MASK32, x >> _SHIFT32
    lo_lo = m_lo * x_lo
    lo_hi = m_lo * x_hi
    hi_lo = m_hi * x_lo
    carry = (lo_lo >> _SHIFT32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    hi = m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (carry >> _SHIFT32)
    return m * x, hi


def _philox_uniforms(keys: np.ndarray, draws: int) -> np.ndarray:
    """Leading `draws` doubles of np.random.Philox(key=k).random() for each
    128-bit key k, given as rows of (low, high) 64-bit words.

    numpy increments the counter before each block, so block b of a
    stream encrypts the counter (b + 1, 0, 0, 0); each block yields four
    64-bit words, turned into doubles as (x >> 11) * 2**-53.
    """
    blocks = -(-draws // 4)
    k0, k1 = keys[:, :1], keys[:, 1:]
    shape = (len(keys), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=2).reshape(len(keys), 4 * blocks)
    return (words[:, :draws] >> np.uint64(11)) * 2.0**-53


def uniform_block(seed: int, replicates: Sequence[int], draws: int) -> np.ndarray:
    """Leading uniforms of many replicate streams, one row per replicate."""
    keys = np.frombuffer(_key_bytes(seed, replicates), dtype="<u8").reshape(-1, 2)
    if draws <= VECTOR_MAX_DRAWS:
        return _philox_uniforms(keys, draws)
    out = np.empty((len(replicates), draws), dtype=np.float64)
    for row, key in zip(out, keys):
        np.random.Generator(np.random.Philox(key=key)).random(out=row)
    return out
