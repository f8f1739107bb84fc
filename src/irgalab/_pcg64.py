"""Many ``numpy.random.default_rng`` streams at once, bit for bit.

``random(seeds, k)[i]`` equals ``np.random.default_rng(int(seeds[i])).random(k)``
exactly.  It evaluates numpy's own pipeline for every seed in one set of
array operations:

1. ``SeedSequence`` pool hashing of the seed's 32-bit words (pool size 4),
   then ``generate_state(4, uint64)``, in wrapping uint32 arithmetic;
2. PCG64 seeding and steps of its 128-bit LCG, held as (hi, lo) uint64
   pairs, with XSL-RR output (O'Neill, HMC-CS-2014-0905);
3. ``next_double = (x >> 11) * 2**-53``, written straight into the next
   row of a float buffer.

``blocks(seeds, sizes)`` returns the draws in blocks of rows, one buffer per
block, so the search frees the row-scale draws apart from L; ``random`` is
the single (k, len(seeds)) block, returned transposed.

A uint64 seed has at most two 32-bit words.  Padding them to the pool size
with zeros hashes exactly as ``SeedSequence`` does for one or two words, so
seeds below 2**32 need no special case.  A step and its output take 31
elementwise operations: the high half of ``lo * MULT_LO`` comes from four
32-bit limb products whose partial sums stay below 2**64, the carry out of
the low half is added as a bool, and the rotation needs no mask because
numpy defines ``x << 64`` as 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["random", "blocks"]

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4

# PCG64's default 128-bit multiplier, split into 64-bit halves and the low
# half again into 32-bit limbs for the high product.
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MULT_LO_LIMBS = (np.uint64(0x9FCCF645), np.uint64(0x4385DF64))

_U32, _U64 = np.uint32, np.uint64
_LIMB = np.uint64(_M32)


def _xshift(value):
    return value ^ (value >> _U32(16))


def _seed_state(seeds: np.ndarray) -> list:
    """``SeedSequence(s).generate_state(4, np.uint64)`` as four uint64 arrays."""
    zeros = np.zeros(seeds.shape, dtype=_U32)
    words = [(seeds & _LIMB).astype(_U32), (seeds >> _U64(32)).astype(_U32)]
    words += [zeros] * (_POOL_SIZE - len(words))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ _U32(hash_const)
        hash_const = (hash_const * _MULT_A) & _M32
        return _xshift(value * _U32(hash_const))

    pool = [hashmix(word) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _xshift(_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src]))

    hash_const = _INIT_B
    state32 = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ _U32(hash_const)
        hash_const = (hash_const * _MULT_B) & _M32
        state32.append(_xshift(value * _U32(hash_const)))
    return [
        state32[2 * k].astype(_U64) | (state32[2 * k + 1].astype(_U64) << _U64(32))
        for k in range(_POOL_SIZE)
    ]


def _mulhi_mult_lo(a: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * _MULT_LO``.

    Schoolbook on 32-bit limbs, ordered so that no partial sum exceeds 64 bits.
    """
    b0, b1 = _MULT_LO_LIMBS
    a0, a1 = a & _LIMB, a >> _U64(32)
    u = a1 * b0 + ((a0 * b0) >> _U64(32))
    v = a0 * b1 + (u & _LIMB)
    return a1 * b1 + (u >> _U64(32)) + (v >> _U64(32))


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step ``state * MULT + inc`` modulo 2**128."""
    new_lo = lo * _MULT_LO + inc_lo
    # A bool array adds as 0 or 1 to uint64: the carry out of the low half.
    new_hi = _mulhi_mult_lo(lo) + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def random(seeds, k: int) -> np.ndarray:
    """Array of shape (len(seeds), k): row i is ``default_rng(seeds[i]).random(k)``.

    It is the transposed view of a C-contiguous (k, len(seeds)) buffer, so
    draw j of every seed is one contiguous row of ``random(seeds, k).T``.
    """
    return blocks(seeds, [k])[0].T


def blocks(seeds, sizes) -> list:
    """The first ``sum(sizes)`` draws of every seed's stream, in consecutive blocks.

    Block b is a C-contiguous (sizes[b], len(seeds)) array of its own, whose
    row j is the next draw of every stream, so a caller can free each block
    on its own.  The seeding arrays are freed before the first block is
    allocated; only the 128-bit state and increment, four uint64 vectors,
    live through the draws.
    """
    seeds = np.asarray(seeds, dtype=_U64)
    count = seeds.size
    init_hi, init_lo, seq_hi, seq_lo = _seed_state(seeds)
    del seeds
    # pcg64_set_seed: inc = (initseq << 1) | 1; state = 0, step, += initstate, step.
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    del seq_hi, seq_lo
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < init_lo)
    del init_hi, init_lo
    hi, lo = _step(hi, lo, inc_hi, inc_lo)

    out = [np.empty((size, count)) for size in sizes]
    for block in out:
        for row in block:
            hi, lo = _step(hi, lo, inc_hi, inc_lo)
            xored, rot = hi ^ lo, hi >> _U64(58)
            x = (xored >> rot) | (xored << (_U64(64) - rot))
            np.multiply(x >> _U64(11), 1.0 / 9007199254740992.0, out=row)
    return out
