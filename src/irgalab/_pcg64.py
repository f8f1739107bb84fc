"""Many ``numpy.random.default_rng`` streams at once, bit for bit.

``random(seeds, k)[i]`` equals ``np.random.default_rng(int(seeds[i])).random(k)``
exactly.  ``fill`` evaluates numpy's own pipeline for every seed in one set of
array operations, each writing with ``out=`` into rows of a caller's buffers:

1. ``SeedSequence`` pool hashing of the seed's 32-bit words (pool size 4),
   then ``generate_state(4, uint64)``, in wrapping uint32 arithmetic;
2. PCG64 seeding and steps of its 128-bit LCG, held as (hi, lo) uint64
   pairs, with XSL-RR output (O'Neill, HMC-CS-2014-0905);
3. ``next_double = (x >> 11) * 2**-53``, written straight into the next
   output row.

A uint64 seed has at most two 32-bit words.  Padding them to the pool size
with zeros hashes exactly as ``SeedSequence`` does for one or two words, so
seeds below 2**32 need no special case, and the two zero words hash to
constants.  The hashes that one pool word feeds to the three others are
computed as one (3, count) slab.

The LCG is advanced a group of g draws at a time.  The states of draws
1..g come from single steps; after that, ``state * MULT**g + inc * (1 +
MULT + ... + MULT**(g-1))`` modulo 2**128 moves all g rows of the group on
by g draws in one set of slab operations, and the output of a group is one
more set.  Integer arithmetic is exact, so the states, and hence the draws,
do not depend on g; g only sets how many rows of scratch are in use.  The
high half of ``lo * mult_lo`` comes from four 32-bit limb products whose
partial sums stay below 2**64, the carry out of the low half is added as a
bool, and the rotation needs no mask because numpy defines ``x << 64`` as 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["random", "fill", "SCRATCH_ROWS"]

_M32 = 0xFFFFFFFF
_MOD = 1 << 128
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
# PCG64's default 128-bit multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_U32, _U64 = np.uint32, np.uint64
_LIMB = np.uint64(_M32)
_SHIFT_16, _SHIFT_32 = np.uint32(16), np.uint64(32)

# Seeding uses scratch rows 0-10; the LCG needs 2 + 5g rows for groups of g.
SCRATCH_ROWS = 11


def _hash_consts(init: int, mult: int, count: int) -> list:
    """(xor, mult) constant pairs of ``count`` consecutive hashmix calls."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _M32)
    return list(zip(consts[:-1], consts[1:]))


def _column(values) -> np.ndarray:
    return np.array(values, dtype=_U32).reshape(-1, 1)


def _scalar_hash(value: int, xor: int, mult: int) -> int:
    value = ((value ^ xor) * mult) & _M32
    return value ^ (value >> 16)


_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
# Calls 0 and 1 hash the seed's two words; calls 2 and 3 hash zero words.
_WORD_XOR, _WORD_MULT = _column([x for x, _ in _HASH_A[:2]]), _column([y for _, y in _HASH_A[:2]])
_ZERO_WORDS = _column([_scalar_hash(0, x, y) for x, y in _HASH_A[2:_POOL_SIZE]])
# Calls 4 + 3 * src + d hash pool[src] for its d-th destination, in order.
_MIX = [
    (_column([x for x, _ in calls]), _column([y for _, y in calls]))
    for calls in (_HASH_A[_POOL_SIZE + 3 * s : _POOL_SIZE + 3 * s + 3] for s in range(_POOL_SIZE))
]
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_STATE_XOR = _column([x for x, _ in _HASH_B]).reshape(2, _POOL_SIZE, 1)
_STATE_MULT = _column([y for _, y in _HASH_B]).reshape(2, _POOL_SIZE, 1)


def _hashmix(src, out, xor, mult, tmp) -> None:
    np.bitwise_xor(src, xor, out=out)
    np.multiply(out, mult, out=out)
    np.right_shift(out, _SHIFT_16, out=tmp)
    np.bitwise_xor(out, tmp, out=out)


def _seed_state(u64, u32) -> None:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for the seeds in
    ``u64[0]``, written to ``u64[7:11]``; uses rows 1-10 on the way."""
    pool, tmp = u32[2:6], u32[14:22]
    np.bitwise_and(u64[0], _LIMB, out=pool[0], casting="unsafe")
    np.right_shift(u64[0], _SHIFT_32, out=pool[1], casting="unsafe")
    _hashmix(pool[:2], pool[:2], _WORD_XOR, _WORD_MULT, tmp[:2])
    np.copyto(pool[2:], _ZERO_WORDS)
    hashed = u32[6:9]
    for src, (xor, mult) in enumerate(_MIX):
        # pool[src] is not written while it feeds the other three words.
        _hashmix(pool[src], hashed, xor, mult, tmp[:3])
        np.multiply(hashed, _MIX_MULT_R, out=hashed)
        for lo, hi in ((0, src), (src + 1, _POOL_SIZE)):
            if lo < hi:
                dst, offset = pool[lo:hi], lo - (lo > src)
                np.multiply(dst, _MIX_MULT_L, out=dst)
                np.subtract(dst, hashed[offset : offset + hi - lo], out=dst)
                np.right_shift(dst, _SHIFT_16, out=tmp[: hi - lo])
                np.bitwise_xor(dst, tmp[: hi - lo], out=dst)
    count = u32.shape[1]
    words = u32[6:14]
    _hashmix(pool[None], words.reshape(2, _POOL_SIZE, count), _STATE_XOR, _STATE_MULT,
             tmp.reshape(2, _POOL_SIZE, count))
    state = u64[7:11]
    np.left_shift(words[1::2], _SHIFT_32, out=state)
    np.bitwise_or(state, words[0::2], out=state)


def _multiplier(value: int) -> tuple:
    """A 128-bit constant as (hi, lo, lo's low limb, lo's high limb)."""
    lo = value & ((1 << 64) - 1)
    return _U64(value >> 64), _U64(lo), _U64(lo & _M32), _U64(lo >> 32)


def _advance(hi, lo, new_hi, new_lo, mult, add, t) -> None:
    """(new_hi, new_lo) = (hi, lo) * mult + add modulo 2**128, where ``add``
    is an (add_hi, add_lo) pair or None; new may overwrite old.  ``t`` is
    three scratch slabs shaped like ``hi``."""
    mult_hi, mult_lo, b0, b1 = mult
    a0, a1, u = t
    np.bitwise_and(lo, _LIMB, out=a0)
    np.right_shift(lo, _SHIFT_32, out=a1)
    np.multiply(lo, mult_hi, out=u)
    np.multiply(hi, mult_lo, out=new_hi)
    np.add(new_hi, u, out=new_hi)
    np.multiply(lo, mult_lo, out=new_lo)
    if add is not None:
        add_hi, add_lo = add
        np.add(new_lo, add_lo, out=new_lo)
        # A bool array adds as 0 or 1 to uint64: the carry out of the low half.
        np.less(new_lo, add_lo, out=u)
        np.add(new_hi, u, out=new_hi)
        np.add(new_hi, add_hi, out=new_hi)
    # The high half of lo * mult_lo from 32-bit limbs: a1*b1 + (u >> 32) +
    # (v >> 32) with u = a1*b0 + (a0*b0 >> 32), v = a0*b1 + (u & LIMB).
    np.multiply(a1, b1, out=u)
    np.add(new_hi, u, out=new_hi)
    np.multiply(a0, b0, out=u)
    np.right_shift(u, _SHIFT_32, out=u)
    np.multiply(a1, b0, out=a1)
    np.add(u, a1, out=u)
    np.multiply(a0, b1, out=a0)
    np.bitwise_and(u, _LIMB, out=a1)
    np.add(a0, a1, out=a0)
    np.right_shift(u, _SHIFT_32, out=u)
    np.add(new_hi, u, out=new_hi)
    np.right_shift(a0, _SHIFT_32, out=a0)
    np.add(new_hi, a0, out=new_hi)


def _output(hi, lo, t, targets) -> None:
    """XSL-RR output of the states (hi, lo) as doubles; ``targets`` pairs
    each output row slab with the slice of states it receives."""
    x, rot, y = t[0][: len(hi)], t[1][: len(hi)], t[2][: len(hi)]
    np.bitwise_xor(hi, lo, out=x)
    np.right_shift(hi, _U64(58), out=rot)
    np.right_shift(x, rot, out=y)
    np.subtract(_U64(64), rot, out=rot)
    np.left_shift(x, rot, out=x)
    np.bitwise_or(x, y, out=x)
    np.right_shift(x, _U64(11), out=x)
    # x < 2**53 converts to a double exactly, and numpy converts int64 faster.
    x = x.view(np.int64)
    for out, rows in targets:
        np.multiply(x[rows], 1.0 / 9007199254740992.0, out=out)


def fill(blocks, scratch) -> None:
    """Write consecutive draws of every stream into the rows of ``blocks``.

    The uint64 seeds are read from ``scratch[0].view(np.uint64)``.  Each
    block is a C-contiguous (rows, count) float array; row j of the first
    block gets draw j of every stream, and each later block continues where
    the one before it stopped.  ``scratch`` is a (rows, count) float array
    of at least ``SCRATCH_ROWS`` rows, apart from the blocks; it holds every
    intermediate, so nothing of size count is allocated.  The more rows it
    has, the more draws the LCG advances at once.
    """
    total, count = sum(len(block) for block in blocks), scratch.shape[1]
    if total == 0 or count == 0:
        return
    u64 = scratch.view(_U64)
    u32 = scratch.view(_U32).reshape(-1, count)
    _seed_state(u64, u32)
    group = max(1, min(total, (len(scratch) - 2) // 5))
    inc = inc_hi, inc_lo = u64[0:1], u64[1:2]
    init_hi, init_lo, seq_hi, seq_lo = (u64[r : r + 1] for r in range(7, 11))
    # pcg64_set_seed: inc = (initseq << 1) | 1; state = 0, step, += initstate, step.
    np.right_shift(seq_lo, _U64(63), out=inc_hi)
    np.left_shift(seq_hi, _U64(1), out=seq_hi)
    np.bitwise_or(inc_hi, seq_hi, out=inc_hi)
    np.left_shift(seq_lo, _U64(1), out=inc_lo)
    np.bitwise_or(inc_lo, _U64(1), out=inc_lo)
    np.add(inc_lo, init_lo, out=seq_lo)
    np.less(seq_lo, init_lo, out=seq_hi)
    np.add(init_hi, inc_hi, out=init_hi)
    np.add(init_hi, seq_hi, out=init_hi)
    # Row r of (hi, lo) holds the state of draw r of the current group.
    hi, lo = u64[2 : 2 + group], u64[2 + group : 2 + 2 * group]
    np.copyto(hi[0], init_hi[0])
    np.copyto(lo[0], seq_lo[0])
    t = [u64[2 + (2 + k) * group : 2 + (3 + k) * group] for k in range(3)]
    t1 = [rows[:1] for rows in t]
    # The seeding's last step, then one step per draw of the first group.
    step = _multiplier(_MULT)
    _advance(hi[:1], lo[:1], hi[:1], lo[:1], step, inc, t1)
    for r in range(group):
        src = max(r - 1, 0)
        _advance(hi[src : src + 1], lo[src : src + 1], hi[r : r + 1], lo[r : r + 1], step, inc, t1)
    jump = _multiplier(pow(_MULT, group, _MOD))
    # inc * (1 + MULT + ... + MULT**(group-1)), the additive part of a jump.
    offset = _multiplier(sum(pow(_MULT, k, _MOD) for k in range(group)) % _MOD)
    for start in range(0, total, group):
        if start == group:
            _advance(inc_hi, inc_lo, inc_hi, inc_lo, offset, None, t1)
        if start:
            _advance(hi, lo, hi, lo, jump, inc, t)
        stop = min(start + group, total)
        _output(hi[: stop - start], lo[: stop - start], t, _targets(blocks, start, stop))


def _targets(blocks, start: int, stop: int) -> list:
    """(rows of a block, slice of the group) pairs that receive draws
    start..stop-1, which form one group."""
    targets, first = [], 0
    for block in blocks:
        lo, hi = max(start, first), min(stop, first + len(block))
        if lo < hi:
            targets.append((block[lo - first : hi - first], slice(lo - start, hi - start)))
        first += len(block)
    return targets


def random(seeds, k: int) -> np.ndarray:
    """Array of shape (len(seeds), k): row i is ``default_rng(seeds[i]).random(k)``.

    It is the transposed view of a C-contiguous (k, len(seeds)) buffer, so
    draw j of every seed is one contiguous row of ``random(seeds, k).T``.
    """
    seeds = np.asarray(seeds, dtype=_U64)
    out = np.empty((k, seeds.size))
    scratch = np.empty((max(SCRATCH_ROWS, 2 + 5 * min(k, 4)), seeds.size))
    scratch[0].view(_U64)[:] = seeds
    fill([out], scratch)
    return out.T
