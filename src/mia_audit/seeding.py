"""Stable labeled seed derivation.

Every randomized stage of the audit pipeline draws its seed from the master
seed plus a label path (e.g. ("target",), ("ref", 2)), so adding a stage never
perturbs the random streams of earlier stages, and results are independent of
scheduling order. SHA-256 keeps the derivation stable across platforms and
Python versions, unlike the builtin hash().
"""

import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from a master seed and a label path."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(*parts) -> np.random.Generator:
    """Seeded generator for the given label path."""
    return np.random.default_rng(derive_seed(*parts))


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that default_rng(seed) starts from, for 64-bit seeds.

    SeedSequence's entropy mixing and state generation run on uint32 arrays,
    one element per seed (uint32 arithmetic wraps as the C code's does); the
    two 128-bit LCG steps of PCG64's seeding run on Python ints.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    u32 = np.uint32
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * u32(const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        out = u32(_MIX_L) * x - u32(_MIX_R) * y
        return out ^ (out >> u32(16))

    low = (seeds & np.uint64(_MASK32)).astype(u32)
    zero = np.zeros_like(low)
    # a 64-bit seed is two little-endian words, zero-padded to the pool size 4
    pool = [hashmix(word) for word in (low, (seeds >> np.uint64(32)).astype(u32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    words = []
    for i in range(8):  # generate_state(4, uint64) as 8 uint32 words
        value = pool[i % 4] ^ u32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * u32(const)
        words.append((value ^ (value >> u32(16))).astype(np.uint64))
    state_hi, state_lo, inc_hi, inc_lo = (
        (words[2 * i] | (words[2 * i + 1] << np.uint64(32))).tolist() for i in range(4))
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(state_hi, state_lo, inc_hi, inc_lo):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        out.append((state, inc))
    return out


def normal_rows(seeds, scale: float, size: int) -> np.ndarray:
    """(len(seeds), size) matrix whose row i is default_rng(seeds[i]).normal(0, scale, size).

    Bit for bit the same draws, but one Generator is reused with each seed's
    PCG64 state set on it, instead of a SeedSequence and Generator per seed.
    """
    gen = np.random.Generator(np.random.PCG64())
    out = np.empty((len(seeds), size))
    for row, (state, inc) in enumerate(_pcg64_states(seeds)):
        gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        out[row] = gen.normal(0.0, scale, size)
    return out
