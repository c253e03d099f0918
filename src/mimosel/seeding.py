"""Deterministic derivation of independent random streams.

Every random stream in the simulator is keyed by a small tuple of integers
(master seed, grid point, trial index, role) mixed through a splitmix64
chain. Any stream can therefore be reconstructed in isolation, and results
do not depend on execution order or worker count. A stream is numpy's
``default_rng`` seeded with the chain's 64-bit value.

The streams of a trial chunk are seeded together. ``_derive_seeds`` runs
the chain on uint64 arrays: from the prefix of (master seed, grid point)
it derives every trial's seed of every role at once, and from a seed s
the prefix ``derive_seed(s)`` of the streams keyed by s, bit for bit as
``derive_seed`` does. ``_pcg64_states`` runs the ``SeedSequence`` hash
(``mix_entropy`` and ``generate_state``) on ``uint32`` arrays, once on all
the seeds it is given, and ``_seeded`` finishes the PCG64 set-seed step
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", 2014) for each stream in
turn, setting one ``Generator`` to its state. Three draws take it. Each
trial's channel and the ``ss_us`` bases, which take one stream each, keyed
by (trial seed, basis index), are drawn through ``_stacked_normals``: the
chunk hashes its channel streams at once and draws them a slice of
trials at a time, and hashes its bases' streams at once, as many trials'
as their states fit an eighth of the ``ss_us`` block budget, each block
only setting its own streams' states and drawing them. Each trial's
``random`` selection draws from its stream as the stream is set. Since
they call the same ``Generator`` methods on the same states, the draws
equal those of ``default_rng`` byte for byte. The constants below are
numpy's, and a test pins them against the numpy in use.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_CHAIN_ORIGIN = 0x6A09E667F3BCC908

# numpy.random.SeedSequence: the uint32 hash constants of ``mix_entropy``
# (INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R) and ``generate_state`` (INIT_B,
# MULT_B), its shift and its pool of four words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_POOL_SIZE = 4
# PCG64's default 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1,) uint32: ``init`` times ``mult`` to the powers 0..count.

    Hash call k of a ``SeedSequence`` loop xors by entry k and multiplies by
    entry k + 1, whatever the data, so the constants are fixed.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> _XSHIFT
    return value


# mix_entropy makes four hash calls to fill the pool, then three per source
# word to mix it; generate_state makes eight, one per output word.
_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)[:, np.newaxis]
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)[:, np.newaxis]
# The pool words past a two-word entropy hash zero, whatever the seed.
_ZERO_POOL = _hashmix(np.zeros((2, 1), dtype=np.uint32), _A[2:4], _A[3:5])
# The pool words that each source word is mixed into, in order.
_OTHERS = tuple(np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE))
_WORD_BITS = np.uint64(32)


def _splitmix64(state):
    """One splitmix64 step: maps a 64-bit state to a well-mixed 64-bit value.

    ``state`` is a Python int or a uint64 array, mapped elementwise.
    """
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Mix integer parts into a single 64-bit stream seed."""
    acc = _CHAIN_ORIGIN
    for part in parts:
        acc = _splitmix64((acc ^ (int(part) & _MASK64)) & _MASK64)
    return acc


def stream(*parts: int) -> np.random.Generator:
    """Independent generator for the stream keyed by ``parts``."""
    return np.random.default_rng(derive_seed(*parts))


def _derive_seeds(prefix, *parts) -> np.ndarray:
    """uint64 array: the ``derive_seed`` chain continued from ``prefix`` over
    ``parts``, elementwise.

    ``prefix`` is a chain value: ``derive_seed(*p)``, or ``_CHAIN_ORIGIN``
    for an empty p. Each part is an integer or an array of integers in
    [0, 2**64), taken as uint64 arrays that broadcast together. Each entry
    of the result is ``derive_seed(*p, *q)`` bit for bit, q being the
    parts' entries at its index.
    """
    acc = np.array(prefix, dtype=np.uint64, ndmin=1)
    for part in parts:
        acc = _splitmix64(acc ^ np.asarray(part, dtype=np.uint64))
    return acc


def _stream_seeds(rng_seeds, indices: range) -> np.ndarray:
    """(T, B) uint64 ``derive_seed(s, l)`` for every seed s of ``rng_seeds``
    and every l of ``indices``."""
    keys = np.arange(indices.start, indices.stop, indices.step, dtype=np.uint64)
    seeds = np.asarray(rng_seeds, dtype=np.uint64)[:, np.newaxis]
    return _derive_seeds(_CHAIN_ORIGIN, seeds, keys)


def _pcg64_states(seeds) -> np.ndarray:
    """(4, *seeds.shape) uint64: the PCG64 seeding words of
    ``default_rng(seed)`` for every 64-bit seed of ``seeds`` (an array or a
    list).

    A seed is the entropy [lo, hi] of its ``SeedSequence``; hi = 0 gives
    the pool of the one-word entropy [lo], as numpy's does. The words are
    its ``generate_state(4, uint64)``: initstate (high, low) and initseq
    (high, low), from which ``_seeded`` sets each stream's state.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    flat = seeds.ravel()
    pool = np.empty((_POOL_SIZE, flat.size), dtype=np.uint32)
    pool[0] = flat  # assignment keeps the low 32 bits
    pool[1] = flat >> _WORD_BITS
    pool[:2] = _hashmix(pool[:2], _A[0:2], _A[1:3])
    pool[2:] = _ZERO_POOL
    for src, dst in enumerate(_OTHERS):
        # Source word src takes hash calls k..k+2, one per word it is mixed
        # into, and does not change meanwhile.
        k = _POOL_SIZE + 3 * src
        hashed = _hashmix(pool[src], _A[k : k + 3], _A[k + 1 : k + 4])
        hashed *= _MIX_R
        mixed = pool[dst]
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    words = _hashmix(np.concatenate([pool, pool]), _B[:-1], _B[1:]).astype(np.uint64)
    # generate_state(4, uint64) joins the eight words in (low, high) pairs.
    return (words[0::2] | words[1::2] << _WORD_BITS).reshape(4, *seeds.shape)


def _seeded(states: np.ndarray) -> Iterator[np.random.Generator]:
    """One ``Generator``, set in turn to the state of ``default_rng(seed)``
    for each seed whose words ``_pcg64_states`` gave, in ``states[0]``'s
    C order.

    From the words PCG64 sets inc = 2 initseq + 1 and state = ((inc +
    initstate) MULT + inc) mod 2^128. Every stream is set through one state
    dict, whose values the setter copies; its 32-bit buffer stays empty, so
    a half-word that the previous stream left is dropped. A draw made before
    the next state is set thus equals that of ``default_rng(seed)`` byte for
    byte.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in zip(*states.reshape(4, -1).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bit_generator.state = state
        yield generator


def _stacked_normals(states: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(*states.shape[1:], *shape) float64: each stream's ``standard_normal(shape)``.

    ``states`` is (4, ...): the words of ``_pcg64_states``, as (4, T, B) on
    ``_stream_seeds`` or a slice of them along the bases, or as (4, T) on a
    slice of a chunk's channel seeds. Each row holds the draw of the stream
    of its column of ``states``, byte for byte, written in place through
    ``_seeded``.
    """
    z = np.empty((*states.shape[1:], *shape))
    for row, generator in zip(z.reshape(-1, *shape), _seeded(states)):
        generator.standard_normal(out=row)
    return z
