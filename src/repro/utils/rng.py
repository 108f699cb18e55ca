"""Deterministic random-number management.

Every stochastic component in the library (data synthesis, client sampling,
latency draws, weight initialization, mini-batch schedules) draws from a
``numpy.random.Generator`` spawned from a single experiment seed. This makes
whole experiments bit-reproducible while keeping independent streams
statistically uncorrelated (via ``numpy.random.SeedSequence`` spawning).

A named stream is ``default_rng(SeedSequence([seed, *key(name)]))``:
NumPy's ``SeedSequence`` path is the reference. :meth:`SeedSequenceFactory.rng`
takes it for one stream; :meth:`SeedSequenceFactory.rngs` derives many at
once — the ``SeedSequence`` pool mixing runs over uint32 arrays, one row per
stream, and each ``PCG64`` is seeded with its row's state through NumPy's
``ISeedSequence`` protocol — and ``tests/utils/test_rng.py`` checks every
generator it returns against the reference's full ``bit_generator.state``.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["SeedSequenceFactory"]

# numpy.random.SeedSequence's constants: the pool is four uint32 words, mixed
# by hashes whose multiplier runs on from call to call.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# The mix multipliers and the xorshift as 0-d arrays: NumPy takes those
# with less work than Python ints on the small arrays the pool mixes.
_MIX_L, _MIX_R = np.array(0xCA01F9DD, dtype=np.uint32), np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)


def _key_bytes(name: str) -> bytes:
    """A stream's 128-bit key, four little-endian uint32 words: the head of
    the name's sha256, not Python's salted hash(), so keys are reproducible
    across processes."""
    return hashlib.sha256(name.encode("utf-8")).digest()[:16]


def _hash_calls(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The ``(xor, multiply)`` constants of ``count`` successive hashmix
    calls: each xors with the running constant, then multiplies by it
    advanced one step."""
    calls, value = [], init
    for _ in range(count):
        advanced = value * mult & 0xFFFFFFFF
        calls.append((value, advanced))
        value = advanced
    return calls


def _columns(calls) -> tuple[np.ndarray, np.ndarray]:
    """``calls`` as xor and multiply columns, one row per pool row."""
    xor, mul = np.array(calls, dtype=np.uint32).T
    return xor[:, None], mul[:, None]


@functools.cache
def _constants(seed_words: int):
    """Every hashmix constant ``SeedSequence`` uses for a seed of
    ``seed_words`` uint32 words (its entropy is those and four key words),
    as columns over the pool's rows: the first fill; the all-pairs round,
    one column pair per source row, whose own row gets zeros; one column
    pair per entropy word past the pool; and the eight output words'."""
    calls = _hash_calls(_INIT_A, _MULT_A, _POOL * (seed_words + 4))
    fill, calls = calls[:_POOL], calls[_POOL:]
    pairs = []
    for src in range(_POOL):
        own, calls = calls[: _POOL - 1], calls[_POOL - 1 :]
        pairs.append(_columns(own[:src] + [(0, 0)] + own[src:]))
    extra = [_columns(calls[i : i + _POOL]) for i in range(0, len(calls), _POOL)]
    return _columns(fill), pairs, extra, _columns(_hash_calls(_INIT_B, _MULT_B, 2 * _POOL))


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hashmix, one call per row of the constant columns
    (``values`` 1-D: the same words into every row)."""
    values = values ^ xor
    values *= mul
    values ^= values >> _XSHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x
    result -= _MIX_R * y
    result ^= result >> _XSHIFT
    return result


class _Generated(ISeedSequence):
    """A seed sequence whose state is already generated: the four uint64
    words ``PCG64`` asks its seed sequence for, computed in bulk."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


class SeedSequenceFactory:
    """Hands out named, reproducible RNG streams from one root seed.

    Components request streams by name (e.g. ``"client/17/batches"``). The
    name is hashed into the spawn key, so the stream a component receives does
    not depend on the *order* in which other components requested theirs —
    adding a new consumer never perturbs existing streams.

    Example
    -------
    >>> f = SeedSequenceFactory(1234)
    >>> r1 = f.rng("client/0")
    >>> r2 = f.rng("client/1")
    >>> f2 = SeedSequenceFactory(1234)
    >>> float(r1.random()) == float(f2.rng("client/0").random())
    True
    """

    def __init__(self, seed: int | None):
        try:
            self._seed = 0 if seed is None else operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None
        if self._seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

    @property
    def seed(self) -> int:
        return self._seed

    def _key(self, name: str) -> list[int]:
        key = _key_bytes(name)
        return [int.from_bytes(key[i : i + 4], "little") for i in range(0, 16, 4)]

    def seed_sequence(self, name: str) -> np.random.SeedSequence:
        """Return the ``SeedSequence`` for a named stream."""
        return np.random.SeedSequence([self._seed, *self._key(name)])

    def rng(self, name: str) -> np.random.Generator:
        """Return a fresh ``Generator`` for a named stream."""
        return np.random.default_rng(self.seed_sequence(name))

    def rngs(self, names: Sequence[str]) -> list[np.random.Generator]:
        """``[self.rng(name) for name in names]``, derived in one pass.

        Each stream's entropy is the seed's uint32 words followed by its
        four key words, so every stream's pool mixes the same way: the
        ``SeedSequence`` rounds run once over a ``(4, len(names))`` pool.
        """
        seed, words = self._seed, []
        while True:  # the seed's uint32 words, as SeedSequence splits it
            words.append(seed & 0xFFFFFFFF)
            seed >>= 32
            if not seed:
                break
        fill, pairs, extra, output = _constants(len(words))
        digests = b"".join(_key_bytes(name) for name in names)
        entropy = np.empty((len(words) + 4, len(names)), dtype=np.uint32)
        entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
        entropy[len(words) :] = np.frombuffer(digests, dtype="<u4").reshape(len(names), 4).T
        pool = _hashmix(entropy[:_POOL], *fill)
        for src, columns in enumerate(pairs):
            mixed = _mix(pool, _hashmix(pool[src], *columns))
            mixed[src] = pool[src]  # a row never mixes with itself
            pool = mixed
        for word, columns in zip(entropy[_POOL:], extra):
            pool = _mix(pool, _hashmix(word, *columns))
        # PCG64 takes four uint64 words: eight uint32 from the cycled pool.
        state = _hashmix(np.concatenate([pool, pool]), *output)
        state = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
        return [np.random.Generator(np.random.PCG64(_Generated(row))) for row in state]
