"""Deterministic random-number management.

Every stochastic component in the library (data synthesis, client sampling,
latency draws, weight initialization, mini-batch schedules) draws from a
``numpy.random.Generator`` spawned from a single experiment seed. This makes
whole experiments bit-reproducible while keeping independent streams
statistically uncorrelated (via ``numpy.random.SeedSequence`` spawning).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeedSequenceFactory"]


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
        self._seed = 0 if seed is None else int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def _key(self, name: str) -> list[int]:
        # Stable 128-bit key from the stream name; avoids Python's salted
        # hash() so keys are reproducible across processes.
        import hashlib

        digest = hashlib.sha256(name.encode("utf-8")).digest()
        return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]

    def seed_sequence(self, name: str) -> np.random.SeedSequence:
        """Return the ``SeedSequence`` for a named stream."""
        return np.random.SeedSequence([self._seed, *self._key(name)])

    def rng(self, name: str) -> np.random.Generator:
        """Return a fresh ``Generator`` for a named stream."""
        return np.random.default_rng(self.seed_sequence(name))

    def child(self, name: str) -> "SeedSequenceFactory":
        """Derive a sub-factory whose streams are namespaced under ``name``.

        ``factory.child("a").rng("b")`` equals ``factory.rng("a/b")``.
        """

        class _Namespaced(SeedSequenceFactory):
            def _key(inner_self, inner_name: str) -> list[int]:  # noqa: N805
                return SeedSequenceFactory._key(inner_self, f"{name}/{inner_name}")

        return _Namespaced(self._seed)

    def integers(self, name: str, n: int, high: int = 2**31 - 1) -> np.ndarray:
        """Draw ``n`` reproducible integers in ``[0, high)`` for stream ``name``."""
        return self.rng(name).integers(0, high, size=n)
