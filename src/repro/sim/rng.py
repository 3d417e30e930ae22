"""Deterministic named random streams.

Every stochastic component in the simulator (mobility of node 7, the
channel between nodes 3 and 12, MAC backoff of node 40, ...) draws from its
own named substream.  Substreams are derived from a master seed by hashing
the stream name, so:

* runs are reproducible given the master seed;
* adding a new consumer of randomness does not perturb existing streams
  (unlike sharing one ``random.Random``);
* two streams with different names are statistically independent for all
  practical purposes (SHA-256 of ``(seed, name)``).

Besides the stateful :class:`random.Random` substreams, this module hosts
the *counter-based* substream primitives of the fault schedule
(:mod:`repro.faults.schedule`): a splitmix64 finalizer plus
:func:`derive_key`, which maps an entity index onto a 64-bit stream key.
Draw ``k`` of entity ``i`` is then the pure function
``splitmix64(key_i + k * SPLITMIX_GAMMA)`` — reproducible per seed and
independent of how draws are batched.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = [
    "CounterRandom",
    "RandomStreams",
    "derive_seed",
    "derive_key",
    "splitmix64",
    "SPLITMIX_GAMMA",
]

#: Mask for 64-bit wrapping arithmetic on Python ints.
_M64 = (1 << 64) - 1
#: splitmix64 sequence increment (Weyl constant).
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    """splitmix64 finalizer on a Python int (wraps modulo 2**64)."""
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX_1) & _M64
    z = ((z ^ (z >> 27)) * _MIX_2) & _M64
    return z ^ (z >> 31)


def derive_key(seed: int, index: int) -> int:
    """64-bit counter-stream key for entity ``index`` under ``seed``.

    The ``index + 1`` offset keeps entity 0 from collapsing onto the raw
    seed; double mixing decorrelates consecutive indices.
    """
    return splitmix64(splitmix64((seed + SPLITMIX_GAMMA * (index + 1)) & _M64))


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit substream seed from ``(master_seed, name)``.

    Deterministic across processes and Python versions (uses SHA-256, not
    ``hash()``).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class CounterRandom:
    """Stateful view over a counter-based substream.

    Exposes the tiny slice of the ``random.Random`` API the fault schedule
    consumes (``random()`` / ``uniform()``), but sources every draw from
    the pure counter function ``splitmix64(key + k * SPLITMIX_GAMMA)``, so
    a node's churn and energy draws depend only on its key, never on how
    many draws other nodes took.  Draw ``k`` is converted to a float in
    ``[0, 1)`` from the top 53 bits, and ``uniform(a, b)`` applies the same
    affine map as ``random.Random.uniform``.  ``tests/test_rng.py`` pins
    this draw convention.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, key: int) -> None:
        self._key = key & _M64
        self._counter = 0

    @property
    def counter(self) -> int:
        """Number of draws consumed so far."""
        return self._counter

    def random(self) -> float:
        """Next uniform float in ``[0, 1)`` (top 53 bits of splitmix64)."""
        z = splitmix64((self._key + self._counter * SPLITMIX_GAMMA) & _M64)
        self._counter += 1
        return (z >> 11) * 2.0**-53

    def uniform(self, a: float, b: float) -> float:
        """``a + (b - a) * random()`` — bit-compatible with ``random.Random``."""
        return a + (b - a) * self.random()


class RandomStreams:
    """A factory of named, independent ``random.Random`` substreams.

    Example:
        >>> streams = RandomStreams(seed=42)
        >>> mob = streams.stream("mobility/7")
        >>> chan = streams.stream("channel/3-12")
        >>> streams.stream("mobility/7") is mob   # memoised
        True
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this factory was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the (memoised) substream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self._seed, name))
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child factory whose streams are namespaced by ``name``.

        Useful for giving each trial of an experiment its own independent
        universe: ``streams.spawn(f"trial/{i}")``.
        """
        return RandomStreams(derive_seed(self._seed, f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStreams(seed={self._seed}, streams={len(self._streams)})"
