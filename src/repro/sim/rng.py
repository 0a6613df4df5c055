"""Named, independently seeded random-number streams.

Simulation components (each traffic source, the channel error model, ...)
draw from their own stream so that changing one component's randomness does
not perturb the others — the standard variance-reduction practice for
discrete-event simulation studies.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform integer in ``[0, n)`` drawn with ``getrandbits``.

    This is CPython's ``Random._randbelow_with_getrandbits`` loop, so for a
    :class:`random.Random` ``rng``, ``randbelow(rng.getrandbits, n)`` gives
    the same value as ``rng.randrange(n)`` (and ``low + randbelow(...,
    high - low + 1)`` the same as ``rng.randint(low, high)``) and leaves
    the stream in the same state, draw for draw.  Hot loops bind
    ``getrandbits`` once and skip ``randrange``'s argument handling.
    ``tests/sim/test_rng.py`` pins the equivalence.
    """
    if n <= 0:
        raise ValueError(f"empty range for randbelow(): n={n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def derive_seed(master_seed: int, label: str) -> int:
    """Derive a 64-bit seed deterministically from a master seed and a label.

    This is the scheme :class:`RandomStreams` uses for its named streams; the
    sweep orchestrator reuses it to give every (experiment, parameter point,
    replication) its own independent, reproducible seed.
    """
    digest = hashlib.sha256(
        f"{int(master_seed)}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named :class:`random.Random` streams.

    Each stream's seed is derived deterministically from the master seed and
    the stream name, so results are reproducible and independent of the
    order in which streams are first requested.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if necessary) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(
                derive_seed(self.master_seed, name))
        return self._streams[name]

    def __getitem__(self, name: str) -> random.Random:
        return self.stream(name)

    def child(self, label: str) -> "RandomStreams":
        """A substream family seeded from this one.

        The child's master seed is derived from ``(master_seed, label)``, so
        a component that needs *several* streams of its own (e.g. the
        per-link channel map) can be handed one child and create streams
        freely without colliding with — or perturbing — its parent's
        streams.
        """
        return RandomStreams(derive_seed(self.master_seed, label))

    def names(self):
        """Names of the streams created so far."""
        return sorted(self._streams)
