"""Deterministic random-number plumbing.

Every stochastic component in the reproduction takes an explicit seed and
derives independent child generators by name.  Deriving by name (rather
than by call order) means adding a new consumer of randomness does not
perturb existing experiments, which keeps benchmark output stable across
library revisions.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def stable_hash(*parts: object) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across processes.

    Python's built-in ``hash`` is salted per process for strings, so it
    cannot be used to derive reproducible seeds.  This uses blake2b over
    the repr of each part, each followed by a unit-separator byte (0x1f).
    blake2b is a streaming hash, so one call on the joined bytes gives
    the digest that feeding the parts one by one would, for less
    per-call overhead.
    """
    data = "".join(repr(part) + "\x1f" for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def make_rng(seed: int) -> np.random.Generator:
    """Create a root generator from an integer seed."""
    # The sanctioned constructor DET001 funnels everyone else through.
    return np.random.default_rng(seed & _MASK64)  # repro: noqa[DET001]


def child_rng(seed: int, *name: object) -> np.random.Generator:
    """Derive an independent generator for the component named ``name``.

    ``child_rng(seed, "boards", 3)`` always yields the same stream for the
    same arguments, and streams for distinct names are independent.
    """
    return np.random.default_rng(stable_hash(seed, *name))  # repro: noqa[DET001]
