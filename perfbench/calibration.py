"""Host-speed calibration: a fixed kernel timed between units of work.

A shared host runs the benchmark's core at a speed that other tenants
set: it drifts by up to half over seconds to minutes, and a whole run
can fall in a slow stretch.  :func:`kernel` does a fixed amount of the
kind of work the message path does (handle/phone/URL/e-mail regexes,
lowercase split, token hashing, per-text distinct counts with NumPy, a
sparse rows-times-weights product over 2**18 hashed features) on fixed
inputs, and calls nothing in ``src/``, so a change to the program cannot
change its cost.  Timed between the units of a pass, its median tracks
the speed the host gave that pass, and dividing a pass's time by it
removes the host's share of the variation (see :func:`host_factor`).
"""

from __future__ import annotations

import re
import statistics
import time
import zlib

import numpy as np
from scipy import sparse

#: median :func:`kernel` time on the reference host (2-core 2.1 GHz Xeon
#: VM, Python 3.11, NumPy 2.4), so normalized figures read in that
#: host's seconds
REFERENCE_NS = 7_000_000

N_FEATURES = 1 << 18
_rng = np.random.default_rng(0)
_WEIGHTS = _rng.standard_normal(N_FEATURES)
_WORDS = [f"tok{i}" for i in range(20_000)]
_TEXTS = [
    " ".join(_WORDS[int(w)] for w in _rng.integers(0, len(_WORDS), 30))
    + f" @User{i} call 555-01{i % 100:02d} http://ex{i}.org/x u{i}@mail.org"
    for i in range(100)
]
_PATTERNS = [
    re.compile(r"@(\w{2,30})"),
    re.compile(r"\b\d{3}[-.]\d{4}\b"),
    re.compile(r"https?://[^\s]+"),
    re.compile(r"[\w.+-]+@[\w-]+\.[\w.]+"),
]


def kernel() -> float:
    """One fixed unit of message-path-like work; returns a checksum."""
    found = 0
    indices: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for text in _TEXTS:
        for pattern in _PATTERNS:
            found += len(pattern.findall(text))
        tokens = text.lower().split()
        hashes = np.fromiter(
            (zlib.crc32(token.encode()) for token in tokens),
            dtype=np.int64,
            count=len(tokens),
        ) % N_FEATURES
        unique, repeats = np.unique(hashes, return_counts=True)
        indices.append(unique)
        counts.append(repeats.astype(np.float64))
    indptr = np.cumsum([0] + [len(row) for row in indices])
    rows = sparse.csr_matrix(
        (np.concatenate(counts), np.concatenate(indices), indptr),
        shape=(len(_TEXTS), N_FEATURES),
    )
    return found + float((rows @ _WEIGHTS).sum())


def time_kernel(reps: int) -> list[int]:
    """Wall nanoseconds of ``reps`` consecutive kernel runs."""
    clock = time.perf_counter_ns
    samples: list[int] = []
    for _ in range(reps):
        start = clock()
        kernel()
        samples.append(clock() - start)
    return samples


def host_factor(samples: list[int]) -> float:
    """How much slower than the reference host the kernel ran (median).

    A time divided by this factor is the time the reference host would
    have taken; a rate multiplied by it is the reference host's rate.
    """
    return statistics.median(samples) / REFERENCE_NS
