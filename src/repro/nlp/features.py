"""Hashed n-gram feature extraction over token-hash arrays.

The vectorizer maps each document (a uint64 token-hash array from
:class:`repro.nlp.tokenize.TokenCache`) to a sparse row of unigram and
bigram counts in a fixed ``2**n_bits`` feature space.  No vocabulary is
fitted, so features can be computed once per corpus and shared by every
training round of the pipeline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from repro.nlp.tokenize import TokenCache, TokenHashCache, hash_text

#: Multiplier used to mix bigram halves (Knuth's 64-bit constant).
_MIX = np.uint64(0x9E3779B97F4A7C15)


class HashingVectorizer:
    """Unigram+bigram hashing vectorizer producing L2-normalised CSR rows."""

    def __init__(self, n_bits: int = 18, use_bigrams: bool = True) -> None:
        if not 8 <= n_bits <= 26:
            raise ValueError(f"n_bits must be in [8, 26], got {n_bits}")
        self.n_bits = n_bits
        self.use_bigrams = use_bigrams

    @property
    def n_features(self) -> int:
        return 1 << self.n_bits

    def transform_hashes(self, hash_arrays: Sequence[np.ndarray]) -> sparse.csr_matrix:
        """Vectorize pre-hashed documents (or spans) into one CSR matrix.

        The whole batch is built at once: every unigram and in-row bigram
        id gets the key ``(row << n_bits) | id``, one sort groups equal
        keys, and each run's length is that feature's count.  Row norms
        are summed over the integer counts in int64, which is exact, so
        ``sqrt`` and the division see the same operands a per-row loop
        would and every ``data`` bit matches it (see DESIGN.md §11).
        """
        n_rows = len(hash_arrays)
        lengths = np.fromiter(
            (hashes.size for hashes in hash_arrays), dtype=np.int64, count=n_rows
        )
        hashes = np.concatenate([np.empty(0, dtype=np.uint64), *hash_arrays])
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        mask = np.uint64(self.n_features - 1)
        keys = (hashes & mask).astype(np.int64)
        if self.use_bigrams:
            # A bigram pairs token i with token i+1 only inside one row.
            same_row = rows[:-1] == rows[1:]
            bigrams = ((hashes[:-1] * _MIX) ^ hashes[1:]) & mask
            keys = np.concatenate([keys, bigrams[same_row].astype(np.int64)])
            rows = np.concatenate([rows, rows[:-1][same_row]])
        keys |= rows << self.n_bits
        keys.sort()
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(np.append(starts, keys.size))
        uniq = keys[starts]
        row_nnz = np.bincount(uniq >> self.n_bits, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        cum_sq = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts * counts, out=cum_sq[1:])
        norms = np.sqrt((cum_sq[indptr[1:]] - cum_sq[indptr[:-1]]).astype(np.float64))
        data = counts.astype(np.float64) / np.repeat(norms, row_nnz)
        return sparse.csr_matrix(
            (data, uniq & np.int64(self.n_features - 1), indptr),
            shape=(n_rows, self.n_features),
        )

    def transform_cache(self, cache: TokenCache) -> sparse.csr_matrix:
        return self.transform_hashes(cache.arrays)

    def transform_texts(
        self,
        texts: Sequence[str],
        token_cache: TokenHashCache | None = None,
    ) -> sparse.csr_matrix:
        """Vectorize raw texts, optionally through a streaming token cache.

        With ``token_cache``, repeated texts (template-heavy streams)
        hit :func:`~repro.nlp.tokenize.hash_text` once per distinct
        text; without it every text is tokenized afresh.  The output is
        identical either way — the cache memoises a pure function.
        """
        if token_cache is None:
            return self.transform_hashes([hash_text(t) for t in texts])
        return self.transform_hashes([token_cache.hashes(t) for t in texts])
