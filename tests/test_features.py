"""Unit and property tests for the hashing vectorizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.nlp.features import _MIX, HashingVectorizer
from repro.nlp.tokenize import TokenCache, hash_tokens, tokenize


@pytest.fixture()
def vec():
    return HashingVectorizer(n_bits=12)


def test_n_features(vec):
    assert vec.n_features == 4096


def test_invalid_bits():
    with pytest.raises(ValueError):
        HashingVectorizer(n_bits=4)
    with pytest.raises(ValueError):
        HashingVectorizer(n_bits=30)


def test_rows_l2_normalised(vec):
    X = vec.transform_texts(["hello world hello", "a b c d"])
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    np.testing.assert_allclose(norms, 1.0)


def test_empty_document_zero_row(vec):
    X = vec.transform_hashes([np.array([], dtype=np.uint64)])
    assert X.nnz == 0
    assert X.shape == (1, vec.n_features)


def test_same_text_same_row(vec):
    X = vec.transform_texts(["the same text", "the same text"])
    a, b = X[0].toarray(), X[1].toarray()
    np.testing.assert_array_equal(a, b)


def test_different_texts_differ(vec):
    X = vec.transform_texts(["alpha beta gamma", "delta epsilon zeta"])
    assert (X[0] != X[1]).nnz > 0


def test_bigrams_add_features():
    uni = HashingVectorizer(n_bits=12, use_bigrams=False)
    bi = HashingVectorizer(n_bits=12, use_bigrams=True)
    text = ["one two three"]
    assert bi.transform_texts(text).nnz > uni.transform_texts(text).nnz


def test_transform_cache_matches_texts(vec):
    texts = ["alpha beta", "gamma delta epsilon"]
    from_cache = vec.transform_cache(TokenCache(texts)).toarray()
    from_texts = vec.transform_texts(texts).toarray()
    np.testing.assert_array_equal(from_cache, from_texts)


def test_word_order_matters_with_bigrams(vec):
    X = vec.transform_texts(["report him now", "now him report"])
    assert (X[0] != X[1]).nnz > 0


@given(st.lists(st.text(alphabet="abcdefg ", min_size=1, max_size=60), min_size=1, max_size=8))
@settings(max_examples=50)
def test_shape_and_bounds(texts):
    vec = HashingVectorizer(n_bits=10)
    X = vec.transform_texts(texts)
    assert X.shape == (len(texts), 1024)
    if X.nnz:
        assert X.indices.min() >= 0
        assert X.indices.max() < 1024
        assert (X.data > 0).all()


@given(st.text(alphabet="abcdef ", min_size=1, max_size=100))
@settings(max_examples=50)
def test_deterministic_across_instances(text):
    a = HashingVectorizer(n_bits=10).transform_texts([text]).toarray()
    b = HashingVectorizer(n_bits=10).transform_texts([text]).toarray()
    np.testing.assert_array_equal(a, b)


# -- batch build vs the per-row reference ------------------------------------


def _per_row_reference(vec, hash_arrays):
    """The original featurizer: one ``np.unique`` and one norm per row."""
    mask = np.uint64(vec.n_features - 1)
    indptr = [0]
    indices_parts, data_parts = [], []
    for hashes in hash_arrays:
        if hashes.size == 0:
            indptr.append(indptr[-1])
            continue
        ids = hashes & mask
        if vec.use_bigrams and hashes.size >= 2:
            ids = np.concatenate([ids, ((hashes[:-1] * _MIX) ^ hashes[1:]) & mask])
        uniq, counts = np.unique(ids.astype(np.int64), return_counts=True)
        values = counts.astype(np.float64)
        values /= np.sqrt((values * values).sum())
        indices_parts.append(uniq)
        data_parts.append(values)
        indptr.append(indptr[-1] + uniq.size)
    indices = np.concatenate(indices_parts) if indices_parts else np.empty(0, np.int64)
    data = np.concatenate(data_parts) if data_parts else np.empty(0, np.float64)
    return sparse.csr_matrix(
        (data, indices, np.array(indptr, dtype=np.int64)),
        shape=(len(hash_arrays), vec.n_features),
    )


def _assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert got.data.dtype == want.data.dtype
    assert got.indices.dtype == want.indices.dtype
    assert got.indptr.dtype == want.indptr.dtype
    assert got.data.tobytes() == want.data.tobytes()
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.indptr, want.indptr)


# Small hash pools force repeated tokens (duplicate unigrams and bigrams);
# full-range hashes exercise the uint64 bigram mix.
_hash_value = st.one_of(
    st.integers(0, 5), st.integers(0, 2**64 - 1)
).map(np.uint64)
_row = st.one_of(
    st.just([]),
    st.lists(_hash_value, min_size=1, max_size=1),
    st.integers(1, 2**64 - 1).flatmap(
        lambda h: st.integers(1, 30).map(lambda n: [np.uint64(h)] * n)
    ),
    st.lists(_hash_value, max_size=40),
)


@given(
    st.lists(_row, max_size=12),
    st.sampled_from([8, 12, 18, 26]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_batch_build_matches_per_row_reference(rows, n_bits, use_bigrams):
    vec = HashingVectorizer(n_bits=n_bits, use_bigrams=use_bigrams)
    arrays = [np.array(row, dtype=np.uint64) for row in rows]
    _assert_bit_identical(
        vec.transform_hashes(arrays), _per_row_reference(vec, arrays)
    )


def test_empty_batch():
    vec = HashingVectorizer(n_bits=8)
    _assert_bit_identical(vec.transform_hashes([]), _per_row_reference(vec, []))
    assert vec.transform_hashes([]).shape == (0, 256)
