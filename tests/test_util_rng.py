"""Unit tests for deterministic RNG plumbing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import child_rng, make_rng, stable_hash


def test_stable_hash_is_deterministic():
    assert stable_hash("a", 1) == stable_hash("a", 1)


def test_stable_hash_differs_by_part():
    assert stable_hash("a", 1) != stable_hash("a", 2)
    assert stable_hash("a") != stable_hash("b")


def test_stable_hash_order_matters():
    assert stable_hash("a", "b") != stable_hash("b", "a")


def test_stable_hash_no_concatenation_collision():
    # ("ab",) must differ from ("a", "b") — the separator byte prevents it.
    assert stable_hash("ab") != stable_hash("a", "b")


#: ``stable_hash`` outputs pinned from the part-by-part blake2b form.
#: Every seed, API key, hot-key salt and ring point derives from these.
GOLDEN = [
    ((), 16476032584258269876),
    (("serve-ring", 0, 0), 7086617600182333267),
    (("serve-ring", 3, 127), 5834193561235091853),
    (("serve-route", "tenant:alpha|@victim"), 1383077009436812421),
    (("a",), 9325419974540372106),
    ((7,), 5601457657999043058),
    ((-1,), 5106442271696394676),
    ((0.5,), 6015397719180165275),
    ((float("inf"),), 824552229119645449),
    ((None,), 13563859406472016771),
    ((("x", 1),), 1496368104774681634),
    (("İg: ſome_user",), 6078926236780893245),
    (("日本語", 2), 16996080584358810096),
    ((7, "boards", 3), 546610476172119351),
    (("", ""), 3423636831293011290),
    ((True,), 10683461717765655932),
    ((b"raw",), 1537218923386985479),
]


@pytest.mark.parametrize(("parts", "expected"), GOLDEN)
def test_stable_hash_golden_values(parts, expected):
    assert stable_hash(*parts) == expected


def _streamed_hash(*parts):
    """Reference: feed blake2b one part and one separator at a time."""
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


_part = st.one_of(
    st.text(max_size=12),
    st.integers(),
    st.floats(allow_nan=False),
    st.none(),
    st.tuples(st.text(max_size=4), st.integers()),
)


@given(st.lists(_part, max_size=6))
def test_stable_hash_equals_streamed_blake2b(parts):
    assert stable_hash(*parts) == _streamed_hash(*parts)


def test_child_rng_reproducible():
    a = child_rng(7, "boards", 3).random(5)
    b = child_rng(7, "boards", 3).random(5)
    np.testing.assert_array_equal(a, b)


def test_child_rng_independent_streams():
    a = child_rng(7, "boards").random(5)
    b = child_rng(7, "chat").random(5)
    assert not np.allclose(a, b)


def test_make_rng_handles_large_seeds():
    gen = make_rng(2**70 + 3)
    assert 0.0 <= gen.random() < 1.0


@given(st.integers(min_value=0, max_value=2**63), st.text(max_size=20))
def test_stable_hash_is_64_bit(seed, name):
    value = stable_hash(seed, name)
    assert 0 <= value < 2**64


@given(st.integers(min_value=0, max_value=10_000))
def test_child_rng_same_name_same_stream(seed):
    assert child_rng(seed, "x").integers(0, 1 << 30) == child_rng(seed, "x").integers(0, 1 << 30)
