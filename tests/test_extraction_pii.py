"""Unit and property tests for PII extraction (paper §5.6)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.identity import PersonFactory, PII_CATEGORIES
from repro.extraction.pii import (
    N_PATTERNS,
    PII_EXTRACTORS,
    PII_GUARDS,
    evaluate_extractors,
    extract_pii,
    pii_categories_present,
)
from repro.types import Gender


def test_nine_categories_twelve_plus_patterns():
    assert len(PII_EXTRACTORS) == 9
    assert N_PATTERNS >= 12


def test_email():
    found = extract_pii("contact me at jane.doe+x@mailhaven.example ok")
    assert found["email"] == ["jane.doe+x@mailhaven.example"]


def test_phone_formats():
    assert "phone" in pii_categories_present("call (212) 555-0147")
    assert "phone" in pii_categories_present("call 212-555-0147")
    assert "phone" not in pii_categories_present("order 12125550147999 shipped")


def test_ssn():
    assert "ssn" in pii_categories_present("ssn: 987-65-4321")
    assert "ssn" not in pii_categories_present("date 1987-65-43210")


def test_credit_cards_by_issuer():
    assert "credit_card" in pii_categories_present("card 4111 1111 1111 1111")
    assert "credit_card" in pii_categories_present("card 5555555555554444")
    assert "credit_card" in pii_categories_present("amex 3782 822463 10005")
    assert "credit_card" in pii_categories_present("disc 6011 1111 1111 1117")
    assert "credit_card" not in pii_categories_present("number 1234 5678 9012 3456")


def test_address():
    assert "address" in pii_categories_present("lives at 123 Maple St, Fairhaven, NY 10001")
    assert "address" in pii_categories_present("4821 Sycamore Ave")
    assert "address" not in pii_categories_present("we walked down the street")


def test_facebook_url_and_label():
    assert "facebook" in pii_categories_present("https://facebook.com/john.doe.42")
    assert "facebook" in pii_categories_present("fb: john.doe.42")


def test_facebook_stopwords():
    assert "facebook" not in pii_categories_present("https://facebook.com/login")
    assert "facebook" not in pii_categories_present("facebook.com/groups")


def test_twitter_url_label_and_stopwords():
    assert "twitter" in pii_categories_present("twitter.com/somebody1")
    assert "twitter" in pii_categories_present("twitter: somebody1")
    assert "twitter" not in pii_categories_present("twitter.com/search")


def test_instagram():
    assert "instagram" in pii_categories_present("https://instagram.com/some_user")
    assert "instagram" in pii_categories_present("ig: some_user")
    assert "instagram" not in pii_categories_present("instagram.com/explore")


def test_youtube_forms():
    assert "youtube" in pii_categories_present("youtube.com/c/SomeChannel")
    assert "youtube" in pii_categories_present("youtube.com/channel/UC12345abc")
    assert "youtube" in pii_categories_present("yt: SomeChannel")


def test_extract_dedupes():
    found = extract_pii("mail a@b.example and again a@b.example")
    assert found["email"] == ["a@b.example"]


def test_no_pii_in_plain_text():
    assert pii_categories_present("just a friendly chat about the weather") == frozenset()


def test_extractors_on_rendered_person():
    factory = PersonFactory(np.random.default_rng(0))
    person = factory.make(Gender.FEMALE)
    for category in PII_CATEGORIES:
        text = f"info: {person.pii_value(category)}"
        assert category in pii_categories_present(text), category


def test_evaluate_extractors_high_accuracy(tiny_corpus):
    doxes = [d for d in tiny_corpus if d.truth.is_dox][:500]
    accuracy = evaluate_extractors(doxes)
    # Paper: all regexes >= 95% accurate on labelled doxes.
    for category, acc in accuracy.items():
        assert acc >= 0.95, (category, acc)


def test_evaluate_empty_raises():
    with pytest.raises(ValueError):
        evaluate_extractors([])


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
@settings(max_examples=80)
def test_extract_never_crashes(text):
    found = extract_pii(text)
    assert set(found) <= set(PII_EXTRACTORS)
    present = pii_categories_present(text)
    assert present == frozenset(found)


# -- guarded bank vs the plain pattern loop ----------------------------------


def _unguarded_extract(text):
    found = {}
    for category, patterns in PII_EXTRACTORS.items():
        values = dict.fromkeys(
            match.group(1) if match.groups() else match.group(0)
            for pattern in patterns
            for match in pattern.finditer(text)
        )
        if values:
            found[category] = list(values)
    return found


def test_every_category_has_a_guard_with_its_patterns_flags():
    assert set(PII_GUARDS) == set(PII_EXTRACTORS)
    for category, patterns in PII_EXTRACTORS.items():
        for pattern in patterns:
            assert pattern.flags == PII_GUARDS[category].flags, category


def test_guard_accepts_ignorecase_folds():
    # str.lower() leaves these alone, but re.IGNORECASE folds them.
    assert extract_pii("ınstagram.com/some_user") == {"instagram": ["some_user"]}
    assert extract_pii("twıtter: somebody1") == {"twitter": ["somebody1"]}
    assert extract_pii("İg: some_user") == {"instagram": ["some_user"]}


def test_digit_guard_accepts_non_ascii_digits():
    assert extract_pii("call ٣١٢-٥٥٥-٠١٤٧") == {"phone": ["٣١٢-٥٥٥-٠١٤٧"]}


#: Non-ASCII characters that re.IGNORECASE folds onto ASCII letters.
_FOLDS = {"i": "İı", "s": "ſ", "k": "K"}
_NAMES = (
    "facebook", "fb", "instagram", "insta", "ig", "twitter", "twtr",
    "youtube", "yt channel", "yt", ".com/", "c/", "channel/", "user/",
    "login", "explore", "search", "kid_kool", "sks.ik", "mail.example",
    "big", "figure",
)


def _mangled(name):
    return st.tuples(*(
        st.sampled_from([c, c.upper(), *_FOLDS.get(c, "")]) for c in name
    )).map("".join)


_name = st.sampled_from(_NAMES).flatmap(_mangled)
_username = st.text(alphabet="abcXYZ09_.-", min_size=1, max_size=12)
# Whole label- and URL-shaped runs, so that near-misses of every social
# pattern come up often, not only by chance concatenation.
_labelled = st.tuples(
    _name, st.sampled_from([":", "-", " : ", ":@", " -@"]), _username
).map("".join)
_url = st.tuples(
    st.sampled_from(["", "https://", "http://www.", "www."]),
    _name,
    st.sampled_from(["", ".com/", ".com/c/", ".com/@"]),
    _username,
).map("".join)

# Phone-, SSN-, card- and address-shaped runs whose digits may be
# non-ASCII: ``\d`` matches any Unicode decimal digit.
_number = st.tuples(
    st.sampled_from([
        "ddd-ddd-dddd", "(ddd) ddd-dddd", "ddd-dd-dddd",
        "4ddd dddd dddd dddd", "dd Maple St", "ddddd",
    ]),
    st.sampled_from(["0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "7٣３०"]),
).flatmap(lambda shape_digits: st.tuples(*(
    st.sampled_from(shape_digits[1]) if c == "d" else st.just(c)
    for c in shape_digits[0]
)).map("".join))

_fragment = st.one_of(
    _name,
    _labelled,
    _url,
    _number,
    st.sampled_from([
        "@", ":", "-", " ", ": ", " - ", "https://", "http://", "www.", "/",
        ".", "_", "٣", "３", "०", "(", ")",
    ]),
    _username,
)


@given(st.lists(_fragment, max_size=25).map("".join))
@settings(max_examples=400, deadline=None)
# ``ig`` inside a word is not a label; as a whole word before ``:`` or
# ``-`` (in any case fold) it is.
@example("big: x")
@example("big: some_user")
@example("ig -")
@example("ig -some_user")
@example("İg:")
@example("İg: some_user")
@example("figure: 3")
def test_guarded_bank_matches_unguarded_loop(text):
    expected = _unguarded_extract(text)
    found = extract_pii(text)
    assert found == expected
    assert list(found) == list(expected)
    assert pii_categories_present(text) == frozenset(expected)
