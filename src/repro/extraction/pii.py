"""PII extraction with 16 precision-optimised regular expressions (§5.6).

The paper extracts nine PII categories: US street addresses, credit-card
numbers (one pattern per issuer, for precision), email addresses, Facebook
profiles, Instagram profiles, US phone numbers, US SSNs, Twitter handles,
and YouTube channels.  Social-media profiles use two pattern styles:

* profile URLs, with a stopword list removing reserved site-functionality
  paths that share the user-profile URL shape, and
* ``platform-name: username`` label style, with per-platform username
  grammars taken from each platform's documented rules.

All patterns are deliberately precision-first, matching the paper's
reported >= 95 % accuracy on a labelled dox sample.

Most texts hold no PII, and most patterns cost a scan of every offset,
so each category has a guard in :data:`PII_GUARDS`: a cheap regex that
every match of the category's patterns must contain (a digit, ``@``, or
the site and label names).  A category whose guard does not match is
skipped.  A guard is compiled with the same flags as the patterns it
gates, so it accepts everything they do.  Under ``re.IGNORECASE`` that
includes the case folds ``str.lower()`` does not produce: ``ſ`` for
``s``, ``K`` (Kelvin sign) for ``k`` and ``İ``/``ı`` for ``i``, so
``ınstagram.com/x`` must pass the ``insta`` guard.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Sequence

from repro.corpus.documents import Document
from repro.util.cache import LRUCache

_STREET_TYPES = r"(?:St|Ave|Blvd|Dr|Ln|Rd|Ct|Way|Street|Avenue|Boulevard|Drive|Lane|Road|Court)"

#: Reserved path segments that look like profile URLs but are not.
_FACEBOOK_STOPWORDS = (
    "login", "pages", "groups", "events", "marketplace", "watch", "help",
    "privacy", "settings", "friends", "photos", "sharer", "share",
)
_INSTAGRAM_STOPWORDS = ("explore", "accounts", "about", "developer", "directory", "legal")
_TWITTER_STOPWORDS = ("home", "search", "explore", "settings", "i", "intent", "hashtag", "share")

def _url_pattern(domain: str, username: str, stopwords: Sequence[str]) -> re.Pattern[str]:
    stop = "|".join(stopwords)
    return re.compile(
        rf"(?:https?://)?(?:www\.)?{domain}/(?!(?:{stop})\b)({username})",
        re.IGNORECASE,
    )

def _label_pattern(names: str, username: str) -> re.Pattern[str]:
    # The negative lookahead keeps "Facebook: https://facebook.com/x" from
    # capturing "https" as a username (the URL pattern handles that form).
    return re.compile(
        rf"\b(?:{names})\s*[:\-]\s*(?!https?://)@?({username})", re.IGNORECASE
    )


#: The 16 regular expressions, grouped into the 9 PII categories.
PII_EXTRACTORS: Mapping[str, tuple[re.Pattern[str], ...]] = {
    "address": (
        re.compile(
            rf"\b\d{{1,5}}\s+[A-Z][A-Za-z]+\s+{_STREET_TYPES}\b"
            rf"(?:\s*,\s*[A-Z][A-Za-z ]+,?\s+[A-Z]{{2}}\s+\d{{5}}(?:-\d{{4}})?)?"
        ),
    ),
    "credit_card": (
        re.compile(r"\b4\d{3}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b"),  # Visa
        re.compile(r"\b5[1-5]\d{2}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b"),  # Mastercard
        re.compile(r"\b3[47]\d{2}[ -]?\d{6}[ -]?\d{5}\b"),  # Amex
        re.compile(r"\b6(?:011|5\d{2})[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b"),  # Discover
    ),
    "email": (
        re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"),
    ),
    "facebook": (
        _url_pattern(r"facebook\.com", r"[A-Za-z0-9.]{5,50}", _FACEBOOK_STOPWORDS),
        _label_pattern("facebook|fb", r"[A-Za-z0-9.]{5,50}"),
    ),
    "instagram": (
        _url_pattern(r"instagram\.com", r"[A-Za-z0-9_.]{2,30}", _INSTAGRAM_STOPWORDS),
        _label_pattern("instagram|ig|insta", r"[A-Za-z0-9_.]{2,30}"),
    ),
    "phone": (
        re.compile(r"(?<![\d-])\(?\d{3}\)?[ .-]?\d{3}[ .-]\d{4}(?![\d-])"),
    ),
    "ssn": (
        re.compile(r"(?<![\d-])\d{3}-\d{2}-\d{4}(?![\d-])"),
    ),
    "twitter": (
        _url_pattern(r"twitter\.com", r"[A-Za-z0-9_]{1,15}", _TWITTER_STOPWORDS),
        _label_pattern("twitter|twtr", r"[A-Za-z0-9_]{1,15}"),
    ),
    "youtube": (
        re.compile(
            r"(?:https?://)?(?:www\.)?youtube\.com/(?:c/|channel/|user/|@)([A-Za-z0-9_-]{2,60})",
            re.IGNORECASE,
        ),
        _label_pattern(r"youtube|yt channel|yt", r"[A-Za-z0-9_-]{2,60}"),
    ),
}

#: Total number of compiled patterns — the paper's "12 regular expressions"
#: counts the social-URL and label styles jointly per category; this
#: implementation exposes the full per-issuer/per-style breakdown.
N_PATTERNS = sum(len(patterns) for patterns in PII_EXTRACTORS.values())

_DIGIT = re.compile(r"\d")

#: Per-category necessary condition: a text none of whose substrings
#: matches the guard cannot match any of the category's patterns.  Each
#: guard is a sub-pattern of every pattern it gates and carries the same
#: flags (``\d`` is the Unicode digit class in both; the social guards
#: fold case exactly as their patterns do).
PII_GUARDS: Mapping[str, re.Pattern[str]] = {
    "address": _DIGIT,
    "credit_card": _DIGIT,
    "email": re.compile("@"),
    "facebook": re.compile("facebook|fb", re.IGNORECASE),
    # ``ig`` alone is in too many words ("right", "big"); the label
    # pattern only accepts it as a whole word before ``:`` or ``-``.
    "instagram": re.compile(r"insta|\big\s*[:\-]", re.IGNORECASE),
    "phone": _DIGIT,
    "ssn": _DIGIT,
    "twitter": re.compile("twitter|twtr", re.IGNORECASE),
    "youtube": re.compile("youtube|yt", re.IGNORECASE),
}


def _candidates(text: str) -> Iterator[tuple[str, tuple[re.Pattern[str], ...]]]:
    """``(category, patterns)`` for each category whose guard matches."""
    for category, patterns in PII_EXTRACTORS.items():
        if PII_GUARDS[category].search(text):
            yield category, patterns


def extract_pii(text: str) -> dict[str, list[str]]:
    """All PII matches per category (deduplicated, order preserved)."""
    found: dict[str, list[str]] = {}
    for category, patterns in _candidates(text):
        values = dict.fromkeys(
            match.group(1) if match.groups() else match.group(0)
            for pattern in patterns
            for match in pattern.finditer(text)
        )
        if values:
            found[category] = list(values)
    return found


def extract_pii_batch(
    texts: Sequence[str],
    cache: LRUCache[str, dict[str, list[str]]] | None = None,
) -> list[dict[str, list[str]]]:
    """:func:`extract_pii` over a batch, optionally memoised per text.

    With ``cache``, each *distinct* text runs the regex bank at most
    once — on template-heavy streams (repeated copypasta, the paper's
    coordinated-incitement shape) that removes nearly all extraction
    work.  Callers must treat returned dicts as read-only; repeats of a
    text share one dict object.
    """
    if cache is None:
        return [extract_pii(text) for text in texts]
    return [cache.get_or_compute(text, extract_pii)[0] for text in texts]


def pii_categories_present(text: str) -> frozenset[str]:
    """Which PII categories appear in ``text`` (presence only; faster)."""
    return frozenset(
        category
        for category, patterns in _candidates(text)
        if any(pattern.search(text) for pattern in patterns)
    )


def evaluate_extractors(documents: Iterable[Document]) -> dict[str, float]:
    """Per-category presence accuracy against planted ground truth.

    Mirrors the paper's evaluation on a labelled dox sample: for each
    category, the fraction of documents where extracted presence equals
    planted presence.
    """
    totals: dict[str, int] = {c: 0 for c in PII_EXTRACTORS}
    correct: dict[str, int] = {c: 0 for c in PII_EXTRACTORS}
    n = 0
    for doc in documents:
        n += 1
        planted = set(doc.truth.pii_planted)
        present = pii_categories_present(doc.text)
        for category in PII_EXTRACTORS:
            totals[category] += 1
            if (category in planted) == (category in present):
                correct[category] += 1
    if n == 0:
        raise ValueError("no documents to evaluate")
    return {c: correct[c] / totals[c] for c in PII_EXTRACTORS}
