"""Single-extraction, cache-backed scoring core shared by both runtimes.

The batch study engine tokenizes every document exactly once
(:class:`~repro.nlp.tokenize.TokenCache` feeding
:meth:`~repro.nlp.features.HashingVectorizer.transform_hashes`); before
this module the streaming side re-did everything per batch and ran the
full PII regex bank twice per message (once for routing, once inside
the monitor).  :class:`ScoringCore` is the one implementation both
paths now consume:

* **tokenize** — a streaming :class:`~repro.nlp.tokenize.TokenHashCache`
  in front of the same :func:`~repro.nlp.tokenize.hash_text` the batch
  :class:`~repro.nlp.tokenize.TokenCache` uses, so batch and streaming
  features are identical by construction;
* **extract** — :func:`extract_targets` (PII regex bank + target-handle
  derivation) behind a bounded LRU, so each distinct text is extracted
  at most once across routing *and* scoring;
* **code** — the taxonomy :class:`~repro.taxonomy.coding.ExpertCoder`
  with its own LRU;
* **score** — one vectorizer call + two model dot products per batch.

Every cache memoises a pure function of the text, so eviction can only
change how much regex/tokenizer work runs — never an output byte.  A
:class:`ScoreWork` ledger rides along with each :class:`ScoredBatch` so
the serving cost model can bill tokenize / score / extract / state
seconds separately (:meth:`repro.serve.batching.ServiceCostModel.breakdown`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.extraction.pii import extract_pii
from repro.nlp.features import HashingVectorizer
from repro.nlp.tokenize import TokenHashCache
from repro.obs.ledger import SUM, Ledger, Metric, fold
from repro.taxonomy.attack_types import AttackSubtype
from repro.taxonomy.coding import ExpertCoder
from repro.util.cache import LRUCache

if TYPE_CHECKING:  # service layer sits above the core; type-only import
    from repro.service.stream import StreamMessage

#: Online-social-network PII categories whose values name a *target
#: account* — the handles campaign state is keyed on and the serving
#: runtime shards by.
OSN_PLATFORMS = ("facebook", "instagram", "twitter", "youtube")


@dataclasses.dataclass(frozen=True)
class Extraction:
    """Everything one PII pass over a text yields — computed at most once.

    ``handles`` are ``platform:value`` strings, lowercased and
    order-preserving-deduplicated: "twitter.com/Alice" and
    "twitter: alice" in one message are the *same* target, so they must
    contribute one handle (case-folding after extraction used to leave
    both and double-count a single message's campaign activity).
    """

    handles: tuple[str, ...]
    pii: Mapping[str, tuple[str, ...]]

    @property
    def primary_handle(self) -> str | None:
        """The first-referenced target handle, or ``None``."""
        return self.handles[0] if self.handles else None


def extract_targets(text: str) -> Extraction:
    """Run the PII bank once and derive target handles from it."""
    pii = extract_pii(text)
    handles = tuple(dict.fromkeys(
        f"{platform}:{value.lower()}"
        for platform in OSN_PLATFORMS
        for value in pii.get(platform, ())
    ))
    return Extraction(
        handles=handles,
        pii={category: tuple(values) for category, values in pii.items()},
    )


SCORE_WORK = Metric(
    "score_work_messages", "texts per component, split by cache hit/miss"
)


class ScoreWork(Ledger):
    """Ledger of the text-processing work one batch actually performed.

    Cache hits and misses are split out so the serving cost model can
    charge only the work that really ran: a template-heavy batch whose
    texts all hit the caches costs (simulated) tokenize/extract time of
    zero.  Counters are plain sums, so per-shard ledgers merge into a
    fleet view the same way :class:`~repro.service.monitor.MonitorStats`
    does.  Work that ran vs. work a cache absorbed projects as one
    ``score_work_messages`` family labeled
    ``component={tokenize,extract,code}`` x ``cache={hit,miss}`` — the
    cache-efficiency slice the autoscaler and dashboards read.
    """

    messages: int = fold(
        SUM, Metric("score_messages", "messages through the scoring core")
    )
    chars: int = fold(
        SUM, Metric("score_chars", "characters through the scoring core")
    )
    #: texts actually tokenized (token-cache misses) and their chars
    tokenized_messages: int = fold(
        SUM, SCORE_WORK(component="tokenize", cache="miss")
    )
    tokenized_chars: int = fold(SUM)
    token_cache_hits: int = fold(
        SUM, SCORE_WORK(component="tokenize", cache="hit")
    )
    #: texts actually run through the PII regex bank, and their chars
    extracted_messages: int = fold(
        SUM, SCORE_WORK(component="extract", cache="miss")
    )
    extracted_chars: int = fold(SUM)
    extraction_cache_hits: int = fold(
        SUM, SCORE_WORK(component="extract", cache="hit")
    )
    #: texts actually run through the taxonomy signature bank
    coded_messages: int = fold(SUM, SCORE_WORK(component="code", cache="miss"))
    coding_cache_hits: int = fold(
        SUM, SCORE_WORK(component="code", cache="hit")
    )

    @classmethod
    def for_uncached_texts(cls, texts: Sequence[str]) -> "ScoreWork":
        """The all-miss ledger: every text tokenized, nothing extracted.

        This is what a core-less scorer (legacy monitors, test doubles)
        is billed — identical to the pre-breakdown affine cost model.
        """
        chars = sum(len(t) for t in texts)
        return cls(
            messages=len(texts),
            chars=chars,
            tokenized_messages=len(texts),
            tokenized_chars=chars,
        )


@dataclasses.dataclass
class ScoredBatch:
    """One batch after the pure scoring pass, before any state updates.

    Holds everything :meth:`HarassmentMonitor.process_scored` needs to
    make alert decisions without touching a tokenizer or regex:
    features, both model scores, and per-message extractions.  An
    extraction slot may be ``None`` (batch path scores first, extracts
    only for detections); :meth:`extraction` then computes it lazily
    through the core's cache and records the work on this batch's
    ledger.
    """

    messages: Sequence["StreamMessage"]
    features: sparse.csr_matrix
    cth_scores: np.ndarray
    dox_scores: np.ndarray
    work: ScoreWork
    _extractions: list[Extraction | None]
    _core: "ScoringCore"

    def __len__(self) -> int:
        return len(self.messages)

    def extraction(self, index: int) -> Extraction:
        """Extraction for message ``index`` — precomputed or on demand."""
        extraction = self._extractions[index]
        if extraction is None:
            extraction = self._core.extract(
                self.messages[index].text, work=self.work
            )
            self._extractions[index] = extraction
        return extraction

    def subtypes(self, index: int) -> tuple[AttackSubtype, ...]:
        """Taxonomy coding for message ``index`` (cached in the core)."""
        return self._core.code_text(self.messages[index].text, work=self.work)

    def subset(self, indices: Sequence[int]) -> "ScoredBatch":
        """Scored view of the selected messages, in ``indices`` order.

        The work ledger and core are *shared* with the parent batch:
        lazy extraction/coding triggered through the subset still bills
        the batch the messages were scored in.  The serve runtime uses
        this to peel hot-key messages out of a batch before the
        stateful alerting pass (their state replay happens at
        reunification instead).
        """
        return ScoredBatch(
            messages=[self.messages[i] for i in indices],
            features=(
                self.features[list(indices)]
                if self.features is not None else None
            ),
            cth_scores=self.cth_scores[list(indices)],
            dox_scores=self.dox_scores[list(indices)],
            work=self.work,
            _extractions=[self._extractions[i] for i in indices],
            _core=self._core,
        )

    @classmethod
    def from_precomputed(
        cls,
        messages: Sequence["StreamMessage"],
        cth_scores: Sequence[float],
        dox_scores: Sequence[float],
        extractions: Sequence[Extraction],
        core: "ScoringCore",
    ) -> "ScoredBatch":
        """Rebuild a scored batch from stored scores and extractions.

        The failover/hot-key reunification path stores ``(message,
        scores, extraction)`` tuples while shards do the expensive
        scoring, then replays them through a monitor's stateful pass —
        no re-tokenization, no re-extraction.  ``features`` is ``None``
        (the state path never reads it) and the fresh work ledger only
        accumulates lazy taxonomy-coding done during the replay.
        """
        if not (
            len(messages) == len(cth_scores) == len(dox_scores)
            == len(extractions)
        ):
            raise ValueError(
                "messages, scores, and extractions must align "
                f"({len(messages)}/{len(cth_scores)}/{len(dox_scores)}"
                f"/{len(extractions)})"
            )
        return cls(
            messages=list(messages),
            features=None,
            cth_scores=np.asarray(cth_scores, dtype=float),
            dox_scores=np.asarray(dox_scores, dtype=float),
            work=ScoreWork(),
            _extractions=list(extractions),
            _core=core,
        )


class ScoringCore:
    """The shared text → (features, scores, extraction) engine.

    One instance per monitor (hence per shard): the caches are
    instance-local so per-shard work ledgers — and therefore simulated
    service times — are a pure function of that shard's message
    sequence, independent of thread scheduling under ``jobs=N``.
    """

    def __init__(
        self,
        cth_model,
        dox_model,
        vectorizer: HashingVectorizer | None = None,
        *,
        token_cache_size: int = 4096,
        extraction_cache_size: int = 4096,
        coding_cache_size: int = 2048,
    ) -> None:
        self._cth = cth_model
        self._dox = dox_model
        self.vectorizer = vectorizer or HashingVectorizer()
        self.token_cache = TokenHashCache(token_cache_size)
        self.extraction_cache: LRUCache[str, Extraction] = LRUCache(
            extraction_cache_size
        )
        self.coder = ExpertCoder(cache_size=coding_cache_size)

    # -- per-text primitives -----------------------------------------------

    def extract(self, text: str, work: ScoreWork | None = None) -> Extraction:
        """Cached :func:`extract_targets`, billing ``work`` for misses."""
        extraction, hit = self.extraction_cache.get_or_compute(
            text, extract_targets
        )
        if work is not None:
            if hit:
                work.extraction_cache_hits += 1
            else:
                work.extracted_messages += 1
                work.extracted_chars += len(text)
        return extraction

    def extract_batch(
        self, texts: Sequence[str], work: ScoreWork | None = None
    ) -> list[Extraction]:
        return [self.extract(text, work=work) for text in texts]

    def code_text(
        self, text: str, work: ScoreWork | None = None
    ) -> tuple[AttackSubtype, ...]:
        """Cached taxonomy coding, billing ``work`` for misses."""
        subtypes, hit = self.coder.code_text_cached(text)
        if work is not None:
            if hit:
                work.coding_cache_hits += 1
            else:
                work.coded_messages += 1
        return subtypes

    # -- batch scoring ------------------------------------------------------

    def features_for(
        self, texts: Sequence[str], work: ScoreWork | None = None
    ) -> sparse.csr_matrix:
        """Hashed features for ``texts`` through the streaming token cache."""
        arrays = []
        for text in texts:
            hashes, hit = self.token_cache.cached(text)
            arrays.append(hashes)
            if work is not None:
                if hit:
                    work.token_cache_hits += 1
                else:
                    work.tokenized_messages += 1
                    work.tokenized_chars += len(text)
        return self.vectorizer.transform_hashes(arrays)

    def score_messages(
        self,
        messages: Sequence["StreamMessage"],
        routed: Sequence[tuple[Extraction, bool]] | None = None,
        span=None,
    ) -> ScoredBatch:
        """Pure vectorized scoring of one batch.

        ``routed`` carries extractions the router already computed (and,
        per message, whether that routing extraction was fresh regex
        work or a router-cache hit) — the serve path passes it so the
        shard never re-extracts; the batch path omits it and extractions
        happen lazily, per detection, through :meth:`ScoredBatch.extraction`.

        ``span`` is an optional :class:`repro.obs.trace.SpanContext`
        (e.g. the enclosing batch span): the work ledger is annotated
        onto it so a trace viewer sees cache behaviour per batch.
        """
        texts = [m.text for m in messages]
        work = ScoreWork(messages=len(texts), chars=sum(len(t) for t in texts))
        features = self.features_for(texts, work=work)
        cth_scores = self._cth.predict_proba(features)
        dox_scores = self._dox.predict_proba(features)
        extractions: list[Extraction | None]
        if routed is None:
            extractions = [None] * len(texts)
        else:
            if len(routed) != len(texts):
                raise ValueError(
                    f"routed extractions ({len(routed)}) must align with "
                    f"messages ({len(texts)})"
                )
            extractions = []
            for (extraction, fresh), text in zip(routed, texts):
                extractions.append(extraction)
                if fresh:
                    work.extracted_messages += 1
                    work.extracted_chars += len(text)
                else:
                    work.extraction_cache_hits += 1
        if span is not None:
            span.annotate(
                messages=work.messages,
                token_cache_hits=work.token_cache_hits,
                tokenized=work.tokenized_messages,
                extracted=work.extracted_messages,
                extraction_cache_hits=work.extraction_cache_hits,
            )
        return ScoredBatch(
            messages=messages,
            features=features,
            cth_scores=cth_scores,
            dox_scores=dox_scores,
            work=work,
            _extractions=extractions,
            _core=self,
        )

    # -- introspection ------------------------------------------------------

    def cache_stats(self) -> dict[str, dict[str, int | float]]:
        """Per-cache counter snapshots (stable key order, JSON-ready)."""
        stats = {
            "tokens": self.token_cache.stats(),
            "extraction": self.extraction_cache.stats(),
        }
        coding = self.coder.cache_stats()
        if coding is not None:
            stats["coding"] = coding
        return stats
