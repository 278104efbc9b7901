"""Sentence- and corpus-level BLEU, and BLEU-ordered candidate rankings.

Sentence scores use add-one smoothing at every n-gram order so that single
sentences always get a usable, strictly positive score (unless empty);
corpus scores are conventional unsmoothed BLEU over pooled statistics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import NBestList, ReferenceSet
from .rng import substream

DEFAULT_MAX_N = 4

# purpose label for the tie-breaking streams; shared with the trainer so a
# ground truth built there matches ground_truth_permutation on the same seed
TIE_BREAK_PURPOSE = "bleu-ties"


@dataclass(frozen=True, slots=True)
class BleuStats:
    """Additive sufficient statistics for BLEU.

    ``match[n-1]`` and ``total[n-1]`` count clipped n-gram matches and
    hypothesis n-grams of order n; ``ref_len`` is the effective reference
    length (closest to the hypothesis length, ties to the shorter).
    """

    match: tuple[int, ...]
    total: tuple[int, ...]
    hyp_len: int
    ref_len: int

    @property
    def max_n(self) -> int:
        return len(self.match)

    @classmethod
    def zero(cls, max_n: int = DEFAULT_MAX_N) -> "BleuStats":
        return cls((0,) * max_n, (0,) * max_n, 0, 0)

    def __add__(self, other: "BleuStats") -> "BleuStats":
        if self.max_n != other.max_n:
            raise ValueError(f"cannot add stats of order {self.max_n} and {other.max_n}")
        return BleuStats(
            tuple(a + b for a, b in zip(self.match, other.match)),
            tuple(a + b for a, b in zip(self.total, other.total)),
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )


@dataclass(frozen=True, slots=True)
class Permutation:
    """A ranked prefix of a hypothesis list: ranks[j] is the index of the
    hypothesis in position j+1."""

    sent_id: int
    ranks: tuple[int, ...]


def _ngram_counts(tokens: Sequence[str], max_n: int) -> Counter:
    counts: Counter = Counter()
    for n in range(1, max_n + 1):
        counts.update(zip(*[tokens[i:] for i in range(n)]))
    return counts


class ReferenceStats:
    """Per-sentence reference profile, reusable across many hypotheses.

    ``stats_for`` remembers the statistics of every hypothesis it has
    scored, so a profile kept for a whole run scores each distinct token
    sequence once.
    """

    def __init__(self, refs: Sequence[Sequence[str]], max_n: int = DEFAULT_MAX_N):
        if not refs:
            raise ValueError("at least one reference is required")
        self.max_n = max_n
        self.lengths = [len(r) for r in refs]
        self.clip: Counter = Counter()
        for ref in refs:
            for gram, count in _ngram_counts(ref, max_n).items():
                if count > self.clip[gram]:
                    self.clip[gram] = count
        self._memo: dict[tuple[str, ...], BleuStats] = {}

    def _effective_ref_len(self, hyp_len: int) -> int:
        return min(self.lengths, key=lambda n: (abs(n - hyp_len), n))

    def stats_for(self, hyp_tokens: Sequence[str]) -> BleuStats:
        key = tuple(hyp_tokens)
        stats = self._memo.get(key)
        if stats is None:
            stats = self._memo[key] = self._compute(key)
        return stats

    def _compute(self, hyp_tokens: tuple[str, ...]) -> BleuStats:
        hyp_len = len(hyp_tokens)
        match = [0] * self.max_n
        total = [max(hyp_len - n, 0) for n in range(self.max_n)]
        clip = self.clip
        for gram, count in _ngram_counts(hyp_tokens, self.max_n).items():
            if gram in clip:
                match[len(gram) - 1] += min(count, clip[gram])
        return BleuStats(tuple(match), tuple(total), hyp_len, self._effective_ref_len(hyp_len))


def profile_for(
    profiles: dict[int, ReferenceStats], refs: ReferenceSet, sent_id: int
) -> ReferenceStats:
    """The profile of ``sent_id`` in ``profiles``, built and stored on first use."""
    profile = profiles.get(sent_id)
    if profile is None:
        profile = profiles[sent_id] = ReferenceStats(refs[sent_id])
    return profile


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len > ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / max(hyp_len, 1))


def sentence_bleu(stats: BleuStats) -> float:
    """Add-one smoothed BLEU of a single sentence. Empty hypothesis scores 0."""
    if stats.hyp_len == 0:
        return 0.0
    log_prec = sum(
        math.log((m + 1) / (t + 1)) for m, t in zip(stats.match, stats.total)
    ) / stats.max_n
    return _brevity_penalty(stats.hyp_len, stats.ref_len) * math.exp(log_prec)


def corpus_bleu(stats: BleuStats) -> float:
    """Unsmoothed BLEU over pooled statistics; 0 if any order has no match."""
    if stats.hyp_len == 0:
        return 0.0
    if any(t == 0 for t in stats.total) or any(m == 0 for m in stats.match):
        return 0.0
    log_prec = sum(
        math.log(m / t) for m, t in zip(stats.match, stats.total)
    ) / stats.max_n
    return _brevity_penalty(stats.hyp_len, stats.ref_len) * math.exp(log_prec)


def bleu_ranking(bleus: Sequence[float], k: int, rng: np.random.Generator) -> list[int]:
    """Indices of the k best scores, descending; exact ties in uniformly
    random order drawn from ``rng``."""
    n = len(bleus)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for a list of {n}")
    keys = rng.random(n)
    order = sorted(range(n), key=lambda i: (-bleus[i], keys[i]))
    return order[:k]


def ground_truth_ranking(
    bleus: Sequence[float], k: int, rng_seed: int, sent_id: int
) -> list[int]:
    """bleu_ranking driven by the per-sentence tie-breaking stream."""
    return bleu_ranking(bleus, k, substream(rng_seed, TIE_BREAK_PURPOSE, sent_id))


def ground_truth_permutation(
    lst: NBestList,
    refs: ReferenceSet,
    k: int,
    rng_seed: int,
    max_n: int = DEFAULT_MAX_N,
) -> Permutation:
    """Top-k hypotheses by sentence BLEU, exact ties broken uniformly at random.

    Reproducible: the tie-breaking stream depends only on (rng_seed, sent_id),
    not on call order.
    """
    profile = ReferenceStats(refs[lst.sent_id], max_n)
    bleus = [sentence_bleu(profile.stats_for(h.tokens)) for h in lst.hypotheses]
    return Permutation(lst.sent_id, tuple(ground_truth_ranking(bleus, k, rng_seed, lst.sent_id)))
