"""Sentence- and corpus-level BLEU, and BLEU-ordered candidate rankings.

Sentence scores use add-one smoothing at every n-gram order so that single
sentences always get a usable, strictly positive score (unless empty);
corpus scores are conventional unsmoothed BLEU over pooled statistics.
The clipped n-gram counts of a list's hypotheses are computed in one numpy
pass against integer n-gram tables built once per reference profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add
from typing import Sequence

import numpy as np

from .rng import substream

# the largest n-gram order BLEU counts
MAX_N = 4

# purpose label for ground_truth_ranking's per-sentence tie-breaking streams
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

    @classmethod
    def zero(cls) -> "BleuStats":
        return cls((0,) * MAX_N, (0,) * MAX_N, 0, 0)

    def __add__(self, other: "BleuStats") -> "BleuStats":
        return BleuStats(
            tuple(a + b for a, b in zip(self.match, other.match)),
            tuple(a + b for a, b in zip(self.total, other.total)),
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )


def _token_ids(seqs: Sequence[Sequence[str]], vocab: dict[str, int]):
    """The vocabulary ids of ``seqs`` end to end, each sequence followed by
    a -1 separator, and the index of the sequence at each position.  A
    token not in ``vocab`` also gets -1, so no n-gram through it matches."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.fromiter(map(vocab.get, chain.from_iterable(seqs), repeat(-1)), dtype=np.int64, count=lengths.sum())
    tokens = np.insert(ids, np.cumsum(lengths), -1)
    owner = np.repeat(np.arange(len(seqs), dtype=np.int64), lengths + 1)
    return tokens, owner


def _gram_keys(ids: np.ndarray, tokens: np.ndarray, n: int, vocab_size: int) -> np.ndarray:
    """Key of the (n+1)-gram starting at each position, from the ids of
    the n-grams there: ``prev_id * vocab_size + token_id``, or -1 where
    either part is -1.  Both parts are below the reference token count, so
    keys stay below its square."""
    prev, last = ids[:-1], tokens[n:]
    return np.where((prev >= 0) & (last >= 0), prev * vocab_size + last, -1)


def _lookup(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the sorted, non-empty ``table``; -1 for a key not in it."""
    at = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return np.where(table[at] == keys, at, -1)


def _reference_tables(refs: Sequence[Sequence[str]]):
    """The token vocabulary of ``refs`` and, per n-gram order present in
    them, the sorted n-gram keys and the largest count of each n-gram in
    any one reference (its clip count)."""
    vocab = {tok: i for i, tok in enumerate(dict.fromkeys(t for ref in refs for t in ref))}
    tokens, owner = _token_ids(refs, vocab)
    orders = []
    keys, table = tokens, np.arange(len(vocab))
    for n in range(MAX_N):
        if n:
            keys = _gram_keys(ids, tokens, n, len(vocab))
            # the distinct keys, sorted, as np.unique gives them; np.unique(x)
            # itself imports numpy.ma (numpy 2.4) to ask whether x is masked
            table = np.sort(keys[keys >= 0])
            first = np.ones(table.size, bool)
            first[1:] = table[1:] != table[:-1]
            table = table[first]
        if not table.size:
            break
        ids = _lookup(table, keys)
        valid = ids >= 0
        pairs = owner[: ids.size][valid] * table.size + ids[valid]
        counts = np.bincount(pairs, minlength=len(refs) * table.size).reshape(len(refs), -1)
        orders.append((table, counts.max(axis=0)))
    return vocab, orders


class ReferenceStats:
    """Per-sentence reference profile, reusable across many hypotheses.

    A hypothesis is given as its text, its tokens joined by whitespace,
    as ``Hypothesis.text`` holds them.  The profile remembers the
    statistics and the sentence BLEU of every text it has scored;
    ``ReferenceSet.profile`` keeps one per sentence as long as the set,
    so each text is scored once.  :meth:`sentence_bleus` scores a list's
    new hypotheses in one pass; ``stats_for`` scores a new one as a list
    of one.  It also remembers the last list it was given, so a list that
    extends it, as a tuning pool grows round by round, costs only its new
    tail.
    """

    def __init__(self, refs: Sequence[Sequence[str]]):
        if not refs:
            raise ValueError("at least one reference is required")
        self.lengths = [len(r) for r in refs]
        self._vocab, self._orders = _reference_tables(refs)
        self._memo: dict[str, BleuStats] = {}
        self._bleu: dict[BleuStats, float] = {}
        self._last: tuple[list[str], list[float]] = ([], [])

    def stats_for(self, hyp: str) -> BleuStats:
        stats = self._memo.get(hyp)
        if stats is None:
            self._score([hyp])
            stats = self._memo[hyp]
        return stats

    def sentence_bleus(self, hyps: Sequence[str]) -> list[float]:
        """Sentence BLEU of each hypothesis.  Past the prefix that repeats
        the last call's list, each goes through ``stats_for``, and the ones
        not scored before are scored first, in one pass."""
        keys = list(hyps)
        last_keys, last_bleus = self._last
        n = len(last_keys) if keys[: len(last_keys)] == last_keys else 0
        tail = keys[n:]
        self._score([k for k in tail if k not in self._memo])
        bleus = last_bleus[:n] + [self._bleu[self.stats_for(k)] for k in tail]
        self._last = (keys, bleus)
        return bleus

    def _score(self, keys: list[str]) -> None:
        """Memoize the statistics and sentence BLEU of new hypotheses."""
        if not keys:
            return
        hyps = [key.split() for key in keys]
        tokens, owner = _token_ids(hyps, self._vocab)
        match = np.zeros((len(hyps), MAX_N), dtype=np.int64)
        ids = tokens
        for n, (table, clip) in enumerate(self._orders):
            if n:
                ids = _lookup(table, _gram_keys(ids, tokens, n, len(self._vocab)))
            valid = ids >= 0
            pairs = owner[: ids.size][valid] * table.size + ids[valid]
            pairs, count = np.unique(pairs, return_counts=True)
            hyp, gram = np.divmod(pairs, table.size)
            match[:, n] = np.bincount(hyp, np.minimum(count, clip[gram]), len(hyps))
        lengths = list(map(len, hyps))
        # the reference length closest to the hypothesis's, ties to the shorter
        ref_len = {n: min(self.lengths, key=lambda r: (abs(r - n), r)) for n in set(lengths)}
        total = np.maximum(np.array(lengths)[:, None] - np.arange(MAX_N), 0)
        for key, m, t, n in zip(keys, match.tolist(), total.tolist(), lengths):
            stats = self._memo[key] = BleuStats(tuple(m), tuple(t), n, ref_len[n])
            if stats not in self._bleu:
                self._bleu[stats] = sentence_bleu(stats)


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len > ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / max(hyp_len, 1))


def sentence_bleu(stats: BleuStats) -> float:
    """Add-one smoothed BLEU of a single sentence. Empty hypothesis scores 0."""
    if stats.hyp_len == 0:
        return 0.0
    # summed left to right on every Python: builtin sum() compensates from 3.12
    log_prec = reduce(add, (math.log((m + 1) / (t + 1)) for m, t in zip(stats.match, stats.total)), 0.0) / MAX_N
    return _brevity_penalty(stats.hyp_len, stats.ref_len) * math.exp(log_prec)


def corpus_bleu(stats: BleuStats) -> float:
    """Unsmoothed BLEU over pooled statistics; 0 if any order has no match."""
    if stats.hyp_len == 0:
        return 0.0
    if any(t == 0 for t in stats.total) or any(m == 0 for m in stats.match):
        return 0.0
    # left to right, as in sentence_bleu
    log_prec = reduce(add, (math.log(m / t) for m, t in zip(stats.match, stats.total)), 0.0) / MAX_N
    return _brevity_penalty(stats.hyp_len, stats.ref_len) * math.exp(log_prec)


def ground_truth_ranking(
    bleus: Sequence[float], k: int, rng_seed: int, sent_id: int
) -> list[int]:
    """Indices of the k best sentence BLEU scores, descending; exact ties in
    uniformly random order.

    Reproducible: the tie-breaking stream depends only on (rng_seed,
    sent_id), not on call order.
    """
    n = len(bleus)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for a list of {n}")
    keys = substream(rng_seed, TIE_BREAK_PURPOSE, sent_id).random(n)
    return np.lexsort((keys, -np.asarray(bleus, dtype=float)))[:k].tolist()
