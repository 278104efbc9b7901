"""BLEU statistics, smoothing values, and BLEU-ordered rankings."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank.bleu import (
    MAX_N,
    TIE_BREAK_PURPOSE,
    BleuStats,
    ReferenceStats,
    corpus_bleu,
    ground_truth_ranking,
    sentence_bleu,
)
from plrank.rng import substream


def stats(hyp, refs):
    return ReferenceStats([r.split() for r in refs]).stats_for(hyp.split())


class TestNgramStats:
    def test_perfect_match_counts(self):
        s = stats("a b c d e", ["a b c d e"])
        assert s.match == (5, 4, 3, 2)
        assert s.total == (5, 4, 3, 2)
        assert s.hyp_len == 5 and s.ref_len == 5

    def test_clipping_against_reference_counts(self):
        s = stats("a a a", ["a a"])
        assert s.match[0] == 2  # only two 'a' available in the reference
        assert s.total[0] == 3

    def test_clipping_uses_max_over_references(self):
        s = stats("a a a", ["a a", "a a a"])
        assert s.match[0] == 3

    def test_swapped_bigram_example(self):
        s = stats("a b", ["b a"])
        assert s.match == (2, 0, 0, 0)
        assert s.total == (2, 1, 0, 0)

    def test_ref_len_closest_with_ties_to_shorter(self):
        refs = [["a"] * 2, ["a"] * 4]
        assert ReferenceStats(refs).stats_for(["a"] * 3).ref_len == 2  # tie -> shorter
        assert ReferenceStats(refs).stats_for(["a"] * 4).ref_len == 4
        assert ReferenceStats(refs).stats_for(["a"] * 1).ref_len == 2

    def test_empty_hypothesis(self):
        s = stats("", ["a b"])
        assert s.hyp_len == 0
        assert s.total == (0, 0, 0, 0)

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError):
            ReferenceStats([]).stats_for(["a"])

    def test_additive(self):
        a = stats("a b c", ["a b"])
        b = stats("x y", ["x y z"])
        both = a + b
        assert both.match == tuple(x + y for x, y in zip(a.match, b.match))
        assert both.total == tuple(x + y for x, y in zip(a.total, b.total))
        assert both.hyp_len == a.hyp_len + b.hyp_len
        assert both.ref_len == a.ref_len + b.ref_len

    def test_zero_is_additive_identity(self):
        a = stats("a b c", ["a b"])
        assert BleuStats.zero() + a == a


def slow_ngram_counts(tokens, max_n):
    counts = Counter()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def slow_stats(hyp_tokens, refs, max_n):
    """Nested-loop reference: clip against the max count over references,
    count hypothesis n-grams one by one."""
    clip = Counter()
    for ref in refs:
        for gram, count in slow_ngram_counts(ref, max_n).items():
            if count > clip[gram]:
                clip[gram] = count
    match = [0] * max_n
    total = [0] * max_n
    for gram, count in slow_ngram_counts(hyp_tokens, max_n).items():
        n = len(gram)
        total[n - 1] += count
        match[n - 1] += min(count, clip.get(gram, 0))
    hyp_len = len(hyp_tokens)
    ref_len = min((len(r) for r in refs), key=lambda n: (abs(n - hyp_len), n))
    return BleuStats(tuple(match), tuple(total), hyp_len, ref_len)


def sentences(vocab, min_size=0):
    return st.lists(st.sampled_from(vocab), min_size=min_size, max_size=12).map(tuple)


@st.composite
def scoring_cases(draw):
    """(hypotheses, references) over a 3-6 word vocabulary, so
    n-grams repeat and clip often; the empty hypothesis is always present."""
    vocab = [f"w{i}" for i in range(draw(st.integers(3, 6)))]
    refs = draw(st.lists(sentences(vocab, min_size=1), min_size=1, max_size=3))
    hyps = draw(st.lists(sentences(vocab), min_size=1, max_size=6))
    return [(), *hyps], refs


@st.composite
def scoring_lists(draw):
    """(hypotheses scored first, one at a time; a list; references).
    The list holds the empty hypothesis, one whose every token is out of
    the references' vocabulary, and one hypothesis twice; the first draw
    turns part of it into memo hits."""
    hyps, refs = draw(scoring_cases())
    out_of_vocab = draw(sentences(["u0", "u1"], min_size=1))
    lst = draw(st.permutations([*hyps, out_of_vocab, hyps[-1]]))
    return draw(st.lists(st.sampled_from(lst), max_size=3)), lst, refs


class TestReferenceStatsProperties:
    @settings(max_examples=60, deadline=None)
    @given(scoring_lists())
    def test_list_scores_match_nested_loop_reference(self, case):
        seen, lst, refs = case
        profile = ReferenceStats(refs)
        for hyp in seen:
            profile.stats_for(hyp)
        bleus = profile.sentence_bleus(lst)
        expected = [slow_stats(hyp, refs, MAX_N) for hyp in lst]
        got = [profile.stats_for(hyp) for hyp in lst]
        assert got == expected
        assert all(type(x) is int for s in got for x in (*s.match, *s.total))
        assert bleus == [sentence_bleu(s) for s in expected]

    @settings(max_examples=40, deadline=None)
    @given(scoring_cases(), st.data())
    def test_list_extending_the_last_one_passes_only_its_tail(self, case, data):
        # a tuning pool grows by appending each round's new hypotheses
        hyps, refs = case
        profile = ReferenceStats(refs)
        passed = []
        stats_for = profile.stats_for
        profile.stats_for = lambda hyp: passed.append(tuple(hyp)) or stats_for(hyp)
        lst = []
        for _ in range(4):
            tail = data.draw(st.lists(st.sampled_from(hyps), max_size=4))
            extends = data.draw(st.booleans())
            lst = lst + tail if extends else tail
            passed.clear()
            bleus = profile.sentence_bleus(lst)
            assert bleus == [sentence_bleu(slow_stats(hyp, refs, MAX_N)) for hyp in lst]
            if extends:
                assert passed == [tuple(hyp) for hyp in tail]

    def test_reference_vocabulary_above_two_to_the_sixteen(self):
        # 70,000 distinct tokens: 4-gram keys built as vocab**4 would pass 2**63
        ref = [f"t{i}" for i in range(70_000)]
        hyp = ref[-5:] + ref[:3] + ["oov"] + ref[100:104]
        s = ReferenceStats([ref]).stats_for(hyp)
        assert s.match == (12, 9, 6, 3)
        assert s.total == (13, 12, 11, 10)
        assert s == slow_stats(hyp, [ref], 4)

    @settings(max_examples=60, deadline=None)
    @given(scoring_cases())
    def test_stats_match_nested_loop_reference(self, case):
        hyps, refs = case
        profile = ReferenceStats(refs)
        for hyp in hyps:
            assert profile.stats_for(hyp) == slow_stats(hyp, refs, MAX_N)

    @settings(max_examples=30, deadline=None)
    @given(scoring_cases())
    def test_memo_hit_equals_fresh_profile(self, case):
        hyps, refs = case
        shared = ReferenceStats(refs)
        first = [shared.stats_for(h) for h in hyps]
        # a second pass is served from the memo, also for list-typed tokens
        again = [shared.stats_for(list(h)) for h in reversed(hyps)][::-1]
        fresh = [ReferenceStats(refs).stats_for(h) for h in hyps]
        assert first == again == fresh
        assert all(a is b for a, b in zip(first, again))


class TestSentenceBleu:
    def test_perfect_match_scores_one(self):
        assert sentence_bleu(stats("a b c d e", ["a b c d e"])) == pytest.approx(1.0)

    def test_swapped_bigram_value(self):
        # match=(2,0,0,0), total=(2,1,0,0): exp(mean log((m+1)/(t+1))) = 2^-1/4
        value = sentence_bleu(stats("a b", ["b a"]))
        assert value == pytest.approx(2.0 ** -0.25, abs=1e-12)
        assert value == pytest.approx(0.8408964152537145, abs=1e-12)

    def test_empty_hypothesis_scores_zero(self):
        assert sentence_bleu(stats("", ["a b"])) == 0.0

    def test_no_matches_still_positive(self):
        # add-one smoothing keeps disjoint hypotheses comparable
        assert sentence_bleu(stats("x y z", ["a b c"])) > 0.0

    def test_brevity_penalty_only_when_short(self):
        short = stats("a b", ["a b c d"])  # hyp_len 2, ref_len 4
        assert sentence_bleu(short) == pytest.approx(
            math.exp(1 - 4 / 2) * math.exp(
                (math.log(3 / 3) + math.log(2 / 2) + math.log(1 / 1) + math.log(1 / 1)) / 4
            ),
            abs=1e-12,
        )
        long = stats("a b c d e", ["a b"])  # hyp longer than ref: no penalty
        m, t = long.match, long.total
        expected = math.exp(sum(math.log((mi + 1) / (ti + 1)) for mi, ti in zip(m, t)) / 4)
        assert sentence_bleu(long) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_matches(self):
        worse = BleuStats((2, 1, 0, 0), (4, 3, 2, 1), 4, 4)
        better = BleuStats((3, 1, 0, 0), (4, 3, 2, 1), 4, 4)
        assert sentence_bleu(better) > sentence_bleu(worse)


class TestCorpusBleu:
    def test_identical_corpus_scores_one(self):
        total = stats("a b c d", ["a b c d"]) + stats("x y z w", ["x y z w"])
        assert corpus_bleu(total) == pytest.approx(1.0)

    def test_zero_when_any_order_unmatched(self):
        # bigram matches exist, 4-gram matches do not
        total = stats("a b c x", ["a b c y"])
        assert total.match[3] == 0
        assert corpus_bleu(total) == 0.0

    def test_zero_when_no_total(self):
        assert corpus_bleu(stats("a b", ["a b"])) == 0.0  # no 3-grams at all

    def test_unsmoothed_value(self):
        total = stats("a b c d e", ["a b c d e"]) + stats("a b c d x", ["a b c d y"])
        m, t = total.match, total.total
        expected = math.exp(sum(math.log(mi / ti) for mi, ti in zip(m, t)) / 4)
        assert corpus_bleu(total) == pytest.approx(expected, abs=1e-12)

    def test_statistics_pool_before_scoring(self):
        a = stats("a b c d e", ["a b c d e"])
        b = stats("a b c x y", ["a b c z w"])
        pooled = corpus_bleu(a + b)
        averaged = (corpus_bleu(a) + corpus_bleu(b)) / 2
        expected = (0.8 * 0.75 * (4 / 6) * 0.5) ** 0.25
        assert pooled == pytest.approx(expected, abs=1e-12)
        assert pooled != averaged  # pooling is not score averaging


class TestRanking:
    def test_orders_by_bleu_descending(self):
        assert ground_truth_ranking([0.3, 0.9, 0.5], 3, 0, 0) == [1, 2, 0]

    def test_truncates_to_k(self):
        assert ground_truth_ranking([0.3, 0.9, 0.5], 1, 0, 0) == [1]

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            ground_truth_ranking([0.3, 0.9, 0.5], k, 0, 0)

    def test_tie_groups_shuffled_uniformly(self):
        # three exactly tied scores: all 6 orders should be equally frequent
        counts = Counter()
        seeds = 6000
        for seed in range(seeds):
            counts[tuple(ground_truth_ranking([0.5, 0.5, 0.5], 3, seed, 0))] += 1
        assert len(counts) == 6
        _, p = scipy.stats.chisquare(list(counts.values()))
        assert p > 0.01, f"tied orders not uniform: p={p}"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_sorted_oracle(self, data):
        # few distinct values, so most lists hold exact ties, and 0.0 negates to -0.0
        bleus = data.draw(
            st.lists(st.sampled_from([0.0, 0.125, 0.5, 1.0]), min_size=1, max_size=40), label="bleus"
        )
        n = len(bleus)
        k = data.draw(st.integers(1, n), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        sent_id = data.draw(st.integers(0, 10**6), label="sent_id")
        keys = substream(seed, TIE_BREAK_PURPOSE, sent_id).random(n)
        oracle = sorted(range(n), key=lambda i: (-bleus[i], keys[i]))[:k]
        # training passes a numpy array, the other callers a list
        as_array = data.draw(st.booleans(), label="as_array")
        ranks = ground_truth_ranking(np.array(bleus) if as_array else bleus, k, seed, sent_id)
        assert ranks == oracle

    def test_ties_do_not_cross_bleu_levels(self):
        for seed in range(50):
            order = ground_truth_ranking([0.2, 0.8, 0.2, 0.8], 4, seed, 0)
            assert sorted(order[:2]) == [1, 3]
            assert sorted(order[2:]) == [0, 2]


class TestGroundTruthPermutation:
    """Sentence BLEU of a list, ranked by ground_truth_ranking."""

    def ranks(self, k, rng_seed):
        profile = ReferenceStats([("a", "b", "c", "d")])
        bleus = profile.sentence_bleus([t.split() for t in ["a x y d", "a b c d", "a b c z"]])
        return tuple(ground_truth_ranking(bleus, k, rng_seed, 7))

    def test_orders_by_sentence_bleu(self):
        assert self.ranks(3, rng_seed=1) == (1, 2, 0)

    def test_k_prefix(self):
        assert self.ranks(2, rng_seed=1) == (1, 2)

    def test_deterministic_in_seed(self):
        assert self.ranks(3, rng_seed=5) == self.ranks(3, rng_seed=5)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            self.ranks(4, rng_seed=1)

    def test_full_k_is_a_permutation(self):
        assert sorted(self.ranks(3, rng_seed=9)) == [0, 1, 2]
