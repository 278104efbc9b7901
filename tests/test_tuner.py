"""Reranking, the synthetic decoder, and the outer tuning loop."""

import builtins
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.stats

from plrank.bleu import ReferenceStats, sentence_bleu
from plrank.corpus import (
    Corpus,
    DataError,
    NBestList,
    parse_nbest,
    parse_refs,
    weights_vector,
    write_nbest,
)
from plrank.trainer import RICHNESS_THRESHOLD, TrainConfig
from plrank.tuner import (
    SyntheticDecoder,
    SyntheticDecoderSpec,
    TuneConfig,
    rerank,
    run_tuning,
    synthetic_decode,
    synthetic_references,
)

NBEST = (
    "0 ||| a ||| f=1.0 ||| 0.0\n"
    "0 ||| b ||| f=3.0 ||| 0.0\n"
    "0 ||| c ||| f=2.0 ||| 0.0\n"
    "1 ||| d ||| g=1.0 ||| 0.0\n"
    "1 ||| e ||| f=1.0 g=1.0 ||| 0.0\n"
)


class TestRerank:
    def test_sorts_by_model_score(self):
        corpus = parse_nbest(NBEST)
        out = rerank(corpus, np.array([1.0, 0.0]), top=3)
        assert [h.tokens[0] for h in out[0].hypotheses] == ["b", "c", "a"]

    def test_truncates_to_top(self):
        corpus = parse_nbest(NBEST)
        out = rerank(corpus, np.array([1.0, 0.0]), top=1)
        assert [len(lst.hypotheses) for lst in out] == [1, 1]
        assert out[1].hypotheses[0].tokens == ("e",)

    def test_zero_weights_preserve_input_order(self):
        corpus = parse_nbest(NBEST)
        out = rerank(corpus, np.zeros(2), top=3)
        assert [h.tokens[0] for h in out[0].hypotheses] == ["a", "b", "c"]

    def test_ties_keep_input_order(self):
        corpus = parse_nbest(
            "0 ||| a ||| f=1.0 g=0.0 ||| 0.0\n"
            "0 ||| b ||| f=0.0 g=1.0 ||| 0.0\n"
            "0 ||| c ||| f=2.0 ||| 0.0\n"
        )
        out = rerank(corpus, np.array([1.0, 1.0]), top=3)
        assert [h.tokens[0] for h in out[0].hypotheses] == ["c", "a", "b"]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        corpus = parse_nbest(NBEST)
        for _ in range(20):
            w = rng.standard_normal(2)
            out = rerank(corpus, w, top=3)[0]
            def score(h):
                return sum(w[corpus.feature_index[n]] * v for n, v in h.features.items())
            expected = sorted(corpus.lists[0].hypotheses, key=score, reverse=True)
            assert [h.tokens for h in out.hypotheses] == [h.tokens for h in expected]

    def test_scale_invariant_order(self):
        corpus = parse_nbest(NBEST)
        w = np.array([0.7, -0.2])
        a = rerank(corpus, w, top=3)
        b = rerank(corpus, 3.5 * w, top=3)
        assert [h.tokens for h in a[0].hypotheses] == [h.tokens for h in b[0].hypotheses]

    def test_rejects_bad_top(self):
        with pytest.raises(ValueError):
            rerank(parse_nbest(NBEST), np.zeros(2), top=0)


def small_spec(**kw):
    defaults = dict(num_sentences=4, feature_dim=12, noise_scale=0.1, seed=11, ref_len=25)
    defaults.update(kw)
    return SyntheticDecoderSpec(**defaults)


_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """builtin sum() as Python 3.12 adds a run of floats."""
    items = list(iterable)
    if not items or type(start) not in (int, float) or any(type(x) is not float for x in items):
        return _builtin_sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


# 6 features per hypothesis, and 20: past 16, a dot product of that length may sum in blocks
PINNED_DECODES = [
    (
        dict(num_sentences=3, feature_dim=40, noise_scale=0.3, seed=3, ref_len=12, features_per_hyp=6),
        "caa3e77db415013513b0712b57e34e83b21895383c536d1fd0e7e5353b81aa8a",
    ),
    (
        dict(num_sentences=2, feature_dim=64, noise_scale=0.5, seed=8, ref_len=9, features_per_hyp=20),
        "9659f5ca9b902e8d68448a9204eed83a782921dcc40367436b75dbd89501efb9",
    ),
]


def pinned_decode_digest(kw):
    spec = SyntheticDecoderSpec(**kw)
    refs = synthetic_references(spec)
    weights = {f"f{i}": (-1) ** i * 0.25 * (i % 7) for i in range(0, spec.feature_dim, 3)}
    text = "".join(write_nbest(synthetic_decode(spec, refs, weights, r, 25)) for r in (1, 2))
    return hashlib.sha256(text.encode()).hexdigest()


class TestSyntheticDecode:
    def test_honors_size_and_sentences(self):
        spec = small_spec()
        refs = synthetic_references(spec)
        corpus = synthetic_decode(spec, refs, {}, round_idx=1, size=15)
        assert len(corpus.lists) == 4
        assert all(len(lst.hypotheses) == 15 for lst in corpus.lists)

    def test_deterministic_per_seed_and_round(self):
        spec = small_spec()
        refs = synthetic_references(spec)
        a = synthetic_decode(spec, refs, {}, 2, 10)
        b = synthetic_decode(spec, refs, {}, 2, 10)
        assert a == b
        c = synthetic_decode(spec, refs, {}, 3, 10)
        assert a != c

    def test_hypotheses_are_reference_prefixes_plus_filler(self):
        spec = small_spec()
        refs = synthetic_references(spec)
        corpus = synthetic_decode(spec, refs, {}, 1, 10)
        ref = refs[0][0]
        for hyp in corpus.lists[0].hypotheses:
            assert len(hyp.tokens) == len(ref)
            shared = 0
            while shared < len(ref) and hyp.tokens[shared] == ref[shared]:
                shared += 1
            assert all(t not in ref for t in hyp.tokens[shared:])

    def test_zero_noise_bleu_order_matches_planted_order(self):
        spec = small_spec(noise_scale=0.0, ref_len=30)
        refs = synthetic_references(spec)
        corpus = synthetic_decode(spec, refs, {}, 1, 20)
        for lst in corpus.lists:
            profile = ReferenceStats(refs[lst.sent_id])
            bleus = [sentence_bleu(profile.stats_for(h.tokens)) for h in lst.hypotheses]
            planted = [
                sum(spec.latent_weights[int(n[1:])] * v for n, v in h.features.items())
                for h in lst.hypotheses
            ]
            assert np.argsort(bleus)[::-1].tolist() == np.argsort(planted)[::-1].tolist()

    def test_quality_rank_correlates_with_planted_score(self):
        spec = small_spec(num_sentences=1, ref_len=200, noise_scale=0.1, seed=5)
        refs = synthetic_references(spec)
        corpus = synthetic_decode(spec, refs, {}, 1, 200)
        lst = corpus.lists[0]
        profile = ReferenceStats(refs[0])
        bleus = [sentence_bleu(profile.stats_for(h.tokens)) for h in lst.hypotheses]
        planted = [
            sum(spec.latent_weights[int(n[1:])] * v for n, v in h.features.items())
            for h in lst.hypotheses
        ]
        tau = scipy.stats.kendalltau(planted, bleus).statistic
        assert tau >= 0.95, f"kendall tau {tau}"

    def test_decoder_scores_use_current_weights(self):
        spec = small_spec()
        refs = synthetic_references(spec)
        corpus = synthetic_decode(spec, refs, {"f0": 2.0}, 1, 5)
        for hyp in corpus.lists[0].hypotheses:
            assert hyp.decoder_score == pytest.approx(2.0 * hyp.features.get("f0", 0.0))

    def test_requires_enough_references(self):
        spec = small_spec(num_sentences=10)
        refs = synthetic_references(small_spec(num_sentences=2))
        with pytest.raises(DataError):
            synthetic_decode(spec, refs, {}, 1, 5)

    @pytest.mark.parametrize("kw, digest", PINNED_DECODES)
    def test_bytes_are_pinned(self, kw, digest):
        # test_09's data and every benchmark input are decoded lists, so a
        # faster decoder must write the very same bytes
        assert pinned_decode_digest(kw) == digest

    @pytest.mark.parametrize("kw, digest", PINNED_DECODES)
    def test_bytes_are_pinned_under_a_compensated_sum(self, kw, digest, monkeypatch):
        # from Python 3.12 builtin sum() adds floats with Neumaier
        # compensation; the decoder's scores and BLEU must not go through it
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # the stand-in compensates
        assert pinned_decode_digest(kw) == digest


def tune_cfg(**kw):
    train_cfg = kw.pop("train_cfg", TrainConfig(k=3, max_iters=40, seed=5))
    defaults = dict(train_cfg=train_cfg, max_rounds=3, resample_m=8)
    defaults.update(kw)
    return TuneConfig(**defaults)


class TestFrozenSettings:
    """A spec and a tuning config are checked once, when made, and then frozen."""

    @pytest.mark.parametrize(
        "make, field, value",
        [
            (small_spec, "seed", 2),
            (small_spec, "feature_dim", 10**9),
            (small_spec, "latent_weights", np.zeros(12)),
            (tune_cfg, "max_rounds", 0),
            (tune_cfg, "resample_m", 1),
        ],
    )
    def test_fields_cannot_be_assigned(self, make, field, value):
        settings = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(settings, field, value)

    def test_replaced_spec_is_checked_and_draws_its_own_planted_model(self):
        spec = small_spec(seed=1)
        reseeded = dataclasses.replace(spec, seed=2)
        # the planted model follows from the fields, so it is not compared
        assert reseeded == small_spec(seed=2) != spec
        assert np.array_equal(reseeded.latent_weights, small_spec(seed=2).latent_weights)
        assert not np.array_equal(reseeded.latent_weights, spec.latent_weights)
        with pytest.raises(ValueError, match="read-only"):
            spec.latent_weights[0] = 0.0
        refs = synthetic_references(spec)
        assert synthetic_decode(reseeded, refs, {}, 1, 10) == synthetic_decode(
            small_spec(seed=2), refs, {}, 1, 10
        )
        with pytest.raises(ValueError, match="^feature_dim must be in"):
            dataclasses.replace(spec, feature_dim=10**9)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(max_rounds=0), "^max_rounds must be >= 1, got 0$"),
            (dict(resample_m=1), "^resample_m must be >= 3, got 1$"),
        ],
    )
    def test_replaced_tune_config_is_checked(self, changes, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(tune_cfg(), **changes)


class TestRunTuning:
    def test_records_one_row_per_round(self):
        spec = small_spec()
        refs = synthetic_references(spec)
        decoder = SyntheticDecoder(spec, refs, 12)
        named, records = run_tuning(decoder, refs, tune_cfg())
        assert [r.round for r in records] == [1, 2, 3]
        assert set(named) <= {f"f{i}" for i in range(spec.feature_dim)}

    def test_corpus_size_non_decreasing(self):
        spec = small_spec()
        refs = synthetic_references(spec)
        decoder = SyntheticDecoder(spec, refs, 12)
        _, records = run_tuning(decoder, refs, tune_cfg())
        sizes = [r.corpus_size for r in records]
        assert sizes == sorted(sizes)

    def test_reproducible(self):
        spec = small_spec()
        refs = synthetic_references(spec)
        decoder = SyntheticDecoder(spec, refs, 12)
        a = run_tuning(decoder, refs, tune_cfg())
        b = run_tuning(decoder, refs, tune_cfg())
        assert a == b

    def test_fixed_pool_decoder_stops_early(self):
        spec = small_spec()
        refs = synthetic_references(spec)

        def fixed_pool(weights, round_idx):
            return synthetic_decode(spec, refs, weights, 1, 10)  # same pool every round

        _, records = run_tuning(fixed_pool, refs, tune_cfg(max_rounds=10))
        assert len(records) == 1  # round 2 adds nothing new

    def test_duplicate_in_first_round_does_not_stop_the_loop(self):
        rounds = {
            1: "0 ||| a b ||| f=1.0 ||| 0.0\n0 ||| a b ||| f=1.0 ||| 0.0\n0 ||| x y ||| g=1.0 ||| 0.0\n",
            2: "0 ||| a b c ||| f=2.0 ||| 0.0\n",
        }
        later = "0 ||| a b c d ||| f=3.0 ||| 0.0\n"

        def decoder(weights, round_idx):
            return parse_nbest(rounds.get(round_idx, later))

        _, records = run_tuning(decoder, parse_refs("0 ||| a b c d\n"), tune_cfg(max_rounds=10))
        # round 1 is deduplicated like every later round, so round 2's one new
        # hypothesis counts; round 4 repeats round 3 and stops the loop
        assert [r.corpus_size for r in records] == [2, 3, 4]

    def test_empty_first_round_rejected(self):
        refs = synthetic_references(small_spec())

        def empty(weights, round_idx):
            return Corpus((), {})

        with pytest.raises(DataError):
            run_tuning(empty, refs, tune_cfg())

    def test_first_round_of_empty_lists_rejected(self):
        refs = synthetic_references(small_spec())

        def empty_lists(weights, round_idx):
            return Corpus((NBestList(0, ()), NBestList(1, ())), {})

        with pytest.raises(DataError, match="^decoder produced no hypotheses on round 1$"):
            run_tuning(empty_lists, refs, tune_cfg())

    def test_single_round_matches_direct_training(self):
        spec = small_spec()
        refs = synthetic_references(spec)
        decoder = SyntheticDecoder(spec, refs, 12)
        cfg = tune_cfg(max_rounds=1)
        named, records = run_tuning(decoder, refs, cfg)
        assert len(records) == 1

        from dataclasses import replace
        from plrank.rng import derive_seed
        from plrank.trainer import richness, train

        corpus = decoder({}, 1)
        sample = cfg.resample_m if richness(corpus).r < RICHNESS_THRESHOLD else None
        round_cfg = replace(
            cfg.train_cfg,
            sample_size=sample,
            seed=derive_seed(cfg.train_cfg.seed, "round", 1),
        )
        report = train(corpus, refs, round_cfg)
        w, _ = weights_vector(named, corpus.feature_index)
        np.testing.assert_array_equal(w, report.final_weights)

    def test_work_scales_with_fresh_hypotheses(self, monkeypatch):
        # each decoded hypothesis gets its feature row once, when its round's
        # corpus is made, and its BLEU statistics once; the pool reuses both
        import plrank.corpus
        import plrank.trainer
        import plrank.tuner

        spec = small_spec(feature_dim=10, ref_len=12)
        refs = synthetic_references(spec)
        decode = SyntheticDecoder(spec, refs, 9)
        decoded = []

        def decoder(weights, round_idx):
            corpus = decode(weights, round_idx)
            decoded.extend((lst.sent_id, h.tokens) for lst in corpus.lists for h in lst.hypotheses)
            return corpus

        rows = []
        build = plrank.corpus.feature_matrix

        def counted(lst, feature_index):
            rows.append(len(lst))
            return build(lst, feature_index)

        for module in (plrank.corpus, plrank.trainer, plrank.tuner):
            monkeypatch.setattr(module, "feature_matrix", counted)
        scored = []
        score = ReferenceStats._score

        def recorded(self, hyps):
            scored.extend((self, key) for key in hyps)
            return score(self, hyps)

        monkeypatch.setattr(ReferenceStats, "_score", recorded)
        _, records = run_tuning(decoder, refs, tune_cfg(max_rounds=4))
        assert len(records) == 4
        assert sum(rows) == len(decoded) == 4 * 9 * spec.num_sentences
        sent_of = {id(refs.profile(sid)): sid for sid in refs.by_sent}
        assert len(scored) == len(set(scored))
        assert {(sent_of[id(profile)], key) for profile, key in scored} == set(decoded)

    def test_low_richness_triggers_resampling(self):
        # feature_dim small relative to list size: r < 5 from round 1
        spec = small_spec(feature_dim=8, ref_len=40)
        refs = synthetic_references(spec)
        decoder = SyntheticDecoder(spec, refs, 30)
        cfg = tune_cfg(max_rounds=2, resample_m=6)
        _, records = run_tuning(decoder, refs, cfg)
        assert records[0].richness < 5.0


def test_reimport_frees_the_corpus_module():
    # a module-level alias parametrized with a class would sit in typing's
    # cache and keep every re-imported plrank.corpus alive
    script = textwrap.dedent(
        """
        import gc, sys, weakref
        import plrank.tuner
        ref = weakref.ref(sys.modules["plrank.corpus"].Corpus)
        for name in [m for m in sys.modules if m == "plrank" or m.startswith("plrank.")]:
            del sys.modules[name]
        import plrank.tuner
        gc.collect()
        assert ref() is None, "the first plrank.corpus.Corpus is still alive"
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
