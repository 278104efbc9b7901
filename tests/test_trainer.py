"""Optimizer behavior, list resampling, richness, and end-to-end training."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank.bleu import ReferenceStats, sentence_bleu
from plrank.corpus import (
    Corpus,
    DataError,
    Hypothesis,
    NBestList,
    ReferenceSet,
    dedup,
    feature_matrix,
    parse_nbest,
)
from plrank.trainer import (
    TrainConfig,
    build_instances,
    lbfgs_maximize,
    resample,
    richness,
    train,
)


def quadratic(w_star, scale=1.0):
    def f_and_grad(w):
        d = w - w_star
        return -0.5 * scale * float(d @ d), -scale * d

    return f_and_grad


class TestLbfgs:
    def test_identity_quadratic_in_one_step(self):
        w_star = np.arange(10.0)
        report = lbfgs_maximize(quadratic(w_star), np.zeros(10), TrainConfig())
        assert report.converged
        assert report.iterations_used <= 2
        np.testing.assert_allclose(report.final_weights, w_star, atol=1e-8)

    def test_random_conditioned_quadratic(self):
        rng = np.random.default_rng(3)
        w_star = rng.standard_normal(10)
        basis = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        hess = basis @ np.diag(rng.uniform(0.5, 5.0, 10)) @ basis.T

        def f_and_grad(w):
            d = w - w_star
            return -0.5 * float(d @ hess @ d), -(hess @ d)

        cfg = TrainConfig(max_iters=25, grad_tol=1e-10)
        report = lbfgs_maximize(f_and_grad, np.zeros(10), cfg)
        assert report.converged
        assert report.iterations_used <= 25
        assert np.abs(report.final_weights - w_star).max() <= 1e-8

    def test_zero_iterations_when_already_optimal(self):
        w_star = np.ones(4)
        report = lbfgs_maximize(quadratic(w_star), w_star.copy(), TrainConfig())
        assert report.converged
        assert report.iterations_used == 0
        assert len(report.history) == 1
        assert report.history[0][0] == 0

    def test_max_iters_one_takes_exactly_one_step(self):
        report = lbfgs_maximize(quadratic(np.ones(6) * 3), np.zeros(6), TrainConfig(max_iters=1))
        assert report.iterations_used == 1
        assert len(report.history) == 2

    def test_history_objectives_non_decreasing(self):
        rng = np.random.default_rng(4)
        report = lbfgs_maximize(
            quadratic(rng.standard_normal(8)), rng.standard_normal(8), TrainConfig()
        )
        objs = [obj for _, obj, _ in report.history]
        assert all(b >= a for a, b in zip(objs, objs[1:]))

    def test_history_rows_are_iteration_objective_gradnorm(self):
        report = lbfgs_maximize(quadratic(np.ones(3)), np.zeros(3), TrainConfig())
        assert [row[0] for row in report.history] == list(range(len(report.history)))
        assert report.history[-1][2] <= 1e-6  # converged gradient norm

    def test_line_search_failure_reports_not_converged(self):
        # unbounded linear objective: no step can satisfy the curvature condition
        report = lbfgs_maximize(
            lambda w: (float(w.sum()), np.ones_like(w)), np.zeros(3), TrainConfig()
        )
        assert not report.converged

    def test_non_finite_objective_names_iteration(self):
        def bad(w):
            return float("nan"), np.zeros(3)

        with pytest.raises(ValueError, match="iteration 0"):
            lbfgs_maximize(bad, np.zeros(3), TrainConfig())

    def test_non_finite_gradient_mid_run_names_iteration(self):
        def explodes(w):
            if np.abs(w).sum() > 0:
                return float(w.sum()), np.full(3, np.nan)
            return 0.0, np.ones(3)

        with pytest.raises(ValueError, match="iteration 1"):
            lbfgs_maximize(explodes, np.zeros(3), TrainConfig())

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_concave_quadratic_runs_keep_the_loop_contract(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        eigs = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n), label="eigs"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        max_iters = data.draw(st.integers(1, 40), label="max_iters")
        grad_tol = data.draw(st.sampled_from([1e-8, 1e-6, 1e-3, 1.0]), label="grad_tol")
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        hess = basis @ np.diag(eigs) @ basis.T
        b = rng.standard_normal(n) * 3

        def f_and_grad(w):
            return float(b @ w - 0.5 * (w @ hess @ w)), b - hess @ w

        cfg = TrainConfig(max_iters=max_iters, grad_tol=grad_tol)
        report = lbfgs_maximize(f_and_grad, rng.standard_normal(n), cfg)
        iterations, objs, norms = zip(*report.history)
        assert all(later >= earlier for earlier, later in zip(objs, objs[1:]))
        assert iterations == tuple(range(len(report.history)))
        assert report.iterations_used <= max_iters
        # the loop stops at the first row at or below grad_tol, and only there
        assert all(norm > grad_tol for norm in norms[:-1])
        assert report.converged == (norms[-1] <= grad_tol)
        if report.converged:
            # |w - w*|_2 <= |H^-1|_2 |g|_2 <= sqrt(n) |g|_inf / min(eigs)
            bound = np.sqrt(n) * grad_tol / eigs.min() * (1 + 1e-6) + 1e-9
            assert np.abs(report.final_weights - np.linalg.solve(hess, b)).max() <= bound

    def test_config_validation(self):
        for bad in [
            dict(k=0),
            dict(max_iters=0),
            dict(grad_tol=0.0),
            dict(l2_scale=-1.0),
            dict(l2_scale=float("nan")),
            dict(l2_scale=float("inf")),
            dict(sample_size=2),
        ]:
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    def test_config_cannot_be_changed_past_its_checks(self):
        # resampling trusts sample_size >= 3 because the config checked it
        cfg = TrainConfig(sample_size=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sample_size = 2
        assert dataclasses.replace(cfg, sample_size=None).sample_size is None
        with pytest.raises(ValueError, match="^sample_size must be >= 3, got 2$"):
            dataclasses.replace(cfg, sample_size=2)


def make_list(sent_id, n, feature_index):
    hyps = tuple(
        Hypothesis((f"t{i}",), {name: 1.0 for name in feature_index}, 0.0)
        for i in range(n)
    )
    return NBestList(sent_id, hyps)


class TestResample:
    def setup_method(self):
        self.index = {"f": 0}
        self.w = np.zeros(1)

    def call(self, n, m, bleus=None, seed=0, scores=None):
        lst = make_list(0, n, self.index)
        if bleus is None:
            bleus = np.linspace(0, 1, n)
        return resample(lst, bleus, m, self.w, self.index, seed), bleus

    def test_small_sample_splits_into_thirds(self):
        out, bleus = self.call(50, 30)
        assert len(out.hypotheses) == 30

    def test_identity_when_m_not_smaller(self):
        lst = make_list(0, 10, self.index)
        bleus = np.linspace(0, 1, 10)
        assert resample(lst, bleus, 10, self.w, self.index, 0) is lst
        assert resample(lst, bleus, 99, self.w, self.index, 0) is lst

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            self.call(10, 2)

    def test_rejects_one_bleu_too_few(self):
        lst = make_list(0, 10, self.index)
        with pytest.raises(ValueError, match="^one BLEU score per hypothesis required$"):
            resample(lst, np.zeros(9), 5, self.w, self.index, 0)

    def test_feature_outside_the_index_is_rejected(self):
        lst = make_list(6, 10, {"f": 0, "g": 1})
        with pytest.raises(DataError, match="^sentence 6: feature 'g' is not in the feature index$"):
            resample(lst, np.linspace(0, 1, 10), 5, np.zeros(1), {"f": 0}, 0)

    def test_list_no_longer_than_m_is_returned_before_building_rows(self, monkeypatch):
        import plrank.trainer

        def no_rows(*args):
            raise AssertionError("feature_matrix called")

        monkeypatch.setattr(plrank.trainer, "feature_matrix", no_rows)
        # the empty index would reject every hypothesis if a row were built
        lst = make_list(0, 10, self.index)
        assert resample(lst, np.linspace(0, 1, 10), 10, self.w, {}, 0) is lst
        assert resample(lst, np.linspace(0, 1, 10), 11, self.w, {}, 0) is lst

    def test_keeps_best_and_worst_thirds(self):
        n, m = 40, 9
        out, bleus = self.call(n, m)
        kept = {h.tokens for h in out.hypotheses}
        best = {(f"t{i}",) for i in np.argsort(-bleus)[:3]}
        worst = {(f"t{i}",) for i in np.argsort(bleus)[:3]}
        assert best <= kept and worst <= kept

    def test_preserves_original_relative_order(self):
        out, _ = self.call(60, 12, seed=5)
        positions = [int(h.tokens[0][1:]) for h in out.hypotheses]
        assert positions == sorted(positions)

    def test_deterministic_given_seed(self):
        a, _ = self.call(60, 12, seed=9)
        b, _ = self.call(60, 12, seed=9)
        assert a == b

    def test_m_of_four_keeps_one_best_one_worst_two_drawn(self):
        out, bleus = self.call(20, 4)
        kept = {h.tokens for h in out.hypotheses}
        assert len(kept) == 4
        assert (f"t{int(np.argmax(bleus))}",) in kept
        assert (f"t{int(np.argmin(bleus))}",) in kept

    def test_weighted_draws_follow_scores(self):
        # one unchosen hypothesis has overwhelming weight: always drawn
        index = {"f": 0}
        n, m = 9, 3
        hyps = tuple(
            Hypothesis((f"t{i}",), {"f": 50.0 if i == 4 else 0.0}, 0.0) for i in range(n)
        )
        lst = NBestList(0, hyps)
        bleus = np.linspace(0, 1, n)
        for seed in range(10):
            out = resample(lst, bleus, m, np.ones(1), index, seed)
            assert (f"t4",) in {h.tokens for h in out.hypotheses}

    def test_tied_anchors_stay_disjoint(self):
        out, _ = self.call(31, 30, bleus=np.zeros(31))
        assert len(out.hypotheses) == 30
        assert len({h.tokens for h in out.hypotheses}) == 30

    def test_score_spread_past_exp_underflow_keeps_drawing(self):
        # after t2 (score 0) is drawn, exp(-1000) and exp(-2000) both underflow
        # when weighted against the pool's first maximum; t3 must still be drawn
        values = [0, 0, 0, -1000, -2000, 0, 0]
        hyps = (Hypothesis((f"t{i}",), {"f": float(v)}, 0.0) for i, v in enumerate(values))
        lst = NBestList(0, tuple(hyps))
        bleus = [1.0, 0.9, 0.5, 0.5, 0.5, 0.1, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = resample(lst, bleus, 6, np.ones(1), {"f": 0}, 0)
        assert [h.tokens[0] for h in out.hypotheses] == ["t0", "t1", "t2", "t3", "t5", "t6"]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_finite_score_spread_keeps_m_with_both_extremes(self, data):
        n = data.draw(st.integers(4, 30), label="n")
        m = data.draw(st.integers(3, n - 1), label="m")
        spread = data.draw(st.floats(0.0, 1e4), label="spread")
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), label="values")
        bleus = data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n), label="bleus"
        )
        seed = data.draw(st.integers(0, 99), label="seed")
        hyps = (Hypothesis((f"t{i}",), {"f": spread * v}, 0.0) for i, v in enumerate(values))
        lst = NBestList(3, tuple(hyps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = resample(lst, bleus, m, np.ones(1), {"f": 0}, seed)
        kept = [int(h.tokens[0][1:]) for h in out.hypotheses]
        assert len(kept) == m and kept == sorted(set(kept))
        # ties go to the lower index, and the worst are taken from what the best left
        take = m // 3
        best = sorted(range(n), key=lambda i: (-bleus[i], i))[:take]
        worst = [i for i in sorted(range(n), key=lambda i: (bleus[i], i)) if i not in best][:take]
        assert set(best) | set(worst) <= set(kept)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_build_instances_keeps_what_resample_keeps(self, seed):
        from plrank.tuner import SyntheticDecoderSpec, synthetic_decode, synthetic_references

        spec = SyntheticDecoderSpec(num_sentences=4, feature_dim=30, seed=seed, ref_len=12)
        refs = synthetic_references(spec)
        corpus = synthetic_decode(spec, refs, {}, 1, 25)
        w = np.random.default_rng(seed).standard_normal(len(corpus.feature_index))
        cfg = TrainConfig(k=3, sample_size=9, seed=seed)
        instances = build_instances(corpus, refs, cfg, w)
        for lst, inst in zip(corpus.lists, instances):
            lst, _ = dedup(lst)
            profile = ReferenceStats(refs[lst.sent_id])
            bleus = [sentence_bleu(profile.stats_for(h.tokens)) for h in lst.hypotheses]
            kept = resample(lst, bleus, 9, w, corpus.feature_index, seed)
            assert len(kept.hypotheses) == 9 < len(lst.hypotheses)
            expected = feature_matrix(kept, corpus.feature_index)
            assert inst.features.shape == expected.shape
            assert (inst.features != expected).nnz == 0


    @pytest.mark.parametrize("sample_size", [None, 3])
    def test_build_instances_on_duplicates_matches_hand_deduplicated_lists(self, sample_size, monkeypatch):
        rng = np.random.default_rng(21)
        choices = ["a b", "b a", "a c", "c", "b c a", "a"]
        lists, by_hand = [], []
        for sid in range(3):
            hyps = []
            for _ in range(12):
                names = rng.choice(5, size=2, replace=False).tolist()
                features = {f"f{i}": float(rng.integers(-3, 4)) for i in names}
                hyps.append(Hypothesis(tuple(choices[rng.integers(len(choices))].split()), features, 0.0))
            lists.append(NBestList(sid, tuple(hyps)))
            first = {}
            for h in hyps:
                first.setdefault(h.tokens, h)
            assert 3 < len(first) < len(hyps)
            by_hand.append(NBestList(sid, tuple(first.values())))
        corpus = Corpus.from_lists(lists)
        deduped = Corpus(tuple(by_hand), corpus.feature_index)
        refs = {sid: (("a", "b", "c"),) for sid in range(3)}

        bleus = []
        scored = ReferenceStats.sentence_bleus

        def spy(self, hyps):
            bleus.append(scored(self, hyps))
            return bleus[-1]

        monkeypatch.setattr(ReferenceStats, "sentence_bleus", spy)
        cfg = TrainConfig(k=3, sample_size=sample_size, seed=4)
        w = rng.standard_normal(len(corpus.feature_index))
        got = build_instances(corpus, ReferenceSet(dict(refs)), cfg, w)
        expected = build_instances(deduped, ReferenceSet(dict(refs)), cfg, w)
        assert bleus[:3] == bleus[3:]
        for g, e in zip(got, expected, strict=True):
            assert g.sent_id == e.sent_id
            np.testing.assert_array_equal(g.ranks, e.ranks)
            assert g.features.shape == e.features.shape
            assert (g.features != e.features).nnz == 0


class TestRichness:
    def test_reference_scale_values(self):
        lists = []
        per_list = 300
        n_features = 7491
        for sid in range(2):
            hyps = []
            for i in range(per_list):
                owned = range(sid * per_list + i, n_features, 2 * per_list)
                hyps.append(
                    Hypothesis((f"t{i}",), {f"f{j}": 1.0 for j in owned}, 0.0)
                )
            lists.append(NBestList(sid, tuple(hyps)))
        corpus = Corpus.from_lists(lists)
        assert len(corpus.feature_index) == n_features
        report = richness(corpus)
        assert report.avg_list_size == pytest.approx(300.0)
        assert report.r == pytest.approx(24.97, abs=0.01)

    def test_small_fraction(self):
        corpus = parse_nbest(
            "0 ||| a ||| f1=1.0 ||| 0.0\n"
            "0 ||| b ||| f2=1.0 ||| 0.0\n"
            "1 ||| c ||| f3=1.0 f4=1.0 ||| 0.0\n"
        )
        report = richness(corpus)
        assert report.feature_count == 4
        assert report.avg_list_size == pytest.approx(1.5)
        assert report.r == pytest.approx(4 / 1.5, abs=1e-12)

    def test_r_times_avg_recovers_count(self):
        corpus = parse_nbest(
            "0 ||| a ||| f1=1.0 ||| 0.0\n0 ||| b ||| f2=1.0 ||| 0.0\n"
        )
        report = richness(corpus)
        assert report.r * report.avg_list_size == pytest.approx(
            report.feature_count, rel=1e-12
        )

    def test_duplicates_do_not_inflate_list_size(self):
        corpus = parse_nbest(
            "0 ||| a ||| f1=1.0 ||| 0.0\n"
            "0 ||| a ||| f1=1.0 ||| 0.0\n"
            "0 ||| b ||| f2=1.0 ||| 0.0\n"
        )
        assert richness(corpus).avg_list_size == pytest.approx(2.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            richness(Corpus((), {}))


def toy_training_setup(rng, n_sentences=30, n_hyps=8, n_features=10):
    """Lists whose BLEU order follows a planted linear model exactly."""
    names = [f"f{i}" for i in range(n_features)]
    w_star = rng.standard_normal(n_features)
    lists = []
    refs = {}
    for sid in range(n_sentences):
        ref = tuple(f"s{sid}w{j}" for j in range(n_hyps))
        refs[sid] = (ref,)
        feats = rng.standard_normal((n_hyps, n_features))
        scores = feats @ w_star
        order = np.argsort(-scores)
        prefix_of_rank = {int(order[r]): n_hyps - r for r in range(n_hyps)}
        hyps = []
        for j in range(n_hyps):
            prefix = prefix_of_rank[j]
            tokens = ref[:prefix] + tuple(f"x{sid}j{j}p{t}" for t in range(prefix, n_hyps))
            hyps.append(
                Hypothesis(tokens, {n: float(v) for n, v in zip(names, feats[j])}, 0.0)
            )
        lists.append(NBestList(sid, tuple(hyps)))
    return Corpus.from_lists(lists), ReferenceSet(refs), w_star


class TestTrain:
    def test_missing_reference_names_sentence(self):
        corpus = parse_nbest("0 ||| a ||| f=1.0 ||| 0.0\n7 ||| b ||| f=2.0 ||| 0.0\n")
        refs = ReferenceSet({0: (("a",),)})
        with pytest.raises(DataError, match="^no reference for sentence 7$"):
            train(corpus, refs, TrainConfig(max_iters=2))

    def test_reference_set_profiles_each_sentence_once_across_runs(self, monkeypatch):
        built = []
        init = ReferenceStats.__init__

        def spy(self, refs, *args, **kwargs):
            built.append(tuple(refs))
            init(self, refs, *args, **kwargs)

        monkeypatch.setattr(ReferenceStats, "__init__", spy)
        corpus, refs, _ = toy_training_setup(np.random.default_rng(15), n_sentences=6)
        cfg = TrainConfig(k=3, sample_size=5, seed=2, max_iters=40)
        first = train(corpus, refs, cfg).final_weights
        second = train(corpus, refs, cfg).final_weights
        assert len(built) == len(set(built)) == 6
        fresh = train(corpus, ReferenceSet(dict(refs.by_sent)), cfg).final_weights
        assert first.tobytes() == second.tobytes() == fresh.tobytes()

    def test_overflowing_resampling_score_names_sentence(self):
        # h2 lands in the drawn pool: not among the best (h1) or the worst (h0)
        text = "".join(f"4 ||| h{j} ||| f={'1e308' if j == 2 else j} ||| 0.0\n" for j in range(6))
        corpus = parse_nbest(text)
        refs = ReferenceSet({4: (("h1",),)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(DataError, match="^sentence 4: model score is not finite$"):
                train(corpus, refs, TrainConfig(sample_size=3), w0=np.array([10.0]))

    def test_w0_of_the_wrong_shape_is_rejected(self):
        corpus = parse_nbest("0 ||| a ||| f=1.0 g=2.0 ||| 0.0\n")
        refs = ReferenceSet({0: (("a",),)})
        with pytest.raises(ValueError, match=r"^w0 has shape \(3,\), expected \(2,\)$"):
            train(corpus, refs, TrainConfig(), np.zeros(3))

    def test_k_clamped_to_list_size(self):
        corpus = parse_nbest("0 ||| a ||| f=1.0 ||| 0.0\n0 ||| b ||| g=1.0 ||| 0.0\n")
        refs = ReferenceSet({0: (("a",),)})
        report = train(corpus, refs, TrainConfig(k=10, max_iters=50))
        assert report.converged

    def test_single_hypothesis_list_keeps_w0_without_penalty(self):
        corpus = parse_nbest("0 ||| a ||| f=1.0 g=-2.0 ||| 0.0\n")
        refs = ReferenceSet({0: (("a",),)})
        w0 = np.array([1.25, -0.5])
        report = train(corpus, refs, TrainConfig(l2_scale=0.0), w0)
        assert report.converged
        assert report.iterations_used == 0
        np.testing.assert_array_equal(report.final_weights, w0)

    def test_single_hypothesis_list_shrinks_to_zero_under_penalty(self):
        corpus = parse_nbest("0 ||| a ||| f=1.0 g=-2.0 ||| 0.0\n")
        refs = ReferenceSet({0: (("a",),)})
        report = train(corpus, refs, TrainConfig(l2_scale=1.0), np.array([1.25, -0.5]))
        assert report.converged
        np.testing.assert_allclose(report.final_weights, 0.0, atol=1e-6)

    def test_recovers_planted_direction(self):
        rng = np.random.default_rng(12)
        corpus, refs, w_star = toy_training_setup(rng)
        report = train(corpus, refs, TrainConfig(k=3, seed=1))
        w = report.final_weights
        cosine = float(w @ w_star) / (np.linalg.norm(w) * np.linalg.norm(w_star))
        assert cosine > 0.9, f"learned direction too far from planted: cos={cosine}"

    def test_duplicate_hypotheses_removed_before_ranking(self):
        text = (
            "0 ||| a b ||| f=1.0 ||| 0.0\n"
            "0 ||| a b ||| f=2.0 ||| 0.0\n"
            "0 ||| a c ||| g=1.0 ||| 0.0\n"
        )
        corpus = parse_nbest(text)
        refs = ReferenceSet({0: (("a", "b"),)})
        report = train(corpus, refs, TrainConfig(k=2, max_iters=60))
        assert report.converged

    def test_same_optimum_from_different_starts(self):
        rng = np.random.default_rng(13)
        corpus, refs, _ = toy_training_setup(rng, n_sentences=20, n_hyps=6, n_features=8)
        cfg = TrainConfig(k=3, seed=7, grad_tol=1e-8)
        a = train(corpus, refs, cfg, rng.standard_normal(8)).final_weights
        b = train(corpus, refs, cfg, rng.standard_normal(8)).final_weights
        assert np.abs(a - b).max() <= 1e-4

    def test_resampled_training_is_deterministic(self):
        rng = np.random.default_rng(14)
        corpus, refs, _ = toy_training_setup(rng, n_sentences=10, n_hyps=12)
        cfg = TrainConfig(k=2, sample_size=6, seed=3, max_iters=60)
        a = train(corpus, refs, cfg).final_weights
        b = train(corpus, refs, cfg).final_weights
        np.testing.assert_array_equal(a, b)
