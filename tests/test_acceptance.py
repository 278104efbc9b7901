"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins the exact tolerance the package promises; run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
guarantee.  Timed tests enforce their budget on this hardware class.
"""

import itertools
import math
import time

import numpy as np
import scipy.sparse as sp
from scipy import stats

from plrank.cli import main
from plrank.corpus import (
    Corpus,
    Hypothesis,
    NBestList,
    parse_nbest,
    weights_vector,
    write_nbest,
)
from plrank.likelihood import (
    ListDistribution,
    PLInstance,
    objective_and_gradient,
    permutation_log_prob,
)
from plrank.trainer import TrainConfig, lbfgs_maximize, resample, richness, train
from plrank.tuner import (
    SyntheticDecoderSpec,
    rerank,
    synthetic_decode,
    synthetic_references,
)


def random_distribution(rng, size):
    z = rng.standard_normal(size)
    p = np.exp(z) / np.exp(z).sum()
    return ListDistribution.from_probs(p), p


def random_instance(rng, n_hyps, n_features, k):
    dense = rng.standard_normal((n_hyps, n_features))
    dense[rng.random((n_hyps, n_features)) < 0.4] = 0.0
    ranks = rng.permutation(n_hyps)[:k]
    return PLInstance(0, sp.csr_matrix(dense), ranks), dense


def test_01_partial_ranking_probabilities_sum_to_one():
    # 200 random distributions, every prefix length, enumerated exactly
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for size in range(2, 7):
        for _ in range(40):
            dist, _ = random_distribution(rng, size)
            for k in range(1, size + 1):
                total = sum(
                    math.exp(permutation_log_prob(dist, perm))
                    for perm in itertools.permutations(range(size), k)
                )
                assert abs(total - 1.0) <= 1e-9, (size, k, total)
    assert time.perf_counter() - start < 10.0


def test_02_ranking_a_stronger_item_earlier_is_strictly_likelier():
    rng = np.random.default_rng(405)
    start = time.perf_counter()
    for _ in range(1000):
        size = int(rng.integers(3, 9))
        dist, p = random_distribution(rng, size)
        k = int(rng.integers(2, size + 1))
        perm = rng.permutation(size)[:k]
        i, j = sorted(rng.choice(k, 2, replace=False))
        a, b = perm[i], perm[j]
        good = perm.copy()
        if p[a] < p[b]:
            good[i], good[j] = b, a
        bad = good.copy()
        bad[i], bad[j] = good[j], good[i]
        assert permutation_log_prob(dist, good) > permutation_log_prob(dist, bad)
    assert time.perf_counter() - start < 5.0


def test_03_analytic_gradient_matches_central_differences():
    rng = np.random.default_rng(406)
    h, l2 = 1e-4, 0.5
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        f = int(rng.integers(2, 17))
        k = int(rng.integers(1, n + 1))
        inst, _ = random_instance(rng, n, f, k)
        w = rng.standard_normal(f)
        _, grad = objective_and_gradient([inst], w, l2)
        for c in range(f):
            step = np.zeros(f)
            step[c] = h
            hi = objective_and_gradient([inst], w + step, l2)[0]
            lo = objective_and_gradient([inst], w - step, l2)[0]
            numeric = (hi - lo) / (2 * h)
            assert abs(grad[c] - numeric) <= max(1e-8, 1e-5 * abs(numeric))
    assert time.perf_counter() - start < 30.0


def test_04_single_choice_likelihood_equals_softmax_log_likelihood():
    # independently coded reference: plain-python softmax conditional
    # log-likelihood and its gradient
    def softmax_reference(dense, w, chosen):
        n, f = dense.shape
        scores = [sum(dense[i][j] * w[j] for j in range(f)) for i in range(n)]
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        z = sum(exps)
        probs = [e / z for e in exps]
        value = math.log(probs[chosen])
        grad = [
            dense[chosen][j] - sum(probs[i] * dense[i][j] for i in range(n))
            for j in range(f)
        ]
        return value, grad

    rng = np.random.default_rng(407)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        f = int(rng.integers(2, 13))
        inst, dense = random_instance(rng, n, f, 1)
        w = rng.standard_normal(f)
        value, grad = objective_and_gradient([inst], w, l2_scale=0.0)
        ref_value, ref_grad = softmax_reference(dense, w, int(inst.ranks[0]))
        assert abs(value - ref_value) <= 1e-12
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)


def test_05_three_item_worked_example():
    dist = ListDistribution.from_probs((0.5, 0.3, 0.2))
    prob = math.exp(permutation_log_prob(dist, (1, 2, 0)))
    closed_form = 0.3 * 0.2 / (1 - 0.3)  # remaining factor is 0.5 / 0.5
    assert abs(closed_form - 6 / 70) <= 1e-15
    assert abs(prob - 6 / 70) <= 1e-12


def test_06_richness_ratio_and_resampling_recommendation(tmp_path, capsys):
    # 7491 features spread over two lists of 300 distinct hypotheses
    hyps = [[], []]
    for i in range(600):
        hyps[i // 300].append([f"h{i}", {}])
    for t in range(7491):
        hyps[t % 600 // 300][t % 600 % 300][1][f"g{t}"] = 1.0
    lists = [
        NBestList(s, tuple(Hypothesis((tok,), feats, 0.0) for tok, feats in rows))
        for s, rows in enumerate(hyps)
    ]
    corpus = Corpus.from_lists(lists)
    report = richness(corpus)
    assert abs(report.r - 24.97) <= 0.01

    rich = tmp_path / "rich.txt"
    rich.write_text(write_nbest(corpus))
    assert main(["richness", "--nbest", str(rich)]) == 0
    out = capsys.readouterr().out
    assert "r=24.97" in out
    assert "no resampling needed" in out

    poor = tmp_path / "poor.txt"
    poor.write_text(
        "0 ||| a ||| f=1.0 ||| 0.0\n0 ||| b ||| g=1.0 ||| 0.0\n"
        "1 ||| c ||| f=1.0 ||| 0.0\n1 ||| d ||| g=1.0 ||| 0.0\n"
    )
    assert main(["richness", "--nbest", str(poor)]) == 0
    assert "resample recommended" in capsys.readouterr().out


def test_07_resampler_keeps_extremes_and_samples_the_rest_uniformly():
    n, m = 300, 30
    lst = NBestList(0, tuple(Hypothesis((f"t{i}",), {"b": 1.0}, 0.0) for i in range(n)))
    bleus = np.linspace(1.0, 0.0, n)
    anchors = set(range(10)) | set(range(n - 10, n))
    index = {"b": 0}
    w = np.zeros(1)

    counts = np.zeros(n, dtype=np.int64)
    for seed in range(10_000):
        kept = resample(lst, bleus, m, w, index, seed)
        idx = [int(h.tokens[0][1:]) for h in kept.hypotheses]
        assert len(idx) == m
        assert anchors.issubset(idx)  # 10 best plus 10 worst, every draw
        counts[idx] += 1
    middle = counts[10 : n - 10]
    assert middle.sum() == 10_000 * 10  # exactly 10 sampled per draw
    assert stats.chisquare(middle).pvalue > 0.01


def test_08_lbfgs_recovers_a_concave_quadratic_optimum():
    rng = np.random.default_rng(408)
    basis, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    curvature = basis @ np.diag(np.linspace(1.0, 10.0, 10)) @ basis.T
    target = rng.standard_normal(10)

    def f_and_grad(w):
        d = w - target
        return -0.5 * float(d @ curvature @ d), -(curvature @ d)

    cfg = TrainConfig(max_iters=25, grad_tol=1e-10)
    report = lbfgs_maximize(f_and_grad, rng.standard_normal(10), cfg)
    assert report.converged
    assert report.iterations_used <= 25
    assert np.max(np.abs(report.final_weights - target)) <= 1e-8
    objectives = [row[1] for row in report.history]
    assert all(b >= a for a, b in zip(objectives, objectives[1:]))


def test_09_planted_model_recovery_and_deeper_rankings_help():
    start = time.perf_counter()
    spec = SyntheticDecoderSpec(
        num_sentences=1200,
        feature_dim=500,
        noise_scale=0.1,
        seed=20240813,
        ref_len=50,
        features_per_hyp=8,
    )
    refs = synthetic_references(spec)
    full = synthetic_decode(spec, refs, {}, 0, 50)
    train_corpus = Corpus.from_lists(full.lists[:1000])
    held_corpus = Corpus.from_lists(full.lists[1000:])
    assert abs(richness(train_corpus).r - 10.0) <= 0.2

    def planted(h):
        return sum(spec.latent_weights[int(name[1:])] * v for name, v in h.features.items())

    oracle = [
        max(range(len(lst.hypotheses)), key=lambda i: planted(lst.hypotheses[i]))
        for lst in held_corpus.lists
    ]

    quality_by_k = {}
    for k in (5, 1):
        cfg = TrainConfig(k=k, max_iters=500, l2_scale=1.0, seed=7)
        report = train(train_corpus, refs, cfg)
        named = {name: report.final_weights[i] for name, i in train_corpus.feature_index.items()}
        w_held, _ = weights_vector(named, held_corpus.feature_index)
        tops = rerank(held_corpus, w_held, top=1)
        agreement = np.mean(
            [t.hypotheses[0] is lst.hypotheses[o]
             for t, lst, o in zip(tops, held_corpus.lists, oracle)]
        )
        quality_by_k[k] = np.mean([planted(t.hypotheses[0]) for t in tops])
        if k == 5:
            assert agreement >= 0.90
    assert quality_by_k[5] > quality_by_k[1]
    assert time.perf_counter() - start < 60.0


def test_10_training_reaches_the_same_optimum_from_any_start():
    spec = SyntheticDecoderSpec(
        num_sentences=40, feature_dim=30, noise_scale=0.1, seed=5,
        ref_len=15, features_per_hyp=4,
    )
    refs = synthetic_references(spec)
    corpus = synthetic_decode(spec, refs, {}, 0, 12)
    # l2_scale=1 keeps curvature >= 1 everywhere, so a gradient norm of
    # 1e-6 puts each run within 1e-6 of the unique optimum
    cfg = TrainConfig(k=3, l2_scale=1.0, grad_tol=1e-6, max_iters=300, seed=99)
    rng = np.random.default_rng(409)
    dim = len(corpus.feature_index)
    first = train(corpus, refs, cfg, rng.standard_normal(dim))
    second = train(corpus, refs, cfg, rng.standard_normal(dim))
    assert first.converged and second.converged
    assert np.max(np.abs(first.final_weights - second.final_weights)) <= 1e-4


def test_11_simulated_tuning_is_bit_deterministic(tmp_path, capsys):
    (tmp_path / "spec.txt").write_text(
        "num_sentences=4\nfeature_dim=12\nnoise_scale=0.1\nseed=11\n"
    )
    refs = "".join(
        f"{sid} ||| " + " ".join(f"s{sid}w{j}" for j in range(20)) + "\n"
        for sid in range(4)
    )
    (tmp_path / "refs.txt").write_text(refs)

    def run(tag, extra=()):
        out = tmp_path / f"weights-{tag}.txt"
        hist = tmp_path / f"history-{tag}.csv"
        code = main([
            "tune-sim",
            "--spec", str(tmp_path / "spec.txt"),
            "--refs", str(tmp_path / "refs.txt"),
            "--rounds", "2", "--per-round", "10", "--k", "3",
            "--max-iter", "30", "--seed", "7",
            "--out", str(out), "--history", str(hist),
            *extra,
        ])
        capsys.readouterr()
        assert code == 0
        return out.read_bytes(), hist.read_bytes()

    baseline = run("a")
    assert run("b") == baseline
    assert run("w4", ("--workers", "4")) == baseline


def test_12_nbest_round_trip_is_byte_identical():
    rng = np.random.default_rng(410)
    vocab = [f"w{i}" for i in range(50)]
    lists = []
    for sid in range(100):
        hyps = []
        for _ in range(10):
            tokens = tuple(rng.choice(vocab, rng.integers(3, 9)))
            names = rng.choice(20, rng.integers(1, 6), replace=False)
            feats = {f"f{i}": float(v) for i, v in zip(names, rng.standard_normal(len(names)))}
            hyps.append(Hypothesis(tokens, feats, float(rng.standard_normal())))
        lists.append(NBestList(sid, tuple(hyps)))
    text = write_nbest(Corpus.from_lists(lists))
    assert text.count("\n") == 1000
    assert write_nbest(parse_nbest(text)).encode() == text.encode()
