"""Permutation-likelihood math: distributions, normalization, objective, gradient."""

import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plrank import likelihood
from plrank.corpus import Rows
from plrank.likelihood import (
    _CHUNK,
    ListDistribution,
    PLInstance,
    _Chunk,
    list_distribution,
    make_evaluator,
    objective_and_gradient,
    permutation_log_prob,
)


def random_instance(rng, n_max=8, n_features=6, k=None):
    n = int(rng.integers(2, n_max + 1))
    features = sp.csr_matrix(rng.standard_normal((n, n_features)))
    if k is None:
        k = int(rng.integers(1, n + 1))
    ranks = rng.permutation(n)[:k]
    return PLInstance(0, features, ranks)


class TestListDistribution:
    def test_log_probs_normalize(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            features = rng.standard_normal((5, 3))
            dist = list_distribution(features, rng.standard_normal(3))
            total = np.exp(dist.log_probs).sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_weights_give_uniform(self):
        dist = list_distribution(np.eye(4), np.zeros(4))
        np.testing.assert_allclose(dist.log_probs, -math.log(4), atol=1e-15)

    def test_binary_softmax_value(self):
        # scores (1, 0): p = 1/(1+e^-1)
        dist = list_distribution(np.array([[1.0], [0.0]]), np.ones(1))
        assert math.exp(dist.log_probs[0]) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)

    def test_sharpens_with_scale(self):
        h = np.array([[1.0], [0.0]])
        mild = math.exp(list_distribution(h, np.array([1.0])).log_probs[0])
        sharp = math.exp(list_distribution(h, np.array([10.0])).log_probs[0])
        assert sharp > mild

    def test_translation_invariance(self):
        # a constant column shifts every score equally: same distribution
        rng = np.random.default_rng(2)
        h = np.hstack([rng.standard_normal((6, 3)), np.ones((6, 1))])
        w = rng.standard_normal(4)
        shifted = w.copy()
        shifted[3] += 7.5
        a = list_distribution(h, w).log_probs
        b = list_distribution(h, shifted).log_probs
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            list_distribution(np.empty((0, 3)), np.zeros(3))

    @pytest.mark.parametrize(
        "features, w",
        [
            (np.array([[1e308], [0.0]]), np.array([10.0])),  # overflows to inf
            (sp.csr_matrix([[1e308], [0.0]]), np.array([10.0])),
            (np.array([[1.0], [0.0]]), np.array([np.nan])),
        ],
        ids=["dense-overflow", "sparse-overflow", "nan-weight"],
    )
    def test_non_finite_score_rejected(self, features, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(ValueError, match="^model score is not finite$"):
                list_distribution(features, w)

    def test_empty_probability_vector_rejected(self):
        with pytest.raises(ValueError, match="^empty probability vector$"):
            ListDistribution.from_probs([])


class TestPermutationLogProb:
    def test_worked_three_candidate_example(self):
        # p = (0.5, 0.3, 0.2), pick candidate 2 then 3 then 1:
        # 0.3 * (0.2 / (1 - 0.3)) * 1 = 6/70
        dist = ListDistribution.from_probs([0.5, 0.3, 0.2])
        lp = permutation_log_prob(dist, [1, 2, 0])
        assert math.exp(lp) == pytest.approx(6 / 70, abs=1e-12)

    def test_single_choice_is_plain_log_prob(self):
        dist = ListDistribution.from_probs([0.5, 0.3, 0.2])
        assert permutation_log_prob(dist, [2]) == pytest.approx(math.log(0.2), abs=1e-15)

    def test_singleton_list_certain(self):
        dist = ListDistribution.from_probs([1.0])
        assert permutation_log_prob(dist, [0]) == 0.0

    def test_uniform_full_permutation(self):
        dist = ListDistribution.from_probs([0.25] * 4)
        for perm in itertools.permutations(range(4)):
            assert math.exp(permutation_log_prob(dist, perm)) == pytest.approx(
                1 / 24, abs=1e-12
            )

    def test_sums_to_one_over_partial_permutations(self):
        rng = np.random.default_rng(3)
        for n in range(2, 6):
            p = rng.dirichlet(np.ones(n))
            dist = ListDistribution.from_probs(p)
            for k in range(1, n + 1):
                total = sum(
                    math.exp(permutation_log_prob(dist, perm))
                    for perm in itertools.permutations(range(n), k)
                )
                assert total == pytest.approx(1.0, abs=1e-12), f"n={n} k={k}"

    def test_swapping_toward_probability_order_raises_probability(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            dist = ListDistribution.from_probs(p)
            k = int(rng.integers(2, n + 1))
            perm = list(rng.permutation(n)[:k])
            i, j = sorted(rng.choice(k, size=2, replace=False))
            if p[perm[i]] == p[perm[j]]:
                continue
            if p[perm[i]] < p[perm[j]]:
                perm[i], perm[j] = perm[j], perm[i]
            swapped = list(perm)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert permutation_log_prob(dist, perm) > permutation_log_prob(dist, swapped)

    def test_bad_permutations_rejected(self):
        dist = ListDistribution.from_probs([0.5, 0.5])
        for bad in ([], [0, 0], [2], [0, 1, 1]):
            with pytest.raises(ValueError):
                permutation_log_prob(dist, bad)


# hand-built two-row blocks of width 3 that the compiled kernels would read
# or write out of bounds: (data, indices, indptr)
MALFORMED_ROWS = {
    "column past the width": ([1.0, 1.0], [0, 5], [0, 1, 2]),
    "column -1": ([1.0, 1.0], [0, -1], [0, 1, 2]),
    "column equal to the width": ([1.0, 1.0], [0, 3], [0, 1, 2]),
    "indptr not starting at 0": ([1.0, 1.0], [0, 1], [1, 1, 2]),
    "indptr decreasing": ([1.0, 1.0], [0, 1], [0, 2, 1]),
    "indptr past the entries": ([1.0, 1.0], [0, 1], [0, 1, 3]),
    "indptr short of the entries": ([1.0, 1.0], [0, 1], [0, 1, 1]),
    "indptr of the wrong length": ([1.0, 1.0], [0, 1], [0, 2]),
    "data of the wrong length": ([1.0], [0, 1], [0, 1, 2]),
}


def malformed(case):
    data, indices, indptr = MALFORMED_ROWS[case]
    return Rows(np.array(data), np.array(indices), np.array(indptr), (2, 3))


class TestInstanceValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            PLInstance(0, sp.csr_matrix((0, 3)), np.array([0]))

    @pytest.mark.parametrize("case", MALFORMED_ROWS)
    def test_malformed_rows_rejected(self, case):
        # before this check the CSC kernel wrote past the gradient buffer
        # and killed the interpreter; the instance now refuses the block
        with pytest.raises(ValueError, match=r"^sentence 7: (row pointers|a column index)"):
            PLInstance(7, malformed(case), np.array([0]))

    @pytest.mark.parametrize("case", MALFORMED_ROWS)
    def test_malformed_rows_have_no_distribution(self, case):
        with pytest.raises(ValueError, match=r"^(row pointers|a column index)"):
            list_distribution(malformed(case), np.zeros(3))

    def test_last_column_and_empty_rows_accepted(self):
        rows = Rows(np.array([1.0, 2.0]), np.array([2, 2]), np.array([0, 0, 2, 2]), (3, 3))
        value, grad = make_evaluator([PLInstance(0, rows, np.array([1]))])(np.zeros(3))
        assert np.isfinite(value) and grad.shape == (3,)
        assert list_distribution(rows, np.zeros(3)).log_probs.size == 3

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            PLInstance(0, sp.csr_matrix(np.eye(3)), np.array([1, 1]))

    def test_out_of_range_ranks_rejected(self):
        with pytest.raises(ValueError):
            PLInstance(0, sp.csr_matrix(np.eye(3)), np.array([3]))


class TestObjectiveAndGradient:
    def test_penalty_only_for_no_instances(self):
        w = np.array([1.0, -2.0])
        value, grad = objective_and_gradient([], w, l2_scale=2.0)
        assert value == pytest.approx(-float(w @ w), abs=1e-15)
        np.testing.assert_allclose(grad, -2.0 * w, atol=1e-15)

    def test_matches_permutation_log_prob_sum(self):
        rng = np.random.default_rng(5)
        instances = [random_instance(rng) for _ in range(4)]
        w = rng.standard_normal(6)
        expected = sum(
            permutation_log_prob(list_distribution(inst.features, w), inst.ranks)
            for inst in instances
        ) - 0.5 * float(w @ w)
        assert objective_and_gradient(instances, w, l2_scale=1.0)[0] == pytest.approx(expected, abs=1e-10)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        n_features = 6
        instances = [random_instance(rng, n_features=n_features) for _ in range(6)]
        w = rng.standard_normal(n_features)
        evaluate = make_evaluator(instances, l2_scale=0.7)
        g = evaluate(w)[1]
        h = 1e-4
        for i in range(n_features):
            e = np.zeros(n_features)
            e[i] = h
            fd = (evaluate(w + e)[0] - evaluate(w - e)[0]) / (2 * h)
            rel = abs(g[i] - fd) / max(abs(fd), 1e-8)
            assert rel <= 1e-5, f"coordinate {i}: analytic {g[i]} vs numeric {fd}"

    def test_single_hypothesis_gradient_is_penalty_only(self):
        rng = np.random.default_rng(7)
        inst = PLInstance(0, sp.csr_matrix(rng.standard_normal((1, 4))), np.array([0]))
        w = rng.standard_normal(4)
        _, grad = objective_and_gradient([inst], w, l2_scale=1.5)
        np.testing.assert_allclose(grad, -1.5 * w, atol=1e-12)
        assert objective_and_gradient([inst], w, l2_scale=0.0)[0] == 0.0

    def test_one_hot_softmax_gradient_at_zero(self):
        # n one-hot rows at w=0: residual is indicator minus uniform
        n = 5
        inst = PLInstance(0, sp.csr_matrix(np.eye(n)), np.array([2]))
        g = objective_and_gradient([inst], np.zeros(n), l2_scale=0.0)[1]
        expected = -np.full(n, 1 / n)
        expected[2] += 1.0
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_concave_along_segments(self):
        rng = np.random.default_rng(8)
        instances = [random_instance(rng) for _ in range(5)]
        evaluate = make_evaluator(instances, l2_scale=0.0)
        for _ in range(20):
            w1 = rng.standard_normal(6)
            w2 = rng.standard_normal(6)
            lam = rng.uniform()
            mid = evaluate(lam * w1 + (1 - lam) * w2)[0]
            chord = lam * evaluate(w1)[0] + (1 - lam) * evaluate(w2)[0]
            assert mid >= chord - 1e-9

    def test_prefix_likelihood_matches_independent_softmax(self):
        # ranked prefix of length 1 is exactly softmax regression
        rng = np.random.default_rng(9)
        instances = [random_instance(rng, k=1) for _ in range(15)]
        w = rng.standard_normal(6)
        value, grad = objective_and_gradient(instances, w, l2_scale=1.0)
        expected_value = -0.5 * sum(x * x for x in w)
        expected_grad = [-x for x in w]
        for inst in instances:
            rows = inst.features.toarray()
            scores = [sum(r * x for r, x in zip(row, w)) for row in rows]
            z = sum(math.exp(s) for s in scores)
            top = int(inst.ranks[0])
            expected_value += scores[top] - math.log(z)
            for col in range(6):
                expected_grad[col] += rows[top][col] - sum(
                    math.exp(s) / z * row[col] for s, row in zip(scores, rows)
                )
        assert value == pytest.approx(expected_value, abs=1e-12)
        np.testing.assert_allclose(grad, expected_grad, atol=1e-12)

    def test_dense_and_sparse_features_agree(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((4, 3))
        ranks = np.array([1, 3])
        w = rng.standard_normal(3)
        a = objective_and_gradient([PLInstance(0, sp.csr_matrix(dense), ranks)], w, 1.0)[0]
        dist = list_distribution(dense, w)
        b = permutation_log_prob(dist, ranks) - 0.5 * float(w @ w)
        assert a == pytest.approx(b, abs=1e-12)


N_FEATURES = 4


@st.composite
def ragged_instances(draw, sizes=st.integers(1, 40)):
    """More than one 64-instance chunk of lists with 1..40 rows and 1 <= k <= n."""
    ns = draw(st.lists(sizes, min_size=65, max_size=150))
    ks = [draw(st.integers(1, n)) for n in ns]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instances = []
    for n, k in zip(ns, ks):
        dense = rng.standard_normal((n, N_FEATURES))
        dense[rng.random(dense.shape) < 0.3] = 0.0
        instances.append(PLInstance(len(instances), sp.csr_matrix(dense), rng.permutation(n)[:k]))
    return instances, rng.standard_normal(N_FEATURES)


PROPERTY_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestChunkedKernelProperties:
    @PROPERTY_SETTINGS
    @given(ragged_instances(), st.floats(0.0, 2.0))
    def test_objective_is_sum_of_list_log_probs(self, drawn, l2):
        instances, w = drawn
        expected = sum(
            permutation_log_prob(list_distribution(inst.features, w), inst.ranks)
            for inst in instances
        ) - 0.5 * l2 * float(w @ w)
        assert objective_and_gradient(instances, w, l2)[0] == pytest.approx(expected, rel=1e-12)

    @PROPERTY_SETTINGS
    @given(ragged_instances())
    def test_gradient_matches_central_differences(self, drawn):
        instances, w = drawn
        evaluate = make_evaluator(instances, 0.5)
        g = evaluate(w)[1]
        h = 1e-5
        for i in range(N_FEATURES):
            e = np.zeros(N_FEATURES)
            e[i] = h
            fd = (evaluate(w + e)[0] - evaluate(w - e)[0]) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd)), f"coordinate {i}"

    @PROPERTY_SETTINGS
    @given(ragged_instances(sizes=st.one_of(st.just(1), st.integers(2, 40))), st.data())
    def test_one_row_list_contributes_exactly_zero(self, drawn, data):
        instances, w = drawn
        # other features on every 1-row list leave every bit unchanged ...
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        swapped = [
            PLInstance(inst.sent_id, sp.csr_matrix(rng.standard_normal((1, N_FEATURES))), inst.ranks)
            if inst.features.shape[0] == 1 else inst
            for inst in instances
        ]
        value, grad = objective_and_gradient(instances, w, 0.5)
        swapped_value, swapped_grad = objective_and_gradient(swapped, w, 0.5)
        assert value == swapped_value
        assert np.array_equal(grad, swapped_grad)
        # ... and a corpus of only 1-row lists leaves just the penalty
        singles = [inst for inst in swapped if inst.features.shape[0] == 1]
        value, grad = objective_and_gradient(singles, w, 0.5)
        assert value == -0.25 * float(w @ w)
        assert np.array_equal(grad, -0.5 * w)


def stacked_objective_and_gradient(instances, w, l2_scale):
    """The chunked reduction that keeps every chunk's gradient and sums the
    stack: the oracle for the evaluator's running gradient."""
    parts = [_Chunk(instances[i : i + _CHUNK]).evaluate(w) for i in range(0, len(instances), _CHUNK)]
    if parts:
        value = float(np.sum(np.array([p[0] for p in parts])))
        grad = np.sum(np.stack([p[1] for p in parts]), axis=0)
    else:
        value, grad = 0.0, np.zeros_like(w)
    return value - 0.5 * l2_scale * float(w @ w), grad - l2_scale * w


def tiny_lists(count, n_features, rng):
    """``count`` two-row lists, each row with one nonzero feature."""
    instances = []
    for i in range(count):
        cols = rng.integers(0, n_features, size=2)
        features = sp.csr_matrix((rng.standard_normal(2), cols, [0, 1, 2]), shape=(2, n_features))
        instances.append(PLInstance(i, features, np.array([0])))
    return instances


def scipy_matvecs():
    """The two kernel calls redone with scipy's CSR matmuls, as the evaluator
    made them before it called the kernels itself: the oracle for their bits."""

    def csr_matvec(n, f, indptr, indices, data, w, out):
        out[...] = sp.csr_matrix((data, indices, indptr), shape=(n, f)) @ w

    def csc_matvec(f, n, indptr, indices, data, x, out):
        out[...] = sp.csr_matrix((data, indices, indptr), shape=(n, f)).T @ x

    return csr_matvec, csc_matvec


@st.composite
def edge_blocks(draw):
    """Lists of 1-4 rows over 1-5 features whose rows hold 0-4 entries, a
    column maybe repeated, each list a Rows block or a scipy CSR matrix with
    int32 indices, plus the weights."""
    n_features = draw(st.integers(1, 5))
    values = st.floats(-3.0, 3.0, allow_nan=False)
    instances = []
    for sid in range(draw(st.integers(1, _CHUNK + 2))):
        cols = draw(st.lists(st.lists(st.integers(0, n_features - 1), max_size=4), min_size=1, max_size=4))
        indices = np.array([c for row in cols for c in row], dtype=np.int64)
        indptr = np.cumsum([0] + [len(row) for row in cols])
        data = np.array(draw(st.lists(values, min_size=indices.size, max_size=indices.size)), dtype=float)
        shape = (len(cols), n_features)
        if draw(st.booleans()):
            features = sp.csr_matrix((data, indices.astype(np.int32), indptr.astype(np.int32)), shape=shape)
            assert features.indices.dtype == np.int32
        else:
            features = Rows(data, indices, indptr, shape)
        ranks = draw(st.permutations(range(len(cols))))[: draw(st.integers(1, len(cols)))]
        instances.append(PLInstance(sid, features, np.array(ranks)))
    w = np.array(draw(st.lists(values, min_size=n_features, max_size=n_features)))
    return instances, w


class TestKernelCalls:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(edge_blocks(), st.floats(0.0, 2.0))
    def test_bits_equal_scipys_matmuls(self, drawn, l2):
        instances, w = drawn
        value, grad = make_evaluator(instances, l2)(w)
        with mock.patch.object(likelihood, "_matvecs", scipy_matvecs):
            expected_value, expected_grad = make_evaluator(instances, l2)(w)
        assert np.float64(value).tobytes() == np.float64(expected_value).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_weights_of_another_shape_rejected(self, shape):
        rows = Rows(np.ones(2), np.array([0, 2]), np.array([0, 1, 2]), (2, 3))
        evaluate = make_evaluator([PLInstance(0, rows, np.array([0]))])
        with pytest.raises(ValueError, match="weights of shape"):
            evaluate(np.zeros(shape))


class TestRunningGradient:
    @PROPERTY_SETTINGS
    @given(
        # no chunk, one chunk, 9 or 10 chunks
        st.one_of(st.just(0), st.integers(1, _CHUNK), st.integers(8 * _CHUNK + 1, 600)),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 2.0),
    )
    def test_bits_equal_the_stacked_chunk_sum(self, count, seed, l2):
        # the lists come from a seeded stream, not from hypothesis, so that a
        # failing example of 600 lists shrinks in seconds
        rng = np.random.default_rng(seed)
        instances = []
        for i in range(count):
            n = int(rng.integers(1, 41))
            dense = rng.standard_normal((n, N_FEATURES))
            dense[rng.random(dense.shape) < 0.3] = 0.0
            ranks = rng.permutation(n)[: rng.integers(1, n + 1)]
            instances.append(PLInstance(i, sp.csr_matrix(dense), ranks))
        w = rng.standard_normal(N_FEATURES)
        value, grad = make_evaluator(instances, l2)(w)
        expected_value, expected_grad = stacked_objective_and_gradient(instances, w, l2)
        assert np.float64(value).tobytes() == np.float64(expected_value).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()

    def test_peak_memory_does_not_grow_with_chunks(self):
        # one evaluation holds a few F-vectors (the running sum, one chunk's
        # matvec, the penalty term); keeping every chunk's gradient and then
        # stacking them would hold 2 x chunks of them
        n_features = 200_000
        vector = 8 * n_features
        rng = np.random.default_rng(12)
        w = rng.standard_normal(n_features)
        peaks = []
        for chunks in (1, 8):
            evaluate = make_evaluator(tiny_lists(chunks * _CHUNK, n_features, rng), 0.5)
            evaluate(w)
            tracemalloc.start()
            try:
                evaluate(w)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * vector, peaks
        assert peaks[1] < peaks[0] + vector / 8, peaks


class TestLikelihoodProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=5))
    def test_ranking_probabilities_sum_to_one_for_every_k(self, scores):
        n = len(scores)
        dist = list_distribution(np.eye(n), np.array(scores))
        for k in range(1, n + 1):
            total = math.fsum(
                math.exp(permutation_log_prob(dist, perm))
                for perm in itertools.permutations(range(n), k)
            )
            assert total == pytest.approx(1.0, abs=1e-12), f"k={k}"

    @PROPERTY_SETTINGS
    @given(
        ragged_instances(),
        st.floats(0.0, 2.0),
        st.lists(st.floats(-3.0, 3.0), min_size=N_FEATURES, max_size=N_FEATURES),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
    )
    def test_concave_along_random_lines(self, drawn, l2, direction, t0, t1):
        instances, w = drawn
        d = np.array(direction)
        evaluate = make_evaluator(instances, l2)
        f0 = evaluate(w + t0 * d)[0]
        f1 = evaluate(w + t1 * d)[0]
        mid = evaluate(w + 0.5 * (t0 + t1) * d)[0]
        chord = 0.5 * (f0 + f1)
        assert mid >= chord - 1e-10 * max(1.0, abs(f0), abs(f1))
