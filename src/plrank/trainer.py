"""Weight training: L-BFGS ascent, list resampling, and feature richness.

``train`` turns a corpus plus references into ranked-prefix instances
(deduplicating each list, optionally resampling it down to a fixed size)
and maximizes the penalized listwise likelihood with a two-loop-recursion
L-BFGS using a strong-Wolfe line search.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .bleu import ground_truth_ranking
from .corpus import (
    Corpus,
    DataError,
    NBestList,
    ReferenceSet,
    dedup,
    feature_matrix,
    model_scores,
)
from .likelihood import PLInstance, make_evaluator
from .rng import substream

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
# objective evaluations allowed to a line search's bracketing and to its zoom
LINE_SEARCH_EVALS = 25
# curvature pairs kept by the two-loop recursion
LBFGS_MEMORY = 10
RICHNESS_THRESHOLD = 5.0

# purpose label for per-sentence resampling streams
RESAMPLE_PURPOSE = "resample"


@dataclass(frozen=True, slots=True)
class TrainConfig:
    """Knobs for one training run, checked once, when it is made.

    ``sample_size`` of None trains on full (deduplicated) lists; otherwise
    every longer list is resampled down to that many hypotheses first.
    """

    k: int = 5
    max_iters: int = 500
    grad_tol: float = 1e-6
    l2_scale: float = 1.0
    sample_size: int | None = None
    seed: int = 42

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be > 0, got {self.grad_tol}")
        if not 0 <= self.l2_scale < math.inf:
            raise ValueError(f"l2_scale must be finite and >= 0, got {self.l2_scale}")
        if self.sample_size is not None and self.sample_size < 3:
            raise ValueError(f"sample_size must be >= 3, got {self.sample_size}")


@dataclass(slots=True)
class TrainReport:
    """Outcome of an optimizer run.

    ``history`` holds one ``(iteration, objective, grad_inf_norm)`` row for
    the starting point (iteration 0) and every accepted step; objectives
    are non-decreasing along it.
    """

    final_weights: np.ndarray
    history: list[tuple[int, float, float]]
    converged: bool

    @property
    def iterations_used(self) -> int:
        return self.history[-1][0]

    @property
    def final_objective(self) -> float:
        return self.history[-1][1]


@dataclass(frozen=True, slots=True)
class RichnessReport:
    feature_count: int
    avg_list_size: float
    r: float


def _inf_norm(g: np.ndarray) -> float:
    return float(np.abs(g).max(initial=0.0))


def _checked(f_and_grad, w: np.ndarray, iteration: int) -> tuple[float, np.ndarray]:
    value, grad = f_and_grad(w)
    grad = np.asarray(grad, dtype=float)
    if not math.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ValueError(f"non-finite objective or gradient at iteration {iteration}")
    return float(value), grad


def _two_loop(pairs: deque[tuple[np.ndarray, np.ndarray, float]], g: np.ndarray) -> np.ndarray:
    """Apply the inverse-Hessian estimate to the ascent gradient."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _cubic_step(a, fa, da, b, fb, db) -> float:
    # minimizer of the cubic interpolant; safeguarded to the middle 80% of
    # the bracket, else bisection
    lo, hi = (a, b) if a < b else (b, a)
    width = hi - lo
    mid = 0.5 * (lo + hi)
    if width <= 0:
        return mid
    d1 = da + db - 3 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0:
        return mid
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2 * d2
    if denom == 0:
        return mid
    c = b - (b - a) * (db + d2 - d1) / denom
    if not math.isfinite(c) or c < lo + 0.1 * width or c > hi - 0.1 * width:
        return mid
    return c


def _wolfe_search(phi, phi0: float, dphi0: float):
    """Strong-Wolfe line search (bracket then zoom), initial step 1.

    ``phi(alpha)`` returns (value, slope, payload) of the negated objective
    along the ray.  Returns the accepted payload or None on failure.
    """

    def zoom(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi):
        best = None
        for _ in range(LINE_SEARCH_EVALS):
            alpha = _cubic_step(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi)
            if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
                return best
            f_a, d_a, payload = phi(alpha)
            if f_a > phi0 + WOLFE_C1 * alpha * dphi0 or f_a >= f_lo:
                a_hi, f_hi, d_hi = alpha, f_a, d_a
            else:
                if abs(d_a) <= -WOLFE_C2 * dphi0:
                    return payload
                best = payload  # sufficient decrease at least
                if d_a * (a_hi - a_lo) >= 0:
                    a_hi, f_hi, d_hi = a_lo, f_lo, d_lo
                a_lo, f_lo, d_lo = alpha, f_a, d_a
        return best

    a_prev, f_prev, d_prev = 0.0, phi0, dphi0
    alpha = 1.0
    for i in range(LINE_SEARCH_EVALS):
        f_a, d_a, payload = phi(alpha)
        if f_a > phi0 + WOLFE_C1 * alpha * dphi0 or (i > 0 and f_a >= f_prev):
            return zoom(a_prev, f_prev, d_prev, alpha, f_a, d_a)
        if abs(d_a) <= -WOLFE_C2 * dphi0:
            return payload
        if d_a >= 0:
            return zoom(alpha, f_a, d_a, a_prev, f_prev, d_prev)
        a_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha *= 2.0
    return None


def lbfgs_maximize(
    f_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    w0: np.ndarray,
    cfg: TrainConfig,
) -> TrainReport:
    """Maximize ``f`` from ``w0``; stops at grad-inf-norm <= grad_tol or
    max_iters accepted steps, or with converged=False if a line search fails.

    Raises ValueError naming the iteration if the objective or gradient
    ever comes back non-finite.
    """
    w = np.array(w0, dtype=float, copy=True)
    f, g = _checked(f_and_grad, w, 0)
    history: list[tuple[int, float, float]] = [(0, f, _inf_norm(g))]
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=LBFGS_MEMORY)

    while history[-1][2] > cfg.grad_tol and history[-1][0] < cfg.max_iters:
        p = _two_loop(pairs, g)
        if g @ p <= 0:  # not an ascent direction; fall back to steepest ascent
            pairs.clear()
            p = g.copy()

        def phi(alpha, _w=w, _p=p, _it=history[-1][0]):
            w_a = _w + alpha * _p
            f_a, g_a = _checked(f_and_grad, w_a, _it + 1)
            return -f_a, -(g_a @ _p), (w_a, f_a, g_a)

        accepted = _wolfe_search(phi, -f, -(g @ p))
        if accepted is None:
            break
        w_new, f_new, g_new = accepted
        s = w_new - w
        y = g - g_new  # curvature pair of the negated objective
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
        w, f, g = w_new, f_new, g_new
        history.append((history[-1][0] + 1, f, _inf_norm(g)))

    return TrainReport(w, history, history[-1][2] <= cfg.grad_tol)


def _resample_indices(
    bleus: np.ndarray, m: int, matrix: sp.csr_matrix, w: np.ndarray, rng_seed: int, sent_id: int
) -> np.ndarray:
    """Indices (in original order) of the m < len(bleus) hypotheses kept by
    resampling; draws follow exp(matrix @ w) on the stream of (rng_seed,
    sent_id).  Raises DataError naming the sentence if a score overflows or
    is NaN."""
    n = len(bleus)
    scores = model_scores(matrix, w, sent_id)
    rng = substream(rng_seed, RESAMPLE_PURPOSE, sent_id)
    take = m // 3
    # the best and then the worst by BLEU, ties to the lower index
    keep = np.zeros(n, dtype=bool)
    keep[np.argsort(-bleus, kind="stable")[:take]] = True
    ascending = np.argsort(bleus, kind="stable")
    keep[ascending[~keep[ascending]][:take]] = True
    pool = np.flatnonzero(~keep)
    # sequential draws without replacement, proportional to exp(score); each
    # draw weighs the remaining pool against its own maximum, so the largest
    # weight is 1 and the others cannot all underflow to a zero sum
    for _ in range(m - 2 * take):
        weight = np.exp(scores[pool] - scores[pool].max())
        j = rng.choice(len(pool), p=weight / weight.sum())
        keep[pool[j]] = True
        pool = np.delete(pool, j)
    return np.flatnonzero(keep)


def resample(
    lst: NBestList,
    bleus: Sequence[float],
    m: int,
    w: np.ndarray,
    feature_index: dict[str, int],
    rng_seed: int,
) -> NBestList:
    """Shrink a list to m hypotheses: floor(m/3) best by BLEU, floor(m/3)
    worst, and the rest drawn from the remainder proportional to exp(h.w).

    Returns the list itself, before building any feature row, when m >=
    its size; otherwise original relative order is preserved.  The stream
    depends only on (rng_seed, sent_id).  Raises DataError if a hypothesis
    has a feature that ``feature_index`` lacks.
    """
    bleus = np.asarray(bleus, dtype=float)
    if len(bleus) != len(lst.hypotheses):
        raise ValueError("one BLEU score per hypothesis required")
    if m < 3:
        raise ValueError(f"sample size must be >= 3, got {m}")
    if m >= len(lst):
        return lst
    keep = _resample_indices(bleus, m, feature_matrix(lst, feature_index), w, rng_seed, lst.sent_id)
    return NBestList(lst.sent_id, tuple(lst.hypotheses[i] for i in keep))


def build_instances(
    corpus: Corpus,
    refs: ReferenceSet,
    cfg: TrainConfig,
    w: np.ndarray,
) -> list[PLInstance]:
    """Deduplicate, optionally resample, rank by BLEU, and index every list.

    ``k`` is clamped to each list's (post-processing) size.  Raises
    DataError if any sentence lacks references.  The feature rows are the
    corpus's own, and BLEU comes from the profiles ``refs`` keeps, so a
    hypothesis scored against the same set before is not scored again.
    """
    instances: list[PLInstance] = []
    for lst, matrix in zip(corpus.lists, corpus.rows):
        sid = lst.sent_id
        profile = refs.profile(sid)
        lst, kept = dedup(lst)
        if kept is not None:
            matrix = matrix[kept]
        bleus = np.array(profile.sentence_bleus([h.tokens for h in lst.hypotheses]))
        if cfg.sample_size is not None and cfg.sample_size < len(bleus):
            keep = _resample_indices(bleus, cfg.sample_size, matrix, w, cfg.seed, sid)
            bleus = bleus[keep]
            matrix = matrix[keep]
        k = min(cfg.k, len(bleus))
        ranks = ground_truth_ranking(bleus, k, cfg.seed, sid)
        instances.append(PLInstance(sid, matrix, np.asarray(ranks)))
    return instances


def train(
    corpus: Corpus,
    refs: ReferenceSet,
    cfg: TrainConfig,
    w0: np.ndarray | None = None,
) -> TrainReport:
    """Fit weights to a corpus by maximizing the penalized listwise likelihood.

    ``w0`` defaults to zeros; it is also the weight vector that steers any
    resampling (and so must be aligned to ``corpus.feature_index``).
    Raises DataError on a corpus with no lists.
    """
    if not corpus.lists:
        raise DataError("empty corpus")
    n_features = len(corpus.feature_index)
    if w0 is None:
        w0 = np.zeros(n_features)
    else:
        w0 = np.asarray(w0, dtype=float)
        if w0.shape != (n_features,):
            raise ValueError(f"w0 has shape {w0.shape}, expected ({n_features},)")
    instances = build_instances(corpus, refs, cfg, w0)
    evaluate = make_evaluator(instances, cfg.l2_scale)
    # extreme feature values overflow the objective or the search direction;
    # the optimizer's finiteness check reports that instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return lbfgs_maximize(evaluate, w0, cfg)


def richness(corpus: Corpus) -> RichnessReport:
    """Feature count over mean deduplicated list size; below
    RICHNESS_THRESHOLD the corpus is too poor to train on as-is."""
    if not corpus.lists:
        raise DataError("empty corpus")
    sizes = [len(dedup(lst)[0]) for lst in corpus.lists]
    avg = sum(sizes) / len(sizes)
    count = len(corpus.feature_index)
    return RichnessReport(count, avg, count / avg)
