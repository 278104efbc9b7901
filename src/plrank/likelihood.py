"""Listwise permutation likelihood for linear rerankers.

Each hypothesis list induces a softmax distribution over its candidates
from the linear scores ``H @ w``.  A ranked prefix (the "ground truth"
permutation) is scored by sequential choice: the probability of picking
its first element from the whole list, times the probability of picking
the second from what remains, and so on (the Plackett-Luce / ListMLE
likelihood).  The training objective sums these log-probabilities over all
lists and subtracts a Gaussian penalty ``l2_scale/2 * ||w||^2``; it is
concave in ``w`` with an analytic gradient.

Evaluation is one vectorized pass over a padded (lists x longest list)
block per fixed-size chunk of instances; chunks are reduced serially in
input order, so objective and gradient are bit-identical from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

# instances per evaluation chunk; fixed so the padding stays small and the
# reduction order never changes
_CHUNK = 64


@dataclass(frozen=True)
class ListDistribution:
    """Log-probabilities of one list's softmax distribution (they sum to 1)."""

    log_probs: np.ndarray

    @classmethod
    def from_probs(cls, probs: Sequence[float]) -> "ListDistribution":
        p = np.asarray(probs, dtype=float)
        if p.size == 0:
            raise ValueError("empty probability vector")
        return cls(np.log(p))

    def __len__(self) -> int:
        return self.log_probs.size


@dataclass(frozen=True)
class PLInstance:
    """One training instance: dense-indexed features plus the ranked prefix.

    ``order`` lists all row indices with the ranked prefix first; the
    candidates still available at step j are exactly ``order[j:]``.
    """

    sent_id: int
    features: sp.csr_matrix
    ranks: np.ndarray
    order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.features.shape[0]
        ranks = np.asarray(self.ranks, dtype=np.int64)
        if n == 0:
            raise ValueError(f"sentence {self.sent_id}: empty hypothesis list")
        if not 1 <= ranks.size <= n:
            raise ValueError(f"sentence {self.sent_id}: permutation length {ranks.size} out of range")
        if ranks.min() < 0 or ranks.max() >= n or np.unique(ranks).size != ranks.size:
            raise ValueError(f"sentence {self.sent_id}: invalid permutation indices")
        rest = np.setdiff1d(np.arange(n, dtype=np.int64), ranks)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "order", np.concatenate([ranks, rest]))

    @property
    def k(self) -> int:
        return self.ranks.size


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis; -inf entries (padding) stay -inf."""
    m = scores.max(axis=-1, keepdims=True)
    return scores - (m + np.log(np.exp(scores - m).sum(axis=-1, keepdims=True)))


def _prefix_terms(lp: np.ndarray, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranked-prefix log-likelihood of each row of a padded block.

    ``lp`` holds each list's log-probabilities in choice order, -inf padded;
    ``chosen`` marks the prefix columns ``j < k``.  Also returns ``logz``, the
    log of the mass still available at each prefix step (0 at step 0, where
    the distribution already sums to 1, and 0 past the prefix).
    """
    logz = np.logaddexp.accumulate(lp[:, ::-1], axis=1)[:, ::-1]
    logz[:, 0] = 0.0
    logz = np.where(chosen, logz, 0.0)
    return np.where(chosen, lp, 0.0).sum(axis=1) - logz.sum(axis=1), logz


def list_distribution(features: sp.csr_matrix | np.ndarray, w: np.ndarray) -> ListDistribution:
    """Softmax distribution over one list's hypotheses from scores ``H @ w``."""
    if features.shape[0] == 0:
        raise ValueError("empty hypothesis list")
    scores = np.asarray(features @ w, dtype=float).ravel()
    return ListDistribution(_log_softmax(scores))


def permutation_log_prob(dist: ListDistribution, perm) -> float:
    """Log-probability of drawing ``perm`` by sequential choice without
    replacement from ``dist``.

    ``perm`` may be a Permutation or a plain index sequence.  The step-j
    normalizer is the log-sum-exp of the log-probabilities still available
    at step j (step 1 needs none: the distribution already sums to 1).
    """
    ranks = np.asarray(getattr(perm, "ranks", perm), dtype=np.int64)
    lp = dist.log_probs
    n = lp.size
    if not 1 <= ranks.size <= n:
        raise ValueError(f"permutation length {ranks.size} out of range for a list of {n}")
    if ranks.size and (ranks.min() < 0 or ranks.max() >= n or np.unique(ranks).size != ranks.size):
        raise ValueError("invalid permutation indices")
    rest = np.setdiff1d(np.arange(n, dtype=np.int64), ranks)
    sorted_lp = lp[np.concatenate([ranks, rest])][None]
    values, _ = _prefix_terms(sorted_lp, np.arange(n)[None] < ranks.size)
    return float(values[0])


class _Chunk:
    """A fixed block of instances evaluated with two sparse matvecs and
    whole-array operations on a padded (lists x longest list) block."""

    __slots__ = ("matrix", "gather", "scatter", "chosen", "last")

    def __init__(self, instances: Sequence[PLInstance]):
        self.matrix = sp.vstack([inst.features for inst in instances], format="csr")
        sizes = np.array([inst.features.shape[0] for inst in instances])
        ks = np.array([inst.k for inst in instances])[:, None]
        rows = int(sizes.sum())
        cols = np.arange(sizes.max())
        valid = cols < sizes[:, None]
        starts = np.cumsum(sizes) - sizes
        # block position (i, q) holds row order_i[q] of list i; padding
        # points at a -inf sentinel appended after the last score
        self.gather = np.full(valid.shape, rows)
        self.gather[valid] = np.concatenate([s + inst.order for s, inst in zip(starts, instances)])
        # flat block position of every row, to scatter coefficients back
        self.scatter = np.empty(rows, dtype=np.intp)
        self.scatter[self.gather[valid]] = np.flatnonzero(valid)
        self.chosen = cols < ks
        # row at column q is still available at steps 0..min(q, k-1)
        self.last = np.minimum(cols, ks - 1)

    def evaluate(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        scores = self.matrix @ w
        lp = _log_softmax(np.append(scores, -np.inf)[self.gather])
        values, logz = _prefix_terms(lp, self.chosen)
        # each chosen row adds +1; a row still available at step j adds -p/Z_j
        mult = np.take_along_axis(np.cumsum(np.exp(-logz), axis=1), self.last, axis=1)
        contrib = (self.chosen - np.exp(lp) * mult).ravel()[self.scatter]
        return float(np.sum(values)), np.asarray(contrib @ self.matrix).ravel()


def make_evaluator(
    instances: Sequence[PLInstance], l2_scale: float = 1.0, workers: int = 1
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Build a reusable ``w -> (objective, gradient)`` over fixed chunks.

    ``workers`` is accepted for compatibility and has no effect: evaluation
    is one vectorized pass.
    """
    chunks = [_Chunk(instances[i : i + _CHUNK]) for i in range(0, len(instances), _CHUNK)]

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray]:
        w = np.asarray(w, dtype=float)
        parts = [c.evaluate(w) for c in chunks]
        if parts:
            value = float(np.sum(np.array([p[0] for p in parts])))
            grad = np.sum(np.stack([p[1] for p in parts]), axis=0)
        else:
            value, grad = 0.0, np.zeros_like(w)
        value -= 0.5 * l2_scale * float(w @ w)
        grad = grad - l2_scale * w
        return value, grad

    return evaluate


def objective_and_gradient(
    instances: Sequence[PLInstance], w: np.ndarray, l2_scale: float = 1.0, workers: int = 1
) -> tuple[float, np.ndarray]:
    return make_evaluator(instances, l2_scale, workers)(w)


def objective(
    instances: Sequence[PLInstance], w: np.ndarray, l2_scale: float = 1.0, workers: int = 1
) -> float:
    """Sum of ranked-prefix log-likelihoods minus the Gaussian penalty."""
    return objective_and_gradient(instances, w, l2_scale, workers)[0]


def gradient(
    instances: Sequence[PLInstance], w: np.ndarray, l2_scale: float = 1.0, workers: int = 1
) -> np.ndarray:
    """Analytic gradient of :func:`objective` with respect to ``w``."""
    return objective_and_gradient(instances, w, l2_scale, workers)[1]
