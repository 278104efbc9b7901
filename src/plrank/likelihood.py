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
block per fixed-size chunk of instances, reduced in input order (bit-identical
from run to run) into one gradient vector, however many chunks there are.
Each chunk's two sparse matvecs are scipy's compiled CSR and CSC kernels,
called on the chunk's own CSR arrays.  They live in one extension module,
``scipy.sparse._sparsetools``, which is loaded by itself when the first chunk
is built: not with this module, and without the ``scipy.sparse`` package.
The kernels check no bounds, so a CSR block is checked once, when it becomes
a :class:`PLInstance` or its distribution is asked for.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import Rows

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


def _choice_order(perm, n: int, where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Validate a ranked prefix of a list of ``n`` and return it as int64
    ranks plus every row index, the prefix first and the rest ascending.
    ``where`` prefixes the error messages."""
    ranks = np.asarray(perm, dtype=np.int64)
    if not 1 <= ranks.size <= n:
        raise ValueError(f"{where}permutation length {ranks.size} out of range for a list of {n}")
    if ranks.min() < 0 or ranks.max() >= n:
        raise ValueError(f"{where}invalid permutation indices")
    taken = np.zeros(n, dtype=bool)
    taken[ranks] = True
    if np.count_nonzero(taken) != ranks.size:
        raise ValueError(f"{where}invalid permutation indices")
    return ranks, np.concatenate([ranks, np.flatnonzero(~taken)])


def _check_rows(features: Rows, where: str = "") -> None:
    """Raise ValueError unless a CSR block's row pointers run from 0 to its
    entry count without decreasing and every column is inside its width;
    ``where`` prefixes the messages."""
    n, width = features.shape
    indptr, indices = np.asarray(features.indptr), np.asarray(features.indices)
    entries = indices.size
    if (
        indptr.shape != (n + 1,)
        or np.size(features.data) != entries
        or indptr[0] != 0
        or indptr[-1] != entries
        or np.any(indptr[1:] < indptr[:-1])
    ):
        raise ValueError(f"{where}row pointers do not run from 0 to the {entries} entries without decreasing")
    if entries and not (0 <= indices.min() and indices.max() < width):
        raise ValueError(f"{where}a column index is outside [0, {width})")


@dataclass(frozen=True)
class PLInstance:
    """One training instance: dense-indexed features plus the ranked prefix.

    ``features`` is the list's CSR block, a :class:`~plrank.corpus.Rows` or
    any matrix with the same four attributes, such as a scipy CSR matrix.

    ``order`` lists all row indices with the ranked prefix first; the
    candidates still available at step j are exactly ``order[j:]``.
    """

    sent_id: int
    features: Rows
    ranks: np.ndarray
    order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.features.shape[0]
        if n == 0:
            raise ValueError(f"sentence {self.sent_id}: empty hypothesis list")
        _check_rows(self.features, f"sentence {self.sent_id}: ")
        ranks, order = _choice_order(self.ranks, n, f"sentence {self.sent_id}: ")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "order", order)

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


def list_distribution(features: Rows | np.ndarray, w: np.ndarray) -> ListDistribution:
    """Softmax distribution over one list's hypotheses from scores ``H @ w``;
    ``H`` is a CSR block (see :class:`PLInstance`) or a dense array.
    Raises ValueError if a score overflows or is NaN, or if a CSR block's
    row pointers or columns are out of range."""
    if features.shape[0] == 0:
        raise ValueError("empty hypothesis list")
    if hasattr(features, "indptr"):
        _check_rows(features)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.asarray(features @ w, dtype=float).ravel()
    if not np.all(np.isfinite(scores)):
        raise ValueError("model score is not finite")
    return ListDistribution(_log_softmax(scores))


def permutation_log_prob(dist: ListDistribution, perm) -> float:
    """Log-probability of drawing ``perm`` by sequential choice without
    replacement from ``dist``.

    ``perm`` is a sequence of hypothesis indices.  The step-j
    normalizer is the log-sum-exp of the log-probabilities still available
    at step j (step 1 needs none: the distribution already sums to 1).
    """
    lp = dist.log_probs
    ranks, order = _choice_order(perm, lp.size)
    values, _ = _prefix_terms(lp[order][None], np.arange(lp.size)[None] < ranks.size)
    return float(values[0])


def _matvecs():
    """scipy's compiled ``csr_matvec`` and ``csc_matvec``: from the package's
    extension module if ``scipy.sparse`` is imported, else from that module
    loaded by itself and kept out of ``sys.modules``, so a later
    ``import scipy.sparse`` binds it.  scipy's directory comes from its import
    spec, so not even scipy's ``__init__`` runs.  In a fresh interpreter that
    has imported numpy, the module alone adds 0.3 MB of peak memory and under
    1 ms, ``import scipy`` 1 MB and 17 ms, ``import scipy.sparse`` 21 MB and
    0.2 s.  Raises ModuleNotFoundError if scipy or the module file is missing."""
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
        from importlib.util import find_spec, module_from_spec

        package = find_spec("scipy")  # None if absent or blocked by a None in sys.modules
        if package is None or not package.submodule_search_locations:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        where = os.path.join(package.submodule_search_locations[0], "sparse")
        spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"no extension module {name} in {where}", name=name)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)  # a single-phase extension enters itself there
    return module.csr_matvec, module.csc_matvec


class _Chunk:
    """A fixed block of instances evaluated with two sparse matvecs and
    whole-array operations on a padded (lists x longest list) block."""

    __slots__ = ("rows", "csr_matvec", "csc_matvec", "gather", "scatter", "chosen", "last")

    def __init__(self, instances: Sequence[PLInstance]):
        # scipy's compiled matvecs are 3-6x faster than numpy's bincount,
        # which adds in the same order; they take the CSR arrays as they are
        # (one index type, float data) and read them as the CSC form of the
        # transpose for the gradient, so no matrix object is built
        stacked = Rows.stack([inst.features for inst in instances])
        self.rows = Rows(
            stacked.data.astype(float, copy=False),
            stacked.indices.astype(stacked.indptr.dtype, copy=False),
            stacked.indptr,
            stacked.shape,
        )
        self.csr_matvec, self.csc_matvec = _matvecs()
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
        r = self.rows
        n, f = r.shape
        # the kernels read w unchecked; scipy's matmul raised this
        if w.shape != (f,):
            raise ValueError(f"weights of shape {w.shape} for rows of shape {r.shape}")
        # the kernels add into their output, which starts from zeros as in
        # scipy's matmul, so every sum has scipy's order and bits
        scores = np.zeros(n)
        self.csr_matvec(n, f, r.indptr, r.indices, r.data, w, scores)
        lp = _log_softmax(np.append(scores, -np.inf)[self.gather])
        values, logz = _prefix_terms(lp, self.chosen)
        # each chosen row adds +1; a row still available at step j adds -p/Z_j
        mult = np.take_along_axis(np.cumsum(np.exp(-logz), axis=1), self.last, axis=1)
        contrib = (self.chosen - np.exp(lp) * mult).ravel()[self.scatter]
        grad = np.zeros(f)
        self.csc_matvec(f, n, r.indptr, r.indices, r.data, contrib, grad)
        return float(np.sum(values)), grad


def make_evaluator(
    instances: Sequence[PLInstance], l2_scale: float = 1.0
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Build a reusable ``w -> (objective, gradient)`` over fixed chunks.

    The objective is the sum of ranked-prefix log-likelihoods minus the
    Gaussian penalty; the gradient is its analytic gradient in ``w``.
    """
    chunks = [_Chunk(instances[i : i + _CHUNK]) for i in range(0, len(instances), _CHUNK)]

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray]:
        w = np.asarray(w, dtype=float)
        values = np.empty(len(chunks))
        grad = np.zeros_like(w)  # a CSC matvec never returns -0.0, so 0.0 + g == g
        for i, c in enumerate(chunks):
            values[i], g = c.evaluate(w)
            grad += g
        value = float(np.sum(values)) - 0.5 * l2_scale * float(w @ w)
        grad -= l2_scale * w
        return value, grad

    return evaluate


def objective_and_gradient(
    instances: Sequence[PLInstance], w: np.ndarray, l2_scale: float = 1.0
) -> tuple[float, np.ndarray]:
    """One-shot :func:`make_evaluator` at ``w``; build the evaluator once
    instead when evaluating the same instances repeatedly."""
    return make_evaluator(instances, l2_scale)(w)
