"""The outer tuning loop: decode, accumulate, resample-if-poor, retrain.

Each round asks a decoder for fresh hypotheses, merges them into the
accumulated corpus (deduplicating), measures feature richness, retrains
from the current weights (resampling lists down when richness is below
threshold), and records the round's dev BLEU of the top-1 reranking.

A decoder is any callable ``(weights, round) -> Corpus`` taking named
weights; feature spaces may grow between rounds, so weights travel by name
at this boundary.  ``SyntheticDecoder`` is a self-contained stand-in whose
hypotheses copy a reference prefix whose length tracks a planted linear
model, so BLEU correlates with the planted score by construction.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import reduce
from itertools import repeat
from operator import add, mul
from typing import Callable, Mapping

import numpy as np

from .corpus import (
    Corpus,
    DataError,
    Hypothesis,
    NBestList,
    ParseError,
    ReferenceSet,
    feature_matrix,  # noqa: F401  (bench/spans.py hooks this name)
    merge,
    model_scores,
    weights_vector,
)
from .rng import derive_seed, substream
from .trainer import RICHNESS_THRESHOLD, TrainConfig, richness, train

# the forward reference keeps Corpus out of typing's parametrization cache,
# which would otherwise pin every re-imported plrank.corpus module
DecoderInterface = Callable[[Mapping[str, float], int], "Corpus"]

# the largest spec feature_dim: its planted weights take 80 MB
MAX_FEATURE_DIM = 10**7


@dataclass(frozen=True, slots=True)
class TuneConfig:
    train_cfg: TrainConfig
    max_rounds: int = 40
    resample_m: int = 30

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.resample_m < 3:
            raise ValueError(f"resample_m must be >= 3, got {self.resample_m}")


@dataclass(frozen=True, slots=True)
class RoundRecord:
    round: int
    dev_bleu: float
    objective: float
    corpus_size: int
    richness: float


@dataclass(frozen=True, slots=True)
class SyntheticDecoderSpec:
    """Generator settings for the synthetic decoder.

    ``latent_weights`` is the planted model, drawn standard-normal from
    ``seed`` and read-only.  Each hypothesis activates ``features_per_hyp``
    random features with standard-normal values, and its token sequence
    copies a reference prefix whose length is monotone in the rank of
    ``latent . h + noise_scale * eps`` within the list, so longer prefixes
    (higher BLEU) mean higher planted score.
    """

    num_sentences: int
    feature_dim: int
    noise_scale: float = 0.1
    seed: int = 0
    ref_len: int = 20
    features_per_hyp: int = 8
    latent_weights: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if self.num_sentences < 1:
            raise ValueError(f"num_sentences must be >= 1, got {self.num_sentences}")
        if not 1 <= self.feature_dim <= MAX_FEATURE_DIM:
            raise ValueError(f"feature_dim must be in [1, {MAX_FEATURE_DIM}], got {self.feature_dim}")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if self.ref_len < 1:
            raise ValueError(f"ref_len must be >= 1, got {self.ref_len}")
        if not 1 <= self.features_per_hyp <= self.feature_dim:
            raise ValueError("features_per_hyp must be in [1, feature_dim]")
        latent = substream(self.seed, "latent").standard_normal(self.feature_dim)
        latent.flags.writeable = False
        object.__setattr__(self, "latent_weights", latent)


# the spec file's keys and the type each value is read as
SPEC_KEYS: dict[str, type] = dict(
    num_sentences=int, feature_dim=int, noise_scale=float, seed=int, ref_len=int, features_per_hyp=int
)


def parse_spec(text: str, default_seed: int) -> SyntheticDecoderSpec:
    """Read a spec file: ``<key>=<value>`` lines over :data:`SPEC_KEYS`, blank
    lines and #-comments ignored, ``seed`` defaulting to ``default_seed``.
    Errors come in line order (ParseError on a line without ``=`` or with a
    repeated key, DataError on an unknown key or a value that is not an ASCII
    number without ``_``), then DataError on a missing key or a bad setting."""
    kwargs: dict = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not name:
            raise ParseError(line_no, f"expected <key>=<value>, got {line!r}")
        if name in kwargs:
            raise ParseError(line_no, f"duplicate key {name!r}")
        kind = SPEC_KEYS.get(name)
        if kind is None:
            raise DataError(f"unknown spec key {name!r}")
        try:
            # int() and float() would also read "1_0" and non-ASCII digits
            if not value.isascii() or "_" in value:
                raise ValueError
            kwargs[name] = kind(value)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise DataError(f"spec key {name!r} needs {noun}, got {value!r}") from None
    required = (f.name for f in fields(SyntheticDecoderSpec) if f.init and f.default is MISSING)
    missing = sorted(set(required) - kwargs.keys())
    if missing:
        raise DataError(f"spec file missing keys: {', '.join(missing)}")
    try:
        return SyntheticDecoderSpec(**{"seed": default_seed, **kwargs})
    except ValueError as err:
        raise DataError(f"bad spec file: {err}") from None


def synthetic_references(spec: SyntheticDecoderSpec) -> ReferenceSet:
    """One fixed reference of ref_len tokens per sentence id 0..num_sentences-1."""
    return ReferenceSet(
        {
            sid: (tuple(f"s{sid}w{j}" for j in range(spec.ref_len)),)
            for sid in range(spec.num_sentences)
        }
    )


def synthetic_decode(
    spec: SyntheticDecoderSpec,
    refs: ReferenceSet,
    weights: Mapping[str, float],
    round_idx: int,
    size: int,
) -> Corpus:
    """Draw ``size`` hypotheses per sentence, deterministic in (seed, round).

    Hypothesis j copies the first ``l`` tokens of the sentence's first
    reference, where ``l`` grows with the within-list rank of the planted
    score, and pads to reference length with tokens unique to (sentence,
    round, hypothesis); so every list spans the quality range and sentence
    BLEU is strictly monotone in the prefix length.
    """
    sids = sorted(refs.by_sent)
    if len(sids) < spec.num_sentences:
        raise DataError(
            f"references cover {len(sids)} sentences, spec needs {spec.num_sentences}"
        )
    k = spec.features_per_hyp
    lists = []
    for sid in sids[: spec.num_sentences]:
        ref = refs[sid][0]
        length = len(ref)
        rng = substream(spec.seed, "decode", round_idx, sid)
        active = np.empty((size, k), dtype=np.int64)
        values = np.empty((size, k))
        for j in range(size):
            active[j] = rng.choice(spec.feature_dim, k, replace=False)
            values[j] = rng.standard_normal(k)
        active.sort(axis=1)
        # one length-k dot product per row, the kernel that `a @ b` runs on
        # each row alone, so the planted scores keep their bits
        planted = np.matmul(spec.latent_weights[active][:, None, :], values[:, :, None]).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            quality = planted + spec.noise_scale * rng.standard_normal(size)
        if not np.all(np.isfinite(quality)):
            raise DataError(f"sentence {sid}: noise_scale {spec.noise_scale:g} overflows the quality")
        rank_of = np.empty(size, dtype=np.int64)
        rank_of[np.argsort(-quality, kind="stable")] = np.arange(size)
        if size == 1:
            prefixes = [length]
        else:
            prefixes = ((length * (size - 1 - rank_of)) // (size - 1)).tolist()
        used, where = np.unique(active, return_inverse=True)
        names = np.array([f"f{i}" for i in used.tolist()], dtype=object)[where.reshape(active.shape)]
        places = [str(t) for t in range(length)]
        hyps = []
        for j, (prefix, row, vals) in enumerate(zip(prefixes, names.tolist(), values.tolist())):
            filler = f"x{sid}r{round_idx}h{j}p"
            tokens = ref[:prefix] + tuple(map(filler.__add__, places[prefix:]))
            features = dict(zip(row, vals))
            # a left-to-right float sum in feature order: the written scores'
            # bytes depend on it, and builtin sum() compensates from Python 3.12
            score = reduce(add, map(mul, map(weights.get, row, repeat(0.0)), vals), 0.0)
            hyps.append(Hypothesis(tokens, features, score))
        lists.append(NBestList(sid, tuple(hyps)))
    return Corpus.from_lists(lists)


class SyntheticDecoder:
    """DecoderInterface over :func:`synthetic_decode`."""

    def __init__(self, spec: SyntheticDecoderSpec, refs: ReferenceSet, size: int):
        self.spec = spec
        self.refs = refs
        self.size = size

    def __call__(self, weights: Mapping[str, float], round_idx: int) -> Corpus:
        return synthetic_decode(self.spec, self.refs, weights, round_idx, self.size)


def rerank(corpus: Corpus, w: np.ndarray, top: int = 1) -> list[NBestList]:
    """Stable-sort each list by ``h . w`` descending and keep the top few;
    ties keep their input order.  Returns one list per corpus list, in
    corpus order, of the corpus's own hypotheses.  Raises DataError naming
    the sentence if a score overflows or is NaN."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    out = []
    for lst, rows in zip(corpus.lists, corpus.rows):
        scores = model_scores(rows, w, lst.sent_id)
        order = np.argsort(-scores, kind="stable")[:top]
        out.append(NBestList(lst.sent_id, tuple(lst.hypotheses[i] for i in order)))
    return out


def _top1_corpus_bleu(corpus: Corpus, w: np.ndarray, refs: ReferenceSet) -> float:
    return refs.bleu((lst.sent_id, lst.hypotheses[0].tokens) for lst in rerank(corpus, w, top=1))


def run_tuning(
    decoder: DecoderInterface, refs: ReferenceSet, cfg: TuneConfig
) -> tuple[dict[str, float], list[RoundRecord]]:
    """Run up to max_rounds of decode / merge / (resample) / retrain,
    starting from zero weights and an empty pool.

    Returns the final weights by feature name and one record per completed
    round.  Every round, the first included, is merged into the pool
    (deduplicating), and the loop stops as soon as a round contributes no
    new hypothesis; on round 1 that raises DataError.  ``refs`` keeps the
    BLEU profiles, so each hypothesis of the growing pool is scored once.
    """
    named: dict[str, float] = {}
    accumulated = Corpus((), {})
    records: list[RoundRecord] = []
    for round_idx in range(1, cfg.max_rounds + 1):
        before = accumulated.total_hypotheses()
        accumulated = merge(accumulated, decoder(named, round_idx))
        if accumulated.total_hypotheses() == before:
            if round_idx == 1:
                raise DataError("decoder produced no hypotheses on round 1")
            break
        rich = richness(accumulated)
        sample = cfg.resample_m if rich.r < RICHNESS_THRESHOLD else cfg.train_cfg.sample_size
        round_cfg = replace(
            cfg.train_cfg,
            sample_size=sample,
            seed=derive_seed(cfg.train_cfg.seed, "round", round_idx),
        )
        w_start, _ = weights_vector(named, accumulated.feature_index)
        report = train(accumulated, refs, round_cfg, w_start)
        w = report.final_weights
        named = {name: float(w[idx]) for name, idx in accumulated.feature_index.items()}
        records.append(
            RoundRecord(
                round_idx,
                _top1_corpus_bleu(accumulated, w, refs),
                report.final_objective,
                accumulated.total_hypotheses(),
                rich.r,
            )
        )
    return named, records
