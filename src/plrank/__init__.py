"""Listwise tuning of sparse linear rerankers by permutation likelihood.

The names below are the library surface the README documents; everything
else is importable from its submodule (``plrank.corpus``, ``plrank.bleu``,
``plrank.likelihood``, ``plrank.trainer``, ``plrank.tuner``).
"""

from .corpus import DataError, ParseError, parse_nbest, parse_refs
from .likelihood import list_distribution, objective_and_gradient, permutation_log_prob
from .trainer import TrainConfig, TrainReport, lbfgs_maximize, resample, richness, train
from .tuner import TuneConfig, rerank, run_tuning

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "ParseError",
    "TrainConfig",
    "TrainReport",
    "TuneConfig",
    "lbfgs_maximize",
    "list_distribution",
    "objective_and_gradient",
    "parse_nbest",
    "parse_refs",
    "permutation_log_prob",
    "rerank",
    "resample",
    "richness",
    "run_tuning",
    "train",
]
