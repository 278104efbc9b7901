"""Command-line front end.

Subcommands: ``train`` (fit weights to an N-best file), ``rerank`` (rescore
an N-best file with a weights file), ``evaluate`` (corpus BLEU of
hypotheses against references), ``richness`` (feature-richness report with
a resampling recommendation), and ``tune-sim`` (the iterative tuning loop
against the synthetic decoder).

Exit codes: 0 on success, 1 on data or I/O errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Sequence

from .corpus import (
    Corpus,
    DataError,
    ParseError,
    ReferenceSet,
    _parse_sent_id,
    format_float,
    format_weights,
    parse_nbest,
    parse_refs,
    parse_weights,
    weights_vector,
)
from .bleu import ReferenceStats, corpus_bleu
from .trainer import RICHNESS_THRESHOLD, TrainConfig, TrainReport, richness, train
from .tuner import SyntheticDecoder, SyntheticDecoderSpec, TuneConfig, rerank, run_tuning


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_nbest(path: str) -> Corpus:
    return parse_nbest(_read_text(path))


def _read_refs(path: str) -> ReferenceSet:
    return parse_refs(_read_text(path))


def _write_history(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _train_history_rows(report: TrainReport) -> list[tuple]:
    return [(it, format_float(obj), format_float(gn)) for it, obj, gn in report.history]


def cmd_train(args: argparse.Namespace) -> int:
    try:
        cfg = TrainConfig(
            k=args.k,
            max_iters=args.max_iter,
            l2_scale=args.l2,
            sample_size=args.sample_size,
            seed=args.seed,
            workers=args.workers,
        )
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    corpus = _read_nbest(args.nbest)
    refs = _read_refs(args.refs)
    report = train(corpus, refs, cfg)
    Path(args.out).write_text(format_weights(corpus.feature_index, report.final_weights))
    if args.history:
        _write_history(args.history, ["iteration", "objective", "grad_norm"], _train_history_rows(report))
    print(f"objective={format_float(report.final_objective)} iterations={report.iterations_used}")
    return 0


def cmd_rerank(args: argparse.Namespace) -> int:
    if args.top < 1:
        print(f"usage error: --top must be >= 1, got {args.top}", file=sys.stderr)
        return 2
    corpus = _read_nbest(args.nbest)
    named = parse_weights(_read_text(args.weights))
    w, unknown = weights_vector(named, corpus.feature_index)
    for name in unknown:
        print(f"warning: weight feature {name!r} not in corpus; ignored", file=sys.stderr)
    for lst in rerank(corpus, w, top=args.top):
        for hyp in lst.hypotheses:
            score = sum(w[corpus.feature_index[n]] * v for n, v in hyp.features.items())
            feats = " ".join(f"{n}={format_float(v)}" for n, v in hyp.features.items())
            print(f"{hyp.sent_id} ||| {' '.join(hyp.tokens)} ||| {feats} ||| {format_float(score)}")
    return 0


def _read_hyp_sentences(path: str) -> dict[int, tuple[str, ...]]:
    """First hypothesis per sentence from N-best or ``sent_id ||| tokens`` lines."""
    first: dict[int, tuple[str, ...]] = {}
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        fields = [f.strip() for f in raw.split("|||")]
        if len(fields) not in (2, 4):
            raise ParseError(line_no, f"expected 2 or 4 '|||'-separated fields, got {len(fields)}")
        sent_id = _parse_sent_id(fields[0], line_no)
        if sent_id not in first:
            first[sent_id] = tuple(fields[1].split())
    return first


def cmd_evaluate(args: argparse.Namespace) -> int:
    hyps = _read_hyp_sentences(args.hyp)
    refs = _read_refs(args.refs)
    total = None
    for sent_id, tokens in hyps.items():
        if sent_id not in refs:
            raise DataError(f"sentence {sent_id} has no reference")
        stats = ReferenceStats(refs[sent_id]).stats_for(tokens)
        total = stats if total is None else total + stats
    if total is None:
        raise DataError("no hypotheses to evaluate")
    print(f"BLEU = {100.0 * corpus_bleu(total):.2f}")
    return 0


def cmd_richness(args: argparse.Namespace) -> int:
    report = richness(_read_nbest(args.nbest))
    print(f"features={report.feature_count} avg_list={report.avg_list_size:.2f} r={report.r:.2f}")
    if report.r < RICHNESS_THRESHOLD:
        print(f"resample recommended: r < {RICHNESS_THRESHOLD:g}")
    else:
        print("no resampling needed")
    return 0


def _load_decoder_spec(path: str, fallback_seed: int) -> SyntheticDecoderSpec:
    """Read a key=value spec file (num_sentences, feature_dim, noise_scale,
    seed, ref_len, features_per_hyp); blank lines and #-comments ignored."""
    keys: dict[str, str] = {}
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, value = line.partition("=")
        if not eq or not name.strip():
            raise ParseError(line_no, f"expected <key>=<value>, got {line!r}")
        keys[name.strip()] = value.strip()
    ints = {"num_sentences", "feature_dim", "seed", "ref_len", "features_per_hyp"}
    kwargs: dict = {"seed": fallback_seed}
    for name, value in keys.items():
        if name in ints:
            try:
                kwargs[name] = int(value)
            except ValueError:
                raise DataError(f"spec key {name!r} needs an integer, got {value!r}") from None
        elif name == "noise_scale":
            try:
                kwargs[name] = float(value)
            except ValueError:
                raise DataError(f"spec key {name!r} needs a number, got {value!r}") from None
        else:
            raise DataError(f"unknown spec key {name!r}")
    try:
        return SyntheticDecoderSpec(**kwargs)
    except TypeError:
        missing = {"num_sentences", "feature_dim"} - set(kwargs)
        raise DataError(f"spec file missing keys: {', '.join(sorted(missing))}") from None
    except ValueError as err:
        raise DataError(f"bad spec file: {err}") from None


def cmd_tune_sim(args: argparse.Namespace) -> int:
    try:
        train_cfg = TrainConfig(
            k=args.k,
            max_iters=args.max_iter,
            l2_scale=args.l2,
            seed=args.seed,
            workers=args.workers,
        )
        cfg = TuneConfig(
            train_cfg=train_cfg,
            max_rounds=args.rounds,
            per_round_size=args.per_round,
            resample_m=args.resample_m,
        )
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    spec = _load_decoder_spec(args.spec, fallback_seed=args.seed)
    refs = _read_refs(args.refs)
    decoder = SyntheticDecoder(spec, refs, cfg.per_round_size)
    named, records = run_tuning(decoder, refs, cfg)
    index = {name: i for i, name in enumerate(sorted(named))}
    values = [named[name] for name in sorted(named)]
    Path(args.out).write_text(format_weights(index, values))
    if args.history:
        rows = [
            (r.round, format_float(r.dev_bleu), format_float(r.objective), r.corpus_size, format_float(r.richness))
            for r in records
        ]
        _write_history(args.history, ["round", "dev_bleu", "objective", "corpus_size", "richness"], rows)
    last = records[-1]
    print(f"rounds={last.round} dev_bleu={last.dev_bleu:.2f} corpus_size={last.corpus_size}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plrank", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit weights to an N-best file")
    p.add_argument("--nbest", required=True, help="N-best hypothesis file")
    p.add_argument("--refs", required=True, help="reference file")
    p.add_argument("--out", required=True, help="output weights file")
    p.add_argument("--k", type=int, default=5, help="ranked-prefix length (default 5)")
    p.add_argument("--l2", type=float, default=1.0, help="Gaussian penalty scale (default 1.0)")
    p.add_argument("--max-iter", type=int, default=500, help="optimizer iteration cap (default 500)")
    p.add_argument("--seed", type=int, default=42, help="root random seed (default 42)")
    p.add_argument("--sample-size", type=int, default=None, help="resample lists to this size")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--history", default=None, help="write per-iteration CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rerank", help="rescore an N-best file with a weights file")
    p.add_argument("--nbest", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--top", type=int, default=1, help="hypotheses to keep per sentence (default 1)")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("evaluate", help="corpus BLEU of hypotheses against references")
    p.add_argument("--hyp", required=True, help="hypothesis file (N-best or sent_id ||| tokens)")
    p.add_argument("--refs", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("richness", help="feature richness report")
    p.add_argument("--nbest", required=True)
    p.set_defaults(func=cmd_richness)

    p = sub.add_parser("tune-sim", help="iterative tuning against the synthetic decoder")
    p.add_argument("--spec", required=True, help="key=value synthetic decoder spec file")
    p.add_argument("--refs", required=True)
    p.add_argument("--rounds", type=int, default=40, help="maximum tuning rounds (default 40)")
    p.add_argument("--per-round", type=int, default=200, help="hypotheses per sentence per round (default 200)")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--resample-m", type=int, default=30, help="list size after resampling (default 30)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output weights file")
    p.add_argument("--history", default=None, help="write per-round CSV here")
    p.set_defaults(func=cmd_tune_sim)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DataError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
