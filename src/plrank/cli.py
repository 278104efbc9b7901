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
import sys
from pathlib import Path
from typing import Sequence

from .corpus import (
    DataError,
    _echo,
    format_float,
    format_weights,
    model_scores,
    nbest_line,
    parse_first_hypotheses,
    parse_nbest,
    parse_refs,
    parse_weights,
    weights_vector,
)
from .trainer import RICHNESS_THRESHOLD, TrainConfig, richness, train
from .tuner import SyntheticDecoder, TuneConfig, parse_spec, rerank, run_tuning


# files are UTF-8 bytes whatever the locale, and only the parsers split lines:
# a text-mode file would also end a line at a lone \r
def _read_utf8(path: str) -> str:
    """The file's text; raises ValueError naming the file and the first
    byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8: byte 0x{data[err.start]:02x} at offset {err.start}") from None


def _write_utf8(path: str, text: str) -> None:
    Path(path).write_bytes(text.encode("utf-8"))


def _write_history(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    # CSV as csv.writer writes it: no field needs quoting, lines end in \r\n
    _write_utf8(path, "".join(",".join(map(str, row)) + "\r\n" for row in (header, *rows)))


def _check_at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _train_config(args: argparse.Namespace, sample_size: int | None = None) -> TrainConfig:
    """The TrainConfig of the shared training flags; raises ValueError on a bad one."""
    cfg = TrainConfig(
        k=args.k, max_iters=args.max_iter, l2_scale=args.l2, sample_size=sample_size, seed=args.seed
    )
    # --workers has no effect (evaluation is one vectorized pass); it stays
    # accepted, and validated, so existing command lines keep working
    _check_at_least_one("workers", args.workers)
    return cfg


def cmd_train(args: argparse.Namespace) -> int:
    try:
        cfg = _train_config(args, args.sample_size)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    corpus = parse_nbest(_read_utf8(args.nbest))
    report = train(corpus, parse_refs(_read_utf8(args.refs)), cfg)
    _write_utf8(args.out, format_weights(corpus.feature_index, report.final_weights))
    if args.history:
        rows = [(it, format_float(obj), format_float(gn)) for it, obj, gn in report.history]
        _write_history(args.history, ["iteration", "objective", "grad_norm"], rows)
    print(f"objective={format_float(report.final_objective)} iterations={report.iterations_used}")
    return 0


def cmd_rerank(args: argparse.Namespace) -> int:
    if args.top < 1:
        print(f"usage error: --top must be >= 1, got {args.top}", file=sys.stderr)
        return 2
    corpus = parse_nbest(_read_utf8(args.nbest))
    named = parse_weights(_read_utf8(args.weights))
    w, unknown = weights_vector(named, corpus.feature_index)
    for name in unknown:
        print(f"warning: weight feature {_echo(name)} not in corpus; ignored", file=sys.stderr)
    # each hypothesis rerank kept is printed with the score of its corpus row
    for lst, rows, kept in zip(corpus.lists, corpus.rows, rerank(corpus, w, top=args.top)):
        scores = model_scores(rows, w, lst.sent_id)
        row = {id(hyp): i for i, hyp in enumerate(lst.hypotheses)}
        for hyp in kept.hypotheses:
            print(nbest_line(lst.sent_id, hyp, scores[row[id(hyp)]]))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    hyps = parse_first_hypotheses(_read_utf8(args.hyp))
    refs = parse_refs(_read_utf8(args.refs))
    if not hyps:
        raise DataError("no hypotheses to evaluate")
    print(f"BLEU = {refs.bleu(hyps.items()):.2f}")
    return 0


def cmd_richness(args: argparse.Namespace) -> int:
    report = richness(parse_nbest(_read_utf8(args.nbest)))
    print(f"features={report.feature_count} avg_list={report.avg_list_size:.2f} r={report.r:.2f}")
    if report.r < RICHNESS_THRESHOLD:
        print(f"resample recommended: r < {RICHNESS_THRESHOLD:g}")
    else:
        print("no resampling needed")
    return 0


def cmd_tune_sim(args: argparse.Namespace) -> int:
    try:
        train_cfg = _train_config(args)
        _check_at_least_one("per_round", args.per_round)
        cfg = TuneConfig(train_cfg=train_cfg, max_rounds=args.rounds, resample_m=args.resample_m)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    spec = parse_spec(_read_utf8(args.spec), default_seed=args.seed)
    refs = parse_refs(_read_utf8(args.refs))
    named, records = run_tuning(SyntheticDecoder(spec, refs, args.per_round), refs, cfg)
    _write_utf8(args.out, format_weights({n: i for i, n in enumerate(named)}, list(named.values())))
    if args.history:
        rows = [
            (r.round, format_float(r.dev_bleu), format_float(r.objective), r.corpus_size, format_float(r.richness))
            for r in records
        ]
        _write_history(args.history, ["round", "dev_bleu", "objective", "corpus_size", "richness"], rows)
    last = records[-1]
    print(f"rounds={last.round} dev_bleu={last.dev_bleu:.2f} corpus_size={last.corpus_size}")
    return 0


def _add_training_args(
    p: argparse.ArgumentParser, size_flag: str, size_default: int | None, size_help: str
) -> None:
    """Add the training flags train and tune-sim share.  Each names its
    list-size flag differently; it goes between --seed and --workers."""
    p.add_argument("--k", type=int, default=5, help="ranked-prefix length (default 5)")
    p.add_argument("--l2", type=float, default=1.0, help="Gaussian penalty scale (default 1.0)")
    p.add_argument("--max-iter", type=int, default=500, help="optimizer iteration cap (default 500)")
    p.add_argument("--seed", type=int, default=42, help="root random seed (default 42)")
    p.add_argument(size_flag, type=int, default=size_default, help=size_help)
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect; must be >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plrank", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit weights to an N-best file")
    p.add_argument("--nbest", required=True, help="N-best hypothesis file")
    p.add_argument("--refs", required=True, help="reference file")
    p.add_argument("--out", required=True, help="output weights file")
    _add_training_args(p, "--sample-size", None, "resample lists to this size")
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
    _add_training_args(p, "--resample-m", 30, "list size after resampling (default 30)")
    p.add_argument("--out", required=True, help="output weights file")
    p.add_argument("--history", default=None, help="write per-round CSV here")
    p.set_defaults(func=cmd_tune_sim)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ParseError and DataError are ValueErrors; an allocation numpy refuses
    # is a MemoryError
    except (OSError, ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    # stdout is UTF-8 whatever the locale, like every file plrank writes
    sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    entry()
