"""Benchmark workloads: input generation, the timed CLI operation, output checks.

Every input comes from plrank's own synthetic decoder, seeded by the
workload seed, so no download is needed and the same seed always gives
byte-identical files.  Run as a script, this module is the set-up step:

    python3 bench/workloads.py --workload train-bleu --seed 1 --out DIR

It writes the workload's input files plus ``input.json`` (input size:
hypotheses, bytes, features, richness r) into DIR, and prints the seconds
from ``import plrank`` to the last file written as ``{"setup_s": ...}``.
The benchmark runs it in a child process so the generator's memory never
counts towards the operation's peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from time import perf_counter

# Each workload's full-size input.  The sizes keep the layer each workload
# was chosen for dominant while one operation stays at a few seconds, so a
# run of a few seconds holds several operations.
SIZES = {
    "train-bleu": dict(sentences=150, held_out=300, hyps=50, feature_dim=70, ref_len=50,
                       features_per_hyp=4, noise=0.1),
    "train-deep": dict(sentences=160, hyps=50, feature_dim=8000, ref_len=8,
                       features_per_hyp=16, noise=0.5),
    "tune-sim": dict(sentences=10, feature_dim=200, ref_len=30, features_per_hyp=8,
                     rounds=6, per_round=60),
    "rerank-io": dict(sentences=300, hyps=100, feature_dim=2000, ref_len=20,
                      features_per_hyp=10, noise=0.1),
}

WHY = {
    "train-bleu": "sentence BLEU in build_instances does most of the work (the test_09 train corpus)",
    "train-deep": "many L-BFGS iterations over a deep ranking: the likelihood kernel and the 2-thread pool dominate",
    "tune-sim": "the tuning loop rescoring a growing pool: BLEU reuse across rounds, merge, resampling, decode",
    "rerank-io": "parse, rerank and write every hypothesis of a large N-best file: no BLEU, no likelihood",
}

HELDOUT_AGREE_MIN = 0.90


# --------------------------------------------------------------- generation

def _spec(size: dict, seed: int, sentences: int):
    from plrank.tuner import SyntheticDecoderSpec

    return SyntheticDecoderSpec(
        num_sentences=sentences,
        feature_dim=size["feature_dim"],
        noise_scale=size.get("noise", 0.1),
        seed=seed,
        ref_len=size["ref_len"],
        features_per_hyp=size["features_per_hyp"],
    )


def _refs_text(refs, sent_ids) -> str:
    return "".join(f"{sid} ||| {' '.join(refs[sid][0])}\n" for sid in sent_ids)


def _corpus_info(corpus, nbest_text: str) -> dict:
    from plrank.trainer import richness

    return {
        "hypotheses": corpus.total_hypotheses(),
        "bytes": len(nbest_text.encode()),
        "features": len(corpus.feature_index),
        "richness": richness(corpus).r,
    }


def generate(name: str, seed: int, out: Path, size: dict) -> dict:
    """Write the inputs of workload ``name`` into ``out``; return their size."""
    from plrank.corpus import Corpus, format_weights, write_nbest
    from plrank.tuner import synthetic_decode, synthetic_references

    out.mkdir(parents=True, exist_ok=True)
    if name == "tune-sim":
        spec = _spec(size, seed, size["sentences"])
        refs = synthetic_references(spec)
        keys = ("num_sentences", "feature_dim", "noise_scale", "seed", "ref_len", "features_per_hyp")
        spec_text = "".join(f"{k}={getattr(spec, k)}\n" for k in keys)
        refs_text = _refs_text(refs, range(spec.num_sentences))
        (out / "spec.txt").write_text(spec_text)
        (out / "refs.txt").write_text(refs_text)
        # richness of the decoded pool is read from the history after an operation
        info = {
            "hypotheses": spec.num_sentences * size["rounds"] * size["per_round"],
            "bytes": len(spec_text) + len(refs_text),
            "features": spec.feature_dim,
        }
    else:
        held = size.get("held_out", 0)
        spec = _spec(size, seed, size["sentences"] + held)
        refs = synthetic_references(spec)
        full = synthetic_decode(spec, refs, {}, 0, size["hyps"])
        corpus = Corpus.from_lists(full.lists[: size["sentences"]])
        nbest_text = write_nbest(corpus)
        (out / "nbest.txt").write_text(nbest_text)
        info = _corpus_info(corpus, nbest_text)
        if name == "rerank-io":
            latent = spec.latent_weights
            values = [latent[int(f[1:])] for f in corpus.feature_index]
            (out / "weights.txt").write_text(format_weights(corpus.feature_index, values))
        else:
            (out / "refs.txt").write_text(_refs_text(refs, range(size["sentences"])))
        if held:
            held_corpus = Corpus.from_lists(full.lists[size["sentences"]:])
            (out / "held.txt").write_text(write_nbest(held_corpus))
            # the planted model's top-1 per held-out sentence, first index on ties
            oracle = []
            for lst in held_corpus.lists:
                planted = [sum(spec.latent_weights[int(f[1:])] * v for f, v in h.features.items())
                           for h in lst.hypotheses]
                oracle.append(max(range(len(planted)), key=planted.__getitem__))
            (out / "oracle.txt").write_text("".join(f"{i}\n" for i in oracle))
    (out / "input.json").write_text(json.dumps(info, sort_keys=True))
    return info


# --------------------------------------------------------------- operations

def argv(name: str, inp: Path, op: Path, size: dict) -> list[str]:
    """The timed ``plrank`` command line of one operation."""
    if name == "train-bleu":
        return ["train", "--nbest", str(inp / "nbest.txt"), "--refs", str(inp / "refs.txt"),
                "--out", str(op / "weights.txt"), "--k", "5", "--l2", "1.0", "--seed", "7"]
    if name == "train-deep":
        return ["train", "--nbest", str(inp / "nbest.txt"), "--refs", str(inp / "refs.txt"),
                "--out", str(op / "weights.txt"), "--k", "10", "--l2", "0.03", "--seed", "7",
                "--workers", "2"]
    if name == "tune-sim":
        return ["tune-sim", "--spec", str(inp / "spec.txt"), "--refs", str(inp / "refs.txt"),
                "--rounds", str(size["rounds"]), "--per-round", str(size["per_round"]),
                "--k", "5", "--seed", "7", "--out", str(op / "weights.txt"),
                "--history", str(op / "history.csv")]
    if name == "rerank-io":
        return ["rerank", "--nbest", str(inp / "nbest.txt"), "--weights", str(inp / "weights.txt"),
                "--top", str(size["hyps"])]
    raise KeyError(name)


# ------------------------------------------------------------------- checks

def _parse_weights(text: str) -> dict[str, float]:
    named = {}
    for line in text.splitlines():
        feat, _, value = line.partition("\t")
        named[feat] = float(value)
    return named


def _heldout_agree(inp: Path, weights_text: str) -> float:
    """Top-1 agreement of the trained weights with the planted oracle on the
    held-out sentences, scored here independently of plrank's reranker."""
    w = _parse_weights(weights_text)
    oracle = [int(x) for x in (inp / "oracle.txt").read_text().split()]
    best: dict[int, tuple[float, int]] = {}
    position: dict[int, int] = {}
    order: list[int] = []
    with open(inp / "held.txt", encoding="utf-8") as fh:
        for line in fh:
            sid_text, _, feats, _ = line.split(" ||| ")
            sid = int(sid_text)
            if sid not in position:
                position[sid] = 0
                order.append(sid)
            score = 0.0
            for item in feats.split():
                feat, _, value = item.partition("=")
                score += w.get(feat, 0.0) * float(value)
            idx = position[sid]
            position[sid] = idx + 1
            if sid not in best or score > best[sid][0]:
                best[sid] = (score, idx)
    hits = sum(best[sid][1] == o for sid, o in zip(order, oracle))
    return hits / len(oracle)


def _train_objective(stdout: str) -> float:
    fields = dict(item.split("=", 1) for item in stdout.split())
    value = float(fields["objective"])
    if not math.isfinite(value):
        raise ValueError(f"non-finite objective {value}")
    return value


def _check_rerank(op: Path, expected_lines: int) -> list[str]:
    problems = []
    lines = 0
    prev_sid, prev_score = None, math.inf
    with open(op / "stdout.txt", encoding="utf-8") as fh:
        for line in fh:
            lines += 1
            fields = line.rstrip("\n").split(" ||| ")
            if len(fields) != 4:
                problems.append(f"output line {lines} has {len(fields)} fields")
                break
            sid, score = int(fields[0]), float(fields[3])
            if sid == prev_sid and score > prev_score:
                problems.append(f"output line {lines}: score rises within sentence {sid}")
                break
            prev_sid, prev_score = sid, score
    if lines != expected_lines:
        problems.append(f"{lines} output lines for {expected_lines} input lines")
    return problems


def check(name: str, inp: Path, op: Path, size: dict, state: dict) -> tuple[list[str], dict]:
    """Check one operation's outputs.

    Returns (problems, quality); ``state`` carries the first operation's
    outputs so later repeats can be compared with them byte for byte.
    """
    problems: list[str] = []
    quality: dict = {}
    if name == "rerank-io":
        expected = json.loads((inp / "input.json").read_text())["hypotheses"]
        return _check_rerank(op, expected), quality
    outputs = {"weights.txt": (op / "weights.txt").read_bytes()}
    if name == "tune-sim":
        outputs["history.csv"] = (op / "history.csv").read_bytes()
        rows = outputs["history.csv"].decode().splitlines()[1:]
        if len(rows) != size["rounds"]:
            problems.append(f"{len(rows)} history rows, expected {size['rounds']}")
        bleus = [float(row.split(",")[1]) for row in rows]
        if not all(math.isfinite(b) for b in bleus):
            problems.append(f"non-finite dev BLEU in {bleus}")
        if rows:
            quality["dev_bleu"] = bleus[-1]
            quality["richness_round1"] = float(rows[0].split(",")[4])
    else:
        stdout = (op / "stdout.txt").read_text()
        outputs["stdout.txt"] = stdout.encode()
        quality["objective"] = _train_objective(stdout)
        if name == "train-bleu":
            agree = _heldout_agree(inp, outputs["weights.txt"].decode())
            quality["heldout_agree"] = agree
            if agree < HELDOUT_AGREE_MIN:
                problems.append(f"heldout_agree {agree} < {HELDOUT_AGREE_MIN}")
    first = state.setdefault("outputs", outputs)
    for fname, data in outputs.items():
        if data != first[fname]:
            problems.append(f"{fname} differs from the first operation's")
    return problems, quality


def main() -> None:
    parser = argparse.ArgumentParser(description="write one workload's benchmark inputs")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default=None, help="JSON size overrides")
    args = parser.parse_args()
    size = dict(SIZES[args.workload], **json.loads(args.size or "{}"))
    # set-up time runs from ``import plrank`` to the last file written;
    # interpreter start-up is left out
    start = perf_counter()
    import plrank  # noqa: F401

    generate(args.workload, args.seed, Path(args.out), size)
    print(json.dumps({"setup_s": perf_counter() - start}))


if __name__ == "__main__":
    main()
