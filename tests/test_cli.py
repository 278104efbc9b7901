"""Command-line behavior: happy paths, output formats, and exit codes."""

import warnings

import numpy as np
import pytest

from plrank.cli import main
from plrank.corpus import parse_nbest, parse_weights

NBEST = (
    "0 ||| a b ||| lm=1.0 tm=0.5 ||| 0.0\n"
    "0 ||| a c ||| lm=0.5 ||| 0.0\n"
    "0 ||| b c ||| tm=2.0 ||| 0.0\n"
    "1 ||| d e ||| lm=1.5 ||| 0.0\n"
    "1 ||| e d ||| tm=1.0 ||| 0.0\n"
)
REFS = "0 ||| a b\n1 ||| d e\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "nbest.txt").write_text(NBEST)
    (tmp_path / "refs.txt").write_text(REFS)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_writes_sorted_weights_and_reports_progress(self, workdir, capsys):
        out = workdir / "weights.txt"
        hist = workdir / "history.csv"
        code, stdout, _ = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", out,
            "--k", 2,
            "--history", hist,
        )
        assert code == 0
        assert "objective=" in stdout and "iterations=" in stdout
        names = [line.split("\t")[0] for line in out.read_text().splitlines()]
        assert names == sorted(names) == ["lm", "tm"]
        header, *rows = hist.read_text().splitlines()
        assert header == "iteration,objective,grad_norm"
        assert rows[0].startswith("0,")
        objectives = [float(r.split(",")[1]) for r in rows]
        assert objectives == sorted(objectives)

    def test_missing_reference_is_data_error(self, workdir, capsys):
        (workdir / "refs.txt").write_text("0 ||| a b\n")
        code, _, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", workdir / "w.txt",
        )
        assert code == 1
        assert "sentence 1" in stderr

    def test_bad_flag_value_is_usage_error(self, workdir, capsys):
        code, _, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", workdir / "w.txt",
            "--k", 0,
        )
        assert code == 2
        assert "usage error" in stderr

    def test_missing_required_flag_exits_two(self, workdir):
        with pytest.raises(SystemExit) as err:
            main(["train", "--nbest", str(workdir / "nbest.txt")])
        assert err.value.code == 2

    def test_malformed_nbest_names_line(self, workdir, capsys):
        (workdir / "nbest.txt").write_text("0 ||| a ||| broken ||| 0.0\n0 ||| b\n")
        code, _, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", workdir / "w.txt",
        )
        assert code == 1
        assert "line 1" in stderr

    def test_unreadable_file_is_io_error(self, workdir, capsys):
        code, _, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "missing.txt",
            "--refs", workdir / "refs.txt",
            "--out", workdir / "w.txt",
        )
        assert code == 1
        assert stderr.startswith("error:")

    def test_overflowing_feature_value_gives_one_error_line(self, workdir, capsys):
        (workdir / "nbest.txt").write_text(NBEST.replace("lm=1.0 tm=0.5", "lm=1e308 tm=0.5"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any numpy RuntimeWarning fails the run
            code, _, stderr = run(
                capsys,
                "train",
                "--nbest", workdir / "nbest.txt",
                "--refs", workdir / "refs.txt",
                "--out", workdir / "w.txt",
            )
        assert code == 1
        assert stderr.splitlines() == ["error: non-finite objective or gradient at iteration 1"]


class TestRerank:
    def test_scores_are_dot_products(self, workdir, capsys):
        weights = workdir / "weights.txt"
        weights.write_text("lm\t2.0\ntm\t-1.0\n")
        code, stdout, stderr = run(
            capsys,
            "rerank",
            "--nbest", workdir / "nbest.txt",
            "--weights", weights,
            "--top", 3,
        )
        assert code == 0 and stderr == ""
        corpus = parse_nbest(stdout)
        named = parse_weights(weights.read_text())
        for lst in corpus.lists:
            scores = [hyp.decoder_score for hyp in lst.hypotheses]
            assert scores == sorted(scores, reverse=True)
            for hyp in lst.hypotheses:
                oracle = sum(named.get(n, 0.0) * v for n, v in hyp.features.items())
                assert hyp.decoder_score == pytest.approx(oracle, abs=1e-12)

    def test_top_one_keeps_best_per_sentence(self, workdir, capsys):
        weights = workdir / "weights.txt"
        weights.write_text("lm\t1.0\ntm\t0.0\n")
        code, stdout, _ = run(
            capsys, "rerank", "--nbest", workdir / "nbest.txt", "--weights", weights
        )
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0 ||| a b")
        assert lines[1].startswith("1 ||| d e")

    def test_unknown_weight_warns_and_is_ignored(self, workdir, capsys):
        weights = workdir / "weights.txt"
        weights.write_text("lm\t1.0\nmystery\t9.0\ntm\t0.0\n")
        code, stdout, stderr = run(
            capsys, "rerank", "--nbest", workdir / "nbest.txt", "--weights", weights
        )
        assert code == 0
        assert "mystery" in stderr and "warning" in stderr
        assert stdout.splitlines()[0].startswith("0 ||| a b")

    def test_corpus_feature_missing_from_weights_scores_zero(self, workdir, capsys):
        weights = workdir / "weights.txt"
        weights.write_text("lm\t1.0\n")  # tm unmentioned
        code, stdout, _ = run(
            capsys,
            "rerank",
            "--nbest", workdir / "nbest.txt",
            "--weights", weights,
            "--top", 3,
        )
        assert code == 0
        first = parse_nbest(stdout).lists[0].hypotheses
        assert [h.tokens for h in first] == [("a", "b"), ("a", "c"), ("b", "c")]
        assert first[2].decoder_score == 0.0


class TestEvaluate:
    @pytest.fixture
    def evaldir(self, tmp_path):
        (tmp_path / "refs.txt").write_text("0 ||| a b c d e\n1 ||| v w x y z\n")
        return tmp_path

    def test_perfect_hypotheses_scores_hundred(self, evaldir, capsys):
        hyp = evaldir / "hyp.txt"
        hyp.write_text("0 ||| a b c d e\n1 ||| v w x y z\n")
        code, stdout, _ = run(
            capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt"
        )
        assert code == 0
        assert stdout.strip() == "BLEU = 100.00"

    def test_accepts_nbest_format_taking_first_per_sentence(self, evaldir, capsys):
        hyp = evaldir / "hyp.txt"
        hyp.write_text(
            "0 ||| a b c d e ||| f=1.0 ||| 0.0\n"
            "0 ||| a a a a a ||| f=0.0 ||| -1.0\n"
            "1 ||| v w x y z ||| f=1.0 ||| 0.0\n"
        )
        code, stdout, _ = run(
            capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt"
        )
        assert code == 0
        assert stdout.strip() == "BLEU = 100.00"  # first hypotheses match the refs

    def test_matches_pooled_statistics_oracle(self, evaldir, capsys):
        import math

        hyp = evaldir / "hyp.txt"
        hyp.write_text("0 ||| a b c d x\n1 ||| v w x y z\n")
        code, stdout, _ = run(capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt")
        assert code == 0
        # pooled: 1-gram 9/10, 2-gram 7/8, 3-gram 5/6, 4-gram 3/4; no brevity penalty
        expected = 100 * math.exp(
            (math.log(9 / 10) + math.log(7 / 8) + math.log(5 / 6) + math.log(3 / 4)) / 4
        )
        assert stdout.strip() == f"BLEU = {expected:.2f}"

    def test_unknown_sentence_id_named_in_error(self, evaldir, capsys):
        hyp = evaldir / "hyp.txt"
        hyp.write_text("0 ||| a b c d e\n9 ||| z z\n")
        code, _, stderr = run(
            capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt"
        )
        assert code == 1
        assert "9" in stderr

    def test_negative_sentence_id_names_line(self, evaldir, capsys):
        hyp = evaldir / "hyp.txt"
        hyp.write_text("0 ||| a b c d e\n-3 ||| a b c\n")
        code, _, stderr = run(
            capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt"
        )
        assert code == 1
        assert stderr.strip() == "error: line 2: sentence id -3 is negative"


class TestRichness:
    def test_reports_and_recommends_resampling(self, workdir, capsys):
        code, stdout, _ = run(capsys, "richness", "--nbest", workdir / "nbest.txt")
        assert code == 0
        line, recommendation = stdout.splitlines()
        assert line == "features=2 avg_list=2.50 r=0.80"
        assert "resample recommended" in recommendation

    def test_no_recommendation_when_rich(self, workdir, capsys):
        lines = []
        for i in range(30):
            lines.append(f"{i} ||| t{i} ||| f{2*i}=1.0 f{2*i+1}=1.0 ||| 0.0\n")
        (workdir / "rich.txt").write_text("".join(lines))
        code, stdout, _ = run(capsys, "richness", "--nbest", workdir / "rich.txt")
        assert code == 0
        assert "no resampling needed" in stdout
        assert "r=60.00" in stdout  # 60 features / avg list size 1

    def test_empty_corpus_is_data_error(self, workdir, capsys):
        (workdir / "empty.txt").write_text("")
        code, _, stderr = run(capsys, "richness", "--nbest", workdir / "empty.txt")
        assert code == 1
        assert "empty" in stderr


@pytest.fixture
def simdir(tmp_path):
    (tmp_path / "spec.txt").write_text(
        "num_sentences=4\nfeature_dim=12\nnoise_scale=0.1\nseed=11\n"
    )
    refs = "".join(
        f"{sid} ||| " + " ".join(f"s{sid}w{j}" for j in range(25)) + "\n" for sid in range(4)
    )
    (tmp_path / "refs.txt").write_text(refs)
    return tmp_path


def run_tune(capsys, simdir, tag, extra=()):
    out = simdir / f"weights-{tag}.txt"
    hist = simdir / f"history-{tag}.csv"
    code, stdout, stderr = run(
        capsys,
        "tune-sim",
        "--spec", simdir / "spec.txt",
        "--refs", simdir / "refs.txt",
        "--rounds", 2,
        "--per-round", 10,
        "--k", 3,
        "--max-iter", 30,
        "--out", out,
        "--history", hist,
        *extra,
    )
    weights = out.read_bytes() if out.exists() else b""
    history = hist.read_bytes() if hist.exists() else b""
    return code, weights, history, stdout, stderr


class TestTuneSim:
    def test_runs_and_writes_artifacts(self, simdir, capsys):
        code, weights, history, stdout, _ = run_tune(capsys, simdir, "a")
        assert code == 0
        assert "rounds=2" in stdout
        header, *rows = history.decode().splitlines()
        assert header == "round,dev_bleu,objective,corpus_size,richness"
        assert len(rows) == 2
        parsed = parse_weights(weights.decode())
        assert parsed and all(name.startswith("f") for name in parsed)

    def test_byte_identical_across_runs_and_workers(self, simdir, capsys):
        _, w1, h1, _, _ = run_tune(capsys, simdir, "a")
        _, w2, h2, _, _ = run_tune(capsys, simdir, "b")
        _, w3, h3, _, _ = run_tune(capsys, simdir, "c", extra=("--workers", 4))
        assert w1 == w2 == w3
        assert h1 == h2 == h3

    def test_bad_spec_file_is_data_error(self, simdir, capsys):
        (simdir / "spec.txt").write_text("feature_dim=12\n")
        code, _, _, _, stderr = run_tune(capsys, simdir, "a")
        assert code == 1
        assert "num_sentences" in stderr

    def test_unknown_spec_key_is_data_error(self, simdir, capsys):
        (simdir / "spec.txt").write_text("num_sentences=4\nfeature_dim=12\nwat=1\n")
        code, _, _, _, stderr = run_tune(capsys, simdir, "a")
        assert code == 1
        assert "wat" in stderr

    def test_bad_rounds_is_usage_error(self, simdir, capsys):
        code, _, stderr = run(
            capsys,
            "tune-sim",
            "--spec", simdir / "spec.txt",
            "--refs", simdir / "refs.txt",
            "--rounds", 0,
            "--out", simdir / "w.txt",
        )
        assert code == 2
        assert "usage error" in stderr
