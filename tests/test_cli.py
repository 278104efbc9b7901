"""Command-line behavior: happy paths, output formats, and exit codes."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank.cli import main
from plrank.corpus import format_float, parse_nbest, parse_weights, weights_vector, write_nbest

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
        assert stderr == "error: no reference for sentence 1\n"

    def test_empty_reference_line_names_line(self, workdir, capsys):
        (workdir / "refs.txt").write_text("0 ||| a b\n1 ||| \n")
        out = workdir / "w.txt"
        code, stdout, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", out,
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: line 2: empty reference for sentence 1\n"
        assert not out.exists()

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

    def test_latin1_refs_name_the_file_and_the_byte(self, workdir, capsys):
        (workdir / "refs.txt").write_bytes("0 ||| caf\xe9\n1 ||| d e\n".encode("latin-1"))
        code, stdout, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", workdir / "w.txt",
        )
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {workdir / 'refs.txt'}: not UTF-8: byte 0xe9 at offset 9\n"
        assert not (workdir / "w.txt").exists()

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

    def test_empty_nbest_is_data_error(self, workdir, capsys):
        (workdir / "nbest.txt").write_text("")
        out = workdir / "w.txt"
        code, stdout, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", out,
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: empty corpus\n"
        assert not out.exists()

    def test_zero_workers_is_usage_error(self, workdir, capsys):
        out = workdir / "w.txt"
        code, stdout, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", out,
            "--workers", 0,
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "usage error: workers must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("l2", ["nan", "inf"])
    def test_non_finite_l2_is_usage_error(self, workdir, capsys, l2):
        out = workdir / "w.txt"
        code, stdout, stderr = run(
            capsys,
            "train",
            "--nbest", workdir / "nbest.txt",
            "--refs", workdir / "refs.txt",
            "--out", out,
            "--l2", l2,
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"usage error: l2_scale must be finite and >= 0, got {l2}\n"
        assert not out.exists()

    def test_weights_are_utf8_whatever_the_locale(self, workdir, capsys):
        # under the C locale a text-mode file would be ASCII and could not hold "tm€"
        (workdir / "nbest.txt").write_bytes(NBEST.replace("tm=", "tm\u20ac=").encode("utf-8"))
        argv = ["train", "--nbest", workdir / "nbest.txt", "--refs", workdir / "refs.txt", "--k", 2]
        code, _, _ = run(capsys, *argv, "--out", workdir / "w-default.txt")
        assert code == 0
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        result = subprocess.run(
            [sys.executable, "-m", "plrank.cli", *map(str, argv), "--out", str(workdir / "w-c.txt")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        weights = (workdir / "w-c.txt").read_bytes()
        assert weights == (workdir / "w-default.txt").read_bytes()
        assert b"tm\xe2\x82\xac\t" in weights


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

    def test_overflowing_score_gives_one_error_line(self, workdir, capsys):
        (workdir / "nbest.txt").write_text(
            "0 ||| a b ||| f=1e+300 g=1 ||| 0\n0 ||| a c ||| f=-1e+300 g=2 ||| 0\n"
        )
        weights = workdir / "weights.txt"
        weights.write_text("f\t1e10\ng\t1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any numpy RuntimeWarning fails the run
            code, stdout, stderr = run(
                capsys, "rerank", "--nbest", workdir / "nbest.txt", "--weights", weights, "--top", 2
            )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: sentence 0: model score is not finite\n"

    def test_zero_top_is_usage_error(self, workdir, capsys):
        (workdir / "weights.txt").write_text("lm\t1.0\n")
        code, stdout, stderr = run(
            capsys, "rerank", "--nbest", workdir / "nbest.txt", "--weights", workdir / "weights.txt", "--top", 0
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "usage error: --top must be >= 1, got 0\n"

    def test_undecodable_weights_name_the_file_and_the_byte(self, workdir, capsys):
        (workdir / "weights.txt").write_bytes(b"\xfflm\t1.0\n")
        code, stdout, stderr = run(
            capsys, "rerank", "--nbest", workdir / "nbest.txt", "--weights", workdir / "weights.txt"
        )
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {workdir / 'weights.txt'}: not UTF-8: byte 0xff at offset 0\n"

    def test_lone_carriage_return_does_not_end_a_line(self, workdir, capsys):
        # a text-mode read would split this line in two at the \r
        (workdir / "nbest.txt").write_bytes(b"0 ||| a ||| f=1 ||| 0\r1 ||| b ||| f=2 ||| 0\n")
        (workdir / "weights.txt").write_bytes(b"f\t1\n")
        code, stdout, stderr = run(
            capsys, "rerank", "--nbest", workdir / "nbest.txt", "--weights", workdir / "weights.txt"
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: line 1: expected 4 '|||'-separated fields, got 7\n"


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
        assert stderr == "error: no reference for sentence 9\n"

    def test_negative_sentence_id_names_line(self, evaldir, capsys):
        hyp = evaldir / "hyp.txt"
        hyp.write_text("0 ||| a b c d e\n-3 ||| a b c\n")
        code, _, stderr = run(
            capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt"
        )
        assert code == 1
        assert stderr.strip() == "error: line 2: sentence id -3 is negative"

    @pytest.mark.parametrize("command", ["richness", "train", "evaluate"])
    def test_sentence_id_too_long_to_read_names_line(self, workdir, capsys, command):
        # int() reads at most 4,300 digits by default; the id is not echoed
        long = workdir / "long.txt"
        long.write_text(NBEST + "1" * 5000 + " ||| a b ||| lm=1.0 ||| 0.0\n")
        args = {
            "richness": ["--nbest", long],
            "train": ["--nbest", long, "--refs", workdir / "refs.txt", "--out", workdir / "w.txt"],
            "evaluate": ["--hyp", long, "--refs", workdir / "refs.txt"],
        }
        code, stdout, stderr = run(capsys, command, *args[command])
        assert code == 1
        assert stdout == ""
        assert stderr == "error: line 6: sentence id of 5000 characters is too long\n"

    def test_empty_reference_line_names_line(self, evaldir, capsys):
        (evaldir / "refs.txt").write_text("0 ||| a b c d e\n1 |||\n")
        hyp = evaldir / "hyp.txt"
        hyp.write_text("0 ||| a b c d e\n")
        code, stdout, stderr = run(
            capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt"
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: line 2: empty reference for sentence 1\n"

    def test_three_field_line_names_line(self, evaldir, capsys):
        hyp = evaldir / "hyp.txt"
        hyp.write_text("0 ||| a b c d e\n1 ||| v w x ||| f=1.0\n")
        code, stdout, stderr = run(
            capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt"
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: line 2: expected 2 or 4 '|||'-separated fields, got 3\n"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("0 ||| a a ||| junk ||| 0.0", "feature 'junk' is not <name>=<value>"),
            ("0 ||| a a ||| f=1.0 f=2.0 ||| 0.0", "duplicate feature 'f'"),
            ("0 ||| a a ||| f=1.0 ||| notanumber", "decoder score 'notanumber' is not a number"),
            ("0 ||| a a ||| f=nan ||| 0.0", "feature 'f' value 'nan' is not finite"),
        ],
        ids=["bad-feature", "duplicate-feature", "bad-score", "nan-value"],
    )
    def test_malformed_nbest_line_rejected_as_train_rejects_it(self, evaldir, capsys, bad, message):
        # the bad line is sentence 0's second hypothesis, which evaluate does not score
        hyp = evaldir / "hyp.txt"
        hyp.write_text(f"0 ||| a b c d e ||| f=1.0 ||| 0.0\n{bad}\n")
        code, stdout, stderr = run(capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt")
        train_code, _, train_stderr = run(
            capsys, "train", "--nbest", hyp, "--refs", evaldir / "refs.txt", "--out", evaldir / "w.txt"
        )
        assert code == train_code == 1
        assert stdout == ""
        assert stderr == train_stderr == f"error: line 2: {message}\n"

    def test_empty_hypothesis_file_is_data_error(self, evaldir, capsys):
        hyp = evaldir / "hyp.txt"
        hyp.write_text("")
        code, stdout, stderr = run(
            capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt"
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: no hypotheses to evaluate\n"

    def test_lone_carriage_return_does_not_end_a_reference_line(self, evaldir, capsys):
        # a text-mode read would score this as two sentences, BLEU = 0.00
        (evaldir / "refs.txt").write_bytes(b"0 ||| a b\r1 ||| c d\n")
        hyp = evaldir / "hyp.txt"
        hyp.write_bytes(b"0 ||| a b\n1 ||| c d\n")
        code, stdout, stderr = run(capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt")
        assert code == 1
        assert stdout == ""
        assert stderr == "error: line 1: expected 2 '|||'-separated fields, got 3\n"

    def test_crlf_files_score_as_lf_files(self, evaldir, capsys):
        hyp = evaldir / "hyp.txt"
        hyp.write_bytes(b"0 ||| a b c d x ||| f=1 ||| 0\r\n1 ||| v w x y z\r\n")
        (evaldir / "crlf-refs.txt").write_bytes(b"0 ||| a b c d e\r\n1 ||| v w x y z\r\n")
        code, stdout, _ = run(capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "crlf-refs.txt")
        hyp.write_bytes(b"0 ||| a b c d x ||| f=1 ||| 0\n1 ||| v w x y z\n")
        assert code == 0
        assert run(capsys, "evaluate", "--hyp", hyp, "--refs", evaldir / "refs.txt") == (0, stdout, "")


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


# history.csv of `run_tune(..., extra=("--resample-m", 8), rounds=3)`,
# recorded before reference profiles were shared across rounds
GOLDEN_TUNE_HISTORY = (
    b"round,dev_bleu,objective,corpus_size,richness\r\n"
    b"1,100.0,-10.761828922466059,40,1.2\r\n"
    b"2,93.60202265123498,-14.810083484535655,76,0.631578947368421\r\n"
    b"3,77.60146914968043,-15.625731629252199,112,0.42857142857142855\r\n"
)


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


def run_tune(capsys, simdir, tag, extra=(), rounds=2):
    out = simdir / f"weights-{tag}.txt"
    hist = simdir / f"history-{tag}.csv"
    code, stdout, stderr = run(
        capsys,
        "tune-sim",
        "--spec", simdir / "spec.txt",
        "--refs", simdir / "refs.txt",
        "--rounds", rounds,
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

    def test_one_profile_per_sentence_and_history_unchanged(self, simdir, capsys, monkeypatch):
        # every distinct hypothesis is BLEU-scored once per run: one reference
        # profile per sentence serves all rounds, with unchanged results
        from plrank.bleu import ReferenceStats

        built = []
        init = ReferenceStats.__init__

        def spy(self, refs, *args, **kwargs):
            built.append(tuple(refs))
            init(self, refs, *args, **kwargs)

        monkeypatch.setattr(ReferenceStats, "__init__", spy)
        code, _, history, _, _ = run_tune(
            capsys, simdir, "a", extra=("--resample-m", 8), rounds=3
        )
        assert code == 0
        assert len(built) == len(set(built)) == 4
        assert history == GOLDEN_TUNE_HISTORY

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

    def test_zero_workers_is_usage_error(self, simdir, capsys):
        code, weights, history, stdout, stderr = run_tune(capsys, simdir, "a", extra=("--workers", 0))
        assert code == 2
        assert stdout == "" and weights == b"" and history == b""
        assert stderr == "usage error: workers must be >= 1, got 0\n"

    def test_zero_per_round_is_usage_error(self, simdir, capsys):
        code, weights, history, stdout, stderr = run_tune(capsys, simdir, "a", extra=("--per-round", 0))
        assert code == 2
        assert stdout == "" and weights == b"" and history == b""
        assert stderr == "usage error: per_round must be >= 1, got 0\n"

    def test_resample_m_below_three_is_usage_error(self, simdir, capsys):
        code, weights, history, stdout, stderr = run_tune(capsys, simdir, "a", extra=("--resample-m", 2))
        assert code == 2
        assert stdout == "" and weights == b"" and history == b""
        assert stderr == "usage error: resample_m must be >= 3, got 2\n"

    def test_one_hypothesis_per_round_stops_when_the_decoder_repeats(self, simdir, capsys):
        # a one-hypothesis list copies the whole reference, so round 2 adds nothing
        refs = "".join(f"{sid} ||| s{sid}w0 s{sid}w1 s{sid}w2 s{sid}w3\n" for sid in range(4))
        (simdir / "refs.txt").write_text(refs)
        code, _, history, stdout, stderr = run_tune(capsys, simdir, "a", extra=("--per-round", 1), rounds=3)
        assert code == 0 and stderr == ""
        assert stdout == "rounds=1 dev_bleu=100.00 corpus_size=4\n"
        assert history.splitlines()[1].startswith(b"1,100.0,")
        assert len(history.splitlines()) == 2

    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
    def test_non_finite_noise_scale_is_data_error(self, simdir, capsys, noise):
        (simdir / "spec.txt").write_text(f"num_sentences=4\nfeature_dim=12\nnoise_scale={noise}\n")
        code, weights, history, stdout, stderr = run_tune(capsys, simdir, "a")
        assert code == 1
        assert stdout == "" and weights == b"" and history == b""
        assert stderr.startswith("error: bad spec file: noise_scale must be finite and >= 0")
        assert stderr.count("\n") == 1

    def test_overflowing_noise_scale_gives_one_error_line(self, simdir, capsys):
        (simdir / "spec.txt").write_text("num_sentences=4\nfeature_dim=12\nnoise_scale=1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any numpy RuntimeWarning fails the run
            code, weights, history, stdout, stderr = run_tune(capsys, simdir, "a")
        assert code == 1
        assert stdout == "" and weights == b"" and history == b""
        assert stderr == "error: sentence 0: noise_scale 1e+308 overflows the quality\n"

    def test_feature_dim_above_ceiling_is_rejected_before_drawing(self, simdir, capsys):
        (simdir / "spec.txt").write_text("num_sentences=4\nfeature_dim=10000001\n")
        code, weights, history, stdout, stderr = run_tune(capsys, simdir, "a")
        assert code == 1
        assert stdout == "" and weights == b"" and history == b""
        assert stderr == "error: bad spec file: feature_dim must be in [1, 10000000], got 10000001\n"

    def test_duplicate_spec_key_is_parse_error(self, simdir, capsys):
        (simdir / "spec.txt").write_text("num_sentences=4\nfeature_dim=12\nseed=3\n\nseed=4\n")
        code, weights, history, stdout, stderr = run_tune(capsys, simdir, "a")
        assert code == 1
        assert stdout == "" and weights == b"" and history == b""
        assert stderr == "error: line 5: duplicate key 'seed'\n"

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("feature_dim=1_0", "spec key 'feature_dim' needs an integer, got '1_0'"),
            ("feature_dim=12\nref_len=\u0663", "spec key 'ref_len' needs an integer, got '\u0663'"),
            ("feature_dim=12\nnoise_scale=1_0.5", "spec key 'noise_scale' needs a number, got '1_0.5'"),
        ],
        ids=["underscore-int", "arabic-indic-int", "underscore-float"],
    )
    def test_spec_values_are_plain_ascii_numbers(self, simdir, capsys, lines, message):
        # int() and float() would read these as 10, 3 and 10.5
        (simdir / "spec.txt").write_bytes(f"num_sentences=4\n{lines}\n".encode("utf-8"))
        code, weights, history, stdout, stderr = run_tune(capsys, simdir, "a")
        assert code == 1
        assert stdout == "" and weights == b"" and history == b""
        assert stderr == f"error: {message}\n"

    def test_spec_errors_come_in_line_order(self, simdir, capsys):
        (simdir / "spec.txt").write_text("num_sentences=4\nwat=1\nseed=3\nseed=4\nfeature_dim=x\n")
        code, _, _, _, stderr = run_tune(capsys, simdir, "a")
        assert code == 1
        assert stderr == "error: unknown spec key 'wat'\n"


def test_outputs_do_not_depend_on_the_string_hash_seed(simdir):
    # each process draws its own str hash seed, which orders sets of names
    from plrank.tuner import SyntheticDecoderSpec, synthetic_decode, synthetic_references

    spec = SyntheticDecoderSpec(num_sentences=4, feature_dim=30, seed=3, ref_len=12)
    refs = synthetic_references(spec)
    (simdir / "nbest.txt").write_text(write_nbest(synthetic_decode(spec, refs, {}, 1, 20)))
    (simdir / "train-refs.txt").write_text(
        "".join(f"{sid} ||| {' '.join(refs[sid][0])}\n" for sid in sorted(refs.by_sent))
    )
    commands = {
        "tune-sim": ["tune-sim", "--spec", "spec.txt", "--refs", "refs.txt", "--rounds", "2",
                     "--per-round", "10", "--k", "3", "--max-iter", "30", "--seed", "7"],
        "train": ["train", "--nbest", "nbest.txt", "--refs", "train-refs.txt", "--k", "3",
                  "--sample-size", "8", "--seed", "7"],
    }
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        for name, argv in commands.items():
            out, hist = f"weights-{name}-{hash_seed}.txt", f"history-{name}-{hash_seed}.csv"
            result = subprocess.run(
                [sys.executable, "-m", "plrank.cli", *argv, "--out", out, "--history", hist],
                cwd=simdir, env=env, capture_output=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            got = ((simdir / out).read_bytes(), (simdir / hist).read_bytes(), result.stdout)
            assert all(got)
            outputs[name, hash_seed] = got
    for name in commands:
        assert outputs[name, "0"] == outputs[name, "1"]


# small, mostly well-formed files with extreme numbers; at most one line in
# each is replaced by a hostile one (bad id, missing field, non-finite or
# non-numeric value, empty reference, stray text)
FUZZ_NUMBER = st.sampled_from(["0", "1", "-2.5", "1e308", "-1e308", "1e-320"])
FUZZ_ID = st.sampled_from(["0", "1", "2"])
FUZZ_TOKENS = st.lists(st.sampled_from(["a", "b", "c"]), max_size=4).map(" ".join)
FUZZ_HOSTILE = st.one_of(
    st.sampled_from(["-1 ||| a ||| f=1 ||| 0", "0 ||| a ||| f=nan ||| 0", "0 ||| a ||| f=x ||| 0",
                     "0 ||| a ||| f=1 f=2 ||| 0", "0 ||| a ||| =1 ||| 0", "0 ||| a ||| f=1",
                     "0 ||| ", "1 ||| ", "f\tinf", "f\t", "\t1", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
FUZZ_NBEST_LINE = st.builds(
    lambda sid, tokens, feats, score: f"{sid} ||| {tokens} ||| {feats} ||| {score}",
    FUZZ_ID,
    FUZZ_TOKENS,
    st.dictionaries(st.sampled_from(["f", "g", "h"]), FUZZ_NUMBER, max_size=3).map(
        lambda d: " ".join(f"{k}={v}" for k, v in d.items())
    ),
    FUZZ_NUMBER,
)
FUZZ_REFS_LINE = st.builds(
    "{} ||| {}".format, FUZZ_ID, st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4).map(" ".join)
)
FUZZ_WEIGHTS_LINE = st.builds("{}\t{}".format, st.sampled_from(["f", "g", "h", "u"]), FUZZ_NUMBER)


@st.composite
def fuzz_file(draw, line, prefix=()):
    lines = list(prefix) + draw(st.lists(line, min_size=1, max_size=8))
    hostile = draw(st.one_of(st.none(), st.none(), st.none(), FUZZ_HOSTILE))
    if hostile is not None:
        lines.insert(draw(st.integers(0, len(lines))), hostile)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=60, deadline=None)
@given(
    fuzz_file(FUZZ_NBEST_LINE),
    fuzz_file(FUZZ_REFS_LINE, prefix=["0 ||| a b", "1 ||| b c", "2 ||| c a"]),
    fuzz_file(FUZZ_WEIGHTS_LINE),
    st.sampled_from(["1", "3"]),
)
def test_fuzzed_files_exit_cleanly(nbest, refs, weights, count):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "nbest.txt").write_text(nbest, encoding="utf-8")
        (d / "refs.txt").write_text(refs, encoding="utf-8")
        (d / "weights.txt").write_text(weights, encoding="utf-8")
        commands = [
            ["train", "--nbest", d / "nbest.txt", "--refs", d / "refs.txt", "--out", d / "out.txt",
             "--k", count, "--max-iter", 20],
            ["rerank", "--nbest", d / "nbest.txt", "--weights", d / "weights.txt", "--top", count],
            ["evaluate", "--hyp", d / "nbest.txt", "--refs", d / "refs.txt"],
            ["richness", "--nbest", d / "nbest.txt"],
        ]
        for argv in commands:
            stderr = io.StringIO()
            # a numpy RuntimeWarning escapes main as an exception and fails the test
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                try:
                    code = main([str(a) for a in argv])
                except SystemExit as err:
                    code = err.code
            assert code in (0, 1, 2), argv[0]
            assert "Traceback" not in stderr.getvalue(), argv[0]


# spec files with extreme values for every key, valid ones drawn more often;
# at most one line is hostile
FUZZ_BIG = "100000000000000000000"
FUZZ_SPEC_KEYS = {
    "num_sentences": st.sampled_from(["3", "3", "3", "1", "0", "4", FUZZ_BIG]),
    "feature_dim": st.sampled_from(["12", "12", "12", "8", "1", "0", "-1", FUZZ_BIG]),
}
FUZZ_SPEC_OPTIONAL = {
    "noise_scale": st.sampled_from(["0.1", "0.1", "0", "1e-320", "1e300", "1e308", "-1e308", "nan", "inf"]),
    "ref_len": st.sampled_from(["20", "20", "1", "0", "-5", FUZZ_BIG]),
    "features_per_hyp": st.sampled_from(["8", "8", "1", "2", "0"]),
    "seed": st.sampled_from(["0", "-1", "18446744073709551617"]),
}
FUZZ_SPEC_HOSTILE = st.one_of(
    st.sampled_from(["noise_scale", "=1", "feature_dim=", "feature_dim=1=2", "num_sentences=1.5",
                     "noise_scale=0x10", "seed=1e3", "wat=1", "# noise_scale=1e308", "  "]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@st.composite
def fuzz_spec(draw):
    keys = draw(st.fixed_dictionaries(FUZZ_SPEC_KEYS, optional=FUZZ_SPEC_OPTIONAL))
    lines = [f"{name}={value}" for name, value in keys.items()]
    hostile = draw(st.one_of(st.none(), st.none(), st.none(), FUZZ_SPEC_HOSTILE))
    if hostile is not None:
        lines.insert(draw(st.integers(0, len(lines))), hostile)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=60, deadline=None)
@given(fuzz_spec())
def test_fuzzed_tune_sim_spec_exits_cleanly(spec):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "spec.txt").write_text(spec, encoding="utf-8")
        (d / "refs.txt").write_text("0 ||| a b c\n1 ||| b c a\n2 ||| c a b\n", encoding="utf-8")
        argv = ["tune-sim", "--spec", d / "spec.txt", "--refs", d / "refs.txt", "--rounds", 2,
                "--per-round", 3, "--k", 2, "--max-iter", 10, "--out", d / "w.txt"]
        stderr = io.StringIO()
        # a numpy RuntimeWarning escapes main as an exception and fails the test
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            try:
                code = main([str(a) for a in argv])
            except SystemExit as err:
                code = err.code
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


RERANK_VALUE = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
RERANK_FEATURES = st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), RERANK_VALUE, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(RERANK_FEATURES, min_size=1, max_size=6), min_size=1, max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e", "u"]), RERANK_VALUE, max_size=6),
)
def test_rerank_prints_the_python_sum_as_score(lists, named):
    lines = ["0 ||| no features |||  ||| 0.0"]
    for sid, hyps in enumerate(lists):
        for j, feats in enumerate(hyps):
            text = " ".join(f"{n}={format_float(v)}" for n, v in feats.items())
            lines.append(f"{sid} ||| h{j} ||| {text} ||| 0.0")
    nbest = "".join(line + "\n" for line in lines)
    weights = "".join(f"{n}\t{format_float(v)}\n" for n, v in named.items())
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "nbest.txt").write_text(nbest, encoding="utf-8")
        (d / "weights.txt").write_text(weights, encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["rerank", "--nbest", str(d / "nbest.txt"), "--weights", str(d / "weights.txt"),
                         "--top", "10"])
    assert code == 0
    corpus = parse_nbest(nbest)
    w, _ = weights_vector(named, corpus.feature_index)
    printed = stdout.getvalue().splitlines()
    out = [h for lst in parse_nbest(stdout.getvalue()).lists for h in lst.hypotheses]
    assert len(printed) == len(out) == len(lines)
    for line, hyp in zip(printed, out):
        # the reference: the per-hypothesis Python loop the CLI used to print
        expected = sum(w[corpus.feature_index[n]] * v for n, v in hyp.features.items())
        assert line.rsplit("|||", 1)[1].strip() == format_float(expected)
        if not hyp.features:
            assert line.endswith("||| 0.0")
    # every printed line is a canonical N-best line
    assert write_nbest(parse_nbest(stdout.getvalue())) == stdout.getvalue()
