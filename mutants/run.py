"""Mutation gate: plant each known fault in a copy of the sources and require
the tests named for it to fail.

    python3 mutants/run.py

Each mutant in MUTANTS names a file, an old text, a new text and the test ids
that must catch it.  For each one the runner copies the tracked ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, replaces the old
text, which must occur exactly once, and runs the test ids with pytest.  A
mutant is caught when pytest reports a failing test (exit code 1).  Any other
exit is an error in the table, for instance a test id that no longer exists.
Before the mutants, one unmutated run of every named test must pass.

It exits 0 when the control passes and every mutant is caught, and 1
otherwise.  A refactor that moves a mutant's text shows up as a stale mutant
to retarget, never as a silent pass.  Only the stdlib and pytest are needed;
git lists the tracked files.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# -x stops at the first failure; a fixed hypothesis seed makes every run
# draw the same examples, so a mutant is caught on every run or on none
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "a row stays available one step past the prefix",
        "src/plrank/likelihood.py",
        "np.minimum(cols, ks - 1)",
        "np.minimum(cols, ks)",
        ("tests/test_likelihood.py::TestObjectiveAndGradient::test_gradient_matches_central_differences",),
    ),
    Mutant(
        "padding gathers row 0 in place of the -inf sentinel",
        "src/plrank/likelihood.py",
        "np.full(valid.shape, rows)",
        "np.full(valid.shape, 0)",
        ("tests/test_likelihood.py::TestObjectiveAndGradient::test_matches_permutation_log_prob_sum",),
    ),
    Mutant(
        "a chunk's gradient starts at 1e-300",
        "src/plrank/likelihood.py",
        "grad = np.zeros(f)",
        "grad = np.full(f, 1e-300)",
        ("tests/test_likelihood.py::TestKernelCalls::test_bits_equal_scipys_matmuls",),
    ),
    Mutant(
        "an instance takes its rows unchecked",
        "src/plrank/likelihood.py",
        '        _check_rows(self.features, f"sentence {self.sent_id}: ")\n',
        "",
        ("tests/test_likelihood.py::TestInstanceValidation::test_malformed_rows_rejected",),
    ),
    Mutant(
        "the kernels' module stays in sys.modules",
        "src/plrank/likelihood.py",
        "sys.modules.pop(name, None)",
        "pass",
        ("tests/test_cli.py::TestWithoutScipy::test_scipy_sparse_imports_whole_after_training",),
    ),
    Mutant(
        "training imports the whole scipy.sparse package",
        "src/plrank/likelihood.py",
        "    import scipy\n",
        "    import scipy\n    import scipy.sparse\n",
        ("tests/test_cli.py::TestWithoutScipy::test_training_loads_only_the_kernels_module",),
    ),
    Mutant(
        "resampling draws Gaussian noise in place of Gumbel",
        "src/plrank/trainer.py",
        "rng.gumbel(size=pool.size)",
        "rng.standard_normal(pool.size)",
        ("tests/test_trainer.py::TestResample::test_kept_pairs_follow_the_sequential_law",),
    ),
    Mutant(
        "the last list is reused without its prefix check",
        "src/plrank/bleu.py",
        "n = len(last_keys) if keys[: len(last_keys)] == last_keys else 0",
        "n = min(len(last_keys), len(keys))",
        ("tests/test_bleu.py::TestReferenceStatsProperties::test_list_extending_the_last_one_passes_only_its_tail",),
    ),
    Mutant(
        "the clip skips 4-grams",
        "src/plrank/bleu.py",
        "enumerate(self._orders)",
        "enumerate(self._orders[:3])",
        ("tests/test_bleu.py::TestNgramStats::test_perfect_match_counts",),
    ),
    Mutant(
        "a text is split at single spaces, not at whitespace",
        "src/plrank/bleu.py",
        "[key.split() for key in keys]",
        '[key.split(" ") for key in keys]',
        ("tests/test_bleu.py::TestReferenceStatsProperties::test_a_text_scores_as_its_whitespace_split_tokens",),
    ),
    Mutant(
        "ties in the ranking fall to an argsort, not to the seeded keys",
        "src/plrank/bleu.py",
        "np.lexsort((keys, -np.asarray(bleus, dtype=float)))",
        "np.argsort(-np.asarray(bleus, dtype=float))",
        ("tests/test_bleu.py::TestRanking::test_matches_the_sorted_oracle",),
    ),
    Mutant(
        "the line search accepts every trial step",
        "src/plrank/trainer.py",
        "if f_new >= f + ARMIJO_C1 * alpha * slope:",
        "if True:",
        ("tests/test_trainer.py::TestLbfgs::test_line_search_failure_reports_not_converged",),
    ),
    Mutant(
        "resampling draws from the stream of the next seed",
        "src/plrank/trainer.py",
        "substream(rng_seed, RESAMPLE_PURPOSE, sent_id)",
        "substream(rng_seed + 1, RESAMPLE_PURPOSE, sent_id)",
        ("tests/test_cli.py::TestTuneSim::test_one_profile_per_sentence_and_history_unchanged",),
    ),
    Mutant(
        "dedup keys a hypothesis by its text without the last token",
        "src/plrank/corpus.py",
        "first.setdefault(hyp.text, i)",
        'first.setdefault(hyp.text.rpartition(" ")[0], i)',
        ("tests/test_corpus.py::TestDedup::test_keeps_first_occurrence",),
    ),
    Mutant(
        "a hypothesis reads its feature values out of line order",
        "src/plrank/corpus.py",
        'dict(zip(self._names, memoryview(self._values).cast("d")))',
        'dict(zip(self._names, reversed(memoryview(self._values).cast("d"))))',
        ("tests/test_corpus.py::TestHypothesisStorage::test_features_keep_line_order_and_the_line_round_trips",),
    ),
    Mutant(
        "merge keeps the rows of the hypotheses it drops",
        "src/plrank/corpus.py",
        "blocks.append(block if kept is None else block[kept])",
        "blocks.append(block)",
        ("tests/test_corpus.py::TestMerge::test_merge_keeps_rows_of_hypotheses_it_keeps",),
    ),
    Mutant(
        "merge keeps each corpus's column ids, not the merged index's",
        "src/plrank/corpus.py",
        "first[rows.indices]",
        "rows.indices",
        ("tests/test_corpus.py::TestMerge::test_rows_are_the_merged_lists_feature_matrices",),
    ),
    Mutant(
        "merge names its columns in dict order, not id order",
        "src/plrank/corpus.py",
        "sorted(a.feature_index, key=a.feature_index.get) + sorted(b.feature_index, key=b.feature_index.get)",
        "list(a.feature_index) + list(b.feature_index)",
        ("tests/test_corpus.py::TestMerge::test_index_given_out_of_id_order",),
    ),
    Mutant(
        "a hypothesis takes any feature name",
        "src/plrank/corpus.py",
        'if name.split() != [name] or "=" in name or "|||" in name:',
        "if False:",
        ("tests/test_corpus.py::TestHypothesisStorage::test_a_name_or_token_a_line_cannot_carry_back_is_rejected",),
    ),
    Mutant(
        "an overflowing row product warns",
        "src/plrank/corpus.py",
        'with np.errstate(over="ignore", invalid="ignore"):\n            products',
        "if True:\n            products",
        ("tests/test_corpus.py::TestRowsMatchScipy::test_overflowing_score_is_a_data_error_without_a_warning",),
    ),
    Mutant(
        "a feature the decoding weights lack weighs 1",
        "src/plrank/tuner.py",
        "repeat(0.0)",
        "repeat(1.0)",
        ("tests/test_tuner.py::TestSyntheticDecode::test_decoder_scores_are_the_rerank_scores",),
    ),
)


def _copy_tracked(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--", "src", "tests", "pyproject.toml"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / rel, dest / rel)


def _pytest(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[int, str]:
    """Run ``tests`` on a fresh copy, mutated unless ``mutant`` is None;
    returns pytest's exit code and output, or -1 and why the table is stale."""
    with tempfile.TemporaryDirectory(prefix="plrank-mutant-") as tmp:
        work = Path(tmp)
        _copy_tracked(work)
        if mutant is not None:
            path = work / mutant.file
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                return -1, f"{mutant.old!r} occurs {count} times in {mutant.file}, not once"
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        run = subprocess.run([sys.executable, *PYTEST, *tests], cwd=work, env=env, capture_output=True, text=True)
        return run.returncode, run.stdout + run.stderr


def main() -> int:
    start = perf_counter()
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, output = _pytest(None, tests)
    if code != 0:
        print(output)
        print(f"control: the unmutated tests exit {code}, not 0")
        return 1
    print(f"control passed: {len(tests)} tests in {perf_counter() - start:.1f} s")
    bad = 0
    for mutant in MUTANTS:
        began = perf_counter()
        code, output = _pytest(mutant, mutant.tests)
        verdict = {1: "caught", 0: "SURVIVED"}.get(code, f"ERROR (exit {code})")
        print(f"{verdict:<12} {perf_counter() - began:5.1f} s  {mutant.file}: {mutant.name}")
        if code != 1:
            bad += 1
            print(output)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught in {perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
