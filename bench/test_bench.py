"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "train-bleu": dict(sentences=40, held_out=40, hyps=12, feature_dim=10, ref_len=12,
                       features_per_hyp=3),
    "train-deep": dict(sentences=12, hyps=10, feature_dim=60, features_per_hyp=4),
    "tune-sim": dict(sentences=3, feature_dim=12, ref_len=10, features_per_hyp=3, rounds=3,
                     per_round=12),
    "rerank-io": dict(sentences=5, hyps=10, feature_dim=20),
}
SEED = 3


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def bench(name, out_dir, trace=False):
    return run.run_workload(name, SEED, 0.0, trace, ROOT / "src", out_dir, TINY[name])


def patch_cli(monkeypatch, patch):
    """Apply ``patch`` to the plrank.cli module imported before each operation."""
    fresh_cli = run.fresh_cli

    def patched():
        cli = fresh_cli()
        patch(cli)
        return cli

    monkeypatch.setattr(run, "fresh_cli", patched)


def test_declared_workloads_and_metrics_match_the_code(declared):
    assert set(declared["workloads"]) <= set(workloads.SIZES)
    assert declared["per_layer"] == {m: unit for m, (unit, _) in spans.LAYER_METRICS.items()}


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_and_passes_its_checks(name, trace, declared, tmp_path):
    info, result = bench(name, tmp_path, trace)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and info["error_rate"] == 0
    assert result["attempted"] >= (2 * run.MIN_OPS if trace else run.MIN_OPS) + 1
    expected = declared["per_layer"] if trace else declared["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["missing_hooks"] == []
    assert set(info["machine"]) >= {"nproc", "python", "numpy", "scipy"}
    assert info["thread_env"]["fixed"]["OMP_NUM_THREADS"] == "1"


def test_traced_run_attributes_time_to_the_dominant_layer(tmp_path):
    _, result = bench("train-bleu", tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["bleu.stats.calls"] == 40 * 12
    assert m["bleu.profile.calls"] == 40
    assert m["bleu.reuse_ratio"] == 1.0
    assert m["likelihood.evals"] >= m["trainer.lbfgs.iterations"] > 0
    assert m["tuner.rounds"] == 0 and m["corpus.merge.s"] == 0


def test_tuning_reuse_ratio_counts_rescored_hypotheses(tmp_path):
    _, result = bench("tune-sim", tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["tuner.rounds"] == 3
    assert m["tuner.rerank.s"] > 0
    assert 0 < m["bleu.reuse_ratio"] < 1
    assert m["trainer.resample.lists"] > 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    size = dict(workloads.SIZES["rerank-io"], **TINY["rerank-io"])
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        workloads.generate("rerank-io", seed, tmp_path / name, size)
    assert run._digest(tmp_path / "a") == run._digest(tmp_path / "b")
    assert run._digest(tmp_path / "a") != run._digest(tmp_path / "c")


def test_unsorted_rerank_output_counts_as_failed(monkeypatch, tmp_path):
    def patch(cli):
        original = cli.rerank
        cli.rerank = lambda *args, **kwargs: [
            type(lst)(lst.sent_id, lst.hypotheses[::-1]) for lst in original(*args, **kwargs)]

    patch_cli(monkeypatch, patch)
    info, result = bench("rerank-io", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_OPS + 1
    assert "score rises" in info["failures"][0]


def test_weights_that_change_between_repeats_count_as_failed(monkeypatch, tmp_path):
    calls = []

    def patch(cli):
        original = cli.format_weights

        def drifting(*args):
            calls.append(1)
            return original(*args) + "#" * len(calls)

        cli.format_weights = drifting

    patch_cli(monkeypatch, patch)
    info, result = bench("train-deep", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1
    assert "weights.txt differs" in info["failures"][0]


def test_failing_operation_is_counted_and_the_run_goes_on(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    patch_cli(monkeypatch, lambda cli: setattr(cli, "run_tuning", broken))
    info, result = bench("tune-sim", tmp_path)
    assert result["failed"] == result["attempted"] >= run.MIN_OPS + 1
    assert "RuntimeError: boom" in info["failures"][0]


def test_module_state_does_not_carry_over_between_operations(monkeypatch, tmp_path):
    seen = []

    def patch(cli):
        trainer = sys.modules["plrank.trainer"]
        seen.append(getattr(trainer, "marker", None))
        trainer.marker = len(seen)

    patch_cli(monkeypatch, patch)
    _, result = bench("train-deep", tmp_path)
    assert result["correct"]
    assert len(seen) == result["attempted"] and set(seen) == {None}


def test_work_saved_from_an_earlier_operation_counts_as_failed(monkeypatch, tmp_path):
    # a cache that outlives the module, as module state would without re-import
    cache = {}

    def patch(cli):
        trainer = sys.modules["plrank.trainer"]
        build = trainer.build_instances

        def cached(*args, **kwargs):
            if "instances" not in cache:
                cache["instances"] = build(*args, **kwargs)
            return cache["instances"]

        trainer.build_instances = cached

    patch_cli(monkeypatch, patch)
    info, result = bench("train-deep", tmp_path, trace=True)
    # the first operation filled the cache; the untraced ones are not compared
    assert result["failed"] == len(info["wall_s_samples"]["traced"]) >= run.MIN_OPS
    assert "work counts" in info["failures"][0]


def test_missing_hook_target_is_reported_not_fatal(monkeypatch, tmp_path):
    hooks = [h if h[2] != "bleu.stats" else ("bleu", "ReferenceStats.list_bleu_stats", "bleu.stats")
             for h in spans.HOOKS]
    monkeypatch.setattr(spans, "HOOKS", hooks)
    info, result = bench("train-bleu", tmp_path, trace=True)
    assert result["correct"], info["failures"]
    assert info["missing_hooks"] == ["bleu.ReferenceStats.list_bleu_stats"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["bleu.stats.s"] is None and m["bleu.reuse_ratio"] is None
    assert m["bleu.profile.calls"] == 40


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tune-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
