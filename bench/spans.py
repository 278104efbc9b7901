"""Span tracing for the traced benchmark pass, with no change to plrank.

``Tracer.install`` rebinds, at run time, the names one plrank module calls
in another (for example ``plrank.cli.train`` or
``plrank.bleu.ReferenceStats.stats_for``) to wrappers that record a span
(name, start, end, parent span) per call.  Call counts are the number of
spans.  Spans stay in memory; ``layer_metrics`` turns one operation's spans
into the per-layer metrics and ``write_spans`` saves them when the run ends.

A hook whose target no longer exists is skipped and listed in
``Tracer.missing``; every metric that needs that span is then reported as
missing (``None``) instead of failing the run.

Hooked calls all run on the calling thread (the likelihood's worker
threads evaluate chunks below the ``likelihood.eval`` span), so one stack
gives every span its parent.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

# (module, attribute path, span name)
HOOKS = [
    ("cli", "parse_nbest", "corpus.parse_nbest"),
    ("cli", "train", "trainer.train"),
    ("cli", "run_tuning", "tuner.run_tuning"),
    ("cli", "rerank", "tuner.rerank"),
    ("tuner", "train", "trainer.train"),
    ("tuner", "merge", "corpus.merge"),
    ("tuner", "richness", "trainer.richness"),
    ("tuner", "feature_matrix", "corpus.feature_matrix"),
    ("tuner", "rerank", "tuner.rerank"),
    ("tuner", "_top1_corpus_bleu", "tuner.top1_bleu"),
    ("tuner", "SyntheticDecoder.__call__", "tuner.decode"),
    ("trainer", "build_instances", "trainer.build_instances"),
    ("trainer", "make_evaluator", "likelihood.build"),
    ("trainer", "lbfgs_maximize", "trainer.lbfgs"),
    ("trainer", "feature_matrix", "corpus.feature_matrix"),
    ("trainer", "dedup", "corpus.dedup"),
    ("trainer", "_resample_indices", "trainer.resample"),
    ("bleu", "ReferenceStats.__init__", "bleu.profile"),
    ("bleu", "ReferenceStats.stats_for", "bleu.stats"),
]

# the evaluator returned by make_evaluator is wrapped too, under this name
EVAL_SPAN = "likelihood.eval"
# the benchmark runs each operation inside a span of this name
OP_SPAN = "cli"

# per-layer metric -> (unit, the span it is measured on).  Plain "s" and
# "count" metrics are the summed durations and the number of that span's
# calls in one operation; the others are derived in Tracer.layer_metrics.
LAYER_METRICS = {
    "corpus.parse_nbest.s": ("s", "corpus.parse_nbest"),
    "corpus.parse_nbest.mb_per_s": ("MB/s", "corpus.parse_nbest"),
    "corpus.feature_matrix.s": ("s", "corpus.feature_matrix"),
    "corpus.feature_matrix.calls": ("count", "corpus.feature_matrix"),
    "corpus.dedup.s": ("s", "corpus.dedup"),
    "corpus.merge.s": ("s", "corpus.merge"),
    "bleu.stats.s": ("s", "bleu.stats"),
    "bleu.stats.calls": ("count", "bleu.stats"),
    "bleu.stats.us_per_call": ("us", "bleu.stats"),
    "bleu.profile.s": ("s", "bleu.profile"),
    "bleu.profile.calls": ("count", "bleu.profile"),
    "bleu.reuse_ratio": ("ratio", "bleu.stats"),
    "likelihood.build.s": ("s", "likelihood.build"),
    "likelihood.evals": ("count", EVAL_SPAN),
    "likelihood.eval.ms": ("ms", EVAL_SPAN),
    "likelihood.eval.ns_per_row": ("ns", EVAL_SPAN),
    "likelihood.eval.total_s": ("s", EVAL_SPAN),
    "trainer.lbfgs.s": ("s", "trainer.lbfgs"),
    "trainer.lbfgs.self_s": ("s", "trainer.lbfgs"),
    "trainer.lbfgs.iterations": ("count", "trainer.lbfgs"),
    "trainer.lbfgs.evals_per_iter": ("ratio", "trainer.lbfgs"),
    "trainer.build_instances.self_s": ("s", "trainer.build_instances"),
    "trainer.resample.s": ("s", "trainer.resample"),
    "trainer.resample.lists": ("count", "trainer.resample"),
    "trainer.richness.s": ("s", "trainer.richness"),
    "tuner.rounds": ("count", "tuner.top1_bleu"),
    "tuner.round.s": ("s", "tuner.decode"),
    "tuner.decode.s": ("s", "tuner.decode"),
    "tuner.top1_bleu.s": ("s", "tuner.top1_bleu"),
    "tuner.rerank.s": ("s", "tuner.rerank"),
    "cli.self_s": ("s", OP_SPAN),
    "cli.output_mb": ("MB", OP_SPAN),
    "trace.overhead_s": ("s", OP_SPAN),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, extra) per call
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []
        self._ref_ids: dict = {}
        self._scored: set = set()  # distinct (reference id, tokens) given to stats_for

    # ------------------------------------------------------------ recording

    def call(self, name, fn, *args, extra=None, **kwargs):
        """Run ``fn`` inside a span; ``extra`` is stored with the span."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, extra)
        return result

    def _wrap(self, name, fn):
        tracer = self
        if name == "likelihood.build":
            def build(instances, *args, **kwargs):
                evaluate = tracer.call(name, fn, instances, *args, **kwargs)
                rows = sum(inst.features.shape[0] for inst in instances)
                return lambda w: tracer.call(EVAL_SPAN, evaluate, w, extra=rows)
            return build
        if name == "trainer.lbfgs":
            def lbfgs(*args, **kwargs):
                index = len(tracer.spans)
                report = tracer.call(name, fn, *args, **kwargs)
                span = tracer.spans[index]
                tracer.spans[index] = span[:4] + (report.iterations_used,)
                return report
            return lbfgs
        if name == "bleu.profile":
            def profile(self_, refs, *args, **kwargs):
                key = tuple(tuple(r) for r in refs)
                self_._bench_ref_id = tracer._ref_ids.setdefault(key, len(tracer._ref_ids))
                return tracer.call(name, fn, self_, refs, *args, **kwargs)
            return profile
        if name == "bleu.stats":
            def stats(self_, tokens, *args, **kwargs):
                ref_id = getattr(self_, "_bench_ref_id", ("object", id(self_)))
                tracer._scored.add((ref_id, tuple(tokens)))
                return tracer.call(name, fn, self_, tokens, *args, **kwargs)
            return stats
        if name == "corpus.parse_nbest":
            def parse(stream, *args, **kwargs):
                size = len(stream) if isinstance(stream, str) else None
                return tracer.call(name, fn, stream, *args, extra=size, **kwargs)
            return parse
        return lambda *args, **kwargs: tracer.call(name, fn, *args, **kwargs)

    def install(self) -> None:
        self.missing = []
        for module_name, path, name in HOOKS:
            try:
                owner = importlib.import_module(f"plrank.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Start a new operation's span list and forget its BLEU keys."""
        self.spans = []
        self._scored = set()

    # ------------------------------------------------------------ analysis

    def layer_metrics(self, output_mb: float) -> dict:
        """Per-layer metrics of the one operation whose spans are recorded.

        The operation itself must be the span named ``cli``.  A metric whose
        span lost a hook comes back as None.  ``trace.overhead_s`` compares
        two passes, so the caller fills it in.
        """
        spans = self.spans
        dur: dict[str, list[float]] = {}
        children: dict[int, float] = {}
        for name, start, end, parent, _ in spans:
            dur.setdefault(name, []).append(end - start)
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)

        def self_time(name):
            return sum(end - start - children.get(i, 0.0)
                       for i, (n, start, end, _, _) in enumerate(spans) if n == name)

        def ratio(num, den):
            return num / den if den else 0.0

        def median(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for metric, (unit, span) in LAYER_METRICS.items():
            if unit == "s":
                out[metric] = sum(dur.get(span, ()))
            elif unit == "count":
                out[metric] = len(dur.get(span, ()))

        parse_chars = sum(s[4] or 0 for s in spans if s[0] == "corpus.parse_nbest")
        out["corpus.parse_nbest.mb_per_s"] = ratio(parse_chars / 1e6, out["corpus.parse_nbest.s"])
        out["bleu.stats.us_per_call"] = ratio(out["bleu.stats.s"] * 1e6, out["bleu.stats.calls"])
        out["bleu.reuse_ratio"] = ratio(len(self._scored), out["bleu.stats.calls"])

        evals = [(end - start, rows) for name, start, end, _, rows in spans if name == EVAL_SPAN]
        out["likelihood.eval.ms"] = median([d * 1e3 for d, _ in evals])
        out["likelihood.eval.ns_per_row"] = median([d * 1e9 / rows for d, rows in evals])

        lbfgs = {i for i, s in enumerate(spans) if s[0] == "trainer.lbfgs"}
        iterations = sum(spans[i][4] for i in lbfgs)
        evals_in_lbfgs = sum(1 for s in spans if s[0] == EVAL_SPAN and s[3] in lbfgs)
        out["trainer.lbfgs.self_s"] = self_time("trainer.lbfgs")
        out["trainer.lbfgs.iterations"] = iterations
        out["trainer.lbfgs.evals_per_iter"] = ratio(evals_in_lbfgs, iterations)
        out["trainer.build_instances.self_s"] = self_time("trainer.build_instances")

        # round i runs from the start of decode i to the end of its top-1 BLEU
        decodes = [s[1] for s in spans if s[0] == "tuner.decode"]
        tops = [s[2] for s in spans if s[0] == "tuner.top1_bleu"]
        out["tuner.round.s"] = median([end - start for start, end in zip(decodes, tops)])

        out["cli.self_s"] = self_time(OP_SPAN)
        out["cli.output_mb"] = output_mb
        out["trace.overhead_s"] = None

        lost = {name for module, path, name in HOOKS if f"{module}.{path}" in self.missing}
        if "likelihood.build" in lost:
            lost.add(EVAL_SPAN)
        for metric, (_, span) in LAYER_METRICS.items():
            if span in lost:
                out[metric] = None
        if "tuner.top1_bleu" in lost:
            out["tuner.round.s"] = None
        return out


def write_spans(path, ops: list[list]) -> None:
    """Save each operation's spans as CSV rows: op, id, name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op,id,name,start,end,parent\n")
        for op, spans in enumerate(ops):
            for i, (name, start, end, parent, _) in enumerate(spans):
                fh.write(f"{op},{i},{name},{start:.9f},{end:.9f},{parent}\n")
