"""The plrank benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload train-bleu --seed 1 --seconds 10 --trace 0

Set-up generates the workload's inputs from ``--seed`` in a child process
that times itself.  Then the benchmark runs the workload's ``plrank``
command in this process, one operation after another (a closed loop with
one caller), until the operations have taken ``--seconds`` seconds and
numbered at least ``MIN_OPS``, and checks every operation's outputs.  The
set-up is repeated between operations, ``SETUP_REPEATS`` times in all, and
every repeat must write the same files.  plrank is
imported anew before each operation, so no module state carries over from
one operation to the next, as between two ``plrank`` invocations.

``--trace 0`` reports the end-to-end metrics, with no hook installed.
``--trace 1`` spends half the time untraced and half traced (see spans.py)
and reports the per-layer metrics, including the difference between the
two halves as ``trace.overhead_s``.  It also traces the first operation
and fails every traced operation whose work counts (``WORK_COUNTS``)
differ from that first one's.

The second-to-last line of standard output describes the run (machine,
environment, input size, samples, quality values, failures); the last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.  Inputs,
outputs and spans are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so results do not depend on the caller's shell;
# with them the only extra thread is the second worker of train-deep.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CALLER_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 9
MIN_OPS = 3
# per-layer counts that must not change between operations on the same inputs
WORK_COUNTS = ("bleu.stats.calls", "bleu.profile.calls", "likelihood.evals")


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup(name: str, seed: int, size: dict, src: Path, out: Path) -> tuple[float, str]:
    """Generate the inputs into ``out`` in a child process.

    Returns the seconds the child measured (``import plrank``, generating
    and writing) and a digest of the files it wrote.
    """
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--out", str(out), "--size", json.dumps(size)]
    child = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(src)), cwd=out.parent,
                           check=True, capture_output=True, text=True)
    return json.loads(child.stdout.splitlines()[-1])["setup_s"], _digest(out)


def fresh_cli():
    """Drop every plrank module and import ``plrank.cli`` again."""
    for name in [m for m in sys.modules if m == "plrank" or m.startswith("plrank.")]:
        del sys.modules[name]
    return importlib.import_module("plrank.cli")


def run_op(cli_main, argv: list[str], op: Path, tracer=None) -> tuple[float, list[str]]:
    """Run one ``plrank`` operation in this process, stdout and stderr to
    files in ``op``.  Returns its wall seconds and any failure found."""
    shutil.rmtree(op, ignore_errors=True)
    op.mkdir(parents=True)
    gc.collect()
    problems = []
    with open(op / "stdout.txt", "w", encoding="utf-8") as out, \
            open(op / "stderr.txt", "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = tracer.call(spans.OP_SPAN, cli_main, argv) if tracer else cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        out.flush()
        wall = perf_counter() - start
    if code != 0:
        problems.append(f"exit {code!r}: {(op / 'stderr.txt').read_text()[-500:]}")
    return wall, problems


def _machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: Path, out_dir: Path,
                 size: dict | None = None) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (run description, result).

    ``src`` holds the plrank package the set-up child imports; work files
    go under ``out_dir`` and are removed at the end, spans are kept there.
    """
    size = dict(workloads.SIZES[name], **(size or {}))
    work = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.mkdir(parents=True)
        inp = work / "input"
        setup_times, digests = [], []

        def set_up(out: Path) -> None:
            elapsed, digest = setup(name, seed, size, src, out)
            setup_times.append(elapsed)
            digests.append(digest)

        set_up(inp)
        op = work / "op"
        state: dict = {}
        quality: dict = {}
        failures = []
        attempted = failed = 0
        tracer = spans.Tracer() if trace else None
        first_counts: dict = {}
        op_spans, layer_ops = [], []

        def operation(traced: bool) -> float:
            nonlocal attempted, failed, quality
            cli = fresh_cli()
            if traced:
                tracer.install()
            try:
                wall, problems = run_op(cli.main, workloads.argv(name, inp, op, size), op,
                                        tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += 1
            if not problems:
                try:
                    problems, q = workloads.check(name, inp, op, size, state)
                    quality = quality or q
                except Exception:
                    problems = [traceback.format_exc()]
            if traced:
                output_mb = sum(p.stat().st_size for p in op.iterdir() if p.name != "stderr.txt") / 1e6
                layer_ops.append(tracer.layer_metrics(output_mb))
                op_spans.append(tracer.spans)
                tracer.reset()
                # state kept from an earlier operation would show as less work
                counts = {metric: layer_ops[-1][metric] for metric in WORK_COUNTS}
                first = first_counts.setdefault("counts", counts)
                if counts != first:
                    problems.append(f"work counts {counts} differ from the first operation's {first}")
            if problems:
                failed += 1
                failures.append(f"op {attempted}: " + "; ".join(problems))
            return wall

        def repeat_setup() -> None:
            set_up(work / "again")
            shutil.rmtree(work / "again")

        # one untimed operation first, so lazy imports and heap growth are paid;
        # traced, it gives the work counts every traced operation must match
        operation(trace)
        op_spans.clear()
        layer_ops.clear()
        walls = {"plain": [], "traced": []}
        phases = [("plain", seconds / 2), ("traced", seconds / 2)] if trace else [("plain", seconds)]
        for phase, budget in phases:
            # the budget counts timed operations only, not checks or set-ups
            while len(walls[phase]) < MIN_OPS or sum(walls[phase]) < budget:
                walls[phase].append(operation(phase == "traced"))
                # set-up repeats go between operations, so their median is
                # taken over the same stretch of time as the operations'
                if len(walls[phase]) % 2 == 0 and len(setup_times) < SETUP_REPEATS:
                    repeat_setup()
            if phase == "plain":
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup_times) < SETUP_REPEATS:
            repeat_setup()
        if len(set(digests)) != 1:
            failures.insert(0, "set-up: repeats wrote different inputs")
        if trace:
            spans.write_spans(out_dir / f"spans-{name}-seed{seed}.csv", op_spans)
            metrics = {}
            for metric, (unit, _) in spans.LAYER_METRICS.items():
                values = [m[metric] for m in layer_ops]
                value = None if None in values else statistics.median(values)
                metrics[metric] = {"value": value, "unit": unit}
            metrics["trace.overhead_s"]["value"] = (
                statistics.median(walls["traced"]) - statistics.median(walls["plain"]))
        else:
            metrics = {
                "wall_s": {"value": statistics.median(walls["plain"]), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        info = {
            "workload": name,
            "why": workloads.WHY[name],
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "size": size,
            "input": json.loads((inp / "input.json").read_text()),
            "wall_s_samples": walls,
            "setup_s_samples": setup_times,
            "peak_rss_mb": peak_rss_mb,
            "error_rate": failed / attempted,
            "failures": failures,
            "quality": quality,
            "missing_hooks": tracer.missing if tracer else [],
            "machine": _machine(),
            "thread_env": {"fixed": {var: os.environ[var] for var in THREAD_VARS},
                           "caller": CALLER_THREAD_ENV},
        }
        result = {"correct": not failures, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return info, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "plrank" / "__init__.py").is_file():
        print(f"error: no plrank sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import plrank

    if Path(plrank.__file__).resolve().parent != (src / "plrank").resolve():
        print(f"error: imported plrank from {plrank.__file__}, not from {src}", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), src, out_dir)
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"run": info, "result": result}, indent=1) + "\n")
    for failure in info["failures"][:5]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
