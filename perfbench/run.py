"""Run one workload of the mmcvqkd benchmark and print its metrics.

    python3 perfbench/run.py --workload optimize-nomem-k3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A full report
(provenance, input digest, tail percentile, failures) and, when tracing, the
spans are written under ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# No new block starts after this many seconds, so a run ends well inside 180 s.
HARD_LIMIT_S = 120.0


def pin_threads(environ) -> dict[str, str]:
    """Cap the BLAS/OpenMP thread counts at the number of CPUs."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        environ[var] = str(min(max(wanted, 1), nproc))
    return {var: environ[var] for var in THREAD_VARS}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(threads: dict[str, str]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": threads,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", "r", encoding="utf-8") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def measure_setup(workload: str, probes: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and build the
    workload's inputs: what each new process pays before its first operation."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--probe"]
    times = []
    for _ in range(probes):
        start = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


class Run:
    """Executes whole blocks of one workload and collects what the metrics need."""

    def __init__(self, workload, seed: int, seconds: float, tracer=None):
        import numpy as np

        self.workload = workload
        self.blocks = workload.blocks(np.random.default_rng(seed))
        self.seconds = seconds
        self.tracer = tracer
        self.op_times: list[float] = []
        self.untraced_s = self.traced_s = 0.0
        self.prefix_rates: list[float] = []
        self.prefix_ops: set[int] = set()
        self.attempted = self.failed = self.units = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    def execute(self) -> None:
        """Run whole blocks, the prefix first, and stop at the block count
        nearest to what fits in ``seconds``."""
        start = perf_counter()
        blocks_done = 0
        while True:
            block = next(self.blocks)
            in_prefix = blocks_done == 0
            if in_prefix:
                self.digest.update(repr(block).encode())
            for item in block:
                self._one(item, in_prefix)
            blocks_done += 1
            elapsed = perf_counter() - start
            if elapsed * (1.0 + 0.5 / blocks_done) >= self.seconds or elapsed > HARD_LIMIT_S:
                return

    def _timed(self, item):
        start = perf_counter()
        outcome = self.workload.run(item)
        return outcome, perf_counter() - start

    def _one(self, item, in_prefix: bool) -> None:
        op = self.attempted
        self.attempted += 1
        if in_prefix:
            self.prefix_ops.add(op)
        try:
            if self.tracer is None:
                outcome, elapsed = self._timed(item)
                self.op_times.append(elapsed)
            else:
                # Same input untraced and traced, alternating which goes first.
                for traced in ((False, True) if op % 2 == 0 else (True, False)):
                    if traced:
                        outcome, elapsed = self.tracer.call(op, self.workload.name, self._timed, item)
                        self.traced_s += elapsed
                    else:
                        _, elapsed = self._timed(item)
                        self.untraced_s += elapsed
            rates = self.workload.check(item, outcome)
        except Exception as exc:  # a failed op is counted, never fatal
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{item!r}: {''.join(traceback.format_exception_only(exc)).strip()}")
            return
        self.units += len(rates)
        if in_prefix:
            self.prefix_rates.extend(rates)

    def key_metrics(self) -> tuple[float, float]:
        """(geometric mean of the positive rates, share of rates > 0) over the prefix."""
        positive = [r for r in self.prefix_rates if r > 0.0]
        if not positive:
            return 0.0, 0.0
        gmean = math.exp(math.fsum(math.log(r) for r in positive) / len(positive))
        return gmean, len(positive) / len(self.prefix_rates)


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        spans_path: str | None = None) -> dict:
    """Run one workload and return the report that ``main`` prints and saves.
    A traced run writes its spans to ``spans_path`` when one is given."""
    import numpy as np
    import tracing
    import workloads

    RESULTS_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=RESULTS_DIR)
    try:
        workload = workloads.WORKLOADS[workload_name](scratch, smoke=smoke)
        warm = workloads.WORKLOADS[workload_name](scratch, smoke=True)
        warm_item = next(warm.blocks(np.random.default_rng(seed + 1)))[0]
        try:  # load lazy numpy parts before timing
            warm.check(warm_item, warm.run(warm_item))
        except Exception:  # the timed operations count and report it
            pass

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        bench = Run(workload, seed, seconds, tracer)
        steal_before, total_before = cpu_ticks()
        try:
            bench.execute()
        finally:
            if tracer is not None:
                tracer.remove()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    steal_after, total_after = cpu_ticks()
    gmean, key_ratio = bench.key_metrics()
    report = {
        "steal_share": (steal_after - steal_before) / max(total_after - total_before, 1),
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "input_digest": bench.digest.hexdigest(),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_ratio": bench.failed / max(bench.attempted, 1),
        "failures": bench.failures,
        "prefix_ops": len(bench.prefix_ops),
        "key_rate_gmean": gmean,
        "key_ratio": key_ratio,
        "no_key_ratio": 1.0 - key_ratio if bench.prefix_rates else None,
    }
    if trace:
        layer = tracing.layer_metrics(tracer.spans, bench.prefix_ops, bench.attempted)
        layer["trace.overhead_ratio"] = bench.traced_s / bench.untraced_s if bench.untraced_s else 0.0
        report["layer"] = layer
        report["spans"] = len(tracer.spans)
        if spans_path:
            tracer.dump(spans_path)
    else:
        samples = bench.op_times
        pct = workload.tail_percentile
        tail_value = float(np.percentile(samples, pct)) if samples else 0.0
        setup = measure_setup(workload_name, 1 if smoke else SETUP_PROBES)
        report.update({
            "op_samples": len(samples),
            "op_times_s": samples,
            "tail_percentile": pct,
            "tail_samples_beyond": sum(t > tail_value for t in samples),
            "setup_probes_s": setup,
            "end_to_end": {
                "setup_s": statistics.median(setup),
                "op_s.p50": statistics.median(samples) if samples else 0.0,
                "op_s.tail": tail_value,
                "throughput_per_s": bench.units / math.fsum(samples) if samples else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "key_rate_gmean": gmean,
                "key_ratio": key_ratio,
            },
        })
    return report


def probe(workload_name: str) -> None:
    """Import the package and build the workload with its first block of
    inputs in a fresh process, for ``measure_setup``."""
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[workload_name](str(RESULTS_DIR))
    next(workload.blocks(np.random.default_rng(0)))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(report: dict, spec: dict) -> dict:
    """The final JSON object: every metric of the mode, with its unit."""
    values = report["layer"] if report["trace"] else report["end_to_end"]
    section = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    correct = report["failed"] == 0 and report["attempted"] > 0
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny problems, for the tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmcvqkd" / "__init__.py").is_file():
        print(f"error: no mmcvqkd sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    threads = pin_threads(os.environ)
    cleared = sorted(k for k in os.environ if k.startswith("MMCVQKD_"))
    for key in cleared:  # the CLI would read them; the workload must not depend on them
        del os.environ[key]
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        probe(args.workload)
        return 0
    spec = load_spec()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke,
                 spans_path=str(RESULTS_DIR / f"{stem}-spans.json"))
    report["provenance"] = provenance(threads)
    report["cleared_env"] = cleared
    line = result_line(report, spec)
    report["result"] = line
    with open(RESULTS_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    summary = {k: report[k] for k in ("input_digest", "failed_ratio", "no_key_ratio")}
    summary.update({k: report[k] for k in ("op_samples", "tail_percentile", "tail_samples_beyond")
                    if k in report})
    print(f"perfbench {args.workload}: {json.dumps(summary)}", file=sys.stderr)
    for failure in report["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
