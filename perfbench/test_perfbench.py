"""Tests of the benchmark itself, on tiny smoke-sized problems.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mmcvqkd import cli, keyrate  # noqa: E402

SPEC = bench.load_spec()


def first_item(workload, seed=1):
    return next(workload.blocks(np.random.default_rng(seed)))[0]


@pytest.fixture(autouse=True)
def restore_env(monkeypatch):
    # main() pins the thread variables; monkeypatch puts them back afterwards.
    for var in bench.THREAD_VARS:
        monkeypatch.setenv(var, "1")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(name, trace, capsys):
    argv = ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
    assert bench.main(argv) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_gate_fails_a_perturbed_optimum(tmp_path):
    workload = workloads.K3Workload(str(tmp_path), smoke=True)
    item = first_item(workload)
    problem, result = workload.run(item)
    assert workload.check(item, (problem, result)) == (result.best_rate,)
    perturbed = dataclasses.replace(result, best_rate=result.best_rate + 1e-8)
    with pytest.raises(workloads.GateFailure, match="dense total_rate"):
        workload.check(item, (problem, perturbed))


def test_gate_fails_a_perturbed_or_unsorted_sweep(tmp_path):
    workload = workloads.SweepWorkload(str(tmp_path), smoke=True)
    item = first_item(workload)
    code = workload.run(item)
    workload.check(item, code)
    with open(workload.out_path, "r", encoding="utf-8") as handle:
        records = cli.parse_csv_records(handle.read())

    def rewrite(new_records):
        with open(workload.out_path, "w", encoding="utf-8") as handle:
            handle.write(cli.records_to_csv(new_records))

    rewrite([dataclasses.replace(records[0], total_rate=records[0].total_rate * 1.001)])
    with pytest.raises(workloads.GateFailure, match="batch"):
        workload.check(item, code)
    rewrite(records * 2)
    with pytest.raises(workloads.GateFailure, match="loss column"):
        workload.check(item, code)
    with pytest.raises(workloads.GateFailure, match="exit code"):
        workload.check(item, 2)


def test_gate_fails_a_perturbed_oracle_case(tmp_path):
    workload = workloads.OracleWorkload(str(tmp_path), smoke=True)
    item = first_item(workload)
    heralded, entries, dense, batch = workload.run(item)
    assert workload.check(item, (heralded, entries, dense, batch)) == (dense[2],)
    a, b, c, p = entries
    with pytest.raises(workloads.GateFailure, match="probability"):
        workload.check(item, (heralded, (a, b, c, p + 1e-6), dense, batch))
    with pytest.raises(workloads.GateFailure, match="mutual information"):
        workload.check(item, (heralded, entries, (dense[0] + 1e-9,) + dense[1:], batch))


def test_program_exception_counts_as_a_failed_op(tmp_path):
    class Broken(workloads.K3Workload):
        def run(self, item):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

    run = bench.Run(Broken(str(tmp_path), smoke=True), seed=1, seconds=0)
    run.execute()
    assert run.attempted == len(workloads.K3_LOSS_CENTERS_DB) == run.failed
    assert "LinAlgError" in run.failures[0]


LAYER_SPANS = {
    "sweep-mem-k12": {"cli.main", "optimize.optimize", "keyrate.total_rate_batch",
                      "keyrate.subchannel_rates_batch", "keyrate.eigvals",
                      "operations.heralded_entries", "keyrate.total_rate",
                      "channel.build_pipeline", "keyrate.holevo_bound",
                      "gaussian.symplectic_eigenvalues"},
    "optimize-nomem-k3": {"optimize.optimize", "keyrate.total_rate_batch",
                          "keyrate.subchannel_rates_batch", "keyrate.eigvals",
                          "operations.heralded_entries"},
    "oracle-fock": {"fock.build_tmsv", "fock.herald", "operations.heralded_entries",
                    "channel.build_pipeline", "keyrate.mutual_information",
                    "keyrate.holevo_bound", "keyrate.subchannel_rates_batch"},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_nest_inside_their_parent_and_share_its_op(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), smoke=True)
    originals = {(m, a): getattr(m, a) for m, a, _, _ in tracing.LAYER_PATCHES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = bench.Run(workload, seed=1, seconds=0, tracer=tracer)
        run.execute()
    finally:
        tracer.remove()
    assert run.failed == 0
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())
    assert keyrate.np is np

    spans = tracer.spans
    assert LAYER_SPANS[name] <= {s.name for s in spans}
    assert {s.op for s in spans} == set(range(run.attempted))
    for span in spans:
        if span.parent is None:
            assert span.name == name
            continue
        parent = spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
        assert parent.op == span.op


def test_self_time_subtracts_direct_children():
    spans = [tracing.Span("op", 0, None), tracing.Span("a", 0, 0), tracing.Span("b", 0, 1)]
    for span, (start, end) in zip(spans, [(0.0, 10.0), (1.0, 5.0), (2.0, 3.0)]):
        span.start, span.end = start, end
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]


def test_seed_fixes_key_metrics_and_exact_counts():
    def digest(seed):
        report = bench.run("optimize-nomem-k3", seed, 0, trace=True, smoke=True)
        layer = report["layer"]
        return (report["input_digest"], report["key_rate_gmean"], report["no_key_ratio"],
                layer["optimize.grid.points"], layer["optimize.refine.calls"],
                layer["operations.heralded_entries.calls"])

    first, again, other = digest(3), digest(3), digest(4)
    assert first == again
    assert first[0] != other[0]  # inputs
    assert first[1] != other[1]  # key_rate_gmean
    assert first[4] != other[4]  # refinement calls
    assert first[3] == other[3]  # the grid size is fixed by the problem, not the seed

    oracle = [bench.run("oracle-fock", seed, 0, trace=True, smoke=True) for seed in (3, 3, 4)]
    assert oracle[0]["layer"]["fock.herald.calls"] == oracle[1]["layer"]["fock.herald.calls"]
    assert oracle[0]["input_digest"] == oracle[1]["input_digest"] != oracle[2]["input_digest"]
    # The oracle's key metrics come from its unjittered design block.
    assert oracle[0]["key_rate_gmean"] == oracle[2]["key_rate_gmean"]
