"""Generators are deterministic, and a smoke run of every workload carries
every metric ``BENCHMARK.json`` names."""

import json
import os
import subprocess
import sys
import time

import pytest
from repro.errors import ReproError

from perfsuite import measure, metrics
from perfsuite.ops import Op, rows_match
from perfsuite.spans import SpanLog
from perfsuite.staged import StagedPipeline
from perfsuite.workloads import WORKLOADS
from perfsuite.workloads.base import Workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _facts(name, seed):
    workload = WORKLOADS[name](seed, smoke=True)
    workload.setup()
    try:
        facts = workload.describe()
        return (facts["dataset"], facts["statement_hash"],
                facts["repeated_statements"])
    finally:
        workload.close()


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first, again, other = _facts(name, 5), _facts(name, 5), _facts(name, 6)
    assert first == again
    assert first[0]["crc32"] != other[0]["crc32"]
    assert first[0]["rows"] == other[0]["rows"]  # same amount of work
    assert first[1] != other[1]


def test_adhoc_planning_never_repeats_a_statement():
    assert _facts("adhoc_planning", 5)[2] == 0


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in benchmark["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["per_layer"]] == metrics.PER_LAYER
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (name, workload.why) for name, workload in WORKLOADS.items()]
    assert metrics.EXACT <= {name for name, _, _ in metrics.PER_LAYER}


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_end_to_end(name):
    outcome = measure.measure_end_to_end(WORKLOADS[name], 3, 0.05, smoke=True)
    assert outcome.failed == 0 and outcome.attempted > 0
    expected = [metric for metric, _, _, _ in metrics.END_TO_END]
    if name == "durable_mixed":
        expected += [metric for metric, _, _, _ in metrics.END_TO_END_DURABLE]
    assert list(outcome.metrics) == expected
    for metric in expected:
        value, n = outcome.metrics[metric]
        assert value > 0 and n > 0, metric


class _Scripted(Workload):
    """Blocks of four reads; the second read of every block raises after
    ``slow`` seconds, the others answer in ``fast`` seconds each."""

    fast, slow = 0.001, 0.004

    def setup(self):
        pass

    def block(self, index):
        return [Op("read", "read", f"{index}/{i}") for i in range(4)]

    def run(self, op):
        if op.sql.endswith("/1"):
            time.sleep(self.slow)
            raise ReproError("scripted failure")
        return self.fast, True


def test_timed_phase_pools_the_reads_p99_needs_however_short():
    blocks = list(measure._blocks(_Scripted(1), 0.0, min_reads=10))
    assert [index for index, _ in blocks] == [0, 1, 2]  # 12 reads >= 10
    assert len(list(measure._blocks(_Scripted(1), 0.0))) == 1


def test_read_percentiles_are_medians_over_groups_of_whole_blocks(monkeypatch):
    monkeypatch.setattr(measure, "MIN_READS", 10)
    outcome = measure.measure_end_to_end(lambda seed, smoke: _Scripted(seed), 1, 0.1)
    groups = outcome.detail["read_groups"]
    assert len(groups) > 1 and min(groups) >= 10  # leftovers joined the last
    assert sum(groups) == 4 * outcome.detail["blocks"] == outcome.metrics["read_p99_ms"][1]
    # three reads in four take 1 ms, the failing one 4 ms or more, in every group
    assert outcome.metrics["read_p50_ms"][0] == pytest.approx(1.0)
    assert outcome.metrics["read_p99_ms"][0] >= 4.0
    assert outcome.metrics["stmt_per_s"][0] <= 3 / (3 * 0.001 + 0.004)


def test_a_failed_operation_is_timed_and_not_counted_as_done():
    workload, outcome = _Scripted(1), measure.Outcome()
    results = [measure._attempt(workload, op, outcome) for op in workload.block(0)]
    assert [ok for _, ok in results] == [True, False, True, True]
    assert results[1][0] >= _Scripted.slow
    assert (outcome.attempted, outcome.failed) == (4, 1)


def test_replay_plans_exactly_when_told_the_front_end_did():
    workload = WORKLOADS["point_serving"](3, smoke=True)
    workload.setup()
    try:
        log = SpanLog()
        pipeline = StagedPipeline(workload.connections[0], workload.knowledge[0], log)
        op = workload.block(0)[0]
        stages = []
        for planned in (False, True, False):  # the first time the text is new
            before = len(log.spans)
            rows, root, _ = pipeline.run(op, 0, planned)
            assert rows_match(rows, op)
            stages.append([span.name for span in log.spans[before:]])
    finally:
        workload.close()
    everything = ["statement", "vql.parse", "vql.analyze", "algebra.translate",
                  "optimizer.search", "physical.compile", "physical.execute"]
    assert stages == [everything, everything, ["statement", "physical.execute"]]


#: per-layer metrics every workload must produce; the rest apply to some
EVERYWHERE = ["physical.execute_us", "physical.rows_per_stmt",
              "datamodel.property_reads_per_row",
              "telemetry.registry_us", "trace.overhead_ratio",
              "trace.staged_coverage", "share.physical_pct",
              "share.api_service_pct"]
ONLY = {
    "adhoc_planning": ["vql.parse_us", "vql.analyze_us", "algebra.translate_us",
                       "optimizer.search_ms", "optimizer.plans_explored",
                       "physical.compile_us", "share.optimizer_pct"],
    "method_analytics": ["datamodel.method_calls_per_stmt",
                         "datamodel.external_calls_per_stmt",
                         "datamodel.cost_units_per_stmt"],
    "durable_mixed": ["datamodel.insert_us", "datamodel.update_us",
                      "datamodel.delete_us", "api.write_p50_ms", "api.commit_us",
                      "storage.encode_us", "storage.wal_append_us",
                      "storage.checkpoint_ms", "storage.recover_s",
                      "storage.disk_bytes_per_user_byte", "storage.wal_records",
                      "storage.checkpoints", "storage.checkpoint_bytes",
                      "share.datamodel_write_pct", "share.storage_pct"],
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_traced(name, tmp_path):
    outcome = measure.measure_layers(WORKLOADS[name], 3, 0.05, smoke=True,
                                     out_dir=str(tmp_path))
    assert outcome.failed == 0
    known = {metric for metric, _, _ in metrics.PER_LAYER}
    assert set(outcome.metrics) <= known
    for metric in EVERYWHERE + ONLY.get(name, []):
        value, n = outcome.metrics[metric]
        assert value > 0 and n > 0, metric
    for difference in ("service.overhead_us", "api.overhead_us"):
        assert outcome.metrics[difference][1] > 0  # a few samples may net < 0
    hit_ratio, _ = outcome.metrics["service.plan_cache_hit_ratio"]
    assert hit_ratio == 0.0 if name == "adhoc_planning" else hit_ratio > 0.5
    assert outcome.detail["share_table"]
    spans = [json.loads(line)
             for line in open(tmp_path / f"trace-{name}.jsonl", encoding="utf-8")]
    assert {"id", "name", "statement", "parent", "start", "end"} == set(spans[0])


def test_command_line_prints_the_driver_object_last():
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), "--workload",
         "point_serving", "--seed", "2", "--seconds", "0.05", "--trace", "0",
         "--smoke"], capture_output=True, text=True, check=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _, _ in metrics.END_TO_END]
    assert all(set(entry) == {"value", "unit"} for entry in result["metrics"].values())
