"""Self-test of the benchmark harness (not part of tier-1; run explicitly).

    python3 -m pytest benchmarks/e2e/test_harness.py

Checks the harness, not the program: that the smoke size class runs
every workload quickly and prints every name ``BENCHMARK.json``
declares, that span arithmetic is right on a hand-built tree, that a
traced pass leaves nothing wrapped, and that a wrong download is counted
as a failed operation.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
import openloop  # noqa: E402
import repeat  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SMOKE_BUDGET_S = 20.0

#: The per-layer metrics that are shares of operation wall; together they
#: add up to ``trace.op_wall_s``.
TIME_SHARES = {
    "chunking.busy_s", "misleading.busy_s", "codec.encode_s", "codec.decode_s",
    "codec.degraded_decode_s", "checksum.busy_s", "placement.busy_s",
    "health.busy_s", "access.busy_s", "journal.busy_s", "persistence.save_s",
    "wire.busy_s", "provider.busy_s", "fleet.self_s", "distributor.self_s",
}


def _suite(*extra: str) -> tuple[str, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *extra],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, time.perf_counter() - start


@pytest.fixture(scope="module")
def smoke_untraced():
    return _suite()


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_all_five_workloads_quickly(smoke_untraced):
    stdout, elapsed = smoke_untraced
    results = _results(stdout)
    assert len(results) == len(CONTRACT["workloads"]) == 5
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
               for r in results)
    assert elapsed < SMOKE_BUDGET_S, f"smoke suite took {elapsed:.1f} s"


def test_every_declared_name_is_printed_with_its_unit(smoke_untraced):
    stdout, _ = smoke_untraced
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for g in ("end_to_end", "per_layer") for m in CONTRACT[g]]
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    for workload in CONTRACT["workloads"]:
        assert f"workload {workload['name']} " in stdout
    for result in _results(stdout):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        for metric in CONTRACT["end_to_end"]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0
    for metric in CONTRACT["end_to_end"]:
        assert re.search(
            rf"^{re.escape(metric['name'])} \S+ {re.escape(metric['unit'])} n=\d+$",
            stdout, re.M,
        ), metric["name"]
    assert "ops_attempted" in stdout and "ops_failed 0" in stdout
    assert re.search(r"^seed 13$", stdout, re.M)
    assert re.search(r"^trace_digest [0-9a-f]{64}$", stdout, re.M)


def test_layers_json_names_every_per_layer_metric_once():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = [m for layer in layers for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in CONTRACT["per_layer"])
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    declared = {w["name"] for w in CONTRACT["workloads"]}
    for layer in layers:
        assert set(layer["should_move"]) | set(layer.get("must_never_move", ())) <= end_to_end
        assert layer["on"] and set(layer["on"]) | set(layer["should_not_move_on"]) <= declared
        assert not set(layer["on"]) & set(layer["should_not_move_on"])


def test_traced_pass_prints_every_per_layer_metric_and_the_zero_cells():
    by_workload = {}
    for workload in ("sensitive_inproc_pl3", "stream_disk", "mixed_fleet_openloop"):
        stdout, _ = _suite("--workload", workload, "--trace", "1")
        (result,) = _results(stdout)
        assert result["correct"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
        by_workload[workload] = metrics
    pl3, disk, fleet = (by_workload[w] for w in by_workload)
    # The "zero calls" cells of the README's layer table.
    assert pl3["wire.calls"] == 0 and fleet["wire.calls"] == 0 < disk["wire.calls"]
    assert pl3["journal.calls"] == 0 and fleet["journal.calls"] == 0 < disk["journal.calls"]
    assert disk["misleading.bytes"] == 0 and fleet["misleading.bytes"] == 0 < pl3["misleading.bytes"]
    assert pl3["fleet.calls"] == 0 < fleet["fleet.calls"]
    assert fleet["access.busy_s"] > pl3["access.busy_s"]
    assert 0 < pl3["trace.coverage"] < 1
    # Layers + distributor self account for operation wall (what is left is
    # the harness's own sliver between its clock and the distributor call).
    explained = sum(v for k, v in pl3.items() if k in TIME_SHARES)
    assert explained == pytest.approx(pl3["trace.op_wall_s"], rel=0.02)


@pytest.mark.parametrize("workload", ["bulk_wire_raid5", "sensitive_inproc_pl3"])
def test_exposure_is_a_property_of_the_code_not_of_one_seed(workload, tmp_path):
    spec = workloads.WORKLOADS[workload]
    shares = []
    for seed in (13, 14):
        result = workloads.run_closed(
            spec, seed, 0.2, tmp_path, smoke=True, setups=1, reps=1
        )
        assert result.log.failed == 0
        shares.append(result.exposure)
    # Load-balanced placement over 6 providers: 1/6 up to rounding.
    assert all(abs(s - 1 / 6) < 0.01 for s in shares), shares


# -- span arithmetic -----------------------------------------------------------


def _tree() -> list[Span]:
    return [
        Span(1, "put", "op", 0.0, 10.0, 0, 100, 1),
        Span(2, "distributor.upload_file", "distributor", 1.0, 9.0, 1, 100, 1),
        Span(3, "codec.encode", "codec", 2.0, 3.0, 2, 100, 1, nbytes=64),
        # Two fanned-out provider calls on pool threads, overlapping 5..7.
        Span(4, "provider.put_many", "provider", 4.0, 7.0, 2, 101, 1, nbytes=10, items=2),
        Span(5, "provider.put_many", "provider", 5.0, 8.0, 2, 102, 1, nbytes=10, items=2),
        Span(6, "checksum.blob_checksum", "checksum", 4.5, 5.0, 4, 101, 1, nbytes=10),
        # Outside any operation: the harness's own call, never counted.
        Span(7, "provider.head", "provider", 11.0, 12.0, 0, 100, 0),
    ]


def test_union_length_counts_overlap_once():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(4, 7), (5, 8), (5, 6)]) == 4.0


def test_self_time_is_time_open_with_no_child_open():
    selfs = tracing.self_times(_tree())
    assert selfs[1] == pytest.approx(2.0)  # 10 - [1, 9]
    assert selfs[2] == pytest.approx(3.0)  # 8 - ([2, 3] + [4, 8])
    assert selfs[3] == pytest.approx(1.0)
    # 4 is innermost alone on [4, 4.5], shares [5, 7] with 5, and has its
    # child open on [4.5, 5]; 5 shares [5, 7] and is alone on [7, 8].
    assert selfs[4] == pytest.approx(0.5 + 2.0 / 2)
    assert selfs[5] == pytest.approx(2.0 / 2 + 1.0)
    assert selfs[6] == pytest.approx(0.5)
    assert selfs[7] == pytest.approx(1.0)  # outside any operation: its own
    # However the children overlap, an operation's self times add up to it.
    assert sum(selfs[i] for i in range(1, 7)) == pytest.approx(10.0)


def test_layer_metrics_from_the_hand_built_tree():
    m = tracing.layer_metrics(_tree(), chunks_moved=2)
    assert m["trace.op_wall_s"] == pytest.approx(10.0)
    assert m["distributor.self_s"] == pytest.approx(3.0)
    assert m["distributor.self_us_per_chunk"] == pytest.approx(1.5e6)
    assert m["trace.coverage"] == pytest.approx(0.7)
    assert m["codec.encode_s"] == pytest.approx(1.0)
    assert m["codec.encode_bytes"] == 64
    # The two calls jointly block 4 s; 0.5 s of that is the checksum's.
    assert m["provider.busy_s"] == pytest.approx(3.5)
    assert m["provider.calls"] == 2  # the span outside any op is ignored
    assert m["provider.blocking_share"] == pytest.approx(0.4)
    assert m["checksum.calls_per_chunk"] == pytest.approx(0.5)
    assert m["wire.calls"] == 0 and m["wire.items_per_call"] == 0.0


def test_a_call_nested_in_its_own_layer_counts_once():
    # The inherited put_many loops over put: both are wrapped.
    spans = [
        Span(1, "put", "op", 0.0, 10.0, 0, 100, 1),
        Span(2, "provider.put_many", "provider", 1.0, 9.0, 1, 100, 1, nbytes=20, items=2),
        Span(3, "provider.put", "provider", 2.0, 4.0, 2, 100, 1, nbytes=10, items=1),
        Span(4, "provider.put", "provider", 5.0, 8.0, 2, 100, 1, nbytes=10, items=1),
    ]
    m = tracing.layer_metrics(spans, chunks_moved=1)
    assert m["provider.calls"] == 1
    assert m["provider.bytes"] == 20
    assert m["provider.busy_s"] == pytest.approx(8.0)


def test_pool_threads_inherit_the_submitting_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: None, "provider", "provider.put")
    submit = tracer.wrap_submit(ThreadPoolExecutor.submit)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [submit(pool, leaf) for _ in range(2)]:
                future.result()

    with tracer.op("put"):
        tracer.wrap(fan_out, "distributor", "distributor.upload_file")()
    by_name = {s.name: s for s in tracer.spans}
    parent = by_name["distributor.upload_file"]
    leaves = [s for s in tracer.spans if s.name == "provider.put"]
    assert len(leaves) == 2
    assert all(s.parent == parent.id and s.op == by_name["put"].id for s in leaves)
    assert all(s.thread != parent.thread for s in leaves)


# -- install / uninstall ---------------------------------------------------------


def test_traced_run_restores_every_wrapped_function():
    from repro.core import distributor as distributor_module
    from repro.core import misleading
    from repro.core.distributor import CloudDataDistributor
    from repro.providers import base
    from repro.providers.memory import InMemoryProvider

    before = {
        "upload": CloudDataDistributor.upload_file,
        "get_stream": CloudDataDistributor.get_stream,
        "checksum": base.blob_checksum,
        "alias": distributor_module.remove_misleading,
        "submit": ThreadPoolExecutor.submit,
    }
    assert "put_many" not in vars(InMemoryProvider)  # inherited from the base

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        # Imported-by-name references were rebound, aliases included.
        assert distributor_module.blob_checksum is base.blob_checksum
        assert base.blob_checksum is not before["checksum"]
        assert distributor_module.remove_misleading is misleading.remove
        assert misleading.remove is not before["alias"]
        assert "put_many" in vars(InMemoryProvider)
        base.blob_checksum(b"abc")
    finally:
        tracer.uninstall()

    assert [s.name for s in tracer.spans] == ["checksum.blob_checksum"]
    assert CloudDataDistributor.upload_file is before["upload"]
    assert CloudDataDistributor.get_stream is before["get_stream"]
    assert base.blob_checksum is before["checksum"]
    assert distributor_module.blob_checksum is before["checksum"]
    assert distributor_module.remove_misleading is before["alias"]
    assert misleading.remove is before["alias"]
    assert ThreadPoolExecutor.submit is before["submit"]
    assert "put_many" not in vars(InMemoryProvider)


# -- a wrong answer is a failed operation -----------------------------------------


def test_corrupted_download_counts_as_failed(tmp_path):
    spec = workloads.WORKLOADS["bulk_inproc_rs63"]
    stack = workloads.ClosedStack(spec, 7, tmp_path, 64 * 1024)
    try:
        files = workloads.FileMaker(stack, np.random.default_rng(7))
        log = harness.OpLog()
        timer = harness.Timer(log)
        workloads.closed_rep(stack, files, timer, "clean")
        per_cycle = log.attempted  # put, one update per chunk picked, get, delete
        assert per_cycle >= 4 and log.failed == 0

        real_get = stack.get

        def flipped(name):
            data = bytearray(real_get(name))
            data[len(data) // 2] ^= 0xFF
            return bytes(data)

        stack.get = flipped
        workloads.closed_rep(stack, files, timer, "dirty")
        assert (log.attempted, log.failed) == (2 * per_cycle, 1)
        assert log.count("get") == 1  # the wrong download left no timing sample
    finally:
        stack.close()


def test_open_loop_counts_errors_and_mismatches_as_failed():
    spec = workloads.WORKLOADS["mixed_fleet_openloop"]
    workload = workloads.synthesize(spec.spec, 60, seed=5)
    stack = workloads.FleetStack(spec, 5)
    try:
        target = openloop.VerifyingTarget(stack.gateway, openloop.TraceModel(workload))
        target.populate()
        real_get = stack.gateway.get_file
        stack.gateway.get_file = lambda *a: real_get(*a)[:-1] + b"\x00\x01"
        outcome = openloop.run_open_loop(target, workload.operations, rate=400.0)
    finally:
        stack.close()
    gets = sum(1 for op in workload.operations if op.kind == "get")
    assert gets > 0
    assert outcome.log.attempted == 60
    assert outcome.log.failed == gets
    assert outcome.log.count("get") == 0


def test_sets_that_differ_in_either_direction_disagree():
    slower = {"name": "get_p50_ms", "better": "lower", "bound": 0.10}
    faster = {"name": "upload_mbps", "better": "higher", "bound": 0.10}
    for metric in (slower, faster):
        # 40% apart, whichever set came first and whichever way is "better".
        assert repeat.judge([[100.0], [140.0]], metric, exact=False)[2] == "sets disagree"
        assert repeat.judge([[140.0], [100.0]], metric, exact=False)[2] == "sets disagree"
        # A middle set is judged too.
        assert repeat.judge([[100.0], [140.0], [101.0]], metric, exact=False)[2]
        assert repeat.judge([[100.0], [105.0]], metric, exact=False)[2] == ""
    assert repeat.judge([[1.0], [1.0001]], slower, exact=True)[2] == "does not repeat exactly"
    wide = [[90.0, 100.0, 100.0, 130.0]] * 2
    assert repeat.judge(wide, slower, exact=False)[2] == "spread over bound"
    assert repeat.judge(wide, {**slower, "name": "setup_s"}, exact=False)[2] == ""


def test_percentile_and_rep_budget():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert harness.percentile([1.0, 2.0], 95) == pytest.approx(1.95)
    calls = []
    assert harness.run_reps(0.0, calls.append, min_reps=3) == 3
    assert harness.run_reps(60.0, calls.append, max_reps=2) == 2
