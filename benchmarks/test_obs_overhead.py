"""Telemetry overhead bench: the instrumented data path must stay cheap.

Runs the pipelined RAID-5 round-trip from ``test_pipeline_throughput``
through two 4-node socket clusters living side by side in the same
process -- one built with a disabled :class:`MetricsRegistry` (every
handle is the shared no-op) and one with live metrics, tracing
infrastructure, and the event log installed.  Timing rounds alternate
between the two worlds so machine-load drift hits both legs equally,
and each leg keeps its best round.  Both legs plus the overhead ratio
land in ``BENCH_obs.json`` at the repo root.

Three gates (skipped under ``REPRO_BENCH_SMOKE=1``, where tiny files
measure fixed overheads):

* same-run A/B upload: the instrumented upload keeps >= 95% of the
  uninstrumented throughput, so the counters/histograms on the hot path
  stay amortized against real wire work;
* same-run A/B download: the instrumented download keeps >= 85% (its
  rounds move less wire data, so fixed telemetry cost weighs more);
* cross-PR: the instrumented upload stays within 5% of the pipelined
  single-file upload recorded in ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from pathlib import Path

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import PrivacyLevel
from repro.net.cluster import LocalCluster
from repro.net.remote import RetryPolicy
from repro.obs.events import EventLog, set_events
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer, set_tracer
from repro.raid.striping import RaidLevel
from repro.util.tables import render_table
from repro.util.units import format_bytes

NODES = 4
LEVEL = PrivacyLevel.MODERATE  # PL-2: 4 KiB chunks from the default policy
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
FILE_SIZE = 64 * 1024 if SMOKE else 2 * 1024 * 1024
ROUNDS = 1 if SMOKE else 5
MAX_OVERHEAD = 0.05  # instrumented upload may cost at most 5%
# Download reassembles from the chunk cache when it can, so its rounds
# move less data over the wire and the same fixed telemetry cost is a
# larger fraction of a smaller denominator -- hence its own, looser gate
# (recorded: 5.85%; the bound leaves noise headroom without letting a
# gross regression -- say, per-chunk quantile math on the read path --
# slip through).
MAX_DOWNLOAD_OVERHEAD = 0.15

OUTPUT = Path(__file__).parent.parent / "BENCH_obs.json"
PIPELINE_BASELINE = Path(__file__).parent.parent / "BENCH_pipeline.json"


def _mbps(nbytes: int, seconds: float) -> float:
    return nbytes / (1024 * 1024) / max(seconds, 1e-9)


def _install(metrics, tracer, events):
    return set_metrics(metrics), set_tracer(tracer), set_events(events)


def _build_world(instrumented: bool, stack: contextlib.ExitStack) -> dict:
    """A cluster + distributor bound to its own telemetry triple.

    Registry handles, chunk servers, remote providers and pools all bind
    whatever telemetry is installed at construction time, so the triple
    is installed before the cluster is built -- and must be re-installed
    before each timing round, because the RAID codecs resolve the
    process-wide registry at call time.
    """
    telemetry = (
        MetricsRegistry(enabled=instrumented),
        Tracer(),
        EventLog(emit_logging=False),
    )
    _install(*telemetry)
    cluster = stack.enter_context(
        LocalCluster(NODES, retry=RetryPolicy(attempts=2, base_delay=0.01))
    )
    distributor = CloudDataDistributor(cluster.build_registry(), seed=29)
    stack.callback(distributor.close)
    distributor.register_client("c0")
    distributor.add_password("c0", "pw", LEVEL)
    return {"telemetry": telemetry, "distributor": distributor}


def _timed_round(distributor, data: bytes, name: str) -> tuple[float, float]:
    started = time.perf_counter()
    distributor.upload_file("c0", "pw", name, data, LEVEL,
                            codec=RaidLevel.RAID5)
    upload_s = time.perf_counter() - started

    started = time.perf_counter()
    retrieved = distributor.get_file("c0", "pw", name)
    download_s = time.perf_counter() - started
    assert retrieved == data
    distributor.remove_file("c0", "pw", name)
    return upload_s, download_s


def run_bench() -> dict:
    data = os.urandom(FILE_SIZE)
    best: dict[str, list[float]] = {}
    with contextlib.ExitStack() as stack:
        previous = _install(
            MetricsRegistry(enabled=False), Tracer(),
            EventLog(emit_logging=False),
        )
        stack.callback(_install, *previous)
        worlds = [
            (label, _build_world(instrumented, stack))
            for label, instrumented in (
                ("telemetry_off", False), ("telemetry_on", True),
            )
        ]
        for label, _ in worlds:
            best[label] = [math.inf, math.inf]
        # Round 0 is an untimed warm-up (pools connect, allocators touch
        # their arenas); rounds after that alternate off/on so a machine
        # slowdown mid-bench degrades both legs, not just one.
        for round_no in range(ROUNDS + 1):
            for label, world in worlds:
                _install(*world["telemetry"])
                up, down = _timed_round(
                    world["distributor"], data, f"bench{round_no}.bin"
                )
                if round_no:
                    best[label][0] = min(best[label][0], up)
                    best[label][1] = min(best[label][1], down)

    legs = {
        label: {
            "upload_mbps": round(_mbps(FILE_SIZE, upload_s), 2),
            "download_mbps": round(_mbps(FILE_SIZE, download_s), 2),
            "upload_s": round(upload_s, 4),
            "download_s": round(download_s, 4),
        }
        for label, (upload_s, download_s) in best.items()
    }
    disabled, enabled = legs["telemetry_off"], legs["telemetry_on"]
    results: dict = {
        "config": {
            "nodes": NODES,
            "file_size": FILE_SIZE,
            "privacy_level": int(LEVEL),
            "rounds": ROUNDS,
            "smoke": SMOKE,
        },
        "telemetry_off": disabled,
        "telemetry_on": enabled,
        "upload_overhead": round(
            1.0 - enabled["upload_mbps"] / max(disabled["upload_mbps"], 1e-9),
            4,
        ),
        "download_overhead": round(
            1.0
            - enabled["download_mbps"] / max(disabled["download_mbps"], 1e-9),
            4,
        ),
    }
    if PIPELINE_BASELINE.exists():
        baseline = json.loads(PIPELINE_BASELINE.read_text())
        base = baseline["raid5"]["pipelined"]["single_file"]
        results["pipeline_baseline"] = {
            "upload_mbps": base["upload_mbps"],
            "download_mbps": base["download_mbps"],
            "upload_ratio": round(
                enabled["upload_mbps"] / max(base["upload_mbps"], 1e-9), 4
            ),
            "comparable": baseline["config"]["file_size"] == FILE_SIZE,
        }
    return results


def test_obs_overhead(benchmark, save_result):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")

    rows = []
    for label in ("telemetry_off", "telemetry_on"):
        entry = results[label]
        rows.append([
            label,
            f"{entry['upload_mbps']:.1f}",
            f"{entry['download_mbps']:.1f}",
            f"{entry['upload_s'] * 1000:.1f}",
            f"{entry['download_s'] * 1000:.1f}",
        ])
    rows.append([
        "overhead",
        f"{results['upload_overhead']:+.1%}",
        f"{results['download_overhead']:+.1%}",
        "", "",
    ])
    table = render_table(
        ["path", "up MB/s", "down MB/s", "up ms", "down ms"],
        rows,
        title=(
            f"OBS: TELEMETRY OVERHEAD ({format_bytes(FILE_SIZE)} PL-2 file, "
            f"{NODES} socket providers, RAID-5 pipelined)"
        ),
    )
    save_result("obs_overhead", table)

    if not SMOKE:
        assert results["upload_overhead"] <= MAX_OVERHEAD, (
            f"instrumented upload lost "
            f"{results['upload_overhead']:.1%} (> {MAX_OVERHEAD:.0%}) vs "
            f"the uninstrumented path"
        )
        assert results["download_overhead"] <= MAX_DOWNLOAD_OVERHEAD, (
            f"instrumented download lost "
            f"{results['download_overhead']:.1%} "
            f"(> {MAX_DOWNLOAD_OVERHEAD:.0%}) vs the uninstrumented path"
        )
        baseline = results.get("pipeline_baseline")
        if baseline is not None and baseline["comparable"]:
            assert baseline["upload_ratio"] >= 1.0 - MAX_OVERHEAD, (
                f"instrumented upload at "
                f"{results['telemetry_on']['upload_mbps']} MB/s fell more "
                f"than {MAX_OVERHEAD:.0%} below the recorded pipelined "
                f"baseline {baseline['upload_mbps']} MB/s"
            )
