"""Pipeline bench: the batched data path against the recorded serial one.

Round-trips PL-2 files through a 4-node socket cluster (plain in-memory
backends -- the cost under measurement is wire round-trips, framing and
syscalls, not storage) at RAID-5 and RAID-6, single-client and four
concurrent clients.  Writes machine-readable throughput numbers to
``BENCH_pipeline.json`` at the repo root.

The gate: single-file upload at RAID-5 must beat ``SEQUENTIAL_BASELINE``
by >= 3x.  The baseline is the last measurement of the per-shard,
one-request-at-a-time path (``pipelined=False``), recorded at commit
5eb68ee just before that path was deleted: at the PL-2 chunk size
(4 KiB) a 2 MiB file was 512 chunks x 4 shards = 2048 sequential
round-trips, versus one MULTI_PUT frame per provider now -- the margin
is structural, not a timing accident.

``REPRO_BENCH_SMOKE=1`` shrinks the file sizes so CI can exercise the
harness in seconds; the speedup assertion is skipped there (tiny files
measure fixed overheads, not the data path).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import PrivacyLevel
from repro.net.cluster import LocalCluster
from repro.net.remote import RetryPolicy
from repro.raid.striping import RaidLevel
from repro.util.tables import render_table
from repro.util.units import format_bytes

NODES = 4
LEVEL = PrivacyLevel.MODERATE  # PL-2: 4 KiB chunks from the default policy
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
FILE_SIZE = 64 * 1024 if SMOKE else 2 * 1024 * 1024
CONCURRENT_CLIENTS = 4
MIN_UPLOAD_SPEEDUP = 3.0
# Best-of-N timing per configuration: a loaded machine adds noise, and
# the gate should measure the structural win (round-trip count), not one
# sample's scheduling luck.
ROUNDS = 1 if SMOKE else 3

# The ``sequential`` blocks of BENCH_pipeline.json as committed at the
# parent 5eb68ee, verbatim: the deleted one-request-per-shard path on
# this benchmark (2 MiB, PL-2, 4 socket nodes).
SEQUENTIAL_BASELINE = {
    "recorded_at": "5eb68ee",
    "raid5": {
        "single_file": {
            "upload_mbps": 10.16,
            "download_mbps": 18.68,
            "upload_s": 0.1968,
            "download_s": 0.1071,
        },
        "concurrent": {"upload_mbps": 11.53, "download_mbps": 18.31},
    },
    "raid6": {
        "single_file": {
            "upload_mbps": 7.45,
            "download_mbps": 24.37,
            "upload_s": 0.2684,
            "download_s": 0.0821,
        },
        "concurrent": {"upload_mbps": 6.06, "download_mbps": 18.69},
    },
}

# Streaming gate (the PR-8 tentpole).  The multi-GB case must complete
# with a bounded RSS delta no matter the file size (measured in a fresh
# subprocess: ru_maxrss is a high-water mark and pytest's own footprint
# would mask it).  The 2 MiB case is reported, not gated: put_stream and
# upload_file are the same engine now, so a ratio between them would
# compare the code with itself.
# Throughput-sized window: 2 MiB at the PL-2 4 KiB chunk size, so the whole
# benchmark file moves as one window (the multi-GB case below exercises
# window-barrier sync across hundreds of windows).  Matches the docs
# guidance: throughput-sensitive callers size windows >= ~1 MiB.
STREAM_WINDOW_CHUNKS = 512
BIG_FILE_SIZE = 192 * 1024 * 1024 if SMOKE else 2 * 1024 * 1024 * 1024
MAX_STREAM_RSS_MIB = 64.0

OUTPUT = Path(__file__).parent.parent / "BENCH_pipeline.json"
STREAM_OUTPUT = Path(__file__).parent.parent / "BENCH_stream.json"


def _make_distributor(cluster: LocalCluster) -> CloudDataDistributor:
    d = CloudDataDistributor(cluster.build_registry(), seed=29)
    for i in range(CONCURRENT_CLIENTS):
        d.register_client(f"c{i}")
        d.add_password(f"c{i}", "pw", LEVEL)
    return d


def _mbps(nbytes: int, seconds: float) -> float:
    return nbytes / (1024 * 1024) / max(seconds, 1e-9)


def _single_file(cluster, raid: RaidLevel) -> dict:
    d = _make_distributor(cluster)
    data = os.urandom(FILE_SIZE)
    upload_s = download_s = float("inf")
    try:
        for round_no in range(ROUNDS):
            name = f"bench{round_no}.bin"
            started = time.perf_counter()
            d.upload_file("c0", "pw", name, data, LEVEL, codec=raid)
            upload_s = min(upload_s, time.perf_counter() - started)

            started = time.perf_counter()
            retrieved = d.get_file("c0", "pw", name)
            download_s = min(download_s, time.perf_counter() - started)
            assert retrieved == data
            d.remove_file("c0", "pw", name)
    finally:
        d.close()
    return {
        "upload_mbps": round(_mbps(FILE_SIZE, upload_s), 2),
        "download_mbps": round(_mbps(FILE_SIZE, download_s), 2),
        "upload_s": round(upload_s, 4),
        "download_s": round(download_s, 4),
    }


def _concurrent_clients(cluster, raid: RaidLevel) -> dict:
    d = _make_distributor(cluster)
    per_client = FILE_SIZE // CONCURRENT_CLIENTS
    payloads = {f"c{i}": os.urandom(per_client)
                for i in range(CONCURRENT_CLIENTS)}
    errors: list[Exception] = []

    def run(phase: str) -> float:
        def work(client: str) -> None:
            try:
                if phase == "upload":
                    d.upload_file(client, "pw", "f.bin", payloads[client],
                                  LEVEL, codec=raid)
                else:
                    got = d.get_file(client, "pw", "f.bin")
                    assert got == payloads[client]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(c,)) for c in payloads]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - started

    try:
        upload_s = run("upload")
        download_s = run("download")
    finally:
        d.close()
    if errors:
        raise errors[0]
    total = per_client * CONCURRENT_CLIENTS
    return {
        "upload_mbps": round(_mbps(total, upload_s), 2),
        "download_mbps": round(_mbps(total, download_s), 2),
    }


def run_bench() -> dict:
    results: dict = {
        "config": {
            "nodes": NODES,
            "file_size": FILE_SIZE,
            "privacy_level": int(LEVEL),
            "concurrent_clients": CONCURRENT_CLIENTS,
            "smoke": SMOKE,
        },
    }
    for raid in (RaidLevel.RAID5, RaidLevel.RAID6):
        raid_key = raid.name.lower()
        with LocalCluster(
            NODES, retry=RetryPolicy(attempts=2, base_delay=0.01)
        ) as cluster:
            single = _single_file(cluster, raid)
            multi = _concurrent_clients(cluster, raid)
        results[raid_key] = {
            "sequential_baseline": {
                "recorded_at": SEQUENTIAL_BASELINE["recorded_at"],
                **SEQUENTIAL_BASELINE[raid_key],
            },
            "pipelined": {"single_file": single, "concurrent": multi},
        }
        seq = SEQUENTIAL_BASELINE[raid_key]["single_file"]
        pip = single
        results[raid_key]["upload_speedup"] = round(
            pip["upload_mbps"] / max(seq["upload_mbps"], 1e-9), 2
        )
        results[raid_key]["download_speedup"] = round(
            pip["download_mbps"] / max(seq["download_mbps"], 1e-9), 2
        )
    return results


def test_pipeline_throughput(benchmark, save_result):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")

    rows = []
    for raid_key in ("raid5", "raid6"):
        for label in ("sequential_baseline", "pipelined"):
            entry = results[raid_key][label]
            rows.append([
                raid_key,
                label.replace("_baseline", f" @{SEQUENTIAL_BASELINE['recorded_at']}"),
                f"{entry['single_file']['upload_mbps']:.1f}",
                f"{entry['single_file']['download_mbps']:.1f}",
                f"{entry['concurrent']['upload_mbps']:.1f}",
                f"{entry['concurrent']['download_mbps']:.1f}",
            ])
        rows.append([
            raid_key, "speedup",
            f"{results[raid_key]['upload_speedup']:.1f}x",
            f"{results[raid_key]['download_speedup']:.1f}x",
            "", "",
        ])
    table = render_table(
        ["raid", "path", "up MB/s", "down MB/s", "4-client up", "4-client down"],
        rows,
        title=(
            f"NET: PIPELINED DATA PATH ({format_bytes(FILE_SIZE)} PL-2 file, "
            f"{NODES} socket providers)"
        ),
    )
    save_result("pipeline_throughput", table)

    if not SMOKE:
        # The benchmark gate: batching + chunk-level parallelism must
        # repay at least 3x on the recorded sequential round-trip count.
        assert results["raid5"]["upload_speedup"] >= MIN_UPLOAD_SPEEDUP, (
            f"upload at {results['raid5']['upload_speedup']}x of the recorded "
            f"sequential baseline, below the {MIN_UPLOAD_SPEEDUP}x gate"
        )
        # Downloads must not fall back to it either.
        assert results["raid5"]["download_speedup"] >= 1.0


# -- streaming data path (PR 8) ---------------------------------------------


def _stream_single_file(cluster) -> dict:
    """Best-of-ROUNDS 2 MiB round-trip via put_stream/get_stream."""
    d = _make_distributor(cluster)
    data = os.urandom(FILE_SIZE)
    upload_s = download_s = float("inf")
    try:
        for round_no in range(ROUNDS):
            name = f"stream{round_no}.bin"
            started = time.perf_counter()
            d.put_stream("c0", "pw", name, io.BytesIO(data), LEVEL,
                         codec=RaidLevel.RAID5,
                         window_chunks=STREAM_WINDOW_CHUNKS)
            upload_s = min(upload_s, time.perf_counter() - started)

            started = time.perf_counter()
            retrieved = b"".join(
                d.get_stream("c0", "pw", name,
                             window_chunks=STREAM_WINDOW_CHUNKS)
            )
            download_s = min(download_s, time.perf_counter() - started)
            assert retrieved == data
            d.remove_file("c0", "pw", name)
    finally:
        d.close()
    return {
        "upload_mbps": round(_mbps(FILE_SIZE, upload_s), 2),
        "download_mbps": round(_mbps(FILE_SIZE, download_s), 2),
        "upload_s": round(upload_s, 4),
        "download_s": round(download_s, 4),
    }


def _run_rss_driver() -> dict:
    """Multi-GB constant-memory case, in a fresh subprocess (see driver)."""
    driver = Path(__file__).parent / "_stream_rss_driver.py"
    work = Path(__file__).parent / "results" / "_rss_work"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    root = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            [sys.executable, str(driver), str(BIG_FILE_SIZE), str(work)],
            capture_output=True, text=True, env=env, timeout=1800,
        )
    finally:
        import shutil
        shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, f"rss driver failed:\n{proc.stderr[-4000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_stream_throughput(benchmark, save_result):
    def run() -> dict:
        # Same cluster shape as the pipeline bench above.
        with LocalCluster(
            NODES, retry=RetryPolicy(attempts=2, base_delay=0.01)
        ) as cluster:
            streamed = _stream_single_file(cluster)
        return {
            "config": {
                "nodes": NODES,
                "file_size": FILE_SIZE,
                "big_file_size": BIG_FILE_SIZE,
                "privacy_level": int(LEVEL),
                "stream_window_chunks": STREAM_WINDOW_CHUNKS,
                "smoke": SMOKE,
            },
            "stream_2mib": streamed,
            "multi_gb": _run_rss_driver(),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    STREAM_OUTPUT.write_text(json.dumps(results, indent=2) + "\n")

    two = results["stream_2mib"]
    big = results["multi_gb"]
    table = render_table(
        ["case", "up MB/s", "down MB/s", "RSS delta"],
        [
            [format_bytes(FILE_SIZE) + " stream",
             f"{two['upload_mbps']:.1f}", f"{two['download_mbps']:.1f}", ""],
            [format_bytes(big["file_size"]) + " stream",
             f"{big['upload_mbps']:.1f}", f"{big['download_mbps']:.1f}",
             f"{big['rss_delta_mib']:.1f} MiB"],
        ],
        title=f"NET: STREAMING DATA PATH ({NODES} socket providers)",
    )
    save_result("stream_throughput", table)

    # The RSS ceiling is the tentpole's whole point, so it gates even in
    # smoke mode (the smoke run only shrinks the file, and the ceiling
    # is independent of file size).
    assert big["sha_ok"], "streamed download does not match the upload"
    assert big["rss_delta_mib"] <= MAX_STREAM_RSS_MIB, (
        f"streaming RSS delta {big['rss_delta_mib']} MiB exceeds the "
        f"{MAX_STREAM_RSS_MIB} MiB ceiling"
    )
