"""Subprocess driver for the constant-memory streaming gate.

Streams a sparse-synthesized multi-GB file through the full data path --
``put_stream`` -> STREAM_PUT wire sessions -> :class:`ChunkServer` ->
:class:`DiskProvider`, then back via ``get_stream`` -- and reports the
process's RSS high-water against a baseline taken after warm-up.

Runs in its own process because ``ru_maxrss`` is a monotonic high-water
mark: any earlier big allocation in the parent (other benches, pytest
collection) would mask the measurement.  Invoked by
``benchmarks/test_pipeline_throughput.py``; prints one JSON object.

Usage: python _stream_rss_driver.py FILE_SIZE_BYTES WORK_DIR
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import PrivacyLevel
from repro.net.cluster import LocalCluster
from repro.net.remote import RetryPolicy
from repro.providers.disk import DiskProvider

NODES = 4
CHUNK_SIZE = 1024 * 1024  # 1 MiB: keeps chunk metadata O(file/1MiB), tiny
# Small window: this case proves the memory ceiling, not throughput.  The
# upload pipeline holds the read buffer plus TWO windows' encoded shards
# (window N in flight while N+1 plans), so the window size counts ~3x
# against the RSS gate.
WINDOW_CHUNKS = 4
LEVEL = PrivacyLevel.MODERATE
_PATTERN = os.urandom(256 * 1024)  # incompressible, reused -- never O(file)


class SyntheticStream(io.RawIOBase):
    """A *size*-byte readable stream synthesized on the fly.

    No O(file) buffer ever exists: ``readinto`` copies from a fixed
    pattern block and folds every byte served into a running SHA-256, so
    the downloaded stream can be verified without storing the upload.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.pos = 0
        self.sha = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        want = min(len(buffer), self.size - self.pos)
        if want <= 0:
            return 0
        src = self.pos % len(_PATTERN)
        take = min(want, len(_PATTERN) - src)
        buffer[:take] = _PATTERN[src : src + take]
        self.sha.update(buffer[:take])
        self.pos += take
        return take


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    file_size = int(sys.argv[1])
    work_dir = Path(sys.argv[2])
    backends = [
        DiskProvider(f"node{i}", work_dir / f"node{i}") for i in range(NODES)
    ]
    with LocalCluster(
        backends=backends,
        retry=RetryPolicy(attempts=2, base_delay=0.01),
        op_timeout=60.0,
    ) as cluster:
        dist = CloudDataDistributor(cluster.build_registry(), seed=31)
        dist.register_client("c0")
        dist.add_password("c0", "pw", LEVEL)
        try:
            # Warm-up: touch every code path (imports, numpy kernels,
            # socket buffers, executor threads) before the baseline so
            # the delta isolates the stream's own working set.
            warm = SyntheticStream(2 * CHUNK_SIZE)
            dist.put_stream("c0", "pw", "warmup.bin", warm, LEVEL,
                            chunk_size=CHUNK_SIZE,
                            window_chunks=WINDOW_CHUNKS)
            for _ in dist.get_stream("c0", "pw", "warmup.bin",
                                     window_chunks=WINDOW_CHUNKS):
                pass
            dist.remove_file("c0", "pw", "warmup.bin")
            gc.collect()
            baseline_kib = _maxrss_kib()

            source = SyntheticStream(file_size)
            started = time.perf_counter()
            receipt = dist.put_stream("c0", "pw", "big.bin", source, LEVEL,
                                      chunk_size=CHUNK_SIZE,
                                      window_chunks=WINDOW_CHUNKS)
            upload_s = time.perf_counter() - started

            got = hashlib.sha256()
            got_bytes = 0
            started = time.perf_counter()
            for segment in dist.get_stream("c0", "pw", "big.bin",
                                           window_chunks=WINDOW_CHUNKS):
                got.update(segment)
                got_bytes += len(segment)
            download_s = time.perf_counter() - started
            peak_kib = _maxrss_kib()
        finally:
            dist.close()

    mib = 1024 * 1024
    print(json.dumps({
        "file_size": file_size,
        "chunk_size": CHUNK_SIZE,
        "window_chunks": WINDOW_CHUNKS,
        "chunks": receipt.chunk_count,
        "baseline_rss_kib": baseline_kib,
        "peak_rss_kib": peak_kib,
        "rss_delta_mib": round((peak_kib - baseline_kib) / 1024, 2),
        "upload_s": round(upload_s, 3),
        "download_s": round(download_s, 3),
        "upload_mbps": round(file_size / mib / max(upload_s, 1e-9), 2),
        "download_mbps": round(file_size / mib / max(download_s, 1e-9), 2),
        "sha_ok": (got_bytes == file_size
                   and got.hexdigest() == source.sha.hexdigest()),
    }))


if __name__ == "__main__":
    main()
