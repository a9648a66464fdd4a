"""Micro-benchmarks of the library's hot paths (real repeated rounds).

Not paper artifacts -- these watch the computational kernels a deployment
leans on: Reed-Solomon encode/decode, XOR parity, chunk split/join,
misleading-byte injection, and the linkage distance kernel.
"""

import numpy as np
import pytest

from repro.core.chunking import join, split
from repro.core.misleading import inject, inject_runs, remove, remove_window, strip
from repro.mining.hierarchical import linkage
from repro.raid.parity import xor_parity
from repro.raid.reed_solomon import RSCode
from repro.util.units import MiB

PAYLOAD = np.random.default_rng(0).integers(0, 256, size=MiB, dtype=np.uint8).tobytes()


@pytest.fixture(scope="module")
def rs_shards():
    code = RSCode(k=8, m=4)
    size = 64 * 1024
    shards = [PAYLOAD[i * size : (i + 1) * size] for i in range(8)]
    parity = code.encode(shards)
    return code, shards, parity


def test_bench_rs_encode(benchmark, rs_shards):
    code, shards, _ = rs_shards
    result = benchmark(code.encode, shards)
    assert len(result) == 4


def test_bench_rs_decode_two_losses(benchmark, rs_shards):
    code, shards, parity = rs_shards
    everything = dict(enumerate(shards + parity))
    survivors = {i: s for i, s in everything.items() if i not in (0, 5)}

    result = benchmark(code.decode, survivors)
    assert result == shards


def test_bench_xor_parity(benchmark):
    size = 128 * 1024
    blocks = [PAYLOAD[i * size : (i + 1) * size] for i in range(4)]
    out = benchmark(xor_parity, blocks)
    assert len(out) == size


def test_bench_split_join(benchmark):
    def roundtrip():
        return join(split(PAYLOAD, 0, chunk_size=4096))

    assert benchmark(roundtrip) == PAYLOAD


def test_bench_misleading_roundtrip(benchmark):
    data = PAYLOAD[: 256 * 1024]

    def roundtrip():
        injected = inject(data, 0.2, rng=1)
        return remove(injected.stored, injected.positions)

    assert benchmark(roundtrip) == data


def test_bench_misleading_remove_fast_path(benchmark):
    # One chunk stripped alone: the window strip's one-row case, one mask
    # and one compress, its positions range- and duplicate-checked.
    data = PAYLOAD[: 256 * 1024]
    injected = inject(data, 0.2, rng=1)

    result = benchmark(remove, injected.stored, injected.positions)
    assert result == data


@pytest.fixture(scope="module")
def pl3_window():
    """The PL-3 upload's draw: 2 MiB as 1 KiB chunks at 10% misleading
    bytes, cut into several slabs (one 256 KiB payload never is)."""
    data = PAYLOAD * 2
    payloads = [data[i : i + 1024] for i in range(0, len(data), 1024)]
    runs = inject_runs(payloads, 0.1, rng=1)
    stored = [bytes(chunk) for run, _ in runs for chunk in run]
    rows = [row for _, run_rows in runs for row in run_rows]
    return data, payloads, stored, rows


def test_bench_misleading_inject_runs_pl3(benchmark, pl3_window):
    _, payloads, _, _ = pl3_window
    runs = benchmark(inject_runs, payloads, 0.1, rng=1)
    assert sum(len(run) for run, _ in runs) == len(payloads)
    assert {run.shape[1] for run, _ in runs} == {1126}


def test_bench_misleading_remove_window_pl3(benchmark, pl3_window):
    data, _, stored, rows = pl3_window
    assert b"".join(benchmark(remove_window, stored, rows)) == data


def test_bench_read_window_pl3(benchmark, pl3_window):
    """The read engine below the fetch over one PL-3 window -- 2,048
    chunks of 1 KiB at 10% misleading bytes under raid5@4 -- from the
    data shards a round hands back to the file's bytes: decoded a slab at
    a time, each slab stripped by one mask and one compress a part of
    about ``SLAB_KEYS`` stored bytes, the pieces joined once."""
    from repro.raid.codecs import CodecSpec

    data, _, stored, rows = pl3_window
    codec = CodecSpec.parse("raid5@4").instantiate()
    metas, shards = codec.encode_window(stored)
    k, n = codec.k, codec.n
    data_shards = [shard for at in range(0, len(shards), n) for shard in shards[at : at + k]]
    members = tuple(range(k)) * len(metas)
    runs = [(len(metas), k * metas[0].shard_size, metas[0].orig_len, len(rows[0]))]
    heap = np.concatenate(rows)

    def read():
        slabs = codec.decode_data(metas, data_shards, members)
        return b"".join(piece for _, piece in strip(slabs, runs, heap))

    assert benchmark(read) == data


def test_bench_write_window_pl3(benchmark, pl3_window):
    """The write engine's three stages over one PL-3 window -- 2,048
    chunks of 1 KiB at 10% misleading bytes, raid5@4 over six in-memory
    providers -- as an upload runs them: plan (draw, encode, placement,
    ids, keys), transfer (one hash and one put a shard) and commit (the
    window's columns tabled).  Each round starts from an empty fleet."""
    from repro.core.distributor import CloudDataDistributor
    from repro.core.privacy import CostLevel, PrivacyLevel
    from repro.obs.metrics import MetricsRegistry
    from repro.providers.memory import InMemoryProvider
    from repro.providers.registry import ProviderRegistry

    registry = ProviderRegistry()
    for i in range(6):
        registry.register(InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(registry, codec="raid5@4", seed=1, metrics=MetricsRegistry())
    _, payloads, _, _ = pl3_window
    codec = d._resolve_codec(PrivacyLevel.PRIVATE, None)
    tabled: list[range] = []

    def erase():
        if tabled:
            with d.op_lock:
                d._delete_chunks(tabled.pop())

    def write():
        with d.op_lock:
            window = d._plan_window(
                payloads, "f", PrivacyLevel.PRIVATE, range(len(payloads)), codec,
                0.1, d.provider_loads(),
            )
        assert not d._transfer_window(window)
        with d.op_lock:
            tabled.append(d._commit_window(window))

    benchmark.pedantic(write, setup=erase, rounds=10, iterations=1)
    assert len(tabled[-1]) == len(d.chunk_table) == len(payloads)
    assert sum(d.provider_loads().values()) == 4 * len(payloads)


def test_bench_frame_segments_zero_copy(benchmark):
    # The send path's framing: scatter-gather segments instead of
    # header + payload joined into a fresh bytes per frame.
    from repro.net.protocol import frame_segments

    segments = benchmark(frame_segments, 0x03, "chunk:0:0", PAYLOAD)
    # The payload segment aliases the caller's buffer -- no copy.
    assert segments[-1].obj is PAYLOAD


def test_frame_segments_copy_drop():
    # Not a timing bench: counts the bytes each framing path allocates.
    # encode_frame materializes header+key+payload (O(payload) per send);
    # frame_segments allocates only the ~20-byte header line.
    import tracemalloc

    from repro.net.protocol import encode_frame, frame_segments

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    joined = encode_frame(0x03, "chunk:0:0", PAYLOAD)
    joined_cost = tracemalloc.get_traced_memory()[0] - before

    before = tracemalloc.get_traced_memory()[0]
    segments = frame_segments(0x03, "chunk:0:0", PAYLOAD)
    segment_cost = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()

    assert len(joined) >= len(PAYLOAD)
    assert joined_cost >= len(PAYLOAD)  # the full-frame copy
    assert segment_cost < 4096  # header + list + memoryview only
    assert sum(len(s) for s in segments) == len(joined)


def test_bench_stream_keystream(benchmark):
    from repro.crypto.stream import StreamCipher

    cipher = StreamCipher(b"bench-key")
    out = benchmark(cipher.keystream, 256 * 1024)
    assert len(out) == 256 * 1024


def test_bench_linkage_200_points(benchmark):
    points = np.random.default_rng(1).normal(size=(200, 6))
    merges = benchmark(linkage, points, "average")
    assert merges.shape == (199, 4)
