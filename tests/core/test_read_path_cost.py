"""What a PL-3 read pays per shard below the window, by count, not by clock.

The paper's answer to mining is smaller chunks for more sensitive data, so
at PL-3 a read is thousands of 376-byte shards and whatever Python runs
per shard is most of its cost.  Two SHA-256 per shard stay -- the
backend's at-rest check and the distributor's end-to-end one are different
checks -- and both go through ``blob_checksum``.  What these tests pin:
both checks are alive (two hashes per shard that arrived, never fewer),
each provider hears one batched call per round, the Python calls around
the checks are a fixed, small number per shard, each shard key is
formatted once from its row's id, and what a read holds at its peak is a
small multiple of the file.
"""

from __future__ import annotations

import os
import sys
import tracemalloc

import pytest

from repro.core import misleading, virtual_id
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.obs.metrics import MetricsRegistry
from repro.providers import base
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

K = 3  # raid5@4: three data members a stripe
#: Python calls per data shard a healthy read makes below ``get_file``,
#: beyond its fixed cost: 2.01 as landed -- the two ``blob_checksum`` and
#: nothing per chunk, the window decoded, stripped and joined a slab at a
#: time; 2.36 while the strip and the join went chunk by chunk (a payload,
#: a view of its ``M`` row and a stripped copy each); 6.01 while a read
#: built a fetch job a chunk and a ``shard_key`` call a shard; 15.34 before
#: the fetch-and-check pass went per provider.
PER_SHARD = 2.05
#: The same for the second read after one provider lost its blobs (about
#: half the stripes short a member, their parity asked in a second round):
#: 2.01 as landed, no more than a healthy read -- only the failed members
#: are handled one by one, each slab's lost members are rebuilt into it by
#: one XOR and the lost provider's run of failures is one monitor call;
#: 2.36 while the strip went chunk by chunk; 5.97 while every answer was
#: filed in a dict per stripe, each degraded stripe decoded on its own and
#: each failed shard reported to the monitor alone.
DEGRADED_PER_SHARD = 2.05
#: What a 2,048-chunk PL-3 ``get_file`` holds at its peak (tracemalloc),
#: over the file's size: 2.85 as landed -- the window's rows, one slab
#: decoded and stripped at a time, the stripped pieces and their join;
#: 3.61 while the window was decoded whole before any of it was stripped
#: and stripped into a payload a chunk.
PEAK_PER_FILE_BYTE = 2.9


class Switchable(InMemoryProvider):
    """Counts batched reads and the shards they served; ``dark`` refuses
    every read whole, as an unreachable provider does."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.batches = 0
        self.served = 0
        self.dark = False

    def get_many(self, keys):
        self.batches += 1
        if self.dark:
            raise ProviderUnavailableError(f"{self.name} is dark")
        outcomes = super().get_many(keys)
        self.served += list(map(type, outcomes)).count(bytes)
        return outcomes


def stored(
    chunks: int, codec: str = "raid5@4", width: int = 6, kind: type = Switchable
) -> tuple[CloudDataDistributor, list[Switchable], bytes]:
    """A PL-3 file of *chunks* 1 KiB chunks (10% misleading bytes) on
    *width* in-memory providers under *codec*, read once to warm up."""
    providers = [kind(f"P{i}") for i in range(width)]
    registry = ProviderRegistry()
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, codec=codec, seed=13, metrics=MetricsRegistry()
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    data = os.urandom(chunks * 1024)
    receipt = d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    assert receipt.chunk_count == chunks
    assert d.get_file("C", "pw", "f") == data
    for provider in providers:
        provider.batches = provider.served = 0
    return d, providers, data


@pytest.fixture
def hashes(monkeypatch) -> list[int]:
    """The length of every shard hashed through ``blob_checksum``, in any
    module that imported it by name."""
    calls: list[int] = []
    original = base.blob_checksum

    def counted(data):
        calls.append(len(data))
        return original(data)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "blob_checksum", None) is original
        ):
            monkeypatch.setattr(module, "blob_checksum", counted)
    return calls


def test_a_healthy_read_hashes_every_data_shard_twice_in_one_round(hashes):
    d, providers, data = stored(64)
    del hashes[:]  # the upload's and the warm-up read's
    assert d.get_file("C", "pw", "f") == data
    shards = 64 * K
    assert sum(p.served for p in providers) == shards
    assert len(hashes) == 2 * shards
    assert set(hashes) == {376}  # (1,024 + 102) bytes over three members
    # One round: one batched call to each provider holding a data member.
    holders = {
        name
        for ref in d.client_table.get("C").refs_for_file("f")
        for name in d._members(d.chunk_table.get(ref.chunk_index))[:K]
    }
    assert {p.name: p.batches for p in providers} == {
        p.name: int(p.name in holders) for p in providers
    }


def test_a_read_with_one_provider_dark_hashes_twice_what_arrived(hashes):
    d, providers, data = stored(64)
    del hashes[:]
    providers[2].dark = True
    assert d.get_file("C", "pw", "f") == data
    arrived = sum(p.served for p in providers)
    assert arrived == 64 * K  # each stripe: k members, parity standing in
    assert len(hashes) == 2 * arrived
    # Two rounds: data members, then the parity the dark one's stripes lack.
    assert providers[2].batches == 1
    assert max(p.batches for p in providers) == 2


def python_calls(fn) -> int:
    """Python-level calls (function entries and generator resumptions)
    *fn* makes on this thread."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_a_read_costs_a_fixed_number_of_python_calls_per_shard():
    def read(chunks: int) -> tuple[int, int]:
        d, _, data = stored(chunks)
        calls = python_calls(lambda: d.get_file("C", "pw", "f"))
        d.close()
        return calls, chunks * K

    (small, small_shards), (large, large_shards) = read(64), read(512)
    marginal = (large - small) / (large_shards - small_shards)
    assert marginal <= PER_SHARD, marginal
    # The rest is a fixed cost: no more per shard at 512 chunks than at 64.
    assert large / large_shards <= small / small_shards
    assert large / large_shards <= PER_SHARD + 0.25, large / large_shards


def test_a_degraded_read_costs_a_fixed_number_of_python_calls_per_shard():
    def read(chunks: int) -> tuple[int, int]:
        d, providers, data = stored(chunks)
        for key in list(providers[2].keys()):
            providers[2].delete(key)
        assert d.get_file("C", "pw", "f") == data  # the first read after the loss
        calls = python_calls(lambda: d.get_file("C", "pw", "f"))
        d.close()
        return calls, chunks * K

    (small, small_shards), (large, large_shards) = read(64), read(512)
    marginal = (large - small) / (large_shards - small_shards)
    assert marginal <= DEGRADED_PER_SHARD, marginal


def test_a_read_holds_a_small_multiple_of_the_file_at_its_peak():
    d, _, data = stored(2048)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert d.get_file("C", "pw", "f") == data
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_PER_FILE_BYTE * len(data), peak / len(data)


@pytest.mark.parametrize("codec", ["raid5@4", "aont-rs(4,2)"])
def test_a_read_strips_through_remove_a_part_at_a_time(monkeypatch, codec):
    # The strip's one kernel is misleading.remove, called by its module
    # name, so whatever wraps that name (the e2e tracer does) sees every
    # byte a read strips.  It is called a part of about SLAB_KEYS stored
    # bytes, never a chunk: aont-rs is not systematic, each of its stripes
    # decodes to a slab of its own, and their rows are joined into parts.
    d, _, data = stored(2048, codec)
    calls: list[int] = []
    kernel = misleading.remove
    monkeypatch.setattr(
        misleading, "remove",
        lambda blob, where, *args: calls.append(len(where)) or kernel(blob, where, *args),
    )
    assert d.get_file("C", "pw", "f") == data
    assert sum(calls) == 2048 * round(1024 * 0.1)
    assert len(calls) <= 2 * len(data) * 1.1 / misleading.SLAB_KEYS


class KeyLog(Switchable):
    """Also keeps every key a batched read asked for."""

    def get_many(self, keys):
        self.asked = getattr(self, "asked", []) + list(keys)
        return super().get_many(keys)


@pytest.mark.parametrize("codec, width, k", [("raid5@4", 6, 3), ("rs(10,4)", 14, 10)])
def test_a_read_formats_each_shard_key_once_from_a_per_row_prefix(monkeypatch, codec, width, k):
    # The read-side twin of test_an_upload_formats_each_shard_key_once: a
    # round's keys come from member_keys -- each row's id formatted once a
    # window, then one concatenation a key -- and shard_key formats none.
    # Healthy and degraded rounds alike, suffixes past ".9" included.
    d, providers, data = stored(16, codec, width, KeyLog)
    rounds: list = []
    original, shard_key = virtual_id.member_keys, virtual_id.shard_key

    def recording(prefixes, rows, indices):
        rounds.append((prefixes, list(rows), list(indices)))
        rounds[-1] += (original(prefixes, rows, indices),)
        return rounds[-1][-1]

    alone = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            if getattr(mod, "member_keys", None) is original:
                monkeypatch.setattr(mod, "member_keys", recording)
            if getattr(mod, "shard_key", None) is shard_key:
                monkeypatch.setattr(mod, "shard_key", lambda *a: alone.append(a) or shard_key(*a))
    vids = [
        d.chunk_table.get(ref.chunk_index).virtual_id
        for ref in d.client_table.get("C").refs_for_file("f")
    ]
    members: set[int] = set()
    for degraded in (False, True):
        providers[1].dark = degraded
        for provider in providers:
            provider.asked = []
        del rounds[:]
        assert d.get_file("C", "pw", "f") == data
        assert len(rounds) == 1 + degraded  # a second round for the parity
        prefixes = rounds[0][0]
        assert prefixes == [str(vid) for vid in vids]
        assert all(round_[0] is prefixes for round_ in rounds)  # formatted once
        formatted = [key for *_, keys in rounds for key in keys]
        for _, rows, indices, keys in rounds:
            assert keys == [shard_key(vids[r], i) for r, i in zip(rows, indices)]
        assert len(formatted) == len(set(formatted))
        assert sorted(formatted) == sorted(key for p in providers for key in p.asked)
        members.update(int(key.split(".")[1]) for key in formatted)
    assert max(members) == k  # the first parity member, ".10" for rs(10,4)
    assert not alone


@pytest.mark.parametrize("codec, width", [
    ("raid5@4", 6), ("raid6@5", 6), ("raid1@3", 6), ("rs(6,3)", 9), ("aont-rs(4,2)", 6),
])
@pytest.mark.parametrize("fraction", [0.0, 0.1])
@pytest.mark.parametrize("cached", [False, True])
def test_every_read_form_cuts_the_same_chunks_out_of_the_slabs(codec, width, fraction, cached):
    # The read engine hands back pieces of whole chunks -- a slab itself, a
    # view, a strided copy without the shard padding, a stripped slab -- and
    # only the callers that need a chunk's own payload cut them.  Whatever
    # the piece, every read form cuts the same chunks: 1 KiB chunks (never
    # a multiple of k, so every row is padded) and a short tail, healthy
    # and with a provider dark.
    from repro.core.cache import ChunkCache

    providers = [Switchable(f"P{i}") for i in range(width)]
    registry = ProviderRegistry()
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, codec=codec, seed=5, metrics=MetricsRegistry(),
        cache=ChunkCache(1 << 20) if cached else None,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    data = os.urandom(20 * 1024 + 333)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=fraction)
    chunks = [data[at : at + 1024] for at in range(0, len(data), 1024)]
    for dark in (False, True):
        providers[1].dark = dark
        assert d.get_file("C", "pw", "f") == data
        streamed = list(d.get_stream("C", "pw", "f", window_chunks=8))
        assert streamed == chunks and all(type(chunk) is bytes for chunk in streamed)
        assert [d.get_chunk("C", "pw", "f", serial) for serial in (0, 7, 20)] == [
            chunks[0], chunks[7], chunks[20]
        ]
    providers[1].dark = False
    d.update_chunks("C", "pw", "f", {3: b"x" * 1024, 20: b"y" * 333})
    assert d.get_snapshot("C", "pw", "f", 3) == chunks[3]
    assert d.get_snapshot("C", "pw", "f", 20) == chunks[20]
