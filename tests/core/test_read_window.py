"""The read engine works per window, in rounds.

Codec x damage x window size through every read entry point, in process
and over real sockets: the bytes are those of the chunk-serial read this
engine replaced, a degraded window costs batched calls only (no single
``get`` per missing member), a bad shard is one piece of evidence for the
health monitor, and an unrecoverable window fails typed, counted and
audited; and an answer that is neither bytes nor a provider error -- an
unreadable disk blob, a buggy backend's ``None`` -- is a failed member too.
"""

import contextlib
import os
from collections import Counter

import pytest

from repro.core.audit import AuditLog
from repro.core.cache import ChunkCache
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError, ReconstructionError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.virtual_id import shard_key
from repro.net.cluster import LocalCluster
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.providers.base import CloudProvider
from repro.providers.chaos import ChaosProvider, FaultPlan
from repro.providers.disk import DiskProvider
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

NODES = 9  # rs(6,3) needs them all; the narrower codecs pick among them
CHUNK = 256
CHUNKS = 11
DATA = os.urandom(CHUNK * (CHUNKS - 1) + 57)  # an odd tail chunk
CODECS = ["raid5@4", "raid6", "rs(6,3)", "aont-rs(4,2)"]
TOLERATES = {"raid5@4": 1, "raid6": 2, "rs(6,3)": 3, "aont-rs(4,2)": 2}
WINDOWS = [1, 3, 8, CHUNKS]


class CountingProvider(CloudProvider):
    """Counts read calls by kind; ``dark`` fails them all."""

    def __init__(self, inner):
        super().__init__(inner.name)
        self.inner = inner
        self.calls = Counter()
        self.dark = False

    def _read(self, kind, call, arg):
        self.calls[kind] += 1
        if self.dark:
            raise ProviderUnavailableError(f"{self.name} is dark")
        return call(arg)

    def get(self, key):
        return self._read("get", self.inner.get, key)

    def get_many(self, keys):
        return self._read("get_many", self.inner.get_many, keys)

    def get_stream(self, keys):
        return self._read("get_stream", self.inner.get_stream, keys)

    def put(self, key, data, checksum=None):
        self.inner.put(key, data, checksum=checksum)

    def put_many(self, items, checksums=None):
        return self.inner.put_many(items, checksums=checksums)

    def put_stream(self, items, checksums=None):
        return self.inner.put_stream(items, checksums=checksums)

    def delete(self, key):
        self.inner.delete(key)

    def keys(self):
        return self.inner.keys()

    def head(self, key):
        return self.inner.head(key)

    @property
    def batched(self):
        return self.calls["get_many"] + self.calls["get_stream"]


class World:
    def __init__(self, d, counters, chaos, backends):
        self.d, self.counters, self.chaos, self.backends = (
            d, counters, chaos, backends,
        )

    def holders(self, serial):
        """(vid, provider names) of chunk *serial* of the file."""
        ref = self.d.client_table.get("C").ref_for_chunk("f", serial)
        entry = self.d.chunk_table.get(ref.chunk_index)
        return entry.virtual_id, [
            self.d.provider_table.get(i).name for i in entry.provider_indices
        ]

    def stripe(self, serial):
        ref = self.d.client_table.get("C").ref_for_chunk("f", serial)
        return self.d.chunk_table.get(ref.chunk_index).record.stripe

    def reset_counts(self):
        for counter in self.counters.values():
            counter.calls.clear()

    def read(self, how, window):
        if how == "get_file":
            return self.d.get_file("C", "pw", "f")
        if how == "get_stream":
            return b"".join(
                self.d.get_stream("C", "pw", "f", window_chunks=window)
            )
        return b"".join(
            self.d.get_chunk("C", "pw", "f", serial) for serial in range(CHUNKS)
        )


@contextlib.contextmanager
def world(codec, transport, **kwargs):
    """A fleet of CountingProvider(-> sockets) -> ChaosProvider -> memory,
    holding ``DATA`` as file ``f`` of client ``C``."""
    backends = [InMemoryProvider(f"N{i}") for i in range(NODES)]
    chaos = {b.name: ChaosProvider(b, FaultPlan(), seed=5) for b in backends}
    with contextlib.ExitStack() as stack:
        if transport == "wire":
            cluster = stack.enter_context(
                LocalCluster(backends=list(chaos.values()))
            )
            inner = cluster.providers
        else:
            inner = list(chaos.values())
        counters = {p.name: CountingProvider(p) for p in inner}
        registry = ProviderRegistry()
        for counter in counters.values():
            registry.register(counter, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        d = stack.enter_context(
            CloudDataDistributor(
                registry, chunk_policy=ChunkSizePolicy.uniform(CHUNK),
                codec=codec, seed=31, metrics=MetricsRegistry(), **kwargs,
            )
        )
        d.register_client("C")
        d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        d.upload_file(
            "C", "pw", "f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=0.1
        )
        yield World(d, counters, chaos, {b.name: b for b in backends})


def _every_read():
    """(how, window) for each entry point at each window size it takes."""
    yield "get_file", CHUNKS
    yield "get_chunk", 1
    for window in WINDOWS:
        yield "get_stream", window


@pytest.mark.parametrize("transport", ["inproc", "wire"])
@pytest.mark.parametrize("codec", CODECS)
def test_bytes_equal_with_up_to_m_providers_dark(codec, transport):
    with world(codec, transport) as w:
        _, names = w.holders(0)
        for dark in range(TOLERATES[codec] + 1):
            for name in names[:dark]:
                w.counters[name].dark = True
            for how, window in _every_read():
                w.reset_counts()
                assert w.read(how, window) == DATA, (dark, how, window)
                # No member is ever fetched by a single get, and a window
                # costs each provider at most one batched call per round.
                windows = -(-CHUNKS // window)
                for counter in w.counters.values():
                    assert counter.calls["get"] == 0
                    assert counter.batched <= windows * (dark + 1)


@pytest.mark.parametrize("transport", ["inproc", "wire"])
@pytest.mark.parametrize("codec", CODECS)
def test_healthy_window_asks_for_no_parity(codec, transport):
    with world(codec, transport) as w:
        w.reset_counts()
        assert w.read("get_file", CHUNKS) == DATA
        # One round: one batched call per provider that holds a data
        # member, none at all to one that holds parity only.
        assert all(c.batched <= 1 for c in w.counters.values())
        data_holders = set()
        for serial in range(CHUNKS):
            vid, names = w.holders(serial)
            data_holders.update(names[: w.stripe(serial).k])
        asked = {name for name, c in w.counters.items() if c.batched}
        assert asked == data_holders


@pytest.mark.parametrize("transport", ["inproc", "wire"])
@pytest.mark.parametrize("damage", ["corrupt_blob", "silent-corrupt"])
@pytest.mark.parametrize("codec", CODECS)
def test_a_corrupt_shard_is_rebuilt_around_and_reported_once(
    codec, damage, transport
):
    with world(codec, transport) as w:
        vid, names = w.holders(4)
        key, victim = shard_key(vid, 0), names[0]
        if damage == "corrupt_blob":
            # The backend notices on get (its at-rest check).
            w.backends[victim].corrupt_blob(key)
        else:
            # Nobody below the distributor notices: only the end-to-end
            # check in the read engine can.
            w.chaos[victim].plan = FaultPlan(
                silent_corrupt_rate=1.0, key_prefix=key
            )
        for how, window in _every_read():
            before = w.d.health._record(victim).failures
            # Reported once a read while the monitor trusts the victim; once
            # it does not, a read asks parity in its place and never the
            # victim, so there is nothing to report.
            trusted = victim not in w.d.health.distrusted
            w.reset_counts()
            assert w.read(how, window) == DATA, (how, window)
            assert w.d.health._record(victim).failures == before + trusted
            assert trusted or not w.counters[victim].batched
        assert not w.d.health.down(victim)  # data failures, not transport


@pytest.mark.parametrize("transport", ["inproc", "wire"])
@pytest.mark.parametrize("codec", CODECS)
def test_unrecoverable_window_is_typed_counted_and_audited(codec, transport):
    audit = AuditLog()
    with world(codec, transport, audit=audit) as w:
        vid, names = w.holders(2)
        label = w.stripe(2).codec
        for name in names[: TOLERATES[codec] + 1]:
            w.counters[name].dark = True
        counter = get_metrics().counter(
            "raid_unrecoverable_reads_total", codec=label
        )
        for how, window in [("get_file", CHUNKS), ("get_stream", 3)]:
            before = counter.value
            with pytest.raises(ReconstructionError, match="unrecoverable"):
                w.read(how, window)
            assert counter.value == before + 1
            record = audit.events[-1]
            assert (record.operation, record.ok) == ("get_file", False)
            assert record.detail == "ReconstructionError"
            assert vid in record.virtual_ids


@pytest.mark.parametrize("codec", ["raid5@4", "aont-rs(4,2)"])
def test_cached_jobs_fetch_nothing(codec):
    with world(codec, "inproc", cache=ChunkCache(1 << 20)) as w:
        assert w.read("get_file", CHUNKS) == DATA  # fills the cache
        w.reset_counts()
        for how, window in _every_read():
            assert w.read(how, window) == DATA
        assert all(not c.calls for c in w.counters.values())
        # A half-cached window fetches the other half only.
        vid, names = w.holders(5)
        w.d.cache.invalidate(vid)
        assert w.read("get_file", CHUNKS) == DATA
        asked = {name for name, c in w.counters.items() if c.batched}
        assert asked == set(names[: w.stripe(5).k])



# -- what a backend answers is judged, whatever it answers -------------------


def test_an_unreadable_disk_blob_is_read_around(tmp_path):
    """A blob the OS will not read (a directory where the file should be,
    standing in for EIO or EACCES) is a failed member, so parity serves
    the read -- not a bare ``IsADirectoryError`` out of ``get_file``."""
    registry = ProviderRegistry()
    for i in range(5):
        registry.register(
            DiskProvider(f"D{i}", tmp_path / f"d{i}"),
            PrivacyLevel.PRIVATE, CostLevel.CHEAP,
        )
    with CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(CHUNK),
        codec="raid5@4", seed=31, metrics=MetricsRegistry(),
    ) as d:
        d.register_client("C")
        d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
        entry = d.chunk_table.get(
            d.client_table.get("C").ref_for_chunk("f", 3).chunk_index
        )
        victim = d.provider_table.get(entry.provider_indices[0]).name
        path = registry.get(victim).provider._blob_path(
            shard_key(entry.virtual_id, 0)
        )
        path.unlink()
        path.mkdir()
        before = d.health._record(victim).failures
        assert d.get_file("C", "pw", "f") == DATA
        assert d.health._record(victim).failures == before + 1
        assert not d.health.down(victim)


@pytest.mark.parametrize("codec", CODECS)
def test_a_slot_that_is_neither_bytes_nor_an_error_is_a_failed_member(codec):
    """A buggy in-process backend answering ``None`` for one shard: the
    read rebuilds around it, and the health monitor hears of it."""
    with world(codec, "inproc") as w:
        vid, names = w.holders(6)
        key, victim = shard_key(vid, 1), names[1]
        counter = w.counters[victim]
        honest = counter.get_many

        def get_many(keys):
            return [
                None if asked == key else outcome
                for asked, outcome in zip(keys, honest(keys))
            ]

        counter.get_many = get_many
        before = w.d.health._record(victim).failures
        assert w.read("get_file", CHUNKS) == DATA
        assert w.d.health._record(victim).failures == before + 1
