"""One SHA-256 per shard per process on the way in, two checks on the way out.

The upload engine hashes each shard once and every later stage reuses that
digest: the backend records it, the wire compares the server's echo with
it, the chunk table keeps it.  Handing a backend a digest is fail-safe --
a wrong one can only make a later ``get`` raise -- and no read-side check
is traded for it.
"""

import os
import sys

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import BlobCorruptedError, ProviderUnavailableError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.virtual_id import shard_key
from repro.net.cluster import LocalCluster
from repro.net.server import ChunkServer
from repro.obs.metrics import MetricsRegistry
from repro.providers import base
from repro.providers.disk import DiskProvider
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

CHUNK = 512
CHUNKS = 6
DATA = os.urandom(CHUNK * CHUNKS)
WIDTH, K = 4, 3  # raid5@4


@pytest.fixture
def hashes(monkeypatch):
    """Count ``blob_checksum`` calls, in every module that imported it."""
    original = base.blob_checksum
    calls = []

    def counting(data):
        calls.append(len(data))
        return original(data)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, counting)
    return calls


def _distributor(providers, **kwargs):
    registry = ProviderRegistry()
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(CHUNK),
        codec="raid5@4", seed=9, metrics=MetricsRegistry(), **kwargs,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d


def _table_matches_backends(d, backends):
    """Every stored shard's recorded digest is the one the table keeps."""
    by_name = {backend.name: backend for backend in backends}
    checked = 0
    for _, entry in d.chunk_table:
        state = entry.record
        for index, table_index in enumerate(entry.provider_indices):
            backend = by_name[d.provider_table.get(table_index).name]
            key = shard_key(entry.virtual_id, index)
            if backend.contains(key):
                assert backend.head(key).checksum == state.shard_checksums[index]
                assert backend.get(key)  # and it passes the at-rest check
                checked += 1
    return checked


# -- how often a shard is hashed -----------------------------------------------


def test_in_process_put_hashes_each_shard_once(hashes):
    backends = [InMemoryProvider(f"N{i}") for i in range(6)]
    with _distributor(backends) as d:
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
        assert len(hashes) == CHUNKS * WIDTH  # was 2 per shard
        assert _table_matches_backends(d, backends) == CHUNKS * WIDTH

        del hashes[:]
        d.update_chunk("C", "pw", "f", 2, os.urandom(CHUNK))
        # The pre-read (K members, two checks each), one new stripe, and
        # the snapshot object, which its backend hashes itself.
        assert len(hashes) == 2 * K + WIDTH + 1


def test_wire_put_hashes_each_shard_once_per_side(hashes):
    # Client and servers share this process, so one counter sees both
    # sides: the client's digest and the server's digest of what arrived.
    with LocalCluster(count=6) as cluster:
        with _distributor(cluster.providers) as d:
            d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
            assert len(hashes) == 2 * CHUNKS * WIDTH  # was 4 per shard
            assert _table_matches_backends(d, cluster.backends) == CHUNKS * WIDTH


@pytest.mark.parametrize("transport", ["inproc", "wire"])
def test_a_read_keeps_both_of_its_checks(hashes, transport):
    # The backend's at-rest check and the distributor's end-to-end check
    # are different checks; a read hashes every shard it decodes from
    # twice, exactly as before.
    with LocalCluster(count=6) as cluster:
        providers = cluster.providers if transport == "wire" else cluster.backends
        with _distributor(providers) as d:
            d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
            del hashes[:]
            assert d.get_file("C", "pw", "f") == DATA
            assert len(hashes) == 2 * CHUNKS * K
            # Degraded: the lost members are never hashed, the parity
            # members that stand in for them are, twice each.
            lost = cluster.backends[0]
            held = len(lost.keys())
            for key in lost.keys():
                lost.drop_blob(key)
            del hashes[:]
            assert d.get_file("C", "pw", "f") == DATA
            assert held and len(hashes) == 2 * CHUNKS * K


# -- a backend handed a checksum -----------------------------------------------

GOOD = base.blob_checksum(b"payload")
WRONG = base.blob_checksum(b"other bytes")


@pytest.fixture(params=["memory", "disk"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryProvider("B")
    return DiskProvider("B", tmp_path)


def test_backend_records_the_checksum_it_is_handed(backend, hashes):
    backend.put("k", b"payload", checksum=GOOD)
    assert hashes == []  # recorded, not recomputed
    assert backend.head("k").checksum == GOOD
    assert backend.get("k") == b"payload"
    backend.put_many([("a", b"payload"), ("b", b"payload")], checksums=[GOOD, GOOD])
    assert backend.get_many(["a", "b"]) == [b"payload", b"payload"]
    # Without one it hashes, as it always did.
    backend.put("k2", b"payload")
    assert backend.head("k2").checksum == GOOD


def test_wrong_checksum_stores_then_fails_every_get(backend):
    # Fail-safe by construction: a wrong digest can never make bad bytes
    # pass for good, only good bytes fail.
    backend.put("k", b"payload", checksum=WRONG)
    assert backend.contains("k")
    for _ in range(2):
        with pytest.raises(BlobCorruptedError):
            backend.get("k")
    assert isinstance(backend.get_many(["k"])[0], BlobCorruptedError)


@pytest.mark.parametrize(
    "checksum",
    [
        b"",
        b"abc",
        GOOD.hex(),
        GOOD.hex().upper(),
        GOOD[:-1],
        GOOD + b"0",
        GOOD.hex().encode(),
        "g" * 32,
    ],
)
def test_disk_refuses_a_checksum_its_header_cannot_hold(tmp_path, checksum):
    # The record header is fixed-width: a digest of another length would
    # shift the payload of the record it heads.
    provider = DiskProvider("B", tmp_path)
    with pytest.raises(ValueError, match="64 lowercase hex"):
        provider.put("k", b"payload", checksum=checksum)
    assert not provider.contains("k")


def test_a_batch_with_too_few_checksums_is_refused():
    provider = InMemoryProvider("B")
    with pytest.raises(ValueError):
        provider.put_many([("a", b"x"), ("b", b"y")], checksums=[GOOD])


# -- the echo over the wire ------------------------------------------------------


def test_the_echo_is_the_digest_the_backend_recorded():
    with LocalCluster(count=1) as cluster:
        (provider,), (backend,) = cluster.providers, cluster.backends
        provider.put("one", b"payload")
        provider.put("two", b"payload", checksum=GOOD)
        assert provider.put_many([("m", b"payload")], checksums=[GOOD]) == [None]
        assert provider.put_stream([("s", b"payload")], checksums=[GOOD]) == [None]
        for key in ("one", "two", "m", "s"):
            assert backend.head(key).checksum == GOOD


class _GarblingServer(ChunkServer):
    """Stores (and vouches for) other bytes than it was sent -- what a
    fault past the frame CRC, or a buggy server, would do."""

    def _put(self, key, data):
        return super()._put(key, data[:-1] + bytes([data[-1] ^ 0xFF]))


@pytest.mark.parametrize("with_checksum", [True, False])
def test_a_server_that_stores_other_bytes_still_fails_the_put(with_checksum):
    checksum = GOOD if with_checksum else None
    many = [checksum] if with_checksum else None
    with LocalCluster(count=1, server_cls=_GarblingServer) as cluster:
        (provider,) = cluster.providers
        with pytest.raises(BlobCorruptedError, match="echo mismatch"):
            provider.put("k", b"payload", checksum=checksum)
        (outcome,) = provider.put_many([("m", b"payload")], checksums=many)
        assert isinstance(outcome, BlobCorruptedError)
        (outcome,) = provider.put_stream([("s", b"payload")], checksums=many)
        assert isinstance(outcome, BlobCorruptedError)


def test_a_wrong_client_checksum_fails_the_put_on_the_echo():
    # The client compares the echo with the digest it was handed: a caller
    # that passes a wrong one learns at once, not at the next read.
    with LocalCluster(count=1) as cluster:
        (provider,) = cluster.providers
        with pytest.raises(BlobCorruptedError, match="echo mismatch"):
            provider.put("k", b"payload", checksum=WRONG)


# -- failover and update commit what the backend recorded ----------------------


def test_failover_and_update_commit_the_digest_the_backend_recorded():
    backends = [InMemoryProvider(f"N{i}") for i in range(6)]
    victim = backends[0]
    real_put = victim.put

    def refuse(key, data, checksum=None):
        raise ProviderUnavailableError(f"{victim.name} refuses")

    with _distributor(backends) as d:
        victim.put = refuse
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
        assert d.metrics.value("distributor_failover_shards_total") >= 1
        assert not victim.keys()
        assert _table_matches_backends(d, backends) == CHUNKS * WIDTH

        victim.put = real_put
        d.update_chunk("C", "pw", "f", 1, os.urandom(CHUNK))
        d.update_chunk("C", "pw", "f", 4, os.urandom(CHUNK // 2))
        assert _table_matches_backends(d, backends) == CHUNKS * WIDTH


def test_a_repair_stores_the_rebuilt_shard_under_its_recorded_digest(hashes):
    backends = [InMemoryProvider(f"N{i}") for i in range(6)]
    with _distributor(backends) as d:
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
        lost = next(b for b in backends if b.keys())
        lost.drop_blob(lost.keys()[0])
        del hashes[:]
        report = d.repair_file("C", "pw", "f")
        assert (report.shards_missing, report.shards_rebuilt) == (1, 1)
        # Every member that read back is checked twice (at rest, end to
        # end); the rebuilt shard is not hashed again on its way in (it
        # was, by its backend, when repair handed down no digest).
        assert len(hashes) == 2 * (CHUNKS * WIDTH - 1)
        assert _table_matches_backends(d, backends) == CHUNKS * WIDTH


def test_a_wrong_rebuild_is_not_vouched_for(monkeypatch):
    # The recorded digest travels with the rebuilt shard, so bytes that are
    # not the shard's can only fail its next read -- never pass for it.
    from repro.core import distributor as distributor_module

    backends = [InMemoryProvider(f"N{i}") for i in range(6)]
    with _distributor(backends) as d:
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
        lost = next(b for b in backends if b.keys())
        lost.drop_blob(lost.keys()[0])
        monkeypatch.setattr(
            distributor_module, "rebuild_shard",
            lambda meta, index, shards: b"\0" * meta.shard_size,
        )
        (relocation,) = d.repair_file("C", "pw", "f").relocations
        vid, shard_index, _, new_home = relocation
        home = next(b for b in backends if b.name == new_home)
        with pytest.raises(BlobCorruptedError):
            home.get(shard_key(vid, shard_index))
        assert d.get_file("C", "pw", "f") == DATA  # degraded, not garbage


def test_wrappers_forward_the_checksum(hashes):
    from repro.fleet.namespace import NamespacedProvider
    from repro.providers.chaos import ChaosProvider
    from repro.providers.simulated import SimulatedProvider
    from repro.util.clock import SimulatedClock

    backend = InMemoryProvider("B")
    wrapped = NamespacedProvider(
        ChaosProvider(SimulatedProvider(backend, SimulatedClock())), "s0"
    )
    wrapped.put("k", b"payload", checksum=GOOD)
    assert wrapped.put_many([("m", b"payload")], checksums=[GOOD]) == [None]
    assert wrapped.put_stream([("s", b"payload")], checksums=[GOOD]) == [None]
    assert hashes == []
    for key in ("k", "m", "s"):
        assert backend.head(f"fleet/s0/{key}").checksum == GOOD
