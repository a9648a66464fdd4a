"""The windowed data path against pinned placement vectors.

The upload engine plans every chunk of a window inside the critical
section (rng draws and id allocation in serial order, provider loads
advanced per planned shard and carried across windows) and transfers
lock-free in provider batches.  Placement and tables therefore depend on
the file and the seed alone -- not on how the file was cut into windows.
``PINNED`` holds digests of the tables the deleted chunk-serial
``upload_file(pipelined=False)`` path produced at commit 5eb68ee; every
entry point and window size must keep reproducing them.  The other tests
pin the semantics the lock split must not lose: upload atomicity, write
failover, the duplicate-filename guard across the lock-free transfer,
and degraded / cached reads.
"""

import hashlib
import io
import json
import os
import threading

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.journal import IntentJournal
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.striping import RaidLevel


def make_distributor(n=6, width=4, seed=63, **kwargs):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=61)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(512),
        stripe_width=width,
        seed=seed,
        **kwargs,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d, providers


def sabotage_puts(victim):
    def put(key, data):
        raise ProviderUnavailableError(f"{victim.name} sabotaged")

    victim.put = put


DATA = bytes(range(256)) * 40  # 10240 bytes -> 20 chunks at 512


def tables_digest(d) -> str:
    """SHA-256 of the canonical JSON of the tables and provider loads."""
    meta = d.export_metadata()
    doc = {
        key: meta[key]
        for key in ("chunk_table", "client_table", "provider_table", "chunk_state")
    }
    doc["provider_loads"] = d.provider_loads()
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# RECORDED FROM THE PARENT 5eb68ee through upload_file(pipelined=False):
# DATA at misleading_fraction=0.1 on make_distributor(seed=63), six
# providers (nine for rs(6,3)).  name -> (fleet size, codec, digest).
PINNED = {
    "raid5@4": (6, None,
                "f232e675d2f6cc553ddc25f6ac7b79b1d6fa8b9f7b422b0d36ed070ebb7be565"),
    "raid6": (6, "raid6",
              "61cf90765feb43d801c2a7446f031857eeda596299b1415727ac4e345c3713d1"),
    "rs(6,3)": (9, "rs(6,3)",
                "1b183540e8ccf392a72497e35cb32f3b2ac9fec79f9bcb7d89c2b7220271ab6f"),
}
UPLOADS = {
    "upload_file": lambda d, **kw: d.upload_file(
        "C", "pw", "f", DATA, PrivacyLevel.PRIVATE, **kw),
    **{
        f"put_stream-w{w}": lambda d, w=w, **kw: d.put_stream(
            "C", "pw", "f", io.BytesIO(DATA), PrivacyLevel.PRIVATE,
            window_chunks=w, **kw)
        for w in (1, 3, 8, 20)
    },
}


@pytest.mark.parametrize("upload", UPLOADS)
@pytest.mark.parametrize("codec", PINNED)
def test_every_upload_reproduces_the_pinned_tables(codec, upload):
    n, spec, digest = PINNED[codec]
    d, _ = make_distributor(n=n)
    UPLOADS[upload](d, codec=spec, misleading_fraction=0.1)
    assert tables_digest(d) == digest
    assert d.get_file("C", "pw", "f") == DATA
    assert b"".join(d.get_stream("C", "pw", "f", window_chunks=3)) == DATA


@pytest.mark.parametrize("upload", UPLOADS)
def test_journaled_upload_reproduces_the_pinned_tables(tmp_path, upload):
    journal = IntentJournal(tmp_path / "journal.jsonl")
    d, _ = make_distributor(journal=journal)
    UPLOADS[upload](d, misleading_fraction=0.1)
    assert tables_digest(d) == PINNED["raid5@4"][2]
    assert d.get_file("C", "pw", "f") == DATA
    records = [
        json.loads(line)
        for line in (tmp_path / "journal.jsonl").read_text().splitlines()
    ]
    kinds = [rec["rec"] for rec in records]
    if upload in ("upload_file", "put_stream-w20"):
        # One window: its keys ride the intent record -- intent + commit,
        # the record sequence the parent's upload_file wrote.
        assert kinds == ["intent", "commit"]
        assert len(records[0]["put_keys"]) == 20 * 4
    else:
        assert kinds[0] == "intent" and kinds[-1] == "commit"
        assert set(kinds[1:-1]) == {"extend"}


@pytest.mark.parametrize("raid", [RaidLevel.RAID5, RaidLevel.RAID6])
def test_pipelined_roundtrip_both_raid_levels(raid):
    d, _ = make_distributor()
    data = os.urandom(7000)
    receipt = d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE,
        raid_level=raid, misleading_fraction=0.2,
    )
    assert receipt.raid_level is raid
    assert d.get_file("C", "pw", "f") == data


def test_pipelined_upload_rolls_back_whole_file_when_chunk_lost():
    # Width 4 over exactly 4 providers, two sabotaged: 2 of 4 < k=3, and
    # no spare exists -- every chunk is terminal, the file must vanish.
    d, providers = make_distributor(n=4, width=4)
    sabotage_puts(providers[0])
    sabotage_puts(providers[1])
    with pytest.raises(ProviderUnavailableError):
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)

    assert sum(d.provider_loads().values()) == 0
    assert all(p.object_count == 0 for p in providers)
    assert d.client_table.get("C").chunk_refs == []
    # The reservation was released: the name is reusable.
    assert d._inflight_uploads == {}


def test_pipelined_write_failover_uses_spare():
    d, providers = make_distributor(n=6, width=4)
    victim = providers[0]
    sabotage_puts(victim)
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == DATA
    assert victim.object_count == 0
    # Every shard landed somewhere: total objects match the receipt.
    assert sum(d.provider_loads().values()) == 20 * 4


def test_degraded_write_accepted_when_k_shards_land_pipelined():
    # No spare exists (width == fleet): one failed member is accepted
    # degraded, and the file still reads back through parity.
    d, providers = make_distributor(n=4, width=4)
    sabotage_puts(providers[0])
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == DATA
    assert providers[0].object_count == 0


def test_duplicate_filename_rejected_while_upload_in_flight():
    d, _ = make_distributor()
    # Simulate an upload parked in its lock-free transfer phase.
    d._inflight_uploads["C"] = {"f"}
    with pytest.raises(ValueError, match="already stores"):
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    with pytest.raises(ValueError, match="already stores"):
        d.put_stream("C", "pw", "f", io.BytesIO(DATA), PrivacyLevel.PRIVATE)
    d._inflight_uploads.clear()
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)


def test_concurrent_same_name_uploads_store_exactly_one_copy():
    d, _ = make_distributor()
    outcomes = []
    barrier = threading.Barrier(2)

    def attempt():
        barrier.wait()
        try:
            d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
            outcomes.append("ok")
        except ValueError:
            outcomes.append("duplicate")

    threads = [threading.Thread(target=attempt) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(outcomes) == ["duplicate", "ok"]
    assert d.get_file("C", "pw", "f") == DATA
    assert sum(d.provider_loads().values()) == 20 * 4


def test_pipelined_get_survives_dead_member():
    d, providers = make_distributor(n=4, width=4)
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    providers[1].available = False
    assert d.get_file("C", "pw", "f") == DATA


def test_pipelined_get_fills_and_uses_cache():
    from repro.core.cache import ChunkCache

    cache = ChunkCache(capacity_bytes=1 << 20)
    d, providers = make_distributor(cache=cache)
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == DATA
    # Second read is served entirely from cache: even a dark fleet answers.
    for p in providers:
        p.available = False
    assert d.get_file("C", "pw", "f") == DATA


def test_placement_error_during_planning_releases_ids():
    d, _ = make_distributor(n=4, width=4)
    before = d.ids.export_state()
    from repro.core.errors import PlacementError

    with pytest.raises(PlacementError):
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE,
                      stripe_width=5)  # wider than the fleet
    assert d.ids.export_state() == before
    assert d._inflight_uploads == {}
