"""The windowed data path against pinned placement vectors.

The upload engine plans every chunk of a window inside the critical
section (rng draws and id allocation in serial order, provider loads
advanced per planned shard and carried across windows) and transfers
lock-free in provider batches.  Placement and tables therefore depend on
the file and the seed alone -- not on how the file was cut into windows.
``PINNED`` holds two table digests per codec.  The one without
misleading bytes was recorded at 0a5df71, while the plan phase still
worked chunk by chunk: it proves placement, virtual ids and rotation did
not move when planning went per window.  The one at
``misleading_fraction=0.1`` was re-recorded once, in that same change
(the misleading draw moved to its own rng streams, so positions are
different random numbers; placement is not).  Every entry point and
window size must keep reproducing both.  The other tests
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
from repro.core.errors import ProviderError, ProviderUnavailableError
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
        codec=f"raid5@{width}",
        seed=seed,
        **kwargs,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d, providers


def sabotage_puts(victim):
    def put(key, data, checksum=None):
        raise ProviderUnavailableError(f"{victim.name} sabotaged")

    victim.put = put


def answer_short(victim):
    """*victim* drops the last item of every batch and answers for the
    rest only: one outcome fewer than items."""
    put_many = victim.put_many
    victim.put_many = lambda items, checksums=None: put_many(items[:-1])


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


# DATA on make_distributor(seed=63), six providers (nine for rs(6,3)).
# name -> (fleet size, codec, {misleading_fraction: digest}).  The 0.0
# digests were recorded at 0a5df71 before the plan phase went per-window
# and are unchanged by it; the 0.1 digests were recorded after.
PINNED = {
    "raid5@4": (6, None, {
        0.0: "edf0f8864ee7685200c8e579b699377c5f3c4bcc35042cf3886c93495832ec64",
        0.1: "d137ea251de36cc604cfaaf265cba38ce7c7d4ec3d3718e966bc5dc44e5b01fe",
    }),
    "raid6": (6, "raid6", {
        0.0: "93d4e5c2a4ff047f54dbd8dd204042f0df3cb35aa1c1f7249c48b55598a4a811",
        0.1: "f56cb3f0b178b38d6777487140de8532e159d79acd66690503f6f4230ea5a0f8",
    }),
    "rs(6,3)": (9, "rs(6,3)", {
        0.0: "e0eda912cadf5a9e68a5dc2399e5eb99b2930454b20c0eecf7843157fd85236c",
        0.1: "2d143b4026cdea634552d1b3a2656964481411c22dc9c33c791df729b1877062",
    }),
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
    n, spec, digests = PINNED[codec]
    d, _ = make_distributor(n=n)
    UPLOADS[upload](d, codec=spec, misleading_fraction=0.1)
    assert tables_digest(d) == digests[0.1]
    assert d.get_file("C", "pw", "f") == DATA
    assert b"".join(d.get_stream("C", "pw", "f", window_chunks=3)) == DATA


@pytest.mark.parametrize("upload", UPLOADS)
@pytest.mark.parametrize("codec", PINNED)
def test_placement_without_misleading_bytes_did_not_move(codec, upload):
    n, spec, digests = PINNED[codec]
    d, _ = make_distributor(n=n)
    UPLOADS[upload](d, codec=spec)
    assert tables_digest(d) == digests[0.0]


@pytest.mark.parametrize("upload", UPLOADS)
def test_journaled_upload_reproduces_the_pinned_tables(tmp_path, upload):
    journal = IntentJournal(tmp_path / "journal.jsonl")
    d, _ = make_distributor(journal=journal)
    UPLOADS[upload](d, misleading_fraction=0.1)
    assert tables_digest(d) == PINNED["raid5@4"][2][0.1]
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
        codec=raid, misleading_fraction=0.2,
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


def test_short_batch_answer_fails_over_instead_of_committing_a_hole():
    # A backend that answers fewer outcomes than it was sent items: the
    # unanswered shard must not pass for stored.  The whole batch is
    # condemned (which item each outcome belongs to is unknowable) and
    # write failover re-places it, so the tables match the fleet.
    d, providers = make_distributor(n=6, width=4)
    victim = providers[0]
    answer_short(victim)
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    assert victim.object_count == 0
    # Every item of the short-answered batch reached the health monitor
    # as a failure (the failover probe has since readmitted the victim).
    record = d.health._record(victim.name)
    assert record.failures > 0 and record.successes == 0
    loads = d.provider_loads()
    assert sum(loads.values()) == 20 * 4
    assert {p.name: p.object_count for p in providers} == loads
    assert d.get_file("C", "pw", "f") == DATA


def test_short_batch_answers_roll_the_file_back_when_no_spare_exists():
    d, providers = make_distributor(n=4, width=4)
    answer_short(providers[0])
    answer_short(providers[1])
    with pytest.raises(ProviderError, match="answered 19 outcomes"):
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    assert sum(d.provider_loads().values()) == 0
    assert all(p.object_count == 0 for p in providers)
    assert d.client_table.get("C").chunk_refs == []
    assert d._inflight_uploads == {}


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
                      codec="raid5@5")  # wider than the fleet
    assert d.ids.export_state() == before
    assert d._inflight_uploads == {}
