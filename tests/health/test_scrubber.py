"""Background scrubber: table-wide auditing, automatic rebuilds, and the
silent-corruption detection the recorded shard checksums enable."""

import os
import time

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.health.scrubber import Scrubber
from repro.providers.base import blob_checksum
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet


def make_world(n=6, width=4):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=21)
    injector = FailureInjector(providers, clock, seed=22)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(512),
        codec=f"raid5@{width}",
        seed=23,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return registry, providers, injector, d


def test_clean_fleet_scrubs_clean():
    _, _, _, d = make_world()
    d.upload_file("C", "pw", "f", os.urandom(3000), PrivacyLevel.PRIVATE)
    report = Scrubber(d).run_once()
    assert report.chunks_checked == len(d.chunk_table)
    assert report.shards_missing == 0
    assert report.shards_rebuilt == 0
    assert report.chunks_unrecoverable == 0
    assert "0 bad" in report.summary()


def test_scrubber_rebuilds_dropped_shard():
    _, providers, _, d = make_world()
    data = os.urandom(2000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    # Drop one shard object behind the distributor's back.
    victim = next(p for p in providers if p.backend.object_count > 0)
    key = victim.backend.keys()[0]
    victim.backend.drop_blob(key)

    report = Scrubber(d).run_once()
    assert report.shards_missing == 1
    assert report.shards_rebuilt == 1
    assert report.chunks_unrecoverable == 0
    assert d.get_file("C", "pw", "f") == data
    # A second cycle finds nothing left to fix.
    assert Scrubber(d).run_once().shards_missing == 0


def test_scrubber_detects_silent_corruption_via_checksums():
    # corrupt the bytes at rest *without* tripping the provider's own
    # integrity check: only the recorded stripe checksums can notice.
    _, providers, _, d = make_world()
    data = os.urandom(2000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    victim = next(p for p in providers if p.backend.object_count > 0)
    key = victim.backend.keys()[0]
    blob = bytearray(victim.backend._blobs[key])
    blob[0] ^= 0xFF
    victim.backend._blobs[key] = bytes(blob)
    # Re-stamp the provider-side checksum so its own integrity check
    # passes: the rot is invisible to the provider.
    victim.backend._checksums[key] = blob_checksum(bytes(blob))

    report = Scrubber(d).run_once()
    assert report.shards_missing >= 1
    assert report.shards_rebuilt >= 1
    assert d.get_file("C", "pw", "f") == data


def test_scrubber_rebuilds_a_shard_its_provider_reports_rotten():
    # corrupt_blob flips a byte and leaves the provider's checksum as it
    # was: every get of the shard raises BlobCorruptedError, while a head
    # still answers the checksum recorded at write time -- an audit by
    # head scrubbed it as clean, cycle after cycle.
    _, providers, _, d = make_world()
    data = os.urandom(2000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    victim = next(p for p in providers if p.backend.object_count > 0)
    victim.backend.corrupt_blob(victim.backend.keys()[0])

    scrubber = Scrubber(d)
    report = scrubber.run_once()
    assert (report.shards_missing, report.shards_rebuilt) == (1, 1)
    assert report.chunks_unrecoverable == 0
    assert "1 bad" in report.summary()
    assert scrubber.run_once().shards_missing == 0
    assert d.get_file("C", "pw", "f") == data


def test_scrubber_relocates_off_dead_provider():
    _, providers, injector, d = make_world()
    data = os.urandom(2500)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    victim = next(p for p in providers if p.backend.object_count > 0)
    injector.kill_permanently(victim.name)

    report = Scrubber(d).run_once()
    assert report.shards_rebuilt > 0
    assert all(old == victim.name for _, _, old, _ in report.relocations)
    assert all(new != victim.name for _, _, _, new in report.relocations)
    # The dead provider holds no referenced shards any more.
    for _, entry in d.chunk_table:
        names = {d.provider_table.get(i).name for i in entry.provider_indices}
        assert victim.name not in names
    assert d.get_file("C", "pw", "f") == data


def test_scrubber_reports_unrecoverable_chunks():
    _, providers, injector, d = make_world(n=4, width=4)
    d.upload_file("C", "pw", "f", os.urandom(600), PrivacyLevel.PRIVATE)
    # RAID-5 width 4 tolerates one loss; destroy two members' objects.
    holders = [p for p in providers if p.backend.object_count > 0][:2]
    for p in holders:
        for key in list(p.backend.keys()):
            p.backend.drop_blob(key)
    report = Scrubber(d).run_once()
    assert report.chunks_unrecoverable >= 1


def test_scrubber_probe_sweep_marks_dead_provider_down():
    _, providers, injector, d = make_world()
    d.upload_file("C", "pw", "f", os.urandom(1000), PrivacyLevel.PRIVATE)
    injector.take_down("P0")
    Scrubber(d).run_once()
    assert d.health.down("P0")


def test_background_thread_scrubs_periodically():
    _, providers, _, d = make_world()
    data = os.urandom(1500)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    victim = next(p for p in providers if p.backend.object_count > 0)
    key = victim.backend.keys()[0]
    victim.backend.drop_blob(key)

    scrubber = Scrubber(d, interval_s=0.05)
    with scrubber:
        deadline = time.time() + 5.0
        while time.time() < deadline and not scrubber.reports:
            time.sleep(0.02)
    assert scrubber.reports, "no scrub cycle ran within 5s"
    assert sum(r.shards_rebuilt for r in scrubber.reports) >= 1
    assert not scrubber.running


def test_scrubber_rejects_bad_interval():
    _, _, _, d = make_world(n=4)
    with pytest.raises(ValueError):
        Scrubber(d, interval_s=0.0)
