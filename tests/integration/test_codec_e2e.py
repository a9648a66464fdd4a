"""End-to-end paths for the pluggable codecs: rs(k,m) and aont-rs(k,m)
through upload, degraded reads, scrubbing, metadata round-trips, and the
unknown-codec quarantine."""

import os
from itertools import combinations

import pytest

from repro.analysis.availability import (
    mds_availability,
    mttdl_ratio,
    stripe_availability,
)
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import UnknownCodecError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.health.fsck import run_fsck
from repro.health.scrubber import Scrubber
from repro.obs.metrics import MetricsRegistry
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.striping import RaidLevel


def make_world(n=12, width=4, seed=71):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=seed)
    injector = FailureInjector(providers, clock, seed=seed + 1)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(1024),
        codec=f"raid5@{width}",
        seed=seed + 2,
        # Its own registry: the quarantine counter is read as an absolute
        # value, and other tests bump the process-wide one.
        metrics=MetricsRegistry(),
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return registry, providers, injector, d


# -- rs(6,3): the acceptance workload ----------------------------------------


def test_rs63_survives_loss_of_any_three_providers():
    _, providers, injector, d = make_world(n=9)
    data = os.urandom(2500)
    receipt = d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE, codec="rs(6,3)"
    )
    assert receipt.codec == "rs(6,3)"
    assert receipt.stripe_width == 9
    assert receipt.raid_level is None
    names = [p.name for p in providers]
    for down in combinations(names, 3):
        for name in down:
            injector.take_down(name)
        assert d.get_file("C", "pw", "f") == data, f"lost with {down} down"
        for name in down:
            injector.bring_up(name)


def test_rs63_scrubber_rebuilds_onto_replacement_providers():
    _, providers, injector, d = make_world(n=12)
    data = os.urandom(3000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE, codec="rs(6,3)")
    holders = [p for p in providers if p.backend.object_count > 0][:3]
    for p in holders:
        injector.kill_permanently(p.name)

    report = Scrubber(d).run_once()
    assert report.shards_rebuilt > 0
    assert report.chunks_unrecoverable == 0
    dead = {p.name for p in holders}
    for _, entry in d.chunk_table:
        names = {d.provider_table.get(i).name for i in entry.provider_indices}
        assert not (names & dead)
    assert d.get_file("C", "pw", "f") == data
    # Post-rebuild the fleet is whole again: a fresh triple loss among
    # the survivors is still survivable.
    assert Scrubber(d).run_once().shards_missing == 0


def test_scrubber_rebuilds_across_codec_generations():
    # One chunk table holding a legacy RaidLevel-family chunk next to an
    # rs(6,3) chunk: the scrubber must rebuild both through their codecs.
    _, providers, _, d = make_world(n=12)
    legacy_data, rs_data = os.urandom(900), os.urandom(900)
    d.upload_file(
        "C", "pw", "legacy", legacy_data, PrivacyLevel.PRIVATE,
        codec=RaidLevel.RAID5,
    )
    d.upload_file(
        "C", "pw", "modern", rs_data, PrivacyLevel.PRIVATE, codec="rs(6,3)"
    )
    # The serialized table stores the legacy family exactly as RaidLevel
    # metadata always looked (field 0 = "raid5").
    snapshot = d.export_metadata()
    codecs = {packed[0] for packed in snapshot["chunk_state"].values()}
    assert codecs == {"raid5", "rs(6,3)"}
    d.import_metadata(snapshot)

    # Drop one shard of each file behind the distributor's back.
    dropped = 0
    for p in providers:
        if p.backend.object_count > 0 and dropped < 2:
            p.backend.drop_blob(p.backend.keys()[0])
            dropped += 1
    report = Scrubber(d).run_once()
    assert report.shards_rebuilt >= dropped
    assert d.get_file("C", "pw", "legacy") == legacy_data
    assert d.get_file("C", "pw", "modern") == rs_data


# -- aont-rs ------------------------------------------------------------------


def test_aont_rs_roundtrip_and_degraded_read():
    _, providers, injector, d = make_world(n=6)
    data = os.urandom(2000)
    receipt = d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE, codec="aont-rs(4,2)"
    )
    assert receipt.codec == "aont-rs(4,2)"
    holders = [p for p in providers if p.backend.object_count > 0][:2]
    for p in holders:
        injector.take_down(p.name)
    assert d.get_file("C", "pw", "f") == data


def test_aont_rs_scrubber_rebuild_without_plaintext():
    _, providers, _, d = make_world(n=8)
    data = os.urandom(2000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE, codec="aont-rs(4,2)")
    victim = next(p for p in providers if p.backend.object_count > 0)
    victim.backend.drop_blob(victim.backend.keys()[0])
    report = Scrubber(d).run_once()
    assert report.shards_rebuilt == 1
    assert d.get_file("C", "pw", "f") == data


# -- metadata compatibility ---------------------------------------------------


def test_legacy_seven_field_metadata_loads_and_reads():
    _, _, _, d = make_world(n=6)
    data = os.urandom(1500)
    d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE, codec="raid6@5",
    )
    snapshot = d.export_metadata()
    # Re-pack every chunk state as the pre-checksum 7-field layout with
    # the RaidLevel.value string in field 0 -- exactly what metadata
    # written before the codec refactor contains.
    snapshot["chunk_state"] = {
        vid: tuple(packed[:7])
        for vid, packed in snapshot["chunk_state"].items()
    }
    assert all(
        packed[0] == "raid6" for packed in snapshot["chunk_state"].values()
    )
    d.import_metadata(snapshot)
    assert d.get_file("C", "pw", "f") == data
    meta = d.stripe_meta("C", "f", 0)
    assert meta.level is RaidLevel.RAID6
    assert meta.codec == "raid6"


def test_unknown_codec_quarantines_instead_of_crashing():
    _, _, _, d = make_world(n=6)
    good, bad = os.urandom(800), os.urandom(800)
    d.upload_file("C", "pw", "good", good, PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "bad", bad, PrivacyLevel.PRIVATE)
    bad_vids = {
        d.client_table.get("C").ref_for_chunk("bad", s).chunk_index
        for s in range(d.chunk_count("C", "bad"))
    }
    bad_vids = {
        d.chunk_table.get(idx).virtual_id for idx in bad_vids
    }

    snapshot = d.export_metadata()
    snapshot["chunk_state"] = {
        vid: (("zfec(4,2)",) + tuple(packed[1:]) if vid in bad_vids else packed)
        for vid, packed in snapshot["chunk_state"].items()
    }
    d.import_metadata(snapshot)  # must not raise

    # The intact file still reads; the quarantined one fails *typed*.
    assert d.get_file("C", "pw", "good") == good
    with pytest.raises(UnknownCodecError) as exc:
        d.get_file("C", "pw", "bad")
    assert exc.value.spec == "zfec(4,2)"
    assert d.metrics.counter("distributor_codec_quarantined_total").value == len(
        bad_vids
    )

    # fsck classifies the quarantined chunks instead of crashing.
    report = run_fsck(d)
    assert {vid for vid, _ in report.unknown_codec} == bad_vids
    assert all(spec == "zfec(4,2)" for _, spec in report.unknown_codec)
    assert not report.clean
    assert "unknown codec" in report.render_text()
    assert report.to_json()["unknown_codec"]

    # The scrubber skips quarantined chunks rather than destroying them.
    assert Scrubber(d).run_once().chunks_unrecoverable == 0

    # Export preserves the raw tuples verbatim: a build that understands
    # the codec loses nothing.
    again = d.export_metadata()
    for vid in bad_vids:
        assert again["chunk_state"][vid][0] == "zfec(4,2)"
    # Simulate the "newer build": restore a parseable spec and re-import.
    again["chunk_state"] = {
        vid: (snapshot_fixup(packed) if vid in bad_vids else packed)
        for vid, packed in again["chunk_state"].items()
    }
    d.import_metadata(again)
    assert d.get_file("C", "pw", "bad") == bad


def quarantined(d):
    return [entry.virtual_id for _, entry in d.chunk_table if entry.quarantined]


def snapshot_fixup(packed):
    level = "raid5" if int(packed[3]) == 1 else "raid6"
    return (level,) + tuple(packed[1:])


def test_exposure_analysis_survives_quarantined_chunks():
    from repro.analysis.exposure import client_exposure

    _, _, _, d = make_world(n=6)
    d.upload_file("C", "pw", "f", os.urandom(800), PrivacyLevel.PRIVATE)
    before = client_exposure(d, "C")
    snapshot = d.export_metadata()
    snapshot["chunk_state"] = {
        vid: ("bogus",) + tuple(packed[1:])
        for vid, packed in snapshot["chunk_state"].items()
    }
    d.import_metadata(snapshot)
    assert quarantined(d)
    # The byte-share bound comes from the preserved raw geometry, so the
    # report is identical to the pre-quarantine one.
    after = client_exposure(d, "C")
    assert after == before
    assert after.total_shard_bytes > 0


def test_decommission_with_quarantined_chunks_does_not_crash():
    from repro.core.rebalance import decommission_provider

    _, providers, injector, d = make_world(n=6)
    d.upload_file("C", "pw", "f", os.urandom(8000), PrivacyLevel.PRIVATE)
    snapshot = d.export_metadata()
    snapshot["chunk_state"] = {
        vid: ("bogus",) + tuple(packed[1:])
        for vid, packed in snapshot["chunk_state"].items()
    }
    d.import_metadata(snapshot)
    assert quarantined(d)

    # A live victim drains fine: moving a shard is a codec-agnostic byte
    # copy, no decode needed.
    live = decommission_provider(d, providers[0].name)
    assert live.shards_stuck == 0

    # A dark victim would need a stripe rebuild, which the quarantine
    # cannot do -- the shards are reported stuck, not a crash.
    victim = providers[1].name
    victim_index = d.provider_table.index_of(victim)
    held = sum(
        entry.provider_indices.count(victim_index)
        for _, entry in d.chunk_table
    )
    assert held > 0
    injector.take_down(victim)
    dark = decommission_provider(d, victim)
    assert dark.shards_stuck == held
    assert dark.shards_moved == 0
    assert dark.shards_rebuilt == 0


def test_quarantined_chunk_removal_cleans_up():
    _, _, _, d = make_world(n=6)
    d.upload_file("C", "pw", "f", os.urandom(500), PrivacyLevel.PRIVATE)
    snapshot = d.export_metadata()
    snapshot["chunk_state"] = {
        vid: ("bogus",) + tuple(packed[1:])
        for vid, packed in snapshot["chunk_state"].items()
    }
    d.import_metadata(snapshot)
    assert quarantined(d)
    # Deleting the file drops the quarantined rows, and with them every
    # trace of the chunks.
    d.remove_file("C", "pw", "f")
    assert len(d.chunk_table) == 0
    assert d.export_metadata()["chunk_state"] == {}
    assert run_fsck(d).unknown_codec == []


# -- codec-aware availability math -------------------------------------------


def test_availability_accepts_codec_specs():
    p = 0.05
    legacy = stripe_availability(RaidLevel.RAID6, 5, p)
    assert stripe_availability("raid6", 5, p) == pytest.approx(legacy)
    assert stripe_availability("raid6@5", None, p) == pytest.approx(legacy)
    assert stripe_availability("rs(3,2)", None, p) == pytest.approx(legacy)
    assert mds_availability(3, 2, p) == pytest.approx(legacy)
    # aont-rs has identical erasure geometry to rs.
    assert stripe_availability("aont-rs(3,2)", None, p) == pytest.approx(legacy)


def test_availability_more_parity_is_better():
    p = 0.1
    assert stripe_availability("rs(6,3)", None, p) > stripe_availability(
        "rs(6,1)", None, p
    )
    assert mttdl_ratio("rs(6,3)", "rs(6,1)", None, p) > 1.0
