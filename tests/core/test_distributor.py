import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    UnknownChunkError,
    UnknownClientError,
    UnknownFileError,
)
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.core.virtual_id import shard_key
from repro.raid.striping import RaidLevel


def test_upload_download_roundtrip(distributor, bob):
    data = os.urandom(10_000)
    receipt = distributor.upload_file(bob, "Ty7e", "f", data, PrivacyLevel.PRIVATE)
    assert receipt.chunk_count == distributor.chunk_count(bob, "f")
    assert distributor.get_file(bob, "Ty7e", "f") == data


def test_empty_file_roundtrip(distributor, bob):
    distributor.upload_file(bob, "x9pr", "empty", b"", PrivacyLevel.LOW)
    assert distributor.get_file(bob, "x9pr", "empty") == b""
    assert distributor.chunk_count(bob, "empty") == 1


def test_get_individual_chunks(distributor, bob):
    data = bytes(range(256)) * 10  # 2560 bytes; PL1 chunks of 1024
    distributor.upload_file(bob, "x9pr", "f", data, PrivacyLevel.LOW)
    n = distributor.chunk_count(bob, "f")
    assert n == 3
    reassembled = b"".join(
        distributor.get_chunk(bob, "x9pr", "f", serial) for serial in range(n)
    )
    assert reassembled == data


def test_upload_requires_privileged_password(distributor, bob):
    with pytest.raises(AuthorizationError):
        distributor.upload_file(bob, "aB1c", "f", b"secret", PrivacyLevel.PRIVATE)


def test_fig3_authorization_walkthrough(distributor, bob):
    """The paper's worked example: x9pr (PL1) granted, aB1c (PL0) denied."""
    distributor.upload_file(bob, "x9pr", "file1", b"file one data", PrivacyLevel.LOW)
    assert distributor.get_chunk(bob, "x9pr", "file1", 0) == b"file one data"
    with pytest.raises(AuthorizationError):
        distributor.get_chunk(bob, "aB1c", "file1", 0)


def test_wrong_password_raises_authentication(distributor, bob):
    distributor.upload_file(bob, "x9pr", "f", b"data", PrivacyLevel.LOW)
    with pytest.raises(AuthenticationError):
        distributor.get_chunk(bob, "bogus", "f", 0)


def test_unknown_client_file_chunk(distributor, bob):
    with pytest.raises(UnknownClientError):
        distributor.get_file("Eve", "pw", "f")
    with pytest.raises(UnknownFileError):
        distributor.get_file(bob, "x9pr", "nope")
    distributor.upload_file(bob, "x9pr", "f", b"x", PrivacyLevel.LOW)
    with pytest.raises(UnknownChunkError):
        distributor.get_chunk(bob, "x9pr", "f", 99)


def test_duplicate_filename_rejected(distributor, bob):
    distributor.upload_file(bob, "x9pr", "f", b"1", PrivacyLevel.LOW)
    with pytest.raises(ValueError):
        distributor.upload_file(bob, "x9pr", "f", b"2", PrivacyLevel.LOW)


def test_chunks_go_only_to_eligible_providers(distributor, bob, registry):
    """Placement invariant: provider PL >= chunk PL for every shard."""
    data = os.urandom(4000)
    distributor.upload_file(bob, "Ty7e", "f", data, PrivacyLevel.PRIVATE)
    for _, entry in distributor.chunk_table:
        for table_index in entry.provider_indices:
            provider_row = distributor.provider_table.get(table_index)
            assert int(provider_row.privacy_level) >= int(entry.privacy_level)


def test_virtual_ids_conceal_owner(distributor, bob, registry):
    """Providers see only opaque `<vid>.<shard>` keys -- no client/file names."""
    distributor.upload_file(bob, "x9pr", "secret_report", b"data" * 100, PrivacyLevel.LOW)
    for entry in registry.all():
        for key in entry.provider.keys():
            assert "Bob" not in key
            assert "secret_report" not in key
            stem, _, shard = key.partition(".")
            assert stem.isdigit() and shard.isdigit()


def test_provider_table_counts_track_shards(distributor, bob):
    distributor.upload_file(bob, "x9pr", "f", os.urandom(5000), PrivacyLevel.LOW)
    loads = distributor.provider_loads()
    n_chunks = distributor.chunk_count(bob, "f")
    width = distributor.stripe_meta(bob, "f", 0).width
    assert sum(loads.values()) == n_chunks * width
    distributor.remove_file(bob, "x9pr", "f")
    assert sum(distributor.provider_loads().values()) == 0


def test_remove_file_purges_providers(distributor, bob, registry):
    distributor.upload_file(bob, "x9pr", "f", os.urandom(3000), PrivacyLevel.LOW)
    distributor.remove_file(bob, "x9pr", "f")
    assert all(len(e.provider.keys()) == 0 for e in registry.all())
    with pytest.raises(UnknownFileError):
        distributor.get_file(bob, "x9pr", "f")
    assert len(distributor.chunk_table) == 0


def test_remove_single_chunk(distributor, bob):
    data = b"a" * 1024 + b"b" * 1024
    distributor.upload_file(bob, "x9pr", "f", data, PrivacyLevel.LOW)
    distributor.remove_chunk(bob, "x9pr", "f", 1)
    assert distributor.get_chunk(bob, "x9pr", "f", 0) == b"a" * 1024
    with pytest.raises(UnknownChunkError):
        distributor.get_chunk(bob, "x9pr", "f", 1)


def test_remove_requires_authorization(distributor, bob):
    distributor.upload_file(bob, "Ty7e", "f", b"top secret", PrivacyLevel.PRIVATE)
    with pytest.raises(AuthorizationError):
        distributor.remove_file(bob, "aB1c", "f")


def test_misleading_data_roundtrip(distributor, bob, registry):
    data = os.urandom(2048)
    distributor.upload_file(
        bob, "Ty7e", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=0.2
    )
    # Stored bytes exceed the payload (fake bytes inflate shards)...
    assert distributor.get_file(bob, "Ty7e", "f") == data
    # ...and the Chunk Table records positions.
    entries = [e for _, e in distributor.chunk_table]
    assert all(len(e.misleading_positions) > 0 for e in entries)


def test_raid_level_per_file(distributor, bob):
    distributor.upload_file(
        bob, "x9pr", "f6", b"x" * 2000, PrivacyLevel.LOW,
        codec="raid6@4",
    )
    meta = distributor.stripe_meta(bob, "f6", 0)
    assert meta.level is RaidLevel.RAID6
    assert meta.m == 2


def test_parity_rotation_across_serials(distributor, bob):
    data = b"r" * 1024 * 4  # four PL1 chunks
    distributor.upload_file(bob, "x9pr", "f", data, PrivacyLevel.LOW)
    # Shard 0's provider should differ across consecutive serials (rotation).
    first_providers = []
    client_entry = distributor.client_table.get(bob)
    for ref in client_entry.refs_for_file("f"):
        entry = distributor.chunk_table.get(ref.chunk_index)
        first_providers.append(entry.provider_indices[0])
    assert len(set(first_providers)) > 1


def test_list_files_filtered_by_password_level(distributor, bob):
    distributor.upload_file(bob, "x9pr", "low", b"1", PrivacyLevel.LOW)
    distributor.upload_file(bob, "Ty7e", "high", b"2", PrivacyLevel.PRIVATE)
    assert distributor.list_files(bob, "x9pr") == ["low"]
    assert sorted(distributor.list_files(bob, "Ty7e")) == ["high", "low"]


def test_update_chunk_snapshots_pre_state(distributor, bob):
    distributor.upload_file(bob, "6S4r", "f", b"version-one....", PrivacyLevel.MODERATE)
    distributor.update_chunk(bob, "6S4r", "f", 0, b"version-two!!!!")
    assert distributor.get_chunk(bob, "6S4r", "f", 0) == b"version-two!!!!"
    assert distributor.get_snapshot(bob, "6S4r", "f", 0) == b"version-one...."
    # Chunk Table SP column is now populated.
    ref = distributor.client_table.get(bob).ref_for_chunk("f", 0)
    assert distributor.chunk_table.get(ref.chunk_index).snapshot_index is not None


def test_snapshot_missing_before_modification(distributor, bob):
    distributor.upload_file(bob, "x9pr", "f", b"data", PrivacyLevel.LOW)
    with pytest.raises(UnknownChunkError):
        distributor.get_snapshot(bob, "x9pr", "f", 0)


def test_update_chunk_twice_keeps_latest_snapshot(distributor, bob):
    distributor.upload_file(bob, "x9pr", "f", b"v1", PrivacyLevel.LOW)
    distributor.update_chunk(bob, "x9pr", "f", 0, b"v2")
    distributor.update_chunk(bob, "x9pr", "f", 0, b"v3")
    assert distributor.get_chunk(bob, "x9pr", "f", 0) == b"v3"
    assert distributor.get_snapshot(bob, "x9pr", "f", 0) == b"v2"


def test_default_width_respects_eligible_pool(registry):
    d = CloudDataDistributor(registry, seed=1)
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "f", b"x" * 100, PrivacyLevel.PRIVATE)
    meta = d.stripe_meta("C", "f", 0)
    assert meta.width <= 4


def test_metadata_export_import_roundtrip(distributor, bob, registry):
    data = os.urandom(4000)
    distributor.upload_file(bob, "Ty7e", "f", data, PrivacyLevel.PRIVATE,
                            misleading_fraction=0.1)
    snapshot = distributor.export_metadata()

    clone = CloudDataDistributor(registry, seed=999)
    clone.import_metadata(snapshot)
    assert clone.get_file(bob, "Ty7e", "f") == data
    assert clone.chunk_count(bob, "f") == distributor.chunk_count(bob, "f")


@settings(max_examples=15, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=3000),
    level=st.sampled_from(list(PrivacyLevel)),
    fraction=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_property_roundtrip_any_payload(data, level, fraction):
    from repro.providers.registry import build_simulated_fleet, default_fleet_specs

    registry, _, _ = build_simulated_fleet(default_fleet_specs(7), seed=42)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy(sizes=(512, 256, 128, 64)),
        seed=hash((len(data), int(level))) % (2**31),
    )
    d.register_client("P")
    d.add_password("P", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("P", "pw", "f", data, level, misleading_fraction=fraction)
    assert d.get_file("P", "pw", "f") == data


def test_no_entry_point_takes_the_retired_options():
    # One way to name a codec (``codec=``: a CodecSpec, a spec string, a
    # RaidLevel) and no simulated-clock switch inside the engines: a caller
    # who wants Section VII-E's overlapped clock wraps the call in
    # ``with ParallelWindow(clock):``.
    import inspect

    from repro.core import streaming
    from repro.experiments import distribution_time, table4
    from repro.fleet.gateway import FleetGateway
    from repro.fleet.shard import FleetShard

    entry_points = [
        CloudDataDistributor.__init__,
        CloudDataDistributor.upload_file,
        CloudDataDistributor.get_file,
        CloudDataDistributor.get_chunk,
        CloudDataDistributor.put_stream,
        CloudDataDistributor.get_stream,
        CloudDataDistributor._upload_windows,
        CloudDataDistributor._read_rows,
        streaming.put_stream,
        streaming.get_stream,
        FleetGateway.__init__,
        FleetGateway.upload_file,
        FleetGateway.get_file,
        FleetShard.__init__,
        distribution_time.distribution_time_once,
        distribution_time.distribution_time_sweep,
        table4.table4_bidding_experiment,
    ]
    for function in entry_points:
        retired = {"parallel", "raid_level", "stripe_width"} & set(
            inspect.signature(function).parameters
        )
        assert not retired, f"{function.__qualname__} still takes {sorted(retired)}"
    # ``put_stream(**options)`` forwards: the retired names die one level down.
    for retired in ("raid_level", "stripe_width"):
        with pytest.raises(TypeError, match=retired):
            streaming.put_stream(None, "C", "pw", "f", None, 0, **{retired: 4})
