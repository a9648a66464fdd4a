"""What a PL-3 upload pays per chunk, by count, not by clock.

The paper's answer to mining is smaller chunks plus misleading bytes for
more sensitive data, so a PL-3 upload is thousands of 1 KiB chunks and
whatever Python runs per chunk is most of its cost.  The upload engine
plans, transfers and commits a window as a window: one placement pass,
one virtual-id draw, one formatting of each shard key, one table write per
provider.  What these tests pin: one hash per stored shard (the digest
the provider records and the read path checks against), one key
formatting per shard, a fixed and small number of Python calls per chunk,
and that the window forms of placement and id allocation draw exactly
what the per-chunk forms drew.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core import virtual_id
from repro.core.distributor import CloudDataDistributor
from repro.core.tables import ChunkTable
from repro.core.placement import PlacementPolicy
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.core.virtual_id import VirtualIdAllocator
from repro.obs.metrics import MetricsRegistry
from repro.providers import base
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry, ProviderSpec, build_simulated_fleet

from tests.core.test_read_path_cost import python_calls
from tests.core.test_request_fixed_cost import calls_of_any_kind

WIDTH = 4  # raid5@4
#: Python calls per chunk an upload makes below ``upload_file``, beyond
#: its fixed cost: 9.08 as landed (four each of ``blob_checksum`` and the
#: in-memory ``put``; the window's columns cost no call per chunk); 17.08
#: while the engine split a file into ``Chunk`` objects and planned a
#: ``_ChunkPlan`` and a ``ChunkState`` per chunk, 21.06 while a commit
#: built a row object and a quadruple object a chunk, 59.06 while
#: placement, id allocation and commit went chunk by chunk.
PER_CHUNK = 9.25
#: Calls of any kind per chunk of an upload -- C functions and methods
#: too, so a list built or a tuple unpacked per chunk counts -- beyond its
#: fixed cost: 36.43 as landed, 48.45 with a plan object per chunk.
ANY_PER_CHUNK = 36.5
#: Python calls of a warmed one-chunk ``update_chunk`` of a PL-3 file with
#: misleading bytes: 529 before the engine planned a window as columns
#: (502 as landed).  A one-chunk window rides the same engine, and must
#: not cost more than it did.
UPDATE_ONE_CHUNK = 529
#: Python calls per chunk of a many-chunk ``update_chunks``, beyond its
#: fixed cost: 76.27 as landed -- the read of the current version (three
#: shards fetched and checked twice), the new stripe and its snapshot
#: planned, hashed and put, the old stripe and snapshot retired; 107.25
#: while the read built a fetch job and the tables a row object a chunk.
UPDATE_PER_CHUNK = 77


def distributor() -> CloudDataDistributor:
    """Six in-memory providers under ``raid5@4``, 1 KiB chunks at PL-3."""
    registry = ProviderRegistry()
    for i in range(6):
        registry.register(
            InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP
        )
    d = CloudDataDistributor(
        registry, codec="raid5@4", seed=13, metrics=MetricsRegistry()
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d


def upload(d: CloudDataDistributor, chunks: int) -> bytes:
    data = os.urandom(chunks * 1024)
    receipt = d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    assert receipt.chunk_count == chunks
    return data


def counted(monkeypatch, module, name: str) -> list:
    """The first argument of every call to ``module.name``, in any repro
    module that imported it by name."""
    calls: list = []
    original = getattr(module, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and (
            getattr(mod, name, None) is original
        ):
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_an_upload_hashes_every_stored_shard_once(monkeypatch):
    hashed = counted(monkeypatch, base, "blob_checksum")
    d = distributor()
    data = upload(d, 64)
    assert len(hashed) == 64 * WIDTH
    assert {len(shard) for shard in hashed} == {376}  # (1,024 + 102) / 3
    assert sum(d.provider_loads().values()) == 64 * WIDTH
    assert d.get_file("C", "pw", "f") == data


def produced(monkeypatch, module, name: str) -> list:
    """Every result of ``module.name``, in any repro module that imported
    it by name."""
    results: list = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and (
            getattr(mod, name, None) is original
        ):
            monkeypatch.setattr(mod, name, recording)
    return results


def test_an_upload_formats_each_shard_key_once(monkeypatch):
    # A window's keys are formatted by one stripe_keys call; shard_key
    # formats a key alone.  Together: every stored key, each once.
    alone = produced(monkeypatch, virtual_id, "shard_key")
    windows = produced(monkeypatch, virtual_id, "stripe_keys")
    d = distributor()
    upload(d, 64)
    formatted = alone + [key for keys in windows for key in keys]
    stored = [key for entry in d.registry.all() for key in entry.provider.keys()]
    assert len(formatted) == len(set(formatted)) == 64 * WIDTH
    assert set(formatted) == set(stored)
    assert len({key.split(".")[0] for key in formatted}) == 64  # one vid a chunk


def test_an_upload_costs_a_fixed_number_of_python_calls_per_chunk():
    def cost(chunks: int) -> int:
        d = distributor()
        calls = python_calls(lambda: upload(d, chunks))
        d.close()
        return calls

    small, large = cost(64), cost(512)
    marginal = (large - small) / (512 - 64)
    assert marginal <= PER_CHUNK, marginal
    # The rest is a fixed cost: no more per chunk at 512 chunks than at 64.
    assert large / 512 <= small / 64
    assert large / 512 <= PER_CHUNK + 1.25, large / 512


def test_an_upload_builds_nothing_per_chunk_it_does_not_need():
    # Counting C calls as well: the window is planned, moved and tabled
    # as columns, so no list, tuple or array is made per chunk.
    def cost(chunks: int) -> int:
        d = distributor()
        calls = calls_of_any_kind(lambda: upload(d, chunks))
        d.close()
        return calls

    small, large = cost(64), cost(512)
    marginal = (large - small) / (512 - 64)
    assert marginal <= ANY_PER_CHUNK, marginal


def test_a_one_chunk_update_costs_no_more_than_it_did():
    d = distributor()
    upload(d, 64)
    for warm in range(3):
        d.update_chunk("C", "pw", "f", 3, bytes([warm]) * 1024)
    calls = python_calls(lambda: d.update_chunk("C", "pw", "f", 3, b"\x09" * 1024))
    d.close()
    assert calls <= UPDATE_ONE_CHUNK, calls


def test_an_update_costs_a_fixed_number_of_python_calls_per_chunk():
    """An update is one window of the write engine: its fixed cost --
    authentication, the journal-free transaction, the phases -- is paid
    once however many chunks it replaces."""

    def cost(chunks: int) -> int:
        d = distributor()
        upload(d, 512)
        d.update_chunks("C", "pw", "f", {s: b"\x01" * 1000 for s in range(chunks)})
        calls = python_calls(
            lambda: d.update_chunks(
                "C", "pw", "f", {s: b"\x02" * 1000 for s in range(chunks)}
            )
        )
        d.close()
        return calls

    small, large = cost(64), cost(512)
    marginal = (large - small) / (512 - 64)
    assert marginal <= UPDATE_PER_CHUNK, marginal
    assert large / 512 <= small / 64


# -- the window forms draw what the per-chunk forms drew ----------------------


def _mixed_fleet():
    registry, _, _ = build_simulated_fleet(
        [
            ProviderSpec(f"p{i}", PrivacyLevel.PRIVATE, cost, region=region)
            for i, (cost, region) in enumerate(
                [
                    (CostLevel.CHEAP, "eu"), (CostLevel.CHEAP, "us"),
                    (CostLevel.CHEAP, "eu"), (CostLevel.PREMIUM, "eu"),
                    (CostLevel.CHEAPEST, "us"), (CostLevel.CHEAP, "ap"),
                    (CostLevel.CHEAP, "us"),
                ]
            )
        ],
        seed=1,
    )
    return registry


def _reference_group(policy, snapshot, width, load):
    """Placement one chunk at a time as it was written before the window
    pass: shuffle, then a stable sort keyed by (rank, load)."""
    shuffled = list(snapshot.ranked)
    policy._rng.shuffle(shuffled)
    shuffled.sort(key=lambda entry: (entry[0], load.get(entry[1], 0)))
    return [name for _, name in shuffled[:width]]


@pytest.mark.parametrize("regions", [(), ("eu",)])
@pytest.mark.parametrize("width", [1, 3, 4])
def test_the_window_pass_places_as_per_chunk_calls_would(regions, width):
    registry = _mixed_fleet()
    policies = [PlacementPolicy(seed=9, preferred_regions=regions) for _ in range(3)]
    snapshot = policies[0].snapshot(registry, PrivacyLevel.PRIVATE)
    loads: list[dict[str, int]] = [{"p1": 3, "p6": 1} for _ in range(3)]

    window = policies[0].stripe_groups(snapshot, width, 200, loads[0])
    per_chunk, reference = [], []
    for _ in range(200):
        group = policies[1].stripe_group(
            registry, PrivacyLevel.PRIVATE, width, load=loads[1],
            snapshot=snapshot,
        )
        old = _reference_group(policies[2], snapshot, width, loads[2])
        for name in group:
            loads[1][name] = loads[1].get(name, 0) + 1
        for name in old:
            loads[2][name] = loads[2].get(name, 0) + 1
        per_chunk.append(group)
        reference.append(old)
    assert window == per_chunk == reference
    assert {k: v for k, v in loads[0].items() if v} == loads[1] == loads[2]
    states = [policy._rng.bit_generator.state for policy in policies]
    assert states[0] == states[1] == states[2]


def test_a_single_stripe_group_charges_only_a_copy_of_the_load():
    registry = _mixed_fleet()
    load = {"p0": 2}
    PlacementPolicy(seed=1).stripe_group(
        registry, PrivacyLevel.PRIVATE, 3, load=load
    )
    assert load == {"p0": 2}


def _scalar_draws(seed, id_space, used, count):
    """Virtual ids one scalar draw at a time, as :meth:`allocate` drew
    them before the window draw."""
    rng = VirtualIdAllocator(seed=seed, id_space=id_space)._rng
    used, vids = set(used), []
    while len(vids) < count:
        vid = int(rng.integers(0, id_space))
        if vid not in used:
            used.add(vid)
            vids.append(vid)
    return vids, rng.bit_generator.state


@pytest.mark.parametrize("id_space", [virtual_id.ID_SPACE, 600])
@pytest.mark.parametrize("cuts", [(250,), (3, 4), (1, 120, 1, 128)])
def test_allocate_many_draws_what_allocate_drew(id_space, cuts):
    count = sum(cuts)
    # Reserve ids the draw is about to produce, to force collisions.
    upcoming, _ = _scalar_draws(5, id_space, (), count)
    reserved = upcoming[1:count:3]
    want, state = _scalar_draws(5, id_space, reserved, count)
    many = VirtualIdAllocator(seed=5, id_space=id_space)
    one = VirtualIdAllocator(seed=5, id_space=id_space)
    for allocator in (many, one):
        for vid in reserved:
            allocator.reserve(vid)
    got = [vid for cut in cuts for vid in many.allocate_many(cut)]
    assert got == [one.allocate() for _ in range(count)] == want
    assert many._rng.bit_generator.state == one._rng.bit_generator.state == state
    assert many.allocated_count == count + len(reserved)
    assert np.unique(got).size == count and not set(got) & set(reserved)


def test_allocate_many_refuses_past_the_id_space():
    allocator = VirtualIdAllocator(seed=1, id_space=10)
    allocator.allocate_many(8)
    with pytest.raises(RuntimeError, match="exhausted"):
        allocator.allocate_many(3)
    assert allocator.allocated_count == 8


def test_tabling_rows_never_walks_the_table(monkeypatch):
    # A commit appends its window's rows to the columns without looking
    # up a tabled virtual id, let alone iterating every one: its ids are
    # the allocator's, fresh by construction, and an update or a journal
    # replay adds a row or a few to a table of thousands.
    def refuse(*args):
        raise AssertionError("looked through the tabled virtual ids")

    d = distributor()
    data = upload(d, 64)
    monkeypatch.setattr(ChunkTable, "find_index", refuse)
    monkeypatch.setattr(ChunkTable, "__iter__", refuse)
    d.update_chunk("C", "pw", "f", 3, b"\x01" * 1024)
    d.upload_file("C", "pw", "g", data[:4096], PrivacyLevel.PRIVATE)
    assert d.get_chunk("C", "pw", "f", 3) == b"\x01" * 1024
    assert len(d.chunk_table) == 68
