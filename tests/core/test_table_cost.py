"""What the tables keep, counted, not timed -- and what they write.

Where a shard or a snapshot lives is said once, by its Chunk Table row; the
Provider Table holds a provider's name, PL and CL and nothing per chunk.
Table I's id lists are derived when the document is written, so the
document is what it was when the Provider Table kept a set of keys per
provider: pinned here by digest after a history that moves shards every
way a shard moves.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.core import access_control, tables, virtual_id
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.persistence import _canonical
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.rebalance import admit_provider, decommission_provider, rebalance
from repro.obs.metrics import MetricsRegistry
from repro.providers.failures import FailureInjector
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry, ProviderSpec, build_simulated_fleet
from tests.core.test_journal_recovery import recounted_loads

#: What a resident PL-3 chunk (1 KiB of user data, 10% misleading bytes,
#: raid5@4) keeps in the tables, counted three ways.  At 8025e85 it was 4.01
#: GC-tracked objects (its row, the row's members list, its stripe record,
#: its Client Table quadruple), about 1.7 KB of core bookkeeping (1,241 B
#: allocated under core/ plus four 64-character hex digests, 452 B), and
#: four ``str`` digests.  As columns: 408 B of M positions, 128 B of raw
#: digests, 8 B of members, 31 B of fixed columns, 13 B of quadruple.
GC_OBJECTS_PER_CHUNK = 1
CORE_BYTES_PER_CHUNK = 600


def _held_by(*roots) -> tuple[int, int]:
    """(GC-tracked objects, ``str`` objects) that *roots* keep, found by
    walking their containers and arrays (not their classes)."""
    walked = (dict, list, tuple, set, np.ndarray, tables.ChunkTable,
              tables.ClientTable, tables.ClientEntry, tables.FileRefs)
    seen, todo, tracked, strings = set(), list(roots), 0, 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        strings += type(obj) is str
        if isinstance(obj, walked):
            todo.extend(gc.get_referents(obj))
    return tracked, strings


def test_a_resident_pl3_chunk_keeps_no_key_set_in_the_tables():
    """Nor a Python object of its own, nor a ``str`` a shard: the three
    pins together are stricter than the old one (200 B allocated in
    core/tables.py a chunk, which moving the columns there would have
    turned into a count of moved bytes, not saved ones)."""
    chunks = 2048  # the 2 MiB PL-3 file of the benchmark's workload
    registry = ProviderRegistry()
    for i in range(6):
        registry.register(
            InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP
        )
    d = CloudDataDistributor(registry, codec="raid5@4", seed=11)
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    data = np.random.default_rng(23).bytes(chunks * 1024)
    # Everything under core/ but virtual_id.py, whose retained allocations
    # are the shard keys the in-memory backends hold and the allocator's id
    # set: neither is the tables'.
    core = str(Path(tables.__file__).parent / "*")
    in_core = [
        tracemalloc.Filter(True, core),
        tracemalloc.Filter(False, virtual_id.__file__),
    ]
    tracemalloc.start()
    try:
        d.upload_file(
            "C", "pw", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=0.1
        )
        gc.collect()
        kept = sum(
            stat.size
            for stat in tracemalloc.take_snapshot()
            .filter_traces(in_core)
            .statistics("filename")
        )
    finally:
        tracemalloc.stop()
    assert len(d.chunk_table) == chunks
    assert kept / chunks <= CORE_BYTES_PER_CHUNK, kept / chunks
    tracked, strings = _held_by(d.chunk_table, d.client_table)
    assert tracked / chunks <= GC_OBJECTS_PER_CHUNK, tracked / chunks
    assert strings < 64, strings  # names and codec labels, none a shard's
    assert sum(d.provider_loads().values()) == 4 * chunks
    assert d.get_file("C", "pw", "f") == data


#: SHA-256 of the canonical ``export_metadata()`` after :func:`history`,
#: as f1432f1 wrote it (its Provider Table kept the key sets).
HISTORY_DIGEST = "d2bf218065155d0a864a51981183bb93b9ac72fc4d0389f80d9adc2ba0929237"


def history(monkeypatch) -> tuple[CloudDataDistributor, dict]:
    """A seeded history that places, moves and retires shards and
    snapshots every way the distributor does: upload, update, remove,
    write failover, repair, admission plus rebalance, decommission.
    Returns the distributor and what each step reported."""
    # Salts and the verified-pair key are the one unseeded draw.
    monkeypatch.setattr(access_control, "os", SimpleNamespace(urandom=bytes))
    registry, providers, clock = build_simulated_fleet(
        [
            ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
            for i in range(7)
        ],
        seed=21,
    )
    injector = FailureInjector(providers, clock, seed=22)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(256),
        codec="raid5@4", seed=23, metrics=MetricsRegistry(),
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    rng = np.random.default_rng(24)
    for name in ("f", "g", "h"):
        d.upload_file(
            "C", "pw", name, rng.bytes(3000), PrivacyLevel.PRIVATE,
            misleading_fraction=0.1,
        )
    for serial in (1, 4, 7):
        d.update_chunk("C", "pw", "f", serial, rng.bytes(256))
    d.update_chunk("C", "pw", "g", 2, rng.bytes(200))
    d.remove_chunk("C", "pw", "f", 9)
    d.remove_file("C", "pw", "h")
    steps = {}
    refusing = providers[1]
    refusing.put_many = lambda items, checksums=None: [
        ProviderUnavailableError("P1 refuses")
    ] * len(items)
    d.upload_file("C", "pw", "i", rng.bytes(2000), PrivacyLevel.PRIVATE)
    del refusing.put_many
    steps["failover"] = d.metrics.value("distributor_failover_shards_total")
    injector.take_down("P2")
    steps["repair"] = len(d.repair_file("C", "pw", "f").relocations)
    injector.bring_up("P2")
    admit_provider(
        d, InMemoryProvider("P7"), PrivacyLevel.PRIVATE, CostLevel.CHEAP
    )
    steps["rebalance"] = rebalance(d, max_moves=12).shards_moved
    # Drain a provider that holds a snapshot, so one moves too.
    holders = [entry.snapshot_index for _, entry in d.chunk_table]
    leaving = min(index for index in holders if index is not None)
    steps["snapshots to drain"] = holders.count(leaving)
    steps["decommission"] = decommission_provider(
        d, d.provider_table.get(leaving).name
    ).shards_moved
    return d, steps


def test_a_history_of_moves_writes_the_document_it_always_wrote(monkeypatch):
    d, steps = history(monkeypatch)
    assert all(steps.values()), steps
    assert d.provider_loads()["P0"] == 0  # the drained provider
    assert d.provider_loads() == recounted_loads(d)
    snapshot = d.export_metadata()
    digest = hashlib.sha256(_canonical(snapshot).encode("utf-8")).hexdigest()
    assert digest == HISTORY_DIGEST
