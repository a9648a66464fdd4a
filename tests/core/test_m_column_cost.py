"""What the Chunk Table's ``M`` column costs in memory, counted, not timed.

The paper's answer to mining is smaller chunks plus misleading bytes for
more sensitive data, so the ``M`` column is the part of the Chunk Table that
grows with sensitivity.  As 102 Python ints in a tuple it cost about 36
bytes a position; as one packed row it cost 4, plus an array and a bytes
header a row; as a row's slice of the table's one ``uint32`` heap it costs
4 and an offset.  A row read out is one packed row.  The bound holds however
the row arrived: an upload, a loaded snapshot, a recovered journal.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core import misleading
from repro.core.distributor import CloudDataDistributor
from repro.core.journal import IntentJournal, recover_from_journal
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

CHUNKS = 256
DATA = np.random.default_rng(23).bytes(CHUNKS * 1024)
PER_CHUNK = 102  # round(1024 * 0.1)
#: An ndarray's header is 112 bytes and a bytes object's 33 on CPython
#: 3.11 / numpy 2; some slack.
ROW_OVERHEAD = 160


@pytest.fixture
def registry() -> ProviderRegistry:
    registry = ProviderRegistry()
    for i in range(6):
        registry.register(
            InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP
        )
    return registry


def distributor(registry, journal=None) -> CloudDataDistributor:
    d = CloudDataDistributor(registry, seed=11, journal=journal)
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d


def upload(d: CloudDataDistributor) -> None:
    receipt = d.upload_file(
        "C", "pw", "f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    assert receipt.chunk_count == CHUNKS


def held(row) -> int:
    """Bytes *row* keeps alive: itself, and whatever it is a view of or a
    container for."""
    if isinstance(row, np.ndarray):
        return sys.getsizeof(row) + (0 if row.base is None else held(row.base))
    if isinstance(row, bytes):
        return sys.getsizeof(row)
    return sys.getsizeof(row) + sum(map(sys.getsizeof, row))


def assert_packed(d: CloudDataDistributor) -> None:
    rows = [entry.misleading_positions for _, entry in d.chunk_table]
    assert len(rows) == CHUNKS
    positions = sum(map(len, rows))
    assert positions == CHUNKS * PER_CHUNK
    assert len({id(row) for row in rows}) == CHUNKS
    assert sum(row.nbytes for row in rows) == 4 * positions
    cost = sum(map(held, rows))
    assert cost <= 4 * positions + ROW_OVERHEAD * CHUNKS, cost / positions
    assert d.get_file("C", "pw", "f") == DATA


def test_an_upload_tables_four_bytes_a_position(registry):
    d = distributor(registry)
    in_misleading = [tracemalloc.Filter(True, misleading.__file__)]
    tracemalloc.start()
    try:
        upload(d)
        gc.collect()
        left_by_the_draw = sum(
            stat.size
            for stat in tracemalloc.take_snapshot()
            .filter_traces(in_misleading)
            .statistics("filename")
        )
    finally:
        tracemalloc.stop()
    # The draw's rows are copied into the Chunk Table's one M heap, and
    # nothing core/misleading.py allocated stays behind them: no row, no
    # slab (a few hundred bytes in all, whatever the file's size).  The
    # heap holds 4 bytes a position, its offsets 4 a row.
    assert left_by_the_draw <= 1024
    table = d.chunk_table
    assert table._positions.nbytes == 4 * CHUNKS * PER_CHUNK
    assert table._mptr.itemsize == 4
    assert_packed(d)


def test_a_loaded_snapshot_tables_four_bytes_a_position(registry):
    source = distributor(registry)
    upload(source)
    fresh = CloudDataDistributor(registry, seed=12)
    fresh.import_metadata(source.export_metadata())
    assert_packed(fresh)
    assert fresh.export_metadata() == source.export_metadata()


def test_a_recovered_journal_tables_four_bytes_a_position(registry, tmp_path):
    path = tmp_path / "journal.jsonl"
    upload(distributor(registry, IntentJournal(path)))
    rebooted = distributor(registry, IntentJournal(path))
    report = recover_from_journal(rebooted, rebooted.journal)
    assert report.chunks_restored == CHUNKS
    assert_packed(rebooted)
