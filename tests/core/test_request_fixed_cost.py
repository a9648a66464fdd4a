"""What a request pays besides its bytes, by count and never by clock.

Three costs used to sit under every request however small: a PBKDF2 scan
per password check, a pool hand-off per provider leg even when the
provider is a dict, and a walk of every quadruple the client holds.  These
tests pin where each went: a warmed request hashes no password, hands a
leg to a transport thread only if the provider can wait and its call
cannot be split (a socket's is sent and read back on the caller), and
costs the same number of Python calls whatever else the client stores.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.core.tables import FileChunkRef
from repro.net.cluster import LocalCluster
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

from tests.net.test_fanout import GateProvider

SMALL = bytes(range(256)) * 32  # 8 KiB: two chunks at PL-2


def registry_of(providers) -> ProviderRegistry:
    registry = ProviderRegistry()
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    return registry


def distributor_over(providers, seed=3, **kwargs) -> CloudDataDistributor:
    d = CloudDataDistributor(registry_of(providers), seed=seed, **kwargs)
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d


def in_memory(n: int = 6, **kwargs) -> CloudDataDistributor:
    return distributor_over(
        [InMemoryProvider(f"P{i}") for i in range(n)], **kwargs
    )


@pytest.fixture
def submits(monkeypatch):
    """One entry per ``ThreadPoolExecutor.submit`` (a pool hand-off)."""
    submit = ThreadPoolExecutor.submit
    calls: list = []

    def counted(self, fn, /, *args, **kwargs):
        calls.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return calls


def legs(d: CloudDataDistributor) -> tuple[int, int]:
    """(on the caller, on the pool) so far, from the product's own counter."""
    return tuple(
        int(d.metrics.value("distributor_transport_legs_total", where=where))
        for where in ("caller", "pool")
    )


# -- no hand-off and no PBKDF2 where neither buys anything --------------------


def test_warmed_small_request_in_memory_submits_and_hashes_nothing(
    submits, hashes
):
    d = in_memory(metrics=MetricsRegistry())
    del hashes[:]
    d.upload_file("C", "pw", "f", SMALL, PrivacyLevel.MODERATE)
    assert hashes == ["pw"]  # the upload verified the pair ...
    del hashes[:]
    assert d.get_file("C", "pw", "f") == SMALL  # ... every later request hits
    d.update_chunk("C", "pw", "f", 1, b"patched")
    assert d.get_chunk("C", "pw", "f", 1) == b"patched"
    d.remove_file("C", "pw", "f")
    assert (submits, hashes) == ([], [])
    on_caller, on_pool = legs(d)
    assert on_pool == 0 and on_caller > 0
    assert d._transport_pool is None  # never even built
    d.close()


def wire_legs(d: CloudDataDistributor) -> int:
    """Legs sent and read back on the caller's socket so far."""
    return int(d.metrics.value("distributor_transport_legs_total", where="wire"))


def test_sockets_get_one_wire_leg_per_provider_asked_and_no_hand_off(
    submits, hashes
):
    with LocalCluster(6) as cluster:
        d = CloudDataDistributor(
            cluster.build_registry(), seed=3, metrics=MetricsRegistry()
        )
        d.register_client("C")
        d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        d.upload_file("C", "pw", "f", SMALL, PrivacyLevel.MODERATE)
        asked = set()
        for ref in d.client_table.get("C").refs_for_file("f"):
            entry = d.chunk_table.get(ref.chunk_index)
            k = entry.record.stripe.k
            asked.update(
                d.provider_table.get(i).name
                for i in entry.provider_indices[:k]
            )
        assert len(asked) > 1
        del submits[:], hashes[:]
        before, sent = legs(d), wire_legs(d)
        assert d.get_file("C", "pw", "f") == SMALL
        assert wire_legs(d) == sent + len(asked)  # a healthy read: one round
        assert (submits, hashes) == ([], [])
        assert legs(d) == before
        assert d._transport_pool is None  # never even built
        d.close()


def test_an_update_and_a_remove_over_sockets_hand_no_leg_to_the_pool(
    submits,
):
    """The four shards an update retires sit on four providers, one leg
    each, in one round like its read and its write (the update's twelve
    legs: k shards read, n written and the snapshot beside them, n
    retired); a remove asks each provider for a batch, one leg each."""
    with LocalCluster(6) as cluster:
        d = CloudDataDistributor(
            cluster.build_registry(), seed=3, metrics=MetricsRegistry()
        )
        d.register_client("C")
        d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        d.upload_file("C", "pw", "f", SMALL * 4, PrivacyLevel.MODERATE)
        sent = wire_legs(d)
        d.update_chunk("C", "pw", "f", 1, b"patched")
        assert wire_legs(d) == sent + 3 + 4 + 1 + 4
        holders = {name for name, load in d.provider_loads().items() if load}
        assert len(holders) == 6
        sent = wire_legs(d)
        d.remove_file("C", "pw", "f")
        assert wire_legs(d) == sent + len(holders)
        assert [backend.keys() for backend in cluster.backends] == [[]] * 6
        assert submits == []
        d.close()


class WitnessProvider(InMemoryProvider):
    """An in-memory provider that notes which thread served each call."""

    def __init__(self, name: str, threads: list) -> None:
        super().__init__(name)
        self.threads = threads

    def put(self, key, data, checksum=None):
        self.threads.append(threading.current_thread())
        super().put(key, data, checksum=checksum)

    def get_many(self, keys):
        self.threads.append(threading.current_thread())
        return super().get_many(keys)


def test_mixed_fleet_waiting_legs_overlap_while_the_rest_run_on_the_caller(
    submits,
):
    """Three providers that wait (gated on a barrier of three: it only
    releases if all three are in flight at once) beside three that do
    not: the waiting legs go to the pool, the others never leave the
    calling thread, and the caller runs them *while* the gated ones are
    blocked -- or the barrier would time out."""
    gates: dict = {"put": threading.Barrier(3, timeout=5.0)}
    threads: list = []
    providers = [GateProvider(f"G{i}", gates) for i in range(3)] + [
        WitnessProvider(f"M{i}", threads) for i in range(3)
    ]
    d = distributor_over(providers, codec="raid5@6")
    d.upload_file("C", "pw", "f", b"one small chunk", PrivacyLevel.PRIVATE)
    assert len(submits) == 3
    assert len(threads) == 3
    assert set(threads) == {threading.current_thread()}

    # The read asks the stripe's five data members; gate as many as are
    # gated providers among them.
    (ref,) = d.client_table.get("C").refs_for_file("f")
    members = [
        d.provider_table.get(i).name
        for i in d.chunk_table.get(ref.chunk_index).provider_indices[:5]
    ]
    gated = sum(name.startswith("G") for name in members)
    assert gated >= 2
    gates["put"] = None
    gates["get"] = threading.Barrier(gated, timeout=5.0)
    del submits[:], threads[:]
    assert d.get_file("C", "pw", "f") == b"one small chunk"
    assert len(submits) == gated
    assert len(threads) == 5 - gated
    assert set(threads) == {threading.current_thread()}
    d.close()


def test_one_transport_worker_keeps_every_leg_on_the_caller(submits):
    gates: dict = {}
    d = distributor_over(
        [GateProvider(f"G{i}", gates) for i in range(4)],
        max_transport_workers=1,
    )
    d.upload_file("C", "pw", "f", SMALL, PrivacyLevel.MODERATE)
    assert d.get_file("C", "pw", "f") == SMALL
    assert submits == []
    d.close()


# -- a request costs the same whatever else the client stores ------------------


def python_calls(fn) -> int:
    """Python-level calls (function entries and generator resumptions)
    *fn* makes on this thread."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def request_costs(other_refs: int) -> dict[str, int]:
    """Calls per warmed get / update / remove of one 8 KiB file on a
    client that first stored *other_refs* quadruples of other files."""
    d = in_memory()
    entry = d.client_table.get("C")
    entry.add_refs(
        FileChunkRef(f"other-{n // 2048}", n % 2048, PrivacyLevel.PRIVATE, -1 - n)
        for n in range(other_refs)
    )
    d.upload_file("C", "pw", "f", SMALL, PrivacyLevel.MODERATE)
    d.upload_file("C", "pw", "g", SMALL, PrivacyLevel.MODERATE)  # f is not last
    d.get_file("C", "pw", "f")  # warm: metric handles, password
    d.update_chunk("C", "pw", "g", 0, b"warm")  # an update's phase handles
    costs = {
        "get": python_calls(lambda: d.get_file("C", "pw", "f")),
        "update": python_calls(
            lambda: d.update_chunk("C", "pw", "f", 1, b"patched")
        ),
        "remove": python_calls(lambda: d.remove_file("C", "pw", "f")),
    }
    assert entry.count == other_refs + 2
    d.close()
    return costs


def calls_of_any_kind(fn) -> int:
    """Calls *fn* makes from Python code on this thread, into Python and
    into C alike (a per-ref loop of dict and list methods shows here)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_tabling_a_new_files_refs_is_one_pass_whatever_their_number():
    """An upload's ``add_refs``: four calls a ref as a loop (8,192 for a
    2 MiB PL-3 file), a fixed handful since."""

    def tabling(chunks: int) -> int:
        entry = in_memory().client_table.get("C")
        entry.add_refs([FileChunkRef("old", 0, PrivacyLevel.PRIVATE, -1)])
        refs = [
            FileChunkRef("new", serial, PrivacyLevel.PRIVATE, serial)
            for serial in range(chunks)
        ]
        calls = calls_of_any_kind(lambda: entry.add_refs(refs))
        assert entry.refs_for_file("new") == refs
        assert entry.filenames() == ["old", "new"]
        return calls

    assert tabling(2048) == tabling(16) <= 16


def test_request_cost_does_not_grow_with_the_clients_other_refs():
    alone, crowded = request_costs(0), request_costs(16_000)
    for op, calls in alone.items():
        assert calls > 50, (op, calls)  # the profiler saw the request
        assert abs(crowded[op] - calls) <= 0.02 * calls, (op, alone, crowded)


def test_removing_the_last_file_costs_what_removing_the_first_does():
    """Four 2,048-chunk files.  As a flat list, removing the last one
    stored walked the 6,144 quadruples before it once per chunk (1.9 s
    against 14 ms for the first)."""
    d = in_memory()
    data = bytes(2048 * 1024)
    for name in ("f0", "f1", "f2", "f3"):
        receipt = d.upload_file("C", "pw", name, data, PrivacyLevel.PRIVATE)
        assert receipt.chunk_count == 2048
    last = python_calls(lambda: d.remove_file("C", "pw", "f3"))
    first = python_calls(lambda: d.remove_file("C", "pw", "f0"))
    assert first > 2048
    assert last <= 1.5 * first, (first, last)
    assert d.client_table.get("C").filenames() == ["f1", "f2"]
    d.close()


# -- and the tables it leaves are the ones the flat list left -------------------


def test_exported_client_table_of_a_scripted_history_is_unchanged():
    """upload -> update -> remove -> upload, chunk and file removals
    mixed in: the exported Client Table, byte for byte as recorded at
    6b56741 when ``chunk_refs`` was one flat list."""
    d = in_memory(seed=20)

    def blob(n: int, salt: int) -> bytes:
        return bytes((i * 7 + salt) % 251 for i in range(n))

    d.upload_file("C", "pw", "a", blob(9000, 1), 3, misleading_fraction=0.1)
    d.upload_file("C", "pw", "b", blob(20000, 2), 2)
    d.upload_file("C", "pw", "c", blob(5000, 3), 1)
    for serial in (4, 0, 7):
        d.update_chunk("C", "pw", "a", serial, blob(700, serial))
    d.update_chunk("C", "pw", "b", 3, blob(100, 9))
    d.remove_chunk("C", "pw", "b", 1)
    d.remove_file("C", "pw", "a")
    d.upload_file("C", "pw", "d", blob(3000, 4), 3)
    d.upload_file("C", "pw", "a", blob(4000, 5), 3)
    d.update_chunk("C", "pw", "a", 2, blob(50, 6))
    d.remove_chunk("C", "pw", "c", 0)
    text = json.dumps(d.export_metadata()["client_table"], sort_keys=True)
    assert d.client_table.get("C").filenames() == ["b", "d", "a"]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "024676e29dccedd5cfe99661d9e0955c0e6c92e66843ed70b19fea15ba1739a6"
    )
    d.close()
