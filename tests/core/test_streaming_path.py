"""The constant-memory streaming entry points of the one data path.

``put_stream`` feeds the upload engine bounded windows where
``upload_file`` feeds it one, so a fault-free streamed upload lands the
same placement, tables and loads (pinned against recorded digests in
``test_pipelined_path.py``).  These tests pin what the windowing must
not lose -- upload atomicity across committed windows, the intent
journal's abort on *any* source error, chunk-boundary fidelity for
partial tails, encryption at rest, eager (non-generator) error reporting
on reads, and an audit trail as complete as ``get_file``'s.
"""

from __future__ import annotations

import io
import os

import pytest

from repro.core.audit import AuditLog
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import (
    AuthenticationError,
    ProviderUnavailableError,
    ReproError,
)
from repro.core.journal import IntentJournal
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.streaming import DEFAULT_WINDOW_CHUNKS
from repro.crypto.stream import StreamCipher
from repro.providers.registry import ProviderSpec, build_simulated_fleet


def make_distributor(n=6, width=4, seed=63, **kwargs):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, _clock = build_simulated_fleet(specs, seed=61)
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


PL = PrivacyLevel.PRIVATE
DATA = bytes(range(256)) * 40  # 10240 bytes -> 20 chunks at 512


def put(d, name, data, **kw):
    return d.put_stream("C", "pw", name, io.BytesIO(data), PL, **kw)


def read_stream(d, name, **kw):
    return b"".join(d.get_stream("C", "pw", name, **kw))


# -- equivalence --------------------------------------------------------------


def test_streamed_upload_is_bit_identical_to_pipelined():
    piped, _ = make_distributor()
    streamed, _ = make_distributor()
    piped.upload_file("C", "pw", "f", DATA, PL, misleading_fraction=0.1)
    put(streamed, "f", DATA, misleading_fraction=0.1)

    assert streamed.provider_loads() == piped.provider_loads()
    a, b = piped.export_metadata(), streamed.export_metadata()
    assert a["chunk_table"] == b["chunk_table"]
    assert a["client_table"] == b["client_table"]
    assert a["chunk_state"] == b["chunk_state"]

    # Every read path sees the same file.
    assert streamed.get_file("C", "pw", "f") == DATA
    assert read_stream(streamed, "f") == DATA
    assert read_stream(piped, "f") == DATA  # get_stream over upload_file


def test_receipt_matches_upload_file():
    a, _ = make_distributor()
    b, _ = make_distributor()
    ra = a.upload_file("C", "pw", "f", DATA, PL)
    rb = put(b, "f", DATA)
    assert rb == ra


@pytest.mark.parametrize("size", [
    0,                             # empty file: one empty chunk
    1,                             # sub-chunk
    512,                           # exactly one chunk
    512 * DEFAULT_WINDOW_CHUNKS,   # exactly one window
    512 * DEFAULT_WINDOW_CHUNKS + 7,   # window + ragged tail chunk
    5000,                          # multi-window, partial final chunk
])
def test_roundtrip_sizes(size):
    d, _ = make_distributor()
    data = os.urandom(size)
    receipt = put(d, "f", data)
    assert receipt.file_size == size
    assert receipt.chunk_count == max(1, -(-size // 512))
    assert d.get_file("C", "pw", "f") == data
    assert read_stream(d, "f") == data


def test_chunk_boundaries_match_split_across_short_reads():
    # A source that returns tiny ragged reads must still produce the
    # same chunk boundaries as split() over the whole buffer.
    class Dribble(io.RawIOBase):
        def __init__(self, data):
            self.data, self.pos = data, 0

        def readable(self):
            return True

        def readinto(self, b):
            n = min(len(b), 97, len(self.data) - self.pos)
            b[:n] = self.data[self.pos : self.pos + n]
            self.pos += n
            return n

    ref, _ = make_distributor()
    drib, _ = make_distributor()
    ref.upload_file("C", "pw", "f", DATA, PL)
    drib.put_stream("C", "pw", "f", Dribble(DATA), PL)
    assert (ref.export_metadata()["chunk_table"]
            == drib.export_metadata()["chunk_table"])
    assert drib.get_file("C", "pw", "f") == DATA


def test_chunk_size_override():
    d, _ = make_distributor()
    receipt = put(d, "f", DATA, chunk_size=2048)
    assert receipt.chunk_count == -(-len(DATA) // 2048)
    assert read_stream(d, "f") == DATA


# -- atomicity ----------------------------------------------------------------


def _fail_after(victim, allowed: int):
    """Let *allowed* puts through, then fail every one after."""
    original = victim.put
    state = {"n": 0}

    def put_(key, data, checksum=None):
        state["n"] += 1
        if state["n"] > allowed:
            raise ProviderUnavailableError(f"{victim.name} sabotaged")
        return original(key, data)

    victim.put = put_


def test_failed_stream_erases_committed_windows():
    # Width 4 over exactly 4 providers, two sabotaged after the first
    # window lands: later windows are terminal, and the whole file --
    # including the already-committed first window -- must vanish.
    d, providers = make_distributor(n=4, width=4)
    before = {p.name: set(p.keys()) for p in providers}
    _fail_after(providers[0], 10)
    _fail_after(providers[1], 10)
    with pytest.raises(ProviderUnavailableError):
        put(d, "f", DATA)

    with pytest.raises(ReproError):
        d.get_file("C", "pw", "f")
    for p in providers:
        assert set(p.keys()) == before[p.name], "orphaned shards remain"
    # The name is free again and a clean upload works end to end.
    providers[0].put = type(providers[0]).put.__get__(providers[0])
    providers[1].put = type(providers[1]).put.__get__(providers[1])
    put(d, "f", DATA)
    assert read_stream(d, "f") == DATA


def test_failed_stream_aborts_journal(tmp_path):
    journal = IntentJournal(tmp_path / "journal.jsonl")
    d, providers = make_distributor(n=4, width=4, journal=journal)
    _fail_after(providers[0], 4)
    _fail_after(providers[1], 4)
    with pytest.raises(ProviderUnavailableError):
        put(d, "f", DATA)
    # The intent was durably aborted: recovery has nothing open to redo.
    states = [t.state for t in journal.replay()]
    assert states == ["aborted"]


def test_duplicate_filename_rejected():
    d, _ = make_distributor()
    put(d, "f", b"x")
    with pytest.raises(ValueError, match="already stores"):
        put(d, "f", b"y")
    # Streamed names also collide with materialized ones and vice versa.
    with pytest.raises(ValueError, match="already stores"):
        d.upload_file("C", "pw", "f", b"y", PL)


def test_source_read_error_releases_filename(tmp_path):
    class Exploding(io.RawIOBase):
        def __init__(self, error, good_reads):
            self.error, self.good_reads = error, good_reads

        def readable(self):
            return True

        def readinto(self, b):
            if self.good_reads == 0:
                raise self.error
            self.good_reads -= 1
            b[:] = bytes(len(b))
            return len(b)

    for case, error, good_reads in [
        ("os", OSError("disk pulled"), 0),
        # Neither a provider, placement nor OS error -- a decompressor or
        # cipher source failing on its third window, with one window
        # committed and one on the wire: all of it must still vanish.
        ("value", ValueError("corrupt frame"), 2),
    ]:
        journal = IntentJournal(tmp_path / f"{case}.jsonl")
        d, providers = make_distributor(journal=journal)
        with pytest.raises(type(error), match=str(error)):
            d.put_stream("C", "pw", "f", Exploding(error, good_reads), PL,
                         window_chunks=2)
        # Nothing of the stream survives: tables, providers, loads, journal.
        assert len(d.chunk_table) == 0
        assert d.client_table.get("C").chunk_refs == []
        assert sum(d.provider_loads().values()) == 0
        for p in providers:
            assert p.keys() == []
        # (A source dead on its first read never opened a transaction.)
        states = [t.state for t in journal.replay()]
        assert states == (["aborted"] if good_reads else [])
        put(d, "f", b"recovered")  # the in-flight reservation was released
        assert read_stream(d, "f") == b"recovered"


# -- encryption ---------------------------------------------------------------


def test_stream_cipher_roundtrip_and_at_rest():
    cipher = StreamCipher(b"key")
    d, providers = make_distributor()
    put(d, "f", DATA, cipher=cipher)
    # Decrypted on the way out when given the key...
    assert read_stream(d, "f", cipher=cipher) == DATA
    # ...ciphertext without it (both read paths).
    assert read_stream(d, "f") != DATA
    assert d.get_file("C", "pw", "f") != DATA
    # Nothing stored at any provider contains a recognizable fragment.
    fragment = DATA[:64]
    for p in providers:
        for key in p.keys():
            assert fragment not in p.get(key)


# -- read-path semantics ------------------------------------------------------


def test_get_stream_errors_eagerly():
    d, _ = make_distributor()
    put(d, "f", DATA)
    # Auth and resolution failures raise at call time, not on first
    # next(): callers learn before wiring the generator into a sink.
    with pytest.raises(ReproError):
        d.get_stream("C", "wrong-password", "f")
    with pytest.raises(ReproError):
        d.get_stream("C", "pw", "no-such-file")


def audited_distributor():
    log = AuditLog()
    d, _ = make_distributor(audit=log)
    put(d, "f", DATA)
    return d, log


def test_streamed_read_is_audited_like_get_file():
    d, log = audited_distributor()
    assert d.get_file("C", "pw", "f") == DATA
    assert read_stream(d, "f", window_chunks=3) == DATA
    whole, streamed = log.events[-2:]
    assert whole.operation == streamed.operation == "get_file"
    assert whole.ok and streamed.ok
    assert len(streamed.virtual_ids) == 20
    assert streamed.virtual_ids == whole.virtual_ids
    assert streamed.providers == whole.providers


def test_wrong_password_stream_counts_toward_auth_failure_streak():
    d, log = audited_distributor()
    for _ in range(3):
        with pytest.raises(AuthenticationError):
            d.get_stream("C", "wrong-password", "f")
    failed = log.events[-1]
    assert failed.operation == "get_file" and not failed.ok
    assert failed.detail == "AuthenticationError"
    assert log.auth_failure_streak("C") == 3


def test_abandoned_stream_is_audited_with_the_chunks_it_fetched():
    d, log = audited_distributor()
    uploaded = log.events[-1].virtual_ids
    segments = d.get_stream("C", "pw", "f", window_chunks=4)
    assert next(segments) == DATA[:512]
    before = len(log.events)
    segments.close()  # dropping the generator does the same
    assert len(log.events) == before + 1
    record = log.events[-1]
    assert record.operation == "get_file" and not record.ok
    assert "abandoned" in record.detail
    # Only the first window was ever fetched.
    assert len(record.virtual_ids) == 4
    assert set(record.virtual_ids) < set(uploaded)
    assert record.providers


def test_get_stream_yields_chunk_sized_segments():
    d, _ = make_distributor()
    put(d, "f", DATA)
    segments = list(d.get_stream("C", "pw", "f"))
    assert len(segments) == 20
    assert all(len(s) == 512 for s in segments)


def test_window_validation():
    d, _ = make_distributor()
    with pytest.raises(ValueError, match="window_chunks"):
        put(d, "f", b"x", window_chunks=0)
    with pytest.raises(ValueError, match="chunk_size"):
        put(d, "g", b"x", chunk_size=0)
    put(d, "h", b"x")
    with pytest.raises(ValueError, match="window_chunks"):
        d.get_stream("C", "pw", "h", window_chunks=0)
