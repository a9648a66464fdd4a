import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.chunking import Chunk, chunk_count, join, split
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel


def test_split_sizes_and_serials():
    chunks = split(b"x" * 1000, PrivacyLevel.PUBLIC, chunk_size=300)
    assert [c.serial for c in chunks] == [0, 1, 2, 3]
    assert [c.size for c in chunks] == [300, 300, 300, 100]
    assert all(c.level is PrivacyLevel.PUBLIC for c in chunks)


def test_split_empty_file_yields_one_chunk():
    chunks = split(b"", PrivacyLevel.PRIVATE, chunk_size=100)
    assert len(chunks) == 1
    assert chunks[0].payload == b""
    assert join(chunks) == b""


def test_split_uses_pl_schedule():
    policy = ChunkSizePolicy(sizes=(400, 200, 100, 50))
    data = b"z" * 400
    assert len(split(data, PrivacyLevel.PUBLIC, policy=policy)) == 1
    assert len(split(data, PrivacyLevel.LOW, policy=policy)) == 2
    assert len(split(data, PrivacyLevel.MODERATE, policy=policy)) == 4
    assert len(split(data, PrivacyLevel.PRIVATE, policy=policy)) == 8


def test_higher_sensitivity_never_fewer_chunks():
    # Section VII-C: sensitive data is split into smaller chunks.
    data = b"q" * 10_000
    counts = [len(split(data, pl)) for pl in PrivacyLevel]
    assert counts == sorted(counts)


def test_split_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        split(b"abc", 0, chunk_size=0)


def test_join_out_of_order():
    chunks = split(b"hello world!", 0, chunk_size=5)
    assert join(list(reversed(chunks))) == b"hello world!"


def test_join_rejects_gap():
    chunks = split(b"hello world!", 0, chunk_size=5)
    with pytest.raises(ValueError):
        join([chunks[0], chunks[2]])


def test_join_rejects_duplicates():
    chunks = split(b"hello world!", 0, chunk_size=5)
    with pytest.raises(ValueError):
        join([chunks[0], chunks[0]])


def test_join_rejects_empty():
    with pytest.raises(ValueError):
        join([])


def test_chunk_rejects_negative_serial():
    with pytest.raises(ValueError):
        Chunk(serial=-1, level=PrivacyLevel.PUBLIC, payload=b"")


@given(st.binary(max_size=5000), st.integers(min_value=1, max_value=997))
def test_property_split_join_roundtrip(data, size):
    assert join(split(data, 0, chunk_size=size)) == data


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=512))
def test_property_chunk_count_formula(file_size, chunk_size):
    actual = len(split(b"\x01" * file_size, 0, chunk_size=chunk_size))
    assert chunk_count(file_size, chunk_size) == actual


def test_chunk_count_validation():
    with pytest.raises(ValueError):
        chunk_count(-1, 10)
    with pytest.raises(ValueError):
        chunk_count(10, 0)


def test_equal_length_runs_cut_on_length_change_and_row_limit():
    from repro.core.chunking import equal_length_runs

    payloads = [b"aa", b"bb", b"cc", b"dd", b"e", b"", b"", b"ff"]
    assert list(equal_length_runs(payloads, lambda length: 3)) == [
        (0, 3, 2), (3, 4, 2), (4, 5, 1), (5, 7, 0), (7, 8, 2),
    ]
    # A limit below one still makes progress, a row at a time.
    assert list(equal_length_runs(payloads[:2], lambda length: 0)) == [
        (0, 1, 2), (1, 2, 2),
    ]
    assert list(equal_length_runs([], lambda length: 3)) == []


def test_equal_length_runs_also_cut_where_the_entries_beside_change_length():
    from repro.core.chunking import equal_length_runs

    payloads = [b"aa", b"bb", b"cc", b"dd", b"e"]
    beside = [(1,), (2,), (), (), ()]
    assert list(equal_length_runs(payloads, lambda length: 9, beside=beside)) == [
        (0, 2, 2), (2, 4, 2), (4, 5, 1),
    ]
