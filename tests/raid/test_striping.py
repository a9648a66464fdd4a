import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReconstructionError
from repro.raid.codecs import RaidCodec, codec_for_meta
from repro.raid.reconstruct import rebuild_shard
from repro.raid.striping import RaidLevel


@pytest.mark.parametrize(
    "level,width,k,m",
    [
        (RaidLevel.RAID0, 4, 4, 0),
        (RaidLevel.RAID1, 3, 1, 2),
        (RaidLevel.RAID5, 4, 3, 1),
        (RaidLevel.RAID6, 5, 3, 2),
    ],
)
def test_shard_counts(level, width, k, m):
    assert level.shard_counts(width) == (k, m)


@pytest.mark.parametrize(
    "level,width",
    [
        (RaidLevel.RAID1, 1),
        (RaidLevel.RAID5, 2),
        (RaidLevel.RAID6, 3),
    ],
)
def test_min_width_enforced(level, width):
    with pytest.raises(ValueError):
        level.shard_counts(width)


def test_storage_overhead():
    assert RaidLevel.RAID0.storage_overhead(4) == 1.0
    assert RaidLevel.RAID1.storage_overhead(2) == 2.0
    assert RaidLevel.RAID5.storage_overhead(4) == pytest.approx(4 / 3)
    assert RaidLevel.RAID6.storage_overhead(4) == pytest.approx(2.0)


def test_encode_shapes():
    payload = bytes(range(100))
    meta, shards = RaidCodec(RaidLevel.RAID5, 4).encode(payload)
    assert len(shards) == 4
    assert meta.k == 3 and meta.m == 1
    assert meta.orig_len == 100
    assert all(len(s) == meta.shard_size for s in shards)
    assert meta.shard_size == 34  # ceil(100/3)


def test_encode_empty_payload():
    meta, shards = RaidCodec(RaidLevel.RAID6, 4).encode(b"")
    assert meta.orig_len == 0
    assert codec_for_meta(meta).decode(meta, dict(enumerate(shards))) == b""


def test_raid1_shards_are_copies():
    payload = b"mirror me"
    _, shards = RaidCodec(RaidLevel.RAID1, 3).encode(payload)
    assert all(s == payload for s in shards)


levels_st = st.sampled_from(list(RaidLevel))
payload_st = st.binary(min_size=0, max_size=300)


@settings(max_examples=60, deadline=None)
@given(payload_st, levels_st, st.integers(min_value=1, max_value=6))
def test_roundtrip_all_shards(payload, level, width):
    if width < level.min_width:
        width = level.min_width
    meta, shards = RaidCodec(level, width).encode(payload)
    assert codec_for_meta(meta).decode(meta, dict(enumerate(shards))) == payload


@settings(max_examples=60, deadline=None)
@given(payload_st, st.integers(min_value=3, max_value=6), st.data())
def test_raid5_survives_any_single_loss(payload, width, data):
    meta, shards = RaidCodec(RaidLevel.RAID5, width).encode(payload)
    missing = data.draw(st.integers(min_value=0, max_value=width - 1))
    available = {i: s for i, s in enumerate(shards) if i != missing}
    assert codec_for_meta(meta).decode(meta, available) == payload


@settings(max_examples=60, deadline=None)
@given(payload_st, st.integers(min_value=4, max_value=7), st.data())
def test_raid6_survives_any_double_loss(payload, width, data):
    meta, shards = RaidCodec(RaidLevel.RAID6, width).encode(payload)
    m1 = data.draw(st.integers(min_value=0, max_value=width - 1))
    m2 = data.draw(st.integers(min_value=0, max_value=width - 1))
    available = {i: s for i, s in enumerate(shards) if i not in (m1, m2)}
    assert codec_for_meta(meta).decode(meta, available) == payload


def test_raid0_cannot_lose_anything():
    meta, shards = RaidCodec(RaidLevel.RAID0, 4).encode(b"x" * 50)
    with pytest.raises(ReconstructionError):
        codec_for_meta(meta).decode(meta, {i: s for i, s in enumerate(shards) if i != 0})


def test_raid5_cannot_lose_two():
    meta, shards = RaidCodec(RaidLevel.RAID5, 4).encode(b"x" * 50)
    available = {i: s for i, s in enumerate(shards) if i not in (0, 1)}
    with pytest.raises(ReconstructionError):
        codec_for_meta(meta).decode(meta, available)


@pytest.mark.parametrize("level", [RaidLevel.RAID1, RaidLevel.RAID5, RaidLevel.RAID6])
def test_rebuild_every_shard(level):
    width = max(4, level.min_width)
    payload = bytes(range(200))
    meta, shards = RaidCodec(level, width).encode(payload)
    for index in range(meta.n):
        survivors = {i: s for i, s in enumerate(shards) if i != index}
        assert rebuild_shard(meta, index, survivors) == shards[index]


def test_rebuild_raid0_raises():
    meta, shards = RaidCodec(RaidLevel.RAID0, 2).encode(b"data")
    with pytest.raises(ReconstructionError):
        rebuild_shard(meta, 0, {1: shards[1]})


def test_rebuild_bad_index():
    meta, shards = RaidCodec(RaidLevel.RAID5, 3).encode(b"data")
    with pytest.raises(ValueError):
        rebuild_shard(meta, 9, dict(enumerate(shards)))

