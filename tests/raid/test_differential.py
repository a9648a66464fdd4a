"""Differential testing: the RAID-5 XOR fast path against the general
Reed-Solomon machinery, and stripe encode/decode against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raid.parity import xor_parity
from repro.raid.codecs import RaidCodec, codec_for_meta
from repro.raid.reconstruct import rebuild_shard
from repro.raid.reed_solomon import RSCode
from repro.raid.striping import RaidLevel


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
def test_rs_m1_decode_agrees_with_xor(k, size, seed):
    """An RS code with one parity shard and XOR parity recover the same
    missing data shard (they are different codes, but both must return
    the original data)."""
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size=size, dtype=np.uint8).tobytes() for _ in range(k)]
    code = RSCode(k=k, m=1)
    rs_parity = code.encode(data)[0]
    xp = xor_parity(data)

    missing = int(rng.integers(0, k))
    rs_available = {i: s for i, s in enumerate(data) if i != missing}
    rs_available[k] = rs_parity
    assert code.decode(rs_available)[missing] == data[missing]

    survivors = [s for i, s in enumerate(data) if i != missing]
    from repro.raid.parity import recover_with_parity

    assert recover_with_parity(survivors, xp) == data[missing]


@settings(max_examples=40, deadline=None)
@given(
    st.binary(min_size=1, max_size=200),
    st.integers(min_value=4, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
def test_raid6_stripe_agrees_with_raw_rs(payload, width, seed):
    """A RAID-6 stripe must be exactly the systematic RS encoding of
    the padded data shards -- with the legacy Vandermonde-derived
    generator the raid6 family pins for on-disk byte compatibility."""
    meta, shards = RaidCodec(RaidLevel.RAID6, width).encode(payload)
    code = RSCode(k=meta.k, m=2, generator="vandermonde")
    assert shards[meta.k :] == code.encode(shards[: meta.k])


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=300), st.data())
def test_rebuilt_shard_bitwise_identical(payload, data):
    """rebuild_shard returns byte-identical shards, so a repaired stripe
    is indistinguishable from the original."""
    level = data.draw(st.sampled_from([RaidLevel.RAID1, RaidLevel.RAID5, RaidLevel.RAID6]))
    width = data.draw(st.integers(min_value=level.min_width, max_value=6))
    meta, shards = RaidCodec(level, width).encode(payload)
    index = data.draw(st.integers(min_value=0, max_value=meta.n - 1))
    survivors = {i: s for i, s in enumerate(shards) if i != index}
    rebuilt = rebuild_shard(meta, index, survivors)
    if meta.orig_len == 0:
        assert rebuilt == b""
        return
    assert rebuilt == shards[index]
    # And a decode with the rebuilt shard substituted is still exact.
    survivors[index] = rebuilt
    assert codec_for_meta(meta).decode(meta, survivors) == payload


@pytest.mark.parametrize("width", [3, 4, 5, 6])
def test_raid5_parity_is_true_xor(width):
    payload = bytes(range(256)) * 2
    meta, shards = RaidCodec(RaidLevel.RAID5, width).encode(payload)
    assert shards[-1] == xor_parity(shards[: meta.k])
