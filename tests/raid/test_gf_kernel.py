"""The packed-lane GF(2^8) kernel against the log/exp matmul it replaced.

``_ref_matmul`` below is the reference: the pre-kernel implementation
(two log gathers, an add, an exp gather and a zero mask per coefficient),
kept here -- and only here -- as the differential oracle.  The rest pins
what was built on top: decode computes only missing rows yet equals a
full inverse-times-survivors decode, the decode-table cache is bounded,
and concurrent decodes of different erasure patterns stay byte-exact.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.raid import gf256
from repro.raid.gf256 import gf_apply, gf_mat_inv, gf_matmul, gf_tables
from repro.raid.reed_solomon import DECODE_CACHE_SIZE, RSCode, _decode_tables

_EXP = np.zeros(510, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_EXP[255:510] = _EXP[:255]


def _ref_mul(a, b):
    out = _EXP[_LOG[a] + _LOG[b]]
    return np.where((a == 0) | (b == 0), np.uint8(0), out)


def _ref_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for l in range(a.shape[1]):
        out ^= _ref_mul(a[:, l : l + 1], b[l : l + 1, :])
    return out


def _stripe(code, size, seed):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(code.k)]
    return data, dict(enumerate(data + code.encode(data)))


TEST_TILE = 64


@settings(max_examples=120, deadline=None)
@given(
    rows=st.sampled_from([1, 8, 9, 16]),
    k=st.integers(min_value=1, max_value=7),
    size=st.sampled_from([0, 1, TEST_TILE - 1, TEST_TILE, TEST_TILE + 1, 3 * TEST_TILE + 5]),
    # 0 and 1 are the coefficients a log/exp kernel special-cases; draw them often.
    coefficient=st.sampled_from(["any", "zero", "one"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_kernel_matches_the_log_exp_reference(rows, k, size, coefficient, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, (rows, k), dtype=np.uint8)
    if coefficient != "any":
        mask = rng.random((rows, k)) < 0.5
        a[mask] = 0 if coefficient == "zero" else 1
    b = rng.integers(0, 256, (k, size), dtype=np.uint8)
    expected = _ref_matmul(a, b)
    with mock.patch.object(gf256, "TILE", TEST_TILE):
        assert np.array_equal(gf_matmul(a, b), expected)
        # Any subset of rows, in any order, from bytes-like shards.
        want = [int(r) for r in rng.permutation(rows)[: max(1, rows // 2)]]
        got = gf_apply(gf_tables(a), [row.tobytes() for row in b], want)
    assert np.array_equal(got, expected[want])


@pytest.mark.parametrize("size", [gf256.TILE - 1, gf256.TILE, gf256.TILE + 1])
def test_kernel_at_the_real_tile_boundary(size):
    rng = np.random.default_rng(size)
    a = rng.integers(0, 256, (9, 3), dtype=np.uint8)
    b = rng.integers(0, 256, (3, size), dtype=np.uint8)
    assert np.array_equal(gf_matmul(a, b), _ref_matmul(a, b))


def test_kernel_reads_shards_in_place_and_leaves_them_alone():
    shards = [bytearray(b"\x01\x02\x03"), memoryview(b"\x04\x05\x06")]
    before = [bytes(s) for s in shards]
    out = gf_apply(gf_tables(np.array([[1, 1]], dtype=np.uint8)), shards, [0])
    assert out.tobytes() == bytes(x ^ y for x, y in zip(*before))
    assert [bytes(s) for s in shards] == before


def test_decoding_only_missing_rows_equals_the_full_decode():
    code = RSCode(k=6, m=3)
    data, everything = _stripe(code, 97, seed=63)
    for use in combinations(range(code.n), code.k):
        stacked = np.frombuffer(
            b"".join(everything[i] for i in use), dtype=np.uint8
        ).reshape(code.k, -1)
        full = _ref_matmul(gf_mat_inv(code.matrix[list(use)]), stacked)
        assert [row.tobytes() for row in full] == data
        survivors = {i: everything[i] for i in use}
        decoded = code.decode(survivors)
        assert decoded == data
        for i in use:
            if i < code.k:  # surviving data shards pass through, uncopied
                assert decoded[i] is survivors[i]
        for lost in set(range(code.n)) - set(use):
            assert code.reconstruct_shard(lost, survivors) == everything[lost]


def test_decode_cache_stays_within_its_bound_and_survives_eviction():
    code = RSCode(k=8, m=4)  # C(12, 8) = 495 erasure patterns
    data, everything = _stripe(code, 16, seed=84)
    _decode_tables.cache_clear()
    patterns = list(islice(combinations(range(code.n), code.k), DECODE_CACHE_SIZE + 40))
    for use in patterns + patterns[:5]:
        assert code.decode({i: everything[i] for i in use}) == data
    info = _decode_tables.cache_info()
    assert info.maxsize == DECODE_CACHE_SIZE
    assert info.currsize <= DECODE_CACHE_SIZE
    assert info.misses >= len(patterns)


def test_cache_lookups_are_counted_by_codec_and_result():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        code = RSCode(k=4, m=2, label="rs(4,2)")
        data, everything = _stripe(code, 8, seed=42)
        _decode_tables.cache_clear()
        survivors = {i: everything[i] for i in (1, 2, 3, 4)}
        for _ in range(3):
            assert code.decode(survivors) == data
        code.decode(dict(enumerate(data)))  # healthy: no matrix, no lookup
        name = "raid_decode_matrix_cache_total"
        assert registry.value(name, codec="rs(4,2)", result="miss") == 1
        assert registry.value(name, codec="rs(4,2)", result="hit") == 2
    finally:
        set_metrics(previous)


def test_eight_threads_decoding_different_patterns_are_byte_exact():
    code = RSCode(k=6, m=3)
    data, everything = _stripe(code, 4099, seed=8)
    patterns = list(combinations(range(code.n), code.k))
    _decode_tables.cache_clear()

    def work(worker):
        for use in patterns[worker::8] * 2:
            survivors = {i: everything[i] for i in use}
            if code.decode(survivors) != data:
                return use
            lost = next(i for i in range(code.n) if i not in use)
            if code.reconstruct_shard(lost, survivors) != everything[lost]:
                return use
        return None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, w) for w in range(8)]
            assert [f.result(timeout=120) for f in futures] == [None] * 8
    finally:
        sys.setswitchinterval(interval)
