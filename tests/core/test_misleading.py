import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import misleading
from repro.core.misleading import (
    NO_POSITIONS,
    InjectionRng,
    inject,
    inject_runs,
    inject_window,
    position_row,
    remove,
    remove_window,
    row_payloads,
    strip,
)


def test_zero_fraction_is_identity():
    result = inject(b"payload", 0.0, rng=1)
    assert result.stored == b"payload"
    assert len(result.positions) == 0


def test_inject_grows_buffer():
    result = inject(b"x" * 100, 0.25, rng=1)
    assert len(result.stored) == 125
    assert len(result.positions) == 25


def test_positions_sorted_unique_in_range():
    result = inject(b"x" * 200, 0.5, rng=2)
    positions = result.positions
    assert list(positions) == sorted(set(positions))
    assert min(positions) >= 0
    assert max(positions) < len(result.stored)


def test_remove_restores_original():
    payload = bytes(range(256)) * 4
    result = inject(payload, 0.3, rng=3)
    assert remove(result.stored, result.positions) == payload


def test_remove_no_positions_is_identity():
    assert remove(b"abc", ()) == b"abc"


def test_remove_validates_positions():
    # Every strip checks its positions: one pass over them, so the read
    # path pays it too.
    with pytest.raises(ValueError):
        remove(b"abc", (5,))
    with pytest.raises(ValueError):
        remove(b"abc", (1, 1))
    with pytest.raises(ValueError):
        remove(b"abc", (-1,))


def test_remove_fast_path_matches_validated_path():
    # The mask and compress against a byte-by-byte reference.
    payload = bytes(range(256)) * 8
    result = inject(payload, 0.25, rng=9)
    fast = remove(result.stored, result.positions)
    dropped = set(result.positions.tolist())
    slow = bytes(byte for at, byte in enumerate(result.stored) if at not in dropped)
    assert fast == slow == payload


def test_negative_fraction_rejected():
    with pytest.raises(ValueError):
        inject(b"abc", -0.1)


@pytest.mark.parametrize(
    "fraction", [-0.1, math.nan, math.inf, -math.inf, True, False, "0.1", None, 10**400],
    ids=lambda value: repr(value)[:12],
)
@pytest.mark.parametrize("kernel", [inject, inject_window, inject_runs])
def test_every_kernel_refuses_what_is_not_a_fraction(kernel, fraction):
    # True once drew 100% misleading bytes, inf escaped as OverflowError,
    # NaN raised only by accident and a string as TypeError.  The rng is
    # the caller's: a refused call leaves it where it was.
    rng = InjectionRng.spawn(4)
    payload = b"x" * 64
    with pytest.raises(ValueError, match="misleading fraction"):
        kernel(payload if kernel is inject else [payload], fraction, rng=rng)
    assert rng.positions.random() == InjectionRng.spawn(4).positions.random()
    assert rng.fakes.random() == InjectionRng.spawn(4).fakes.random()


def test_inject_empty_payload():
    result = inject(b"", 0.5, rng=1)
    assert remove(result.stored, result.positions) == b""


def test_mimic_draws_from_payload_distribution():
    payload = b"\xAA" * 1000  # single-valued distribution
    result = inject(payload, 0.2, rng=4, mimic=True)
    fake = np.frombuffer(result.stored, dtype=np.uint8)[list(result.positions)]
    assert np.all(fake == 0xAA)


def test_non_mimic_is_uniform_random():
    payload = b"\xAA" * 2000
    result = inject(payload, 0.5, rng=4, mimic=False)
    fake = np.frombuffer(result.stored, dtype=np.uint8)[list(result.positions)]
    assert len(np.unique(fake)) > 50


def test_determinism_by_seed():
    a = inject(b"data" * 50, 0.2, rng=7)
    b = inject(b"data" * 50, 0.2, rng=7)
    assert a.stored == b.stored
    assert np.array_equal(a.positions, b.positions)


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=0, max_size=500), st.floats(min_value=0, max_value=2))
def test_property_inject_remove_roundtrip(payload, fraction):
    result = inject(payload, fraction, rng=11)
    assert remove(result.stored, result.positions) == payload


# -- the window draw ----------------------------------------------------------

LENGTHS = [0, 1, 2, 1024, 1024, 1024, 333]  # k-1 for raid5@4 is 2; odd tail


def window_payloads(seed=5):
    gen = np.random.default_rng(seed)
    return [gen.bytes(n) for n in LENGTHS]


def test_inject_is_a_window_of_one():
    payload = bytes(range(256)) * 4
    single = inject(payload, 0.1, rng=InjectionRng.spawn(21))
    (windowed,) = inject_window([payload], 0.1, rng=InjectionRng.spawn(21))
    assert single == windowed


@pytest.mark.parametrize("fraction", [0.0, 0.01, 0.1, 1.0])
def test_window_roundtrip_over_lengths_and_fractions(fraction):
    payloads = window_payloads()
    results = inject_window(payloads, fraction, rng=3)
    assert len(results) == len(payloads)
    for payload, result in zip(payloads, results):
        n_fake = int(round(len(payload) * fraction))
        assert len(result.positions) == n_fake
        assert len(result.stored) == len(payload) + n_fake
        assert list(result.positions) == sorted(set(result.positions))
        assert all(0 <= p < len(result.stored) for p in result.positions)
        assert remove(result.stored, result.positions) == payload


def test_window_results_do_not_alias_the_window_buffer():
    # The streaming path refills its window buffer for the next window.
    buf = bytearray(b"\x07" * 64)
    views = [memoryview(buf)[:32], memoryview(buf)[32:]]
    for fraction in (0.0, 0.25):
        results = inject_window(views, fraction, rng=1)
        before = [r.stored for r in results]
        buf[:] = b"\xff" * len(buf)
        assert [r.stored for r in results] == before
        assert all(remove(r.stored, r.positions) == b"\x07" * 32 for r in results)
        buf[:] = b"\x07" * len(buf)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0, 1, 5, 64, 64, 64, 333]), min_size=1, max_size=24),
    st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    st.data(),
)
def test_property_any_partition_into_windows_draws_the_same(lengths, fraction, data):
    gen = np.random.default_rng(len(lengths))
    payloads = [gen.bytes(n) for n in lengths]
    cuts = sorted(
        data.draw(st.sets(st.integers(1, len(payloads)), max_size=len(payloads)))
        | {len(payloads)}
    )
    whole = inject_window(payloads, fraction, rng=InjectionRng.spawn(99))
    rng = InjectionRng.spawn(99)
    pieces, start = [], 0
    for stop in cuts:
        pieces.extend(inject_window(payloads[start:stop], fraction, rng=rng))
        start = stop
    assert pieces == whole


def test_slabs_do_not_change_the_draw(monkeypatch):
    payloads = [bytes([i]) * 100 for i in range(40)]
    whole = inject_window(payloads, 0.1, rng=8)
    monkeypatch.setattr(misleading, "SLAB_KEYS", 7 * 110)  # 7 rows a slab
    assert inject_window(payloads, 0.1, rng=8) == whole
    monkeypatch.setattr(misleading, "SLAB_KEYS", 1)  # one row per slab
    assert inject_window(payloads, 0.1, rng=8) == whole


# -- the draw itself, pinned --------------------------------------------------

# Chunk shapes the upload engine meets at 10%: PL-3's 1 KiB with an odd
# tail, 4 and 16 KiB, one chunk past any slab budget, and 5-byte chunks
# whose 0.5 misleading bytes round to none.
DRAW_SHAPES = {
    "1KiB": [1024] * 300 + [1023],
    "4KiB": [4096] * 40,
    "16KiB": [16384] * 10,
    "1MiB": [1 << 20],
    "5B": [5] * 8,
}
#: SHA-256 of each shape's stored bytes, M rows and one further draw from
#: each generator, recorded before the slab budget changed from 256 rows
#: and 1 << 19 keys.  A slab cut never moves the draw; a digest that moves
#: means a draw, a position or a fake byte did, and ROADMAP item 3(a) has
#: to show the attacker's yield unmoved before it may.
DRAW_DIGESTS = {
    "1KiB": "55a14e847c444098109881dcee4f9876f11024d85644042b2e9ef76ae062874a",
    "4KiB": "d01217628d861f54eb5172a8fb49ad592019598df8fe03906b61907717e7ff37",
    "16KiB": "5caa613497984b19c6f5e2f4e0c9703217b83798030879ae859a19bcf65b2823",
    "1MiB": "e477f9b77a604dc1da8f12515e29f0f52fdb38d30fb9a84db0a526f5b7c70617",
    "5B": "3c7f90c1a3f5ec39fd74e141bbcb2356f872a1d4aa74ffdc1a0f27030b618eeb",
}


def drawn(lengths: list[int]) -> tuple[list[bytes], list[bytes], list, str]:
    """Inject 10% into payloads of *lengths*: the payloads, the stored
    chunks, their ``M`` rows and the digest of all three plus the draw
    after them."""
    gen = np.random.default_rng(len(lengths))
    payloads = [gen.bytes(n) for n in lengths]
    rng = InjectionRng.spawn(2718)
    digest = hashlib.sha256()
    stored, rows = [], []
    for run, run_rows in inject_runs(payloads, 0.1, rng=rng):
        for chunk, row in zip(run, run_rows):
            stored.append(bytes(chunk))
            rows.append(row)
            digest.update(stored[-1])
            digest.update(np.asarray(row, dtype="<u4").tobytes())
    digest.update(rng.positions.random(4).tobytes())
    digest.update(rng.fakes.integers(0, 1 << 32, 4).tobytes())
    return payloads, stored, rows, digest.hexdigest()


@pytest.mark.parametrize("budget", [1, misleading.SLAB_KEYS, 1 << 19])
@pytest.mark.parametrize("shape", DRAW_SHAPES)
def test_the_draw_is_pinned_at_every_slab_budget(monkeypatch, shape, budget):
    monkeypatch.setattr(misleading, "SLAB_KEYS", budget)
    payloads, stored, rows, digest = drawn(DRAW_SHAPES[shape])
    assert digest == DRAW_DIGESTS[shape]
    assert remove_window(stored, rows) == payloads


class KeyShapes:
    """A positions generator that records the shape of every key array
    the draw asks it for."""

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen
        self.shapes: list[tuple[int, int]] = []

    def random(self, size):
        self.shapes.append(size)
        return self.gen.random(size)


#: 1 MiB of float64 keys and as much in argpartition's int64 indices: a
#: slab's draw inside a 2 MiB per-core L2 cache.  256 rows of PL-3's 1,126
#: stored bytes drew 288,256 keys a slab (4.4 MiB), and the kernels
#: streamed from L3.
L2_KEYS = 1 << 17


# Stored lengths from 64 B to 64 KiB, PL-3's 1,126 B among them, and one
# chunk longer than the budget.
@pytest.mark.parametrize("length", [58, 233, 931, 1024, 3724, 14895, 59578, 1 << 18])
def test_a_slab_of_keys_fits_the_cache_budget(length):
    total = length + round(length * 0.1)
    rows = 2 * max(1, L2_KEYS // total) + 3  # two full slabs and a short one
    keys = KeyShapes(np.random.default_rng(1))
    rng = InjectionRng(keys, np.random.default_rng(2))
    inject_runs([bytes(length)] * rows, 0.1, rng=rng)
    assert sum(shape[0] for shape in keys.shapes) == rows
    assert {shape[1] for shape in keys.shapes} == {total}
    largest = max(shape[0] for shape in keys.shapes)
    if total > L2_KEYS:
        assert largest == 1  # one chunk alone already exceeds the budget
    else:
        assert largest * total <= L2_KEYS < (largest + 1) * total


def test_positions_are_uniform_over_the_stored_buffer():
    # 4000 chunks x 10 fakes over 110 stored positions: every position is
    # equally likely to hold a fake byte.  Chi-square against the uniform
    # expectation; 109 degrees of freedom put the 99.9th percentile at
    # ~161, and the seed is fixed, so this cannot flake.
    results = inject_window([bytes(100)] * 4000, 0.1, rng=12)
    hits = np.zeros(110)
    for result in results:
        hits[list(result.positions)] += 1
    expected = hits.sum() / len(hits)
    chi2 = float(((hits - expected) ** 2 / expected).sum())
    assert chi2 < 161, chi2


def test_window_metrics_observe_once_and_count_every_byte():
    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    seconds = metrics.histogram("misleading_transform_seconds", op="inject")
    total = metrics.counter("misleading_bytes_total", op="inject")
    calls, fakes = seconds.count, total.value
    inject_window([bytes(100)] * 30 + [bytes(50)], 0.1, rng=1)
    assert seconds.count == calls + 1
    assert total.value == fakes + 30 * 10 + 5


# -- the window strip ---------------------------------------------------------


def _injected_window(lengths, fraction, seed=17):
    gen = np.random.default_rng(seed)
    payloads = [gen.bytes(n) for n in lengths]
    results = inject_window(payloads, fraction, rng=seed)
    return (
        payloads,
        [result.stored for result in results],
        [result.positions for result in results],
    )


@pytest.mark.parametrize("fraction", [0.0, 0.01, 0.1, 1.0])
def test_remove_window_equals_remove_per_chunk(fraction):
    # Runs of one, a run broken by a different length, a 1 MiB chunk that
    # has a slab to itself, empty and one-byte chunks.
    lengths = [1024, 1024, 1024, 0, 1, 333, 1024, 1 << 20, 1024, 1024, 333, 333]
    payloads, stored, positions = _injected_window(lengths, fraction)
    stripped = remove_window(stored, positions)
    assert stripped == [remove(s, p) for s, p in zip(stored, positions)]
    assert stripped == payloads
    assert remove_window([], []) == []


def test_remove_window_with_empty_position_lists_inside_a_run():
    # Equal stored lengths, unequal position counts: a chunk stored
    # without misleading bytes between two that have them (an update can
    # leave a file like this) must not be stripped with its neighbours.
    _, stored, positions = _injected_window([110] * 6, 0.1)
    plain = [bytes([i]) * 121 for i in range(3)]  # same stored length
    stored[2:2] = plain[:2]
    positions[2:2] = [(), ()]
    stored.append(plain[2])
    positions.append(())
    stripped = remove_window(stored, positions)
    assert stripped == [remove(s, p) for s, p in zip(stored, positions)]
    assert stripped[2:4] == plain[:2] and stripped[-1] == plain[2]


def test_slab_bounds_do_not_change_the_strip(monkeypatch):
    payloads, stored, positions = _injected_window([100] * 40 + [64] * 3, 0.1)
    assert remove_window(stored, positions) == payloads
    monkeypatch.setattr(misleading, "SLAB_KEYS", 7 * 110)  # 7 rows a slab
    assert remove_window(stored, positions) == payloads
    monkeypatch.setattr(misleading, "SLAB_KEYS", 1)  # one row per slab
    assert remove_window(stored, positions) == payloads


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0, 1, 5, 64, 64, 64, 333]), min_size=1, max_size=24),
    st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]),
    st.data(),
)
def test_property_any_partition_into_windows_strips_the_same(lengths, fraction, data):
    payloads, stored, positions = _injected_window(lengths, fraction, len(lengths))
    cuts = sorted(
        data.draw(st.sets(st.integers(1, len(stored)), max_size=len(stored)))
        | {len(stored)}
    )
    pieces, start = [], 0
    for stop in cuts:
        pieces.extend(remove_window(stored[start:stop], positions[start:stop]))
        start = stop
    assert pieces == remove_window(stored, positions) == payloads


def test_a_run_of_one_row_takes_the_window_strip(monkeypatch):
    # remove is the one kernel: remove_window joins a run's chunks into a
    # slab for strip, one remove call a slab, a run of one row like any
    # other, and a lone chunk is remove with its defaults.
    calls = []
    kernel = misleading.remove
    monkeypatch.setattr(
        misleading, "remove",
        lambda blob, where, rows=1, *args: calls.append(rows) or kernel(blob, where, rows, *args),
    )
    payloads, stored, positions = _injected_window([100, 100, 100, 50], 0.1)
    assert remove_window(stored[:1], positions[:1]) == payloads[:1]
    assert calls == [1]
    assert remove_window(stored, positions) == payloads  # three rows joined, then the odd one
    assert calls == [1, 3, 1]
    assert misleading.remove(stored[3], positions[3]) == payloads[3]
    assert calls == [1, 3, 1, 1]


def test_rows_that_come_a_few_at_a_time_are_stripped_in_parts_of_a_slab(monkeypatch):
    # 300 chunks of 1,126 stored bytes handed to the strip one row a slab,
    # as a codec that is not systematic decodes them, then in slabs of
    # three with the shard padding: joined into parts of at most SLAB_KEYS
    # stored bytes, one remove call a part, never one a chunk.
    calls = []
    kernel = misleading.remove
    monkeypatch.setattr(
        misleading, "remove",
        lambda blob, where, rows=1, *args: calls.append(rows) or kernel(blob, where, rows, *args),
    )
    payloads, stored, positions = _injected_window([1024] * 300, 0.1)
    heap = np.concatenate(positions)
    pieces = strip([(1, blob) for blob in stored], [(300, 1126, 1126, 102)], heap)
    assert row_payloads(pieces) == payloads
    per_part = misleading.SLAB_KEYS // 1126
    assert calls == [per_part, per_part, 300 - 2 * per_part]
    padded = [b"".join(blob + bytes(2) for blob in stored[at : at + 3]) for at in range(0, 300, 3)]
    calls.clear()
    pieces = strip([(3, slab) for slab in padded], [(300, 1128, 1126, 102)], heap)
    assert row_payloads(pieces) == payloads
    assert calls == [per_part - per_part % 3, per_part - per_part % 3, 300 - 2 * (per_part - per_part % 3)]


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize(
    "bad, message",
    [
        ((3, 3), "duplicates"),
        ((25,), "out of range"),
        ((20,), "out of range"),
        ((-1,), "out of range"),
    ],
)
def test_a_bad_row_is_refused_the_same_way_at_any_run_length(rows, bad, message):
    # Defence in depth: the loaders refuse such M rows before they reach the
    # table, so only a caller outside it can hand one in.  A run of one row
    # once went to np.delete, which gave a 20-byte row with M = [3, 3] back
    # 19 bytes long and answered a position of 25 with a bare IndexError,
    # while the same rows in a run of two raised ValueError.
    stored = [bytes(range(20))] * rows
    positions = [bad] * rows
    with pytest.raises(ValueError, match=message):
        remove_window(stored, positions)
    if rows == 1:
        with pytest.raises(ValueError, match=message):
            remove(stored[0], bad)


def test_remove_window_metrics_observe_once_and_count_every_byte():
    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    seconds = metrics.histogram("misleading_transform_seconds", op="remove")
    total = metrics.counter("misleading_bytes_total", op="remove")
    _, stored, positions = _injected_window([100] * 30 + [80] * 5 + [50], 0.1)
    calls, removed = seconds.count, total.value
    remove_window(stored[:35], positions[:35])  # two slabs, one observation
    assert seconds.count == calls + 1
    assert total.value == removed + 30 * 10 + 5 * 8
    remove_window(stored[35:], positions[35:])  # a run of one is remove's
    assert seconds.count == calls + 2
    assert total.value == removed + 30 * 10 + 5 * 8 + 5
    remove_window([b"abc"] * 4, [()] * 4)  # nothing to strip, nothing timed
    assert seconds.count == calls + 2


@pytest.mark.parametrize(
    "bad, message",
    [
        ((3, 3), "duplicates"),
        ((3, 110), "out of range"),
        ((-1, 3), "out of range"),
    ],
)
def test_one_bad_row_raises_instead_of_shifting_its_neighbours(bad, message):
    # Regression: in one flat mask a repeated position leaves a fake byte
    # behind and a position past the row's end takes a byte from the next
    # row -- every later chunk of the slab would come back misaligned.
    payloads, stored, positions = _injected_window([100] * 8, 0.1)
    assert remove_window(stored, positions) == payloads
    positions[2] = bad + tuple(positions[2][2:])
    with pytest.raises(ValueError, match=message):
        remove_window(stored, positions)


# -- the M row ----------------------------------------------------------------


def is_row(row) -> bool:
    """One uint32 array over a bytes object of exactly its size: immutable,
    and nothing else kept alive."""
    return (
        isinstance(row, np.ndarray)
        and row.dtype == np.uint32
        and row.ndim == 1
        and not row.flags.writeable
        and type(row.base) is bytes
        and len(row.base) == row.nbytes
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0, 1, 5, 64, 64, 64, 333]), min_size=1, max_size=24),
    st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]),
    st.data(),
)
def test_property_every_row_is_one_packed_array_however_the_window_is_cut(
    lengths, fraction, data
):
    gen = np.random.default_rng(len(lengths))
    payloads = [gen.bytes(n) for n in lengths]
    cuts = sorted(
        data.draw(st.sets(st.integers(1, len(payloads)), max_size=len(payloads)))
        | {len(payloads)}
    )
    rng = InjectionRng.spawn(5)
    results, start = [], 0
    for stop in cuts:
        results.extend(inject_window(payloads[start:stop], fraction, rng=rng))
        start = stop
    stored = [result.stored for result in results]
    rows = [result.positions for result in results]
    for row, blob in zip(rows, stored):
        assert is_row(row)
        assert (row[:-1] < row[1:]).all()  # sorted and distinct
        assert not len(row) or int(row[-1]) < len(blob)
        with pytest.raises(ValueError):
            row[:1] = 0
        with pytest.raises(ValueError):
            row.setflags(write=True)  # not even on request
        if not len(row):
            assert row is NO_POSITIONS
    assert remove_window(stored, rows) == payloads
    # A row read back from a tuple or a JSON list strips the same.
    assert remove_window(stored, [tuple(row.tolist()) for row in rows]) == payloads
    assert remove_window(stored, [row.tolist() for row in rows]) == payloads
    for blob, row, payload in zip(stored, rows, payloads):
        for form in (row, tuple(row.tolist()), row.tolist()):
            assert remove(blob, form) == payload


def test_a_kept_row_does_not_keep_the_slab_it_was_drawn_in():
    import gc
    import tracemalloc

    payloads = [bytes(1024)] * 256  # 256 x 102 positions over three slabs
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        results = inject_window(payloads, 0.1, rng=1)
        kept = results[0].positions
        slab = sum(result.positions.nbytes for result in results)
        del results
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert slab == 256 * 102 * 4
    assert kept.nbytes == 102 * 4
    assert held < 2048, held  # the row and its headers, not 104 KiB of slab


def test_position_row_packs_sequences_and_passes_rows_through():
    row = position_row((3, 7, 4_000_000_000))
    assert is_row(row) and row.tolist() == [3, 7, 4_000_000_000]
    assert position_row(row) is row
    assert position_row([3, 7]).tolist() == [3, 7]
    packed = position_row(np.array([3, 7]))  # int64, writeable: repacked
    assert is_row(packed) and packed.tolist() == [3, 7]
    owned = np.array([3, 7], dtype=np.uint32)
    owned.setflags(write=False)  # could be flipped back: repacked
    assert is_row(position_row(owned)) and position_row(owned) is not owned
    cut = np.frombuffer(bytes(32), dtype=np.uint32)[2:4]
    assert is_row(position_row(cut))  # a view would pin what it was cut from
    for empty in ((), [], np.array([], dtype=np.int64), NO_POSITIONS):
        assert position_row(empty) is NO_POSITIONS


@pytest.mark.parametrize(
    "bad",
    [
        [-1], [1 << 32], [1 << 70], [True, 5], [1.5], ["7"], [[1, 2]], "12",
        5, None, {1: 2}, np.array([1.5]), np.array([[1, 2]]), np.array([True]),
        np.array([-1]),
    ],
    ids=repr,
)
def test_position_row_refuses_what_is_not_a_flat_run_of_uint32(bad):
    with pytest.raises(ValueError, match="flat sequence of integers"):
        position_row(bad)


def test_injection_results_compare_without_asking_an_array_for_its_truth():
    a, b = (inject(bytes(range(200)), 0.1, rng=7) for _ in range(2))
    other = inject(bytes(range(200)), 0.1, rng=8)
    assert a == b and not a != b
    assert a != other and a != "not a result"
