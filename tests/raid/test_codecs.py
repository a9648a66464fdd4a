"""Codec spec grammar plus the cross-codec conformance suite.

Every codec behind :class:`~repro.raid.codecs.ErasureCodec` must honour
the same contract: roundtrip, decode under every erasure pattern within
its declared tolerance, rebuild any single shard (data *or* parity)
byte-exactly, and survive empty and non-aligned payloads.  The suite runs
the whole matrix so a new codec cannot ship with a latent geometry bug.
"""

import os
from itertools import combinations

import numpy as np
import pytest

from repro.core.errors import ReconstructionError, UnknownCodecError
from repro.raid.codecs import (
    XOR_SLAB_BYTES,
    AontRSCodec,
    CodecSpec,
    RaidCodec,
    RSStripeCodec,
    codec_for_meta,
    slab_payloads,
    stripe_meta_from_fields,
)
from repro.raid.striping import RaidLevel, StripeMeta

# -- spec grammar -------------------------------------------------------------


def test_parse_raid_families():
    spec = CodecSpec.parse("raid5")
    assert (spec.family, spec.width) == ("raid5", None)
    assert spec.canonical() == "raid5"
    assert spec.raid_level is RaidLevel.RAID5
    assert spec.fixed_width is None

    pinned = CodecSpec.parse("raid6@5")
    assert (pinned.family, pinned.width) == ("raid6", 5)
    assert pinned.canonical() == "raid6@5"
    assert pinned.fixed_width == 5


def test_parse_rs_families():
    spec = CodecSpec.parse("rs(6,3)")
    assert (spec.family, spec.k, spec.m) == ("rs", 6, 3)
    assert spec.canonical() == "rs(6,3)"
    assert spec.raid_level is None
    assert spec.fixed_width == 9

    aont = CodecSpec.parse("AONT-RS( 4 , 2 )")  # case/space insensitive
    assert (aont.family, aont.k, aont.m) == ("aont-rs", 4, 2)
    assert aont.canonical() == "aont-rs(4,2)"


@pytest.mark.parametrize(
    "bad",
    [
        "raid3",
        "rs(0,1)",
        "rs(200,100)",
        "aont-rs(1,2)",  # k=1 defeats the transform
        "raid5@2",  # below the family's minimum width
        "rs(6;3)",
        "",
        "paper",
    ],
)
def test_parse_rejects_unknown_specs(bad):
    with pytest.raises(UnknownCodecError):
        CodecSpec.parse(bad)


def test_parse_error_carries_context():
    with pytest.raises(UnknownCodecError) as exc:
        CodecSpec.parse("raid9", filename="f.bin", virtual_id=42)
    assert exc.value.filename == "f.bin"
    assert exc.value.virtual_id == 42
    assert exc.value.spec == "raid9"


def test_coerce_accepts_level_spec_and_string():
    assert CodecSpec.coerce(RaidLevel.RAID6).family == "raid6"
    spec = CodecSpec.parse("rs(4,2)")
    assert CodecSpec.coerce(spec) is spec
    assert CodecSpec.coerce("raid1@3").width == 3


def test_instantiate_width_rules():
    assert CodecSpec.parse("rs(4,2)").instantiate().n == 6
    with pytest.raises(ValueError):
        CodecSpec.parse("rs(4,2)").instantiate(width=7)
    with pytest.raises(ValueError):
        CodecSpec.parse("raid5").instantiate()  # open width needs an argument
    with pytest.raises(ValueError):
        CodecSpec.parse("raid6@5").instantiate(width=4)
    codec = CodecSpec.parse("raid6@5").instantiate()
    assert (codec.k, codec.m, codec.n) == (3, 2, 5)


def test_stripe_meta_from_fields_roundtrip_and_errors():
    meta = stripe_meta_from_fields(["rs(4,2)", 6, 4, 2, 100, 400])
    assert meta.codec == "rs(4,2)"
    assert meta.level is None
    legacy = stripe_meta_from_fields(["raid5", 4, 3, 1, 10, 30])
    assert legacy.level is RaidLevel.RAID5
    with pytest.raises(ValueError):
        stripe_meta_from_fields(["raid5", 4, 3])  # structurally short
    with pytest.raises(UnknownCodecError):
        stripe_meta_from_fields(["zfec(4,2)", 6, 4, 2, 100, 400], virtual_id=7)
    with pytest.raises(UnknownCodecError):
        # rs(4,2) fixes width 6; a table recording width 5 is corrupt.
        stripe_meta_from_fields(["rs(4,2)", 5, 4, 2, 100, 400])


# -- conformance matrix -------------------------------------------------------

CODECS = [
    pytest.param(lambda: RaidCodec(RaidLevel.RAID0, 4), id="raid0@4"),
    pytest.param(lambda: RaidCodec(RaidLevel.RAID1, 3), id="raid1@3"),
    pytest.param(lambda: RaidCodec(RaidLevel.RAID5, 4), id="raid5@4"),
    pytest.param(lambda: RaidCodec(RaidLevel.RAID6, 5), id="raid6@5"),
    pytest.param(lambda: RSStripeCodec(2, 1), id="rs(2,1)"),
    pytest.param(lambda: RSStripeCodec(6, 3), id="rs(6,3)"),
    pytest.param(lambda: AontRSCodec(2, 1), id="aont-rs(2,1)"),
    pytest.param(lambda: AontRSCodec(4, 2), id="aont-rs(4,2)"),
]


@pytest.mark.parametrize("make", CODECS)
def test_roundtrip(make):
    codec = make()
    payload = os.urandom(1000)
    meta, shards = codec.encode(payload)
    assert len(shards) == codec.n == meta.n
    assert meta.codec == codec.label
    assert codec.decode(meta, dict(enumerate(shards))) == payload
    # The serialized codec string reconstructs the same codec.
    assert codec_for_meta(meta).label == codec.label


@pytest.mark.parametrize("make", CODECS)
def test_every_erasure_pattern_within_tolerance_decodes(make):
    codec = make()
    payload = os.urandom(777)
    meta, shards = codec.encode(payload)
    # RAID1 (k=1) tolerates n-1 losses; everything else tolerates m.
    tolerance = (codec.n - 1) if codec.k == 1 else codec.m
    for size in range(tolerance + 1):
        for erased in combinations(range(codec.n), size):
            available = {
                i: s for i, s in enumerate(shards) if i not in erased
            }
            assert codec.decode(meta, available) == payload, (
                f"{codec.label}: erasing {erased} broke decode"
            )


@pytest.mark.parametrize("make", CODECS)
def test_decode_below_k_raises(make):
    codec = make()
    meta, shards = codec.encode(os.urandom(300))
    too_few = {i: shards[i] for i in range(codec.k - 1)}
    if codec.k == 1:
        too_few = {}
    with pytest.raises(ReconstructionError):
        codec.decode(meta, too_few)


@pytest.mark.parametrize("make", CODECS)
def test_rebuild_every_shard_byte_exact(make):
    codec = make()
    if codec.m == 0:
        meta, shards = codec.encode(os.urandom(100))
        with pytest.raises(ReconstructionError):
            codec.rebuild(meta, 0, {})
        return
    payload = os.urandom(901)
    meta, shards = codec.encode(payload)
    for index in range(codec.n):
        survivors = {i: s for i, s in enumerate(shards) if i != index}
        rebuilt = codec.rebuild(meta, index, survivors)
        assert rebuilt == shards[index], (
            f"{codec.label}: rebuild of shard {index} (parity starts at "
            f"{codec.k}) not byte-exact"
        )


@pytest.mark.parametrize("make", CODECS)
def test_empty_payload(make):
    codec = make()
    meta, shards = codec.encode(b"")
    assert meta.orig_len == 0
    assert codec.decode(meta, dict(enumerate(shards))) == b""
    if codec.m > 0:
        survivors = {i: s for i, s in enumerate(shards) if i != 0}
        assert codec.rebuild(meta, 0, survivors) == shards[0]


@pytest.mark.parametrize("make", CODECS)
@pytest.mark.parametrize("size", [1, 7, 97, 1001])
def test_non_divisible_payload_sizes(make, size):
    codec = make()
    payload = os.urandom(size)
    meta, shards = codec.encode(payload)
    assert len({len(s) for s in shards if s}) <= 1  # equal-sized members
    assert codec.decode(meta, dict(enumerate(shards))) == payload


@pytest.mark.parametrize("make", CODECS)
def test_shards_do_not_alias_input(make):
    # The streaming path reuses its window buffer; shards must be copies.
    codec = make()
    buf = bytearray(os.urandom(600))
    payload = bytes(buf)
    meta, shards = codec.encode(memoryview(buf))
    before = [bytes(s) for s in shards]
    buf[:] = b"\x00" * len(buf)
    assert [bytes(s) for s in shards] == before
    assert codec.decode(meta, dict(enumerate(shards))) == payload


def test_aont_shards_are_unlinkable():
    codec = AontRSCodec(4, 2)
    payload = b"identical chunk payload" * 20
    _, first = codec.encode(payload)
    _, second = codec.encode(payload)
    assert all(a != b for a, b in zip(first, second))


def test_aont_rebuild_never_sees_plaintext():
    # Rebuild is pure RS over the package: it works even when the
    # survivors cannot reach k data shards of plaintext... which can
    # never happen here (rebuild needs k shards), so instead check the
    # rebuilt shard carries no plaintext slice.
    codec = AontRSCodec(4, 2)
    payload = os.urandom(4096)
    meta, shards = codec.encode(payload)
    survivors = {i: s for i, s in enumerate(shards) if i != 2}
    rebuilt = codec.rebuild(meta, 2, survivors)
    assert rebuilt == shards[2]
    for offset in range(0, len(payload) - 16, 256):
        assert payload[offset : offset + 16] not in rebuilt


# -- the window encode --------------------------------------------------------

WINDOW_SIZES = [0, 1, 2, 1024, 1024, 1024, 333, 1024]  # runs, k-1, odd tail


def _window(seed=7):
    rng = np.random.default_rng(seed)
    return [rng.bytes(size) for size in WINDOW_SIZES]


@pytest.mark.parametrize("make", CODECS)
def test_encode_many_equals_encode_per_payload(make):
    codec = make()
    payloads = _window()
    many = codec.encode_many(payloads)
    assert len(many) == len(payloads)
    if isinstance(codec, AontRSCodec):
        # A fresh key per chunk: compare what decodes, not the bytes.
        for payload, (meta, shards) in zip(payloads, many):
            assert meta == codec.encode(payload)[0]
            assert codec.decode(meta, dict(enumerate(shards))) == payload
        return
    assert many == [codec.encode(payload) for payload in payloads]
    # Views into a buffer the caller refills encode to the same bytes,
    # and the shards are copies.
    buffers = [bytearray(payload) for payload in payloads]
    viewed = codec.encode_many([memoryview(buf) for buf in buffers])
    for buf in buffers:
        buf[:] = bytes(len(buf))
    assert viewed == many


def _reference_xor_stripe(payload: bytes, k: int, parity: bool) -> list[bytes]:
    """The XOR family one byte at a time: the loop the array code replaced."""
    size = -(-len(payload) // k) if payload else 0
    padded = payload + bytes(k * size - len(payload))
    shards = [padded[i * size : (i + 1) * size] for i in range(k)]
    if parity:
        column = bytearray(size)
        for shard in shards:
            for i, byte in enumerate(shard):
                column[i] ^= byte
        shards.append(bytes(column))
    return shards


@pytest.mark.parametrize("level", [RaidLevel.RAID0, RaidLevel.RAID5])
@pytest.mark.parametrize("width", [3, 4, 7])
def test_xor_window_encode_matches_the_byte_loop(level, width, monkeypatch):
    from repro.raid import codecs

    codec = RaidCodec(level, width)
    payloads = _window(seed=width)
    want = [
        _reference_xor_stripe(payload, codec.k, parity=codec.m == 1)
        for payload in payloads
    ]
    assert [shards for _, shards in codec.encode_many(payloads)] == want
    for meta, shards in codec.encode_many(payloads):
        assert (meta.k, meta.m, meta.width) == (codec.k, codec.m, width)
        assert all(len(shard) == meta.shard_size for shard in shards)
    # Slab bounds cut runs differently; the bytes do not change.
    monkeypatch.setattr(codecs, "XOR_SLAB_ROWS", 2)
    assert [shards for _, shards in codec.encode_many(payloads)] == want
    monkeypatch.setattr(codecs, "XOR_SLAB_BYTES", 1)
    assert [shards for _, shards in codec.encode_many(payloads)] == want


@pytest.mark.parametrize("make", CODECS)
def test_encode_many_metrics_observe_once_and_count_every_byte(make):
    from repro.obs.metrics import get_metrics

    codec = make()
    metrics = get_metrics()
    seconds = metrics.histogram("raid_encode_seconds", codec=codec.label)
    total = metrics.counter("raid_encode_bytes_total", codec=codec.label)
    calls, nbytes = seconds.count, total.value
    codec.encode_many(_window())
    assert seconds.count == calls + 1
    assert total.value == nbytes + sum(WINDOW_SIZES)


def test_codec_for_meta_is_memoised_per_spec_and_width():
    meta4, _ = RaidCodec(RaidLevel.RAID5, 4).encode(b"x" * 40)
    meta5, _ = RaidCodec(RaidLevel.RAID5, 5).encode(b"x" * 40)
    assert codec_for_meta(meta4) is codec_for_meta(meta4)
    assert codec_for_meta(meta4).width == 4
    assert codec_for_meta(meta5).width == 5
    # An unparseable spec still raises, typed, on every call.
    bad = StripeMeta("zfec(4,2)", 6, 4, 2, 10, 40)
    for _ in range(2):
        with pytest.raises(UnknownCodecError):
            codec_for_meta(bad)


# -- the window decode --------------------------------------------------------


def _erasure_patterns(n, m):
    """Every set of at most *m* lost members of an *n*-wide stripe."""
    for lost in range(m + 1):
        yield from combinations(range(n), lost)


@pytest.mark.parametrize("make", CODECS)
def test_decode_many_equals_decode_per_stripe_under_every_erasure(make):
    codec = make()
    payloads = _window()
    encoded = codec.encode_many(payloads)
    # One window per erasure pattern, and one window that mixes them all
    # (healthy stripes between degraded ones, as a real window has).
    mixed = []
    for gone in _erasure_patterns(codec.n, codec.m):
        stripes = [
            (meta, {i: s for i, s in enumerate(shards) if i not in gone})
            for meta, shards in encoded
        ]
        want = [codec.decode(meta, have) for meta, have in stripes]
        assert want == payloads
        assert codec.decode_many(stripes) == want
        mixed.append(stripes[len(mixed) % len(stripes)])
    assert codec.decode_many(mixed) == [
        codec.decode(meta, have) for meta, have in mixed
    ]
    # The same members handed over in reverse index order.
    backwards = [(meta, dict(reversed(have.items()))) for meta, have in mixed]
    assert codec.decode_many(backwards) == [
        codec.decode(meta, have) for meta, have in backwards
    ]
    assert codec.decode_many([]) == []



@pytest.mark.parametrize("make", CODECS)
def test_decode_data_equals_decode_many_of_the_data_members(make):
    # A window read whole from its data members: a systematic codec cuts
    # the payloads out of one join, the others decode as decode_many does.
    codec = make()
    payloads = _window()
    encoded = codec.encode_many(payloads)
    flat = [shard for _, shards in encoded for shard in shards[: codec.k]]
    members = list(range(codec.k)) * len(encoded)
    metas = [meta for meta, _ in encoded]
    assert slab_payloads(metas, codec.decode_data(metas, flat, members)) == payloads
    assert list(codec.decode_data([], [], members[:0])) == []
    assert codec.systematic == (codec.label.split("(")[0] != "aont-rs")


def test_a_degraded_raid5_slab_is_its_stripes_data_members_each_rebuilt_in_its_slot():
    # The decode hands back one buffer a slab, row after row each stripe's
    # k data members: a stripe short of one has the parity standing in
    # for it replaced, in that slot, by the member it rebuilt -- the last
    # member's zero padding too.
    codec = CodecSpec.parse("raid5@4").instantiate()
    rng = np.random.default_rng(5)
    encoded = codec.encode_many([rng.bytes(1024) for _ in range(6)] + [rng.bytes(333)])
    metas, shards, members, want = _received(codec, encoded, [(), (1,), (2,), (0,)])
    slabs = list(codec.decode_data(metas, shards, members))
    assert sum(rows for rows, _ in slabs) == len(metas)
    assert all(type(slab) is bytearray for _, slab in slabs)
    rows = b"".join(bytes(slab) for _, slab in slabs)
    assert rows == b"".join(shard for _, stripe in encoded for shard in stripe[: codec.k])
    assert slab_payloads(metas, slabs) == want


def _received(codec, encoded, patterns):
    """What a read hands :meth:`decode_data` when stripe i lost the members
    in ``patterns[i % len(patterns)]``: each data member it kept in its
    own slot, parity (lowest first) in the slot of each it lost; and
    per-stripe ``decode`` of the same members, the reference."""
    metas, shards, members, want = [], [], [], []
    for i, (meta, stripe) in enumerate(encoded):
        gone = patterns[i % len(patterns)]
        parity = iter(index for index in range(codec.k, codec.n) if index not in gone)
        held = [index if index not in gone else next(parity) for index in range(codec.k)]
        metas.append(meta)
        shards += [stripe[index] for index in held]
        members += held
        want.append(codec.decode(meta, {index: stripe[index] for index in held}))
    return metas, shards, members, want


@pytest.mark.parametrize("make", CODECS)
def test_decode_data_equals_decode_per_stripe_under_every_erasure(make):
    codec = make()
    rng = np.random.default_rng(11)
    big = XOR_SLAB_BYTES  # a stripe this large fills a slab alone
    windows = [
        _window(),  # empty, tiny and odd-sized stripes
        [rng.bytes(1024) for _ in range(5)] + [rng.bytes(333)],  # a short last chunk
        [rng.bytes(1024), rng.bytes(big), rng.bytes(1024)],
        [rng.bytes(big + 5), rng.bytes(1024)],
    ]
    patterns = list(_erasure_patterns(codec.n, codec.m))
    for payloads in windows:
        encoded = codec.encode_many(payloads)
        for gone in patterns:  # every stripe of the window loses the same
            metas, shards, members, want = _received(codec, encoded, [gone])
            assert want == payloads
            assert slab_payloads(metas, codec.decode_data(metas, shards, members)) == want
        # Each stripe its own pattern: whole stripes between degraded ones.
        metas, shards, members, want = _received(codec, encoded, patterns)
        assert want == payloads
        assert slab_payloads(metas, codec.decode_data(metas, shards, members)) == want
