import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    BlobNotFoundError,
    ProviderUnavailableError,
    ReconstructionError,
)
from repro.obs.metrics import Counter, get_metrics
from repro.raid.codecs import CodecSpec, codec_for_meta
from repro.raid.reconstruct import read_slabs
from tests.raid.test_codecs import payloads_of, stripes_of


def _encoded(spec, payloads):
    """``(meta, shards)`` a stripe of *payloads* under *spec*."""
    return stripes_of(CodecSpec.parse(spec).instantiate(), payloads)


def _scripted_fetch_many(encoded, failing):
    """A ``fetch_many`` over *encoded* that fails each ``(stripe, member)``
    in *failing* (a set, or a mapping to the error class to raise), and
    the requests it was asked, a list a round."""
    rounds = []
    errors = failing if isinstance(failing, dict) else dict.fromkeys(
        failing, ProviderUnavailableError
    )

    def fetch_many(numbers, indices):
        requests = list(zip(numbers.tolist(), indices.tolist()))
        rounds.append(requests)
        return [
            errors[request](f"{request[0]}:{request[1]} down")
            if request in errors
            else encoded[request[0]][1][request[1]]
            for request in requests
        ]

    return fetch_many, rounds


def _read(encoded, failing=()):
    """The window's payloads as :func:`read_slabs` decodes them, and the
    requests each round asked."""
    fetch_many, rounds = _scripted_fetch_many(encoded, failing)
    metas = [meta for meta, _ in encoded]
    return payloads_of(metas, read_slabs(metas, fetch_many)), rounds


def test_read_stripe_happy_path_skips_parity():
    payload = bytes(range(120))
    encoded = _encoded("raid5@4", [payload])
    got, rounds = _read(encoded)
    assert got == [payload]
    # Parity shard (index 3) never fetched when data shards are healthy.
    assert rounds == [[(0, 0), (0, 1), (0, 2)]]


def test_read_stripe_degraded_uses_parity():
    payload = bytes(range(120))
    encoded = _encoded("raid5@4", [payload])
    got, rounds = _read(encoded, {(0, 1)})
    assert got == [payload]
    assert rounds == [[(0, 0), (0, 1), (0, 2)], [(0, 3)]]


def test_read_stripe_mixed_error_types():
    payload = b"q" * 64
    encoded = _encoded("raid6@5", [payload])
    failing = {(0, 0): ProviderUnavailableError, (0, 1): BlobNotFoundError}
    got, rounds = _read(encoded, failing)
    assert got == [payload]
    assert rounds == [[(0, 0), (0, 1), (0, 2)], [(0, 3), (0, 4)]]


def test_read_stripe_unrecoverable():
    encoded = _encoded("raid5@4", [b"q" * 64])
    with pytest.raises(ReconstructionError, match=r"2 shard\(s\) failed \(\[0, 1\]\)"):
        _read(encoded, {(0, 0), (0, 1)})


def test_read_stripe_empty_payload():
    assert _read(_encoded("raid5@3", [b""]))[0] == [b""]


def test_read_stripe_raid1_any_single_copy():
    payload = b"replica"
    got, rounds = _read(_encoded("raid1@3", [payload]), {(0, 0), (0, 1)})
    assert got == [payload]
    assert rounds == [[(0, 0)], [(0, 1)], [(0, 2)]]


def test_read_stripe_prefer_data_stops_at_k():
    payload = bytes(range(200))
    encoded = _encoded("raid6@5", [payload])
    got, rounds = _read(encoded)
    assert got == [payload]
    assert rounds == [[(0, index) for index in range(encoded[0][0].k)]]


# -- the window read ----------------------------------------------------------

WINDOW_CODECS = ["raid0@3", "raid1@3", "raid5@4", "raid6@5", "rs(6,3)", "aont-rs(4,2)"]
WINDOW_SIZES = [0, 1, 700, 700, 333, 700]


def _encoded_window(spec):
    payloads = [bytes([i + 1]) * size for i, size in enumerate(WINDOW_SIZES)]
    return payloads, _encoded(spec, payloads)


def _read_counters(label):
    metrics = get_metrics()
    return (
        metrics.counter("raid_degraded_reads_total", codec=label).value,
        metrics.counter("raid_unrecoverable_reads_total", codec=label).value,
    )


def _order(number, meta, distrusted=()):
    """Stripe *number*'s members in the order a read asks them: those not
    in *distrusted*, then those that are, each lowest index first."""
    return sorted(range(meta.n), key=lambda index: ((number, index) in distrusted, index))


def _one_stripe_at_a_time(encoded, failing, distrusted=()):
    """The read a stripe at a time, written out: each stripe's members
    asked in its order (:func:`_order`: index order when nothing is
    *distrusted*) until k have arrived, its payload decoded from them by
    the stripe's own codec, and the first stripe that runs out of members
    ending the read.  Returns the payloads, every ``(stripe, member)``
    asked, the error text (or ``None``) and the counter deltas (degraded
    stripes -- a member failed, or parity stood in -- and unrecoverable
    ones)."""
    payloads, asked, degraded = [], set(), 0
    for number, (meta, stripe) in enumerate(encoded):
        have, lost = {}, []
        for index in _order(number, meta, distrusted):
            if len(have) == meta.k:
                break
            asked.add((number, index))
            if (number, index) in failing:
                lost.append(index)
            else:
                have[index] = stripe[index]
        degraded += bool(lost) or max(have, default=0) >= meta.k
        if len(have) < meta.k:
            error = (
                f"{meta.codec} stripe unrecoverable: {len(lost)} shard(s) "
                f"failed ({sorted(lost)}), only {len(have)}/{meta.k} required shards readable"
            )
            return payloads, asked, error, (degraded, 1)
        payloads.append(codec_for_meta(meta).decode(meta, have))
    return payloads, asked, None, (degraded, 0)


@pytest.mark.parametrize("spec", WINDOW_CODECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_stripes_equals_a_loop_of_read_stripe(spec, data):
    payloads, encoded = _encoded_window(spec)
    meta = encoded[0][0]
    failing = data.draw(
        st.sets(
            st.tuples(
                st.integers(0, len(encoded) - 1), st.integers(0, meta.n - 1)
            ),
            max_size=2 * meta.n,
        )
    )
    label = meta.codec
    want, want_asked, want_error, want_counts = _one_stripe_at_a_time(encoded, failing)

    fetch_many, rounds = _scripted_fetch_many(encoded, failing)
    metas = [m for m, _ in encoded]
    before = _read_counters(label)
    if want_error is not None:
        with pytest.raises(ReconstructionError) as caught:
            read_slabs(metas, fetch_many)
        # The first unrecoverable stripe, in the same words.
        assert str(caught.value) == want_error
    else:
        got = payloads_of(metas, read_slabs(metas, fetch_many))
        assert got == want == payloads
        asked = [request for requests in rounds for request in requests]
        assert len(asked) == len(set(asked))  # nothing asked twice
        assert set(asked) == want_asked
    assert (
        tuple(b - a for a, b in zip(before, _read_counters(label)))
        == want_counts
    )

    # Round 0 is the data members; a later round asks a stripe for no more
    # than it is still short of, and a healthy stripe for no parity at all.
    assert set(rounds[0]) == {
        (number, index)
        for number in range(len(encoded))
        for index in range(meta.k)
    }
    have = {number: 0 for number in range(len(encoded))}
    for requests in rounds:
        per_stripe = {}
        for number, index in requests:
            per_stripe[number] = per_stripe.get(number, 0) + 1
        if requests is not rounds[0]:
            assert all(
                count <= meta.k - have[number]
                for number, count in per_stripe.items()
            )
        for request in requests:
            have[request[0]] += request not in failing


def _encoded_any(spec):
    """:func:`_encoded_window`, or with ``"mixed"`` one window of three
    geometries, as a file re-encoded in part holds."""
    if spec != "mixed":
        return _encoded_window(spec)
    payloads, encoded = [], []
    for part in ("raid5@4", "rs(6,3)", "raid6@5"):
        more, stripes = _encoded_window(part)
        payloads += more
        encoded += stripes
    return payloads, encoded


@pytest.mark.parametrize("spec", [*WINDOW_CODECS, "mixed"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_read_around_distrusted_members_equals_the_loop_in_their_order(spec, data):
    # Each member on a provider of its own, some of them distrusted: the
    # read asks each stripe's members in its order -- trusted ones first,
    # lowest index first -- round 0 its first k, seated as decode_data
    # reads them, and each distrusted provider's counter counts the data
    # members round 0 left to parity.
    payloads, encoded = _encoded_any(spec)
    metas = [meta for meta, _ in encoded]
    slots = [(number, index) for number, meta in enumerate(metas) for index in range(meta.n)]
    distrusted = data.draw(st.sets(st.sampled_from(slots), max_size=len(slots)))
    failing = data.draw(st.sets(st.sampled_from(slots), max_size=2 * metas[0].n))
    want, want_asked, want_error, want_counts = _one_stripe_at_a_time(
        encoded, failing, distrusted
    )
    counters = {slots.index(slot): Counter() for slot in distrusted}
    first = [sum(meta.n for meta in metas[:number]) for number in range(len(metas))]
    layout = (first, list(range(len(slots))), counters)  # a provider a member
    fetch_many, rounds = _scripted_fetch_many(encoded, failing)
    labels = sorted({meta.codec for meta in metas})
    before = [_read_counters(label) for label in labels]
    if want_error is not None:
        with pytest.raises(ReconstructionError) as caught:
            read_slabs(metas, fetch_many, layout)
        assert str(caught.value) == want_error
    else:
        assert payloads_of(metas, read_slabs(metas, fetch_many, layout)) == want == payloads
        asked = [request for requests in rounds for request in requests]
        assert len(asked) == len(set(asked))  # nothing asked twice
        assert set(asked) == want_asked
    deltas = [
        tuple(b - a for a, b in zip(was, _read_counters(label)))
        for was, label in zip(before, labels)
    ]
    assert tuple(map(sum, zip(*deltas))) == want_counts
    first_k = {
        (number, index)
        for number, meta in enumerate(metas)
        for index in _order(number, meta, distrusted)[: meta.k]
    }
    assert set(rounds[0]) == first_k
    assert {slots[at] for at, counter in counters.items() if counter.value} == {
        (number, index) for number, index in distrusted
        if index < metas[number].k and (number, index) not in first_k
    }
    assert all(counter.value <= 1 for counter in counters.values())


def test_read_stripes_of_nothing_fetches_nothing():
    def fetch_many(numbers, indices):
        raise AssertionError("an empty window has nothing to ask for")

    assert list(read_slabs([], fetch_many)) == []


def test_read_stripes_refuses_an_answer_of_the_wrong_length():
    _, encoded = _encoded_window("raid5@4")
    with pytest.raises(ValueError):
        read_slabs([m for m, _ in encoded], lambda numbers, indices: [])


def test_decode_histogram_observes_decode_not_fetch():
    # Regression: the timer used to start before the fetch loop, so a slow
    # provider showed up as decode time.
    _, encoded = _encoded_window("raid5@4")
    seconds = get_metrics().histogram("raid_decode_seconds", codec="raid5")
    count, total = seconds.count, seconds.sum

    def slow_fetch_many(numbers, indices):
        time.sleep(0.05)
        return [
            encoded[number][1][index]
            for number, index in zip(numbers.tolist(), indices.tolist())
        ]

    list(read_slabs([m for m, _ in encoded], slow_fetch_many))
    assert seconds.count == count + 1  # once per decode_data call
    assert seconds.sum - total < 0.04
