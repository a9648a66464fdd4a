import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    BlobNotFoundError,
    ProviderUnavailableError,
    ReconstructionError,
)
from repro.obs.metrics import get_metrics
from repro.raid.codecs import CodecSpec
from repro.raid.reconstruct import read_stripe, read_stripes
from repro.raid.striping import RaidLevel, encode_stripe


def _make_fetch(shards, failing=()):
    calls = []

    def fetch(index):
        calls.append(index)
        if index in failing:
            raise ProviderUnavailableError(f"shard {index} down")
        return shards[index]

    return fetch, calls


def test_read_stripe_happy_path_skips_parity():
    payload = bytes(range(120))
    meta, shards = encode_stripe(payload, RaidLevel.RAID5, 4)
    fetch, calls = _make_fetch(shards)
    out, failed = read_stripe(meta, fetch)
    assert out == payload
    assert failed == []
    # Parity shard (index 3) never fetched when data shards are healthy.
    assert 3 not in calls


def test_read_stripe_degraded_uses_parity():
    payload = bytes(range(120))
    meta, shards = encode_stripe(payload, RaidLevel.RAID5, 4)
    fetch, calls = _make_fetch(shards, failing={1})
    out, failed = read_stripe(meta, fetch)
    assert out == payload
    assert failed == [1]
    assert 3 in calls


def test_read_stripe_mixed_error_types():
    payload = b"q" * 64
    meta, shards = encode_stripe(payload, RaidLevel.RAID6, 5)

    def fetch(index):
        if index == 0:
            raise ProviderUnavailableError("down")
        if index == 1:
            raise BlobNotFoundError("lost")
        return shards[index]

    out, failed = read_stripe(meta, fetch)
    assert out == payload
    assert failed == [0, 1]


def test_read_stripe_unrecoverable():
    payload = b"q" * 64
    meta, shards = encode_stripe(payload, RaidLevel.RAID5, 4)
    fetch, _ = _make_fetch(shards, failing={0, 1})
    with pytest.raises(ReconstructionError):
        read_stripe(meta, fetch)


def test_read_stripe_empty_payload():
    meta, shards = encode_stripe(b"", RaidLevel.RAID5, 3)
    fetch, _ = _make_fetch(shards)
    out, failed = read_stripe(meta, fetch)
    assert out == b""


def test_read_stripe_raid1_any_single_copy():
    payload = b"replica"
    meta, shards = encode_stripe(payload, RaidLevel.RAID1, 3)
    fetch, _ = _make_fetch(shards, failing={0, 1})
    out, failed = read_stripe(meta, fetch)
    assert out == payload
    assert failed == [0, 1]


def test_read_stripe_prefer_data_stops_at_k():
    payload = bytes(range(200))
    meta, shards = encode_stripe(payload, RaidLevel.RAID6, 5)
    fetch, calls = _make_fetch(shards)
    out, failed = read_stripe(meta, fetch, prefer_data=True)
    assert out == payload
    assert failed == []
    assert calls == list(range(meta.k))  # stopped once k shards in hand


def test_read_stripe_eager_mode_fetches_all_members():
    # Regression: prefer_data=False used to behave identically to
    # prefer_data=True (the flag was a no-op), so verify-style callers
    # never exercised parity members.  Eager mode must touch all n
    # shards and surface every failure.
    payload = bytes(range(200))
    meta, shards = encode_stripe(payload, RaidLevel.RAID6, 5)
    fetch, calls = _make_fetch(shards)
    out, failed = read_stripe(meta, fetch, prefer_data=False)
    assert out == payload
    assert failed == []
    assert calls == list(range(meta.n))  # every member, parity included

    # A parity-only failure is invisible to the lazy path but must be
    # surfaced by the eager one.
    fetch, calls = _make_fetch(shards, failing={meta.n - 1})
    _, failed_lazy = read_stripe(meta, fetch, prefer_data=True)
    assert failed_lazy == []
    fetch, calls = _make_fetch(shards, failing={meta.n - 1})
    out, failed_eager = read_stripe(meta, fetch, prefer_data=False)
    assert out == payload
    assert failed_eager == [meta.n - 1]
    assert calls == list(range(meta.n))


# -- the window read ----------------------------------------------------------

WINDOW_CODECS = ["raid0@3", "raid1@3", "raid5@4", "raid6@5", "rs(6,3)", "aont-rs(4,2)"]
WINDOW_SIZES = [0, 1, 700, 700, 333, 700]


def _encoded_window(spec):
    codec = CodecSpec.parse(spec).instantiate()
    payloads = [bytes([i + 1]) * size for i, size in enumerate(WINDOW_SIZES)]
    return payloads, codec.encode_many(payloads)


def _read_counters(label):
    metrics = get_metrics()
    return (
        metrics.counter("raid_degraded_reads_total", codec=label).value,
        metrics.counter("raid_unrecoverable_reads_total", codec=label).value,
    )


def _loop_of_read_stripe(encoded, failing):
    """The chunk-serial read: what the window read must be equal to."""
    asked, results = set(), []
    for number, (meta, shards) in enumerate(encoded):

        def fetch(index, number=number, shards=shards):
            asked.add((number, index))
            if (number, index) in failing:
                raise ProviderUnavailableError(f"{number}:{index} down")
            return shards[index]

        results.append(read_stripe(meta, fetch))
    return results, asked


def _scripted_fetch_many(encoded, failing):
    rounds = []

    def fetch_many(numbers, indices):
        requests = list(zip(numbers.tolist(), indices.tolist()))
        rounds.append(requests)
        return [
            ProviderUnavailableError(f"{number}:{index} down")
            if (number, index) in failing
            else encoded[number][1][index]
            for number, index in requests
        ]

    return fetch_many, rounds


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
    before = _read_counters(label)
    try:
        want, want_asked = _loop_of_read_stripe(encoded, failing)
        want_error = None
    except ReconstructionError as exc:
        want, want_error = None, str(exc)
    loop_counts = tuple(b - a for a, b in zip(before, _read_counters(label)))

    fetch_many, rounds = _scripted_fetch_many(encoded, failing)
    before = _read_counters(label)
    if want_error is not None:
        with pytest.raises(ReconstructionError) as caught:
            read_stripes([m for m, _ in encoded], fetch_many)
        # The first unrecoverable stripe, in the loop's own words.
        assert str(caught.value) == want_error
    else:
        got = read_stripes([m for m, _ in encoded], fetch_many)
        assert got == want
        assert [payload for payload, _ in got] == payloads
        asked = [request for requests in rounds for request in requests]
        assert len(asked) == len(set(asked))  # nothing asked twice
        assert set(asked) == want_asked
    assert (
        tuple(b - a for a, b in zip(before, _read_counters(label)))
        == loop_counts
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


def test_read_stripes_eager_mode_asks_for_every_member_in_one_round():
    _, encoded = _encoded_window("raid6@5")
    fetch_many, rounds = _scripted_fetch_many(encoded, {(1, 4), (2, 0)})
    got = read_stripes([m for m, _ in encoded], fetch_many, prefer_data=False)
    assert len(rounds) == 1 and len(rounds[0]) == 5 * len(encoded)
    assert [failed for _, failed in got] == [[], [4], [0], [], [], []]


def test_read_stripes_of_nothing_fetches_nothing():
    def fetch_many(numbers, indices):
        raise AssertionError("an empty window has nothing to ask for")

    assert read_stripes([], fetch_many) == []


def test_read_stripes_refuses_an_answer_of_the_wrong_length():
    _, encoded = _encoded_window("raid5@4")
    with pytest.raises(ValueError):
        read_stripes([m for m, _ in encoded], lambda numbers, indices: [])


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

    read_stripes([m for m, _ in encoded], slow_fetch_many)
    assert seconds.count == count + 1  # once per decode_many call
    assert seconds.sum - total < 0.04
