"""Stripe decoding with degraded reads and shard rebuild.

"[RAID] guarantees successful retrieval of data in case of a cloud provider
being blocked by any unlikely event or going out of business" (Section
III-B).  :func:`read_stripes` fetches a window's data shards first and
falls back, round by round, to parity decoding where members are missing
(:func:`read_stripe` is the window of one); :func:`rebuild_shard`
regenerates a lost shard for re-replication to a replacement provider.

Decoding and rebuild are dispatched through the chunk's
:class:`~repro.raid.codecs.ErasureCodec` (resolved from
``StripeMeta.codec``), so these entry points work unchanged for the
legacy RAID families and the general ``rs``/``aont-rs`` codecs alike.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.errors import ProviderError, ReconstructionError
from repro.obs.metrics import get_metrics
from repro.raid.striping import StripeMeta


def _decode(meta: StripeMeta, shards: dict[int, bytes]) -> bytes:
    """Reassemble the original payload from enough shards of a stripe."""
    from repro.raid.codecs import codec_for_meta

    return codec_for_meta(meta).decode(meta, shards)


def read_stripes(
    metas: Sequence[StripeMeta],
    fetch_many: Callable[
        [np.ndarray, np.ndarray], "Sequence[bytes | ProviderError]"
    ],
    prefer_data: bool = True,
) -> list[tuple[bytes, list[int]]]:
    """Fetch and decode a window of stripes, in rounds; returns one
    ``(payload, failed idxs)`` per stripe: the per-stripe view of
    :func:`read_slabs`.
    """
    from repro.raid.codecs import slab_payloads

    slabs, lost = _read(metas, fetch_many, prefer_data)
    return list(zip(slab_payloads(metas, slabs), lost))


def read_slabs(
    metas: Sequence[StripeMeta],
    fetch_many: Callable[
        [np.ndarray, np.ndarray], "Sequence[bytes | ProviderError]"
    ],
) -> "Iterator[tuple[int, bytes | bytearray]]":
    """Fetch and decode a window of stripes, in rounds, into slabs of whole
    stripes as the decode leaves them (:meth:`ErasureCodec.decode_data`),
    each decoded as the caller asks for it: the read engine's form, each
    slab stripped before the next is decoded."""
    return _read(metas, fetch_many, True)[0]


def _read(
    metas: Sequence[StripeMeta],
    fetch_many: Callable[
        [np.ndarray, np.ndarray], "Sequence[bytes | ProviderError]"
    ],
    prefer_data: bool,
) -> "tuple[Iterator[tuple[int, bytes | bytearray]], list[list[int]]]":
    """The window's slabs, and each stripe's failed members.

    *fetch_many* takes a round's requests as two integer arrays, the
    stripe number and the shard index of each, and answers each, in
    order, with the shard bytes or the :class:`ProviderError` that kept
    them (unavailable, lost, corrupt).  With ``prefer_data=True`` (the
    default read path) round 0 asks for every stripe's k data members, and
    each later round asks, for every stripe still short of k good members,
    for exactly as many untried members as it is short of, lowest index
    first -- so parity is only pulled when data shards fail, and never
    more of it than could be needed.  With ``prefer_data=False`` round 0
    asks for all n members of every stripe -- parity included -- for
    verify-style callers that want every member exercised and every
    failure surfaced in ``failed`` (in the order asked).  Raises
    :class:`ReconstructionError` for the first stripe with too many failed
    shards.

    The window is decoded from k *slots* a stripe, its data members'
    answers to round 0 as they came, in member order
    (:meth:`ErasureCodec.decode_data`).  When every one arrived that is
    all.  Otherwise one pass over the answers finds the failed ones; each
    leaves its slot open, and a later member that arrives (parity) fills
    an open slot of its stripe.  The Python work past that pass is per
    failed member and per stripe that lost one, not per shard; and a
    stripe that lost none is filed nowhere.
    """
    count = len(metas)
    if not count:
        return iter(()), []
    want = [meta.k if prefer_data else meta.k + meta.m for meta in metas]
    if min(want) == max(want):  # one geometry: a grid
        numbers, indices, members = _grid(count, want[0])
    else:
        members = [index for wanted in want for index in range(wanted)]
        numbers, indices = np.arange(count).repeat(want), np.array(members, np.int64)
    outcomes = _ask(fetch_many, numbers, indices)
    if prefer_data and _BYTES.issuperset(map(type, outcomes)):
        # Every stripe's data members, in order, and all arrived.
        nothing: list[int] = []  # (shared: nothing failed anywhere)
        return _decode_window(metas, outcomes, members), [nothing] * count

    slots, extra = list(outcomes), None
    if not prefer_data:  # the data members' answers are the slots
        data = (indices < np.repeat([meta.k for meta in metas], want)).tolist()
        spare = list(map(operator.not_, data))
        extra = [list(itertools.compress(column, spare))
                 for column in (numbers.tolist(), members, outcomes)]
        slots, members = (list(itertools.compress(column, data)) for column in (outcomes, members))
        numbers = numbers[data]
    members = list(members)  # each slot's member, as slots fill
    failed: dict[int, list[int]] = {}  # stripe -> its failed members, as asked
    holes: dict[int, list[int]] = {}  # stripe -> its open slots
    arrived = map(_BYTES.__contains__, map(type, slots))
    for slot in itertools.compress(itertools.count(), map(operator.not_, arrived)):
        number = numbers.item(slot)
        if number in holes:
            failed[number].append(members[slot])
            holes[number].append(slot)
        else:
            failed[number], holes[number] = [members[slot]], [slot]

    def take(asked: list[int], tried_members: list[int], answers: Sequence) -> list[int]:
        """File a round's answers; returns the stripes a member failed."""
        again: dict[int, None] = {}
        for number, index, answer in zip(asked, tried_members, answers):
            if type(answer) not in _BYTES:
                failed.setdefault(number, []).append(index)
                again[number] = None
            elif holes.get(number):  # (else a member to spare)
                slot = holes[number].pop(0)
                slots[slot], members[slot] = answer, index
        return list(again)

    if extra is not None:  # (and no later round: every member was asked)
        take(*extra)
    tried: dict[int, int] = {}  # stripe -> members tried, where past its k
    short = list(holes) if extra is None else []
    while short:
        asked: list[int] = []
        more_members: list[int] = []
        for number in short:
            meta = metas[number]
            first = tried.get(number, meta.k)
            more = min(len(holes[number]), meta.k + meta.m - first)
            if more > 0:
                asked += [number] * more
                more_members += range(first, first + more)
                tried[number] = first + more
        if not asked:
            break
        short = take(asked, more_members, _ask(fetch_many, np.array(asked), np.array(more_members)))

    unrecoverable = next((number for number, open_slots in holes.items() if open_slots), count)
    _account(metas, failed, unrecoverable, holes)
    none: list[int] = []  # (shared by every stripe that lost nothing)
    lost = [none] * count
    for number, members_lost in failed.items():
        lost[number] = members_lost
    return _decode_window(metas, slots, members), lost


def _ask(fetch_many, numbers: np.ndarray, indices: np.ndarray) -> list:
    outcomes = fetch_many(numbers, indices)
    if len(outcomes) != len(numbers):
        raise ValueError(
            f"{len(outcomes)} answers to a round of {len(numbers)} requests"
        )
    return outcomes


def _account(
    metas: Sequence[StripeMeta],
    failed: dict[int, list[int]],
    first: int,
    holes: dict[int, list[int]],
) -> None:
    """Count the degraded stripes up to stripe *first*, the first one with
    an open slot, and raise :class:`ReconstructionError` for that one if
    there is one -- what a loop of :func:`read_stripe` counts and raises."""
    metrics = get_metrics()
    degraded: dict[str, int] = {}
    for number in failed:
        if number <= first:
            label = metas[number].codec
            degraded[label] = degraded.get(label, 0) + 1
    for label, n in degraded.items():
        metrics.counter("raid_degraded_reads_total", codec=label).inc(n)
    if first < len(metas):
        meta, lost = metas[first], failed[first]
        metrics.counter("raid_unrecoverable_reads_total", codec=meta.codec).inc()
        raise ReconstructionError(
            f"{meta.codec} stripe unrecoverable: "
            f"{len(lost)} shard(s) failed ({lost}), "
            f"only {meta.k - len(holes[first])}/{meta.k} required shards readable"
        )


def _decode_window(
    metas: Sequence[StripeMeta], shards: Sequence[bytes], members: Sequence[int]
) -> "Iterator[tuple[int, bytes | bytearray]]":
    """The window's slabs, a run of one codec at a time, from k members a
    stripe: *shards*, stripe after stripe, and *members* their member
    indices (:meth:`ErasureCodec.decode_data`), each decoded when the
    caller asks for it."""
    from repro.raid.codecs import codec_for_meta

    at = 0
    for _, run in itertools.groupby(metas, _CODEC):
        run = list(run)
        codec = codec_for_meta(run[0])
        end = at + codec.k * len(run)
        yield from codec.decode_data(run, shards[at:end], members[at:end])
        at = end


_CODEC = operator.attrgetter("codec", "width")


@lru_cache(maxsize=64)
def _grid(count: int, width: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Round 0 of *count* stripes asked for *width* members each: the
    stripe number and member index of every request, and the indices as
    ints (read-only, shared: a one-chunk read asks the same grid every
    time)."""
    numbers, indices = np.divmod(np.arange(count * width), width)
    numbers.flags.writeable = indices.flags.writeable = False
    return numbers, indices, tuple(range(width)) * count


_BYTES = frozenset((bytes, bytearray, memoryview))


def read_stripe(
    meta: StripeMeta,
    fetch: Callable[[int], bytes],
    prefer_data: bool = True,
) -> tuple[bytes, list[int]]:
    """Fetch shards and decode; returns (payload, failed idxs).

    :func:`read_stripes` over a window of one: *fetch* maps shard index
    -> shard bytes and may raise :class:`ProviderError` for
    unavailable/lost/corrupt shards.
    """

    def fetch_many(numbers: np.ndarray, indices: np.ndarray) -> list:
        outcomes: list = []
        for index in indices.tolist():
            try:
                outcomes.append(fetch(index))
            except ProviderError as exc:
                outcomes.append(exc)
        return outcomes

    return read_stripes([meta], fetch_many, prefer_data)[0]


def rebuild_shard(
    meta: StripeMeta, index: int, shards: dict[int, bytes]
) -> bytes:
    """Regenerate shard *index* from the surviving *shards*."""
    if not (0 <= index < meta.n):
        raise ValueError(f"shard index {index} out of range 0..{meta.n - 1}")
    shard = _rebuild(meta, index, shards)
    get_metrics().counter(
        "raid_shards_rebuilt_total", codec=meta.codec
    ).inc()
    return shard


def _rebuild(meta: StripeMeta, index: int, shards: dict[int, bytes]) -> bytes:
    from repro.raid.codecs import codec_for_meta

    return codec_for_meta(meta).rebuild(meta, index, shards)
