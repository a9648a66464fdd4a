"""Stripe decoding with degraded reads and shard rebuild.

"[RAID] guarantees successful retrieval of data in case of a cloud provider
being blocked by any unlikely event or going out of business" (Section
III-B).  :func:`read_slabs` fetches a window's data shards first -- but
not from a provider the health monitor distrusts -- and falls back, round
by round, to parity decoding where members are missing;
:func:`rebuild_shard` regenerates a lost shard for re-replication to a
replacement provider.

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
from repro.obs.metrics import Counter, get_metrics
from repro.raid.striping import StripeMeta


def read_slabs(
    metas: Sequence[StripeMeta],
    fetch_many: Callable[
        [np.ndarray, np.ndarray], "Sequence[bytes | ProviderError]"
    ],
    distrusted: "tuple[Sequence[int], Sequence[int], dict[int, Counter]] | None" = None,
) -> "Iterator[tuple[int, bytes | bytearray]]":
    """Fetch and decode a window of stripes, in rounds, into slabs of whole
    stripes as the decode leaves them (:meth:`ErasureCodec.decode_data`),
    each decoded as the caller asks for it: the read engine's form, each
    slab stripped before the next is decoded.

    *fetch_many* takes a round's requests as two integer arrays, the
    stripe number and the shard index of each, and answers each, in
    order, with the shard bytes or the :class:`ProviderError` that kept
    them (unavailable, lost, corrupt).  Each stripe asks its members in
    one order: round 0 its first k, and each later round, for every stripe
    still short of k good members, exactly as many untried members as it
    is short of -- so parity is only pulled when a data member is not to
    be had, and never more of it than could be needed.  The order is the
    members' own unless *distrusted* names providers the health monitor
    does not rate HEALTHY (:func:`_distrust`); then a stripe asks its members
    on other providers first.  Every round is asked before this returns;
    raises :class:`ReconstructionError` for the first stripe with too many
    failed shards.

    The window is decoded from k *slots* a stripe, slot i its data member
    i or a parity member standing in for it, as round 0 answered.  When
    every data member arrived that is all.  Otherwise one pass over the
    answers finds the failed ones; each leaves its slot open, and a later
    member that arrives fills an open slot of its stripe (a data member
    its own, the parity there moving to an open one).  The Python work
    past that pass is per failed member and per stripe that lost one, not
    per shard; and a stripe that lost none is filed nowhere.
    """
    count = len(metas)
    if not count:
        return iter(())
    want = [meta.k for meta in metas]
    if min(want) == max(want):  # one geometry: a grid
        numbers, indices, members = _grid(count, want[0])
    else:
        members = [index for wanted in want for index in range(wanted)]
        numbers, indices = np.arange(count).repeat(want), np.array(members, np.int64)
    plan = _distrust(want, *distrusted) if distrusted else None
    if plan is not None:  # some members on distrusted providers
        indices, ranked, offsets, rerouted = plan
        members = indices.tolist()
        starts = list(itertools.accumulate(want, initial=0))  # each stripe's first slot
    slots = _ask(fetch_many, numbers, indices)
    if plan is None and _BYTES.issuperset(map(type, slots)):
        # Every stripe's data members, in order, and all arrived.
        return _decode_window(metas, slots, members)

    slots, members = list(slots), list(members)  # each slot's member, as slots fill
    # stripe -> its failed members, as asked; a stripe that read parity in
    # place of a distrusted member is degraded with none failed
    failed: dict[int, list[int]] = {number: [] for number in rerouted} if plan is not None else {}
    holes: dict[int, list[int]] = {}  # stripe -> its open slots
    arrived = map(_BYTES.__contains__, map(type, slots))
    for slot in itertools.compress(itertools.count(), map(operator.not_, arrived)):
        number = numbers.item(slot)
        failed.setdefault(number, []).append(members[slot])
        holes.setdefault(number, []).append(slot)

    tried: dict[int, int] = {}  # stripe -> members tried, where past its k
    short = list(holes)
    while short:
        asked: list[int] = []
        more_members: list[int] = []
        for number in short:
            meta = metas[number]
            first = tried.get(number, meta.k)
            more = min(len(holes[number]), meta.k + meta.m - first)
            if more > 0:
                asked += [number] * more
                if plan is None:
                    more_members += range(first, first + more)
                else:  # the stripe's next members in its order
                    at = offsets[number] + first
                    more_members += ranked[at : at + more]
                tried[number] = first + more
        if not asked:
            break
        answers = _ask(fetch_many, np.array(asked), np.array(more_members))
        again: dict[int, None] = {}  # the stripes a member failed this round
        for number, index, answer in zip(asked, more_members, answers):
            if type(answer) not in _BYTES:
                failed[number].append(index)
                again[number] = None
                continue
            # (a round asks a stripe for no more than its open slots)
            open_slots = holes[number]
            if index < want[number]:  # a data member asked late, so under a plan: its own slot
                slot = starts[number] + index
                if slot in open_slots:
                    open_slots.remove(slot)
                else:  # parity stands in for it there, and moves to an open slot
                    moved = open_slots.pop(0)
                    slots[moved], members[moved] = slots[slot], members[slot]
            else:
                slot = open_slots.pop(0)
            slots[slot], members[slot] = answer, index
        short = list(again)

    unrecoverable = next((number for number, open_slots in holes.items() if open_slots), count)
    _account(metas, failed, unrecoverable, holes)
    return _decode_window(metas, slots, members)


def _distrust(
    want: list[int],
    first: "Sequence[int] | np.ndarray",
    members: "Sequence[int] | np.ndarray",
    counters: "dict[int, Counter]",
) -> "tuple[np.ndarray, list[int], list[int], list[int]] | None":
    """The order a window's stripes ask their members in, when some sit on
    the distrusted providers, the keys of *counters*: each stripe's members
    on other providers first, lowest index first, then the distrusted
    ones, lowest index first.  Row *r*'s member i is on provider
    ``members[first[r] + i]`` and its k is ``want[r]``.

    Returns round 0's member indices -- each stripe's first k members as
    :meth:`ErasureCodec.decode_data` seats them, data member i in slot i
    and the parity asked, lowest first, in the slots of the data members
    not asked; then every row's order, rows joined, with each row's offset
    in it; and the stripes that read parity in round 0.  Each provider's
    counter moves once, by the data members round 0 leaves to parity.
    ``None`` when no member is on a distrusted provider: then the order is
    the members' own.  Columns, not a loop a stripe."""
    homes = np.asarray(members)
    hit = np.zeros(len(homes), bool)
    for home in counters:  # (a few providers at most)
        hit |= homes == home
    if not hit.any():
        return None
    # (A few numpy calls a window whatever its size: a one-chunk read pays
    # their fixed cost, not np.isin's or np.diff's.)
    offsets = np.asarray(first)
    slot = np.arange(len(homes))
    row = offsets.searchsorted(slot, "right") - 1
    index = slot - offsets[row]
    data = index < np.array(want)[row]
    order = np.lexsort((index, hit, row))  # rows stay where they are
    asked = np.empty_like(data)
    asked[order] = data  # the first k of each row's order: place p of a row is index p
    seats = index[data]
    seats[~asked[data]] = index[asked & ~data]  # as many a row as it skips
    skipped = data & ~asked  # (a trusted data member is always asked)
    tally = np.bincount(homes[skipped])  # (not np.unique: its first call imports numpy.ma)
    for home in tally.nonzero()[0].tolist():
        counters[home].inc(tally.item(home))
    rerouted = np.bincount(row[skipped]).nonzero()[0].tolist()
    return seats, index[order].tolist(), offsets.tolist(), rerouted


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
    there is one -- as a read of the stripes one at a time would stop
    there."""
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
            f"{len(lost)} shard(s) failed ({sorted(lost)}), "
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
