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
import time
from functools import lru_cache
from typing import Callable, Sequence

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
    ``(payload, failed idxs)`` per stripe.

    *fetch_many* takes a round's requests as two integer arrays, the
    stripe number and the shard index of each, and answers each, in
    order, with the shard bytes or the :class:`ProviderError` that kept
    them (unavailable, lost, corrupt).  With ``prefer_data=True`` (the
    default read path) round 0 asks for every stripe's k data members, and
    each later round asks, for every stripe still short of k good members,
    for exactly as many untried members as it is short of, in index order
    -- so parity is only pulled when data shards fail, and never more of
    it than could be needed.  With ``prefer_data=False`` round 0 asks for
    all n members of every stripe -- parity included -- for verify-style
    callers that want every member exercised and every failure surfaced in
    ``failed``.  Raises :class:`ReconstructionError` for the first stripe
    with too many failed shards.  A window whose data members all arrive
    in round 0 is decoded from them as they came, with no per-shard pass.
    """
    count = len(metas)
    if not count:
        return []
    want = [meta.k if prefer_data else meta.k + meta.m for meta in metas]
    if min(want) == max(want):  # one geometry: a grid
        numbers, indices = _grid(count, want[0])
    else:
        numbers = np.arange(count).repeat(want)
        indices = np.array([index for wanted in want for index in range(wanted)], np.int64)
    first = True
    while len(numbers):
        outcomes = fetch_many(numbers, indices)
        if len(outcomes) != len(numbers):
            raise ValueError(
                f"{len(outcomes)} answers to a round of {len(numbers)} requests"
            )
        if first and prefer_data and _BYTES.issuperset(map(type, outcomes)):
            # Every stripe's data members, in order, and all arrived.
            none: list[int] = []  # (shared: nothing failed anywhere)
            return [(payload, none) for payload in _decode_window(metas, outcomes, joined=True)]
        if first:
            shards: list[dict[int, bytes]] = [{} for _ in metas]
            failed: list[list[int]] = [[] for _ in metas]
        first = False
        short: dict[int, None] = {}  # the stripes a member failed, in order
        for number, index, outcome in zip(
            numbers.tolist(), indices.tolist(), outcomes
        ):
            if isinstance(outcome, ProviderError):
                failed[number].append(index)
                short[number] = None
            else:
                shards[number][index] = outcome
        # Each asks for as many untried members as it is short of, from its
        # first untried one (members are tried in index order, so the tried
        # ones are a prefix of the stripe).
        asked: list[int] = []
        members: list[int] = []
        for number in short:
            have, meta = len(shards[number]), metas[number]
            tried = have + len(failed[number])
            more = min(meta.k - have, meta.k + meta.m - tried)
            asked += [number] * more
            members += range(tried, tried + more)
        numbers, indices = np.array(asked, np.int64), np.array(members, np.int64)

    metrics = get_metrics()
    for meta, have, lost in zip(metas, shards, failed):
        if not lost:
            continue
        metrics.counter("raid_degraded_reads_total", codec=meta.codec).inc()
        if len(have) < meta.k:
            metrics.counter(
                "raid_unrecoverable_reads_total", codec=meta.codec
            ).inc()
            raise ReconstructionError(
                f"{meta.codec} stripe unrecoverable: "
                f"{len(lost)} shard(s) failed ({lost}), "
                f"only {len(have)}/{meta.k} required shards readable"
            )

    return list(zip(_decode_window(metas, shards, joined=False), failed))


def _decode_window(metas: Sequence[StripeMeta], shards: list, joined: bool) -> list[bytes]:
    """Each stripe's payload, a run of one codec at a time: from *shards*,
    one ``{index: bytes}`` a stripe, or (*joined*) every stripe's k data
    members end to end (:meth:`ErasureCodec.decode_data`)."""
    from repro.raid.codecs import codec_for_meta

    metrics = get_metrics()
    payloads: list[bytes] = []
    labels = [(meta.codec, meta.width) for meta in metas]
    at = 0
    for (label, _width), run in itertools.groupby(range(len(metas)), labels.__getitem__):
        run = list(run)
        codec, run_metas = codec_for_meta(metas[run[0]]), metas[run[0] : run[-1] + 1]
        t0 = time.perf_counter()
        if joined:
            members = codec.k * len(run)
            payloads += codec.decode_data(run_metas, shards[at : at + members])
            at += members
        else:
            payloads += codec.decode_many(list(zip(run_metas, shards[run[0] : run[-1] + 1])))
        metrics.histogram("raid_decode_seconds", codec=label).observe(
            time.perf_counter() - t0
        )
    return payloads


@lru_cache(maxsize=64)
def _grid(count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Round 0 of *count* stripes asked for *width* members each: the
    stripe number and member index of every request (read-only, shared:
    a one-chunk read asks the same grid every time)."""
    numbers, indices = np.divmod(np.arange(count * width), width)
    numbers.flags.writeable = indices.flags.writeable = False
    return numbers, indices


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
