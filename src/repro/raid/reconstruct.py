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
from typing import Callable, Sequence

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
        [list[tuple[int, int]]], "Sequence[bytes | ProviderError]"
    ],
    prefer_data: bool = True,
) -> list[tuple[bytes, list[int]]]:
    """Fetch and decode a window of stripes, in rounds; returns one
    ``(payload, failed idxs)`` per stripe.

    *fetch_many* takes a round's ``(stripe number, shard index)`` requests
    and answers each, in order, with the shard bytes or the
    :class:`ProviderError` that kept them (unavailable, lost, corrupt).
    With ``prefer_data=True`` (the default read path) round 0 asks for
    every stripe's k data members, and each later round asks, for every
    stripe still short of k good members, for exactly as many untried
    members as it is short of, in index order -- so parity is only pulled
    when data shards fail, and never more of it than could be needed.
    With ``prefer_data=False`` round 0 asks for all n members of every
    stripe -- parity included -- for verify-style callers that want every
    member exercised and every failure surfaced in ``failed``.  Raises
    :class:`ReconstructionError` for the first stripe with too many
    failed shards.
    """
    from repro.raid.codecs import codec_for_meta

    shards: list[dict[int, bytes]] = [{} for _ in metas]
    failed: list[list[int]] = [[] for _ in metas]
    requests = [
        (number, index)
        for number, meta in enumerate(metas)
        for index in range(meta.k if prefer_data else meta.n)
    ]
    short = range(len(metas))  # stripes that may still lack members
    while requests:
        for (number, index), outcome in zip(
            requests, fetch_many(requests), strict=True
        ):
            if isinstance(outcome, ProviderError):
                failed[number].append(index)
            else:
                shards[number][index] = outcome
        short = [n for n in short if len(shards[n]) < metas[n].k]
        requests = []
        for number in short:
            # Members are tried in index order, so the tried ones are a
            # prefix of the stripe.
            tried = len(shards[number]) + len(failed[number])
            want = metas[number].k - len(shards[number])
            requests.extend(
                (number, index)
                for index in range(
                    tried, min(metas[number].n, tried + want)
                )
            )

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

    payloads: list[bytes] = []
    for (label, _width), run in itertools.groupby(
        zip(metas, shards), key=lambda stripe: (stripe[0].codec, stripe[0].width)
    ):
        stripes = list(run)
        t0 = time.perf_counter()
        payloads.extend(codec_for_meta(stripes[0][0]).decode_many(stripes))
        metrics.histogram("raid_decode_seconds", codec=label).observe(
            time.perf_counter() - t0
        )
    return list(zip(payloads, failed))


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

    def fetch_many(requests: list[tuple[int, int]]) -> list:
        outcomes: list = []
        for _, index in requests:
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
