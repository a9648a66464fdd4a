"""Virtual-id allocation (Section IV-A).

Inside the Cloud Data Distributor "each chunk is given a unique virtual id
and this id is used to identify the chunk within the Cloud Data Distributor
and Cloud Providers.  This virtualization conceals the identity of a client
from the provider."  A provider storing a chunk therefore only ever sees an
opaque integer key -- never the client name, filename, or serial number.

The paper's Cloud Provider Table (Table I) shows snapshot copies stored
under a distinguishable key (``S16948`` for chunk ``16948``); we model that
with :func:`snapshot_key`.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.errors import MetadataCorruptedError
from repro.util.rng import SeedLike, derive_rng

#: Virtual ids are drawn from this half-open range; the paper's examples use
#: 5-digit ids (10986, 16948, ...) so we default to the same order of
#: magnitude but allow far more ids before exhaustion.
ID_SPACE = 10_000_000


class VirtualIdAllocator:
    """Allocates unique, unpredictable virtual ids.

    Ids are drawn pseudo-randomly (so a provider cannot infer upload order
    or client grouping from adjacent ids) and uniqueness is enforced with a
    seen-set.  The allocator is deterministic given its seed.
    """

    def __init__(self, seed: SeedLike = None, id_space: int = ID_SPACE) -> None:
        if id_space < 2:
            raise ValueError(f"id_space must be >= 2, got {id_space}")
        self._rng = derive_rng(seed)
        self._id_space = id_space
        self._used: set[int] = set()

    def allocate(self) -> int:
        """Return a fresh virtual id, never previously returned."""
        return self.allocate_many(1)[0]

    def allocate_many(self, count: int) -> list[int]:
        """*count* fresh virtual ids, in the order *count* :meth:`allocate`
        calls would return them.

        One vector draw, then a redraw of only as many as collided with
        an id in use (or an earlier one of the same draw).  The generator
        hands out the same stream to a vector draw as to scalar ones, so
        the ids -- and the generator's state after them -- are those of
        the scalar calls.
        """
        used, rng, space = self._used, self._rng, self._id_space
        if len(used) + count > space:
            raise RuntimeError("virtual id space exhausted")
        vids: list[int] = []
        while short := count - len(vids):
            # Fewer than three ids (an update's one, a small file's two)
            # come cheaper as scalar draws than as a vector: the same
            # numbers, without the array.
            drawn = (
                rng.integers(0, space, short).tolist()
                if short >= 3
                else [int(rng.integers(0, space)) for _ in range(short)]
            )
            for vid in drawn:
                if vid not in used:
                    used.add(vid)
                    vids.append(vid)
        return vids

    def reserve(self, vid: int) -> None:
        """Mark *vid* as used (e.g. when rebuilding state from metadata)."""
        if vid in self._used:
            raise ValueError(f"virtual id {vid} already in use")
        self._used.add(vid)

    def release(self, vid: int) -> None:
        """Return *vid* to the free pool after its chunk is removed."""
        self._used.discard(vid)

    @property
    def allocated_count(self) -> int:
        return len(self._used)

    def __contains__(self, vid: int) -> bool:
        return vid in self._used

    def export_state(self) -> dict:
        """Serializable snapshot (used-id set) for replication."""
        return {"used": sorted(self._used), "id_space": self._id_space}

    def import_state(self, state: dict) -> None:
        """Refill from :meth:`export_state` output; a malformed one raises
        :class:`MetadataCorruptedError` and changes nothing."""
        try:
            id_space, used = int(state["id_space"]), set(state["used"])
            if not all(type(vid) is int for vid in used):
                raise TypeError("a used id is not an integer")
        except (LookupError, TypeError, ValueError) as exc:
            raise MetadataCorruptedError(f"ids: {exc}") from None
        self._id_space, self._used = id_space, used


def storage_key(virtual_id: int) -> str:
    """The provider-side object key for a live chunk."""
    return str(virtual_id)


def shard_key(virtual_id: int, shard_index: int) -> str:
    """The provider-side object key for one RAID shard of a chunk.

    Each stripe member holds its shard under ``<id>.<shard>``; a provider
    still learns nothing but an opaque key.
    """
    return f"{virtual_id}.{shard_index}"


@lru_cache(maxsize=64)
def _suffixes(width: int) -> tuple[str, ...]:
    """The part of :func:`shard_key` after the id, for shards ``0..width-1``."""
    return tuple(f".{index}" for index in range(width))


def stripe_keys(virtual_ids: Iterable[int], width: int) -> list[str]:
    """The keys of whole stripes: :func:`shard_key` of shards ``0..width-1``
    of each virtual id in turn (the write engine's keys, a window at a
    time: each id formatted once, each key one concatenation)."""
    suffixes = _suffixes(width)
    return [prefix + suffix for prefix in map(str, virtual_ids) for suffix in suffixes]


def member_keys(
    prefixes: Sequence[str], rows: Iterable[int], indices: Sequence[int]
) -> list[str]:
    """:func:`shard_key` of shard ``indices[i]`` of row ``rows[i]``, where
    ``prefixes[row]`` is that row's virtual id as a string: the keys of any
    set of members of a window's stripes (a read's round, the shards a
    removal retires), each id formatted once a window by the caller and
    each key one concatenation."""
    suffixes = _suffixes(max(indices, default=-1) + 1)
    return list(map(
        operator.add, map(prefixes.__getitem__, rows), map(suffixes.__getitem__, indices)
    ))


def snapshot_key(virtual_id: int) -> str:
    """The provider-side object key for a chunk's snapshot (pre-state).

    Mirrors Table I of the paper where snapshot copies appear as ``S<id>``.
    """
    return f"S{virtual_id}"
