"""RAID stripe layouts over cloud providers (Sections III-B and IV-A).

"While distributing chunks, the distributor applies Redundant Array of
Independent Disks (RAID) strategy...  The default choice is RAID level 5.
In case of higher assurance, RAID level 6 is used."  Following RACS, each
cloud provider plays the role of one disk; a chunk is encoded into a stripe
of ``width`` shards spread over ``width`` distinct providers.

Level semantics (k data shards, m parity shards, n = k + m = width):

* ``RAID0`` - striping only (k=width, m=0): no redundancy.
* ``RAID1`` - mirroring (k=1, m=width-1): each shard is a full copy.
* ``RAID5`` - single XOR parity (k=width-1, m=1): survives any 1 loss.
* ``RAID6`` - double Reed-Solomon parity (k=width-2, m=2): survives any 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from repro.raid.reed_solomon import RSCode


class RaidLevel(Enum):
    RAID0 = "raid0"
    RAID1 = "raid1"
    RAID5 = "raid5"
    RAID6 = "raid6"

    @property
    def min_width(self) -> int:
        return {"raid0": 1, "raid1": 2, "raid5": 3, "raid6": 4}[self.value]

    def shard_counts(self, width: int) -> tuple[int, int]:
        """(data shards k, parity shards m) for a stripe of *width*."""
        if width < self.min_width:
            raise ValueError(
                f"{self.name} needs stripe width >= {self.min_width}, got {width}"
            )
        if self is RaidLevel.RAID0:
            return width, 0
        if self is RaidLevel.RAID1:
            return 1, width - 1
        if self is RaidLevel.RAID5:
            return width - 1, 1
        return width - 2, 2

    @property
    def fault_tolerance(self) -> str:
        """Human description of survivable simultaneous losses."""
        return {
            RaidLevel.RAID0: "none",
            RaidLevel.RAID1: "width-1 losses",
            RaidLevel.RAID5: "any 1 loss",
            RaidLevel.RAID6: "any 2 losses",
        }[self]

    def storage_overhead(self, width: int) -> float:
        """Stored bytes / payload bytes for this level at *width*."""
        k, m = self.shard_counts(width)
        return (k + m) / k


@dataclass(frozen=True)
class StripeMeta:
    """Everything needed to decode a stripe besides the shard bytes.

    ``codec`` is the codec family label exactly as serialized in the
    chunk table: ``"raid5"``-style strings for the legacy RAID families
    (unchanged from when this field held ``RaidLevel.value``) or a spec
    string like ``"rs(6,3)"`` / ``"aont-rs(4,2)"`` for the general
    codecs.  ``level`` is kept as a derived property for raid-family
    stripes; it is ``None`` for the new families.
    """

    codec: str
    width: int
    k: int
    m: int
    shard_size: int
    orig_len: int

    @property
    def n(self) -> int:
        return self.k + self.m

    @property
    def level(self) -> "RaidLevel | None":
        try:
            return RaidLevel(self.codec)
        except ValueError:
            return None


@lru_cache(maxsize=64)
def _rs_code(k: int, m: int, generator: str, label: str) -> RSCode:
    return RSCode(k=k, m=m, generator=generator, label=label)
