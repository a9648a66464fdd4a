"""The DHT overlay as a placement source for the distributor (Section IV-C).

"CAN or CHORD like hash tables ... will map each ⟨filename, chunk Sl⟩ pair
to a Cloud Provider."  :class:`OverlayPlacement` is that map behind the
:class:`~repro.core.placement.PlacementPolicy` interface: a chunk's stripe
group is the owner of its key ``filename:serial`` plus the overlay's next
replica holders, one overlay per privacy level.  Everything else -- the
codec, the checksums, the tables, failover -- is the one engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from repro.core.placement import PlacementPolicy, PlacementSnapshot
from repro.core.privacy import PrivacyLevel
from repro.dht.can import CANetwork
from repro.dht.chord import ChordRing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.health.monitor import HealthMonitor
    from repro.providers.registry import ProviderRegistry, RegisteredProvider


class Overlay(Protocol):
    """What the client-side distributor needs from a DHT protocol."""

    @property
    def node_names(self) -> list[str]: ...
    def join(self, name: str): ...
    def leave(self, name: str) -> None: ...
    def nodes_for(self, key: str, r: int = 1) -> list[str]: ...
    def lookup(self, key: str, start: str | None = None): ...
    def __len__(self) -> int: ...


def build_overlays(
    registry: ProviderRegistry, protocol: str = "chord", dims: int = 2,
    m_bits: int = 32,
) -> dict[PrivacyLevel, Overlay]:
    """One overlay per privacy level, populated with eligible providers."""
    overlays: dict[PrivacyLevel, Overlay] = {}
    for level in PrivacyLevel:
        if protocol == "chord":
            overlay: Overlay = ChordRing(m_bits=m_bits)
        elif protocol == "can":
            overlay = CANetwork(dims=dims)
        else:
            raise ValueError(f"unknown DHT protocol {protocol!r}")
        for entry in registry.eligible(level):
            overlay.join(entry.name)
        overlays[level] = overlay
    return overlays


def chunk_key(filename: str, serial: int) -> str:
    """The ⟨filename, chunk Sl⟩ pair as an overlay key."""
    return f"{filename}:{serial}"


@dataclass
class OverlayPlacement(PlacementPolicy):
    """Stripe groups read off the overlay of the chunk's privacy level.

    A group of width r is ``nodes_for(chunk_key(filename, serial), r)``;
    no draw is made.  The candidates a repair or a write failover picks
    from are the eligible providers that are members of that overlay.
    """

    overlays: Mapping[PrivacyLevel, Overlay] = field(default_factory=dict)

    def candidates(
        self,
        registry: "ProviderRegistry",
        chunk_level: PrivacyLevel | int,
        include_unavailable: bool = False,
        health: "HealthMonitor | None" = None,
    ) -> "list[RegisteredProvider]":
        members = set(self.overlays[PrivacyLevel.coerce(chunk_level)].node_names)
        return [
            entry
            for entry in super().candidates(registry, chunk_level, include_unavailable, health)
            if entry.name in members
        ]

    def stripe_groups(
        self,
        snapshot: PlacementSnapshot,
        width: int,
        count: int,
        load: dict[str, int],
        *,
        filename: str = "",
        serials: Sequence[int] = (),
    ) -> list[list[str]]:
        overlay = self.overlays[snapshot.level]
        groups = [overlay.nodes_for(chunk_key(filename, serial), r=width) for serial in serials]
        for group in groups:
            for name in group:
                load[name] = load.get(name, 0) + 1
        return groups
