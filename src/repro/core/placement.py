"""Provider-selection policy (Sections IV-A and IV-B).

Placement applies, in order:

1. **Eligibility** - "A chunk is given to a provider having equal or higher
   privacy level compared to the privacy level of the chunk"; optionally,
   chunks at or above a sensitivity threshold additionally require a
   TCCP-attested provider.
2. **Cost preference** - "in case of equal privacy level, the one with a
   lower cost level is given preference" -- i.e. among eligible providers
   the cheaper cost bucket wins.
3. **Random spread / load balance** - chunks are distributed "in a random
   way" among the preferred providers, tie-breaking toward the least-loaded
   so the fleet fills evenly.

The policy returns a *stripe group*: ``width`` distinct provider names to
hold one chunk's RAID shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.errors import PlacementError
from repro.core.privacy import PrivacyLevel
from repro.providers.registry import ProviderRegistry, RegisteredProvider
from repro.util.rng import SeedLike, derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.health.monitor import HealthMonitor


@dataclass(frozen=True)
class PlacementSnapshot:
    """Eligible providers for one privacy level, each with the part of its
    placement sort key that does not depend on load."""

    level: PrivacyLevel
    ranked: tuple[tuple[tuple[int, ...], str], ...]


@dataclass
class PlacementPolicy:
    """Configurable stripe-group selection.

    ``prefer_cheap``: apply the paper's cost-level preference (disable to
    spread uniformly across all eligible providers regardless of price).
    ``require_attested_at``: if set, chunks with PL >= this threshold only
    go to providers with a valid TCCP attestation.
    ``preferred_regions``: regions in preference order, the paper's
    locality optimization ("storing the chunks in the locations where
    they are frequently used", Section VII-E); providers in earlier
    regions win before cost is considered, unlisted regions rank last.
    """

    prefer_cheap: bool = True
    require_attested_at: PrivacyLevel | None = None
    preferred_regions: tuple[str, ...] = ()
    seed: SeedLike = None

    def _region_rank(self, region: str) -> int:
        try:
            return self.preferred_regions.index(region)
        except ValueError:
            return len(self.preferred_regions)

    def __post_init__(self) -> None:
        self._rng = derive_rng(self.seed)

    # -- candidate filtering -------------------------------------------------

    def candidates(
        self,
        registry: ProviderRegistry,
        chunk_level: PrivacyLevel | int,
        include_unavailable: bool = False,
        health: "HealthMonitor | None" = None,
    ) -> list[RegisteredProvider]:
        """All providers eligible to store a chunk at *chunk_level*.

        Providers currently known to be down are excluded (new shards
        should never target a dark provider) unless
        ``include_unavailable`` is set.  With a *health* monitor attached,
        "down" means the monitor's evidence-based DOWN verdict (which
        covers real disk/socket backends); the simulated-only ``available``
        flag remains honoured as a fallback signal.
        """
        pl = PrivacyLevel.coerce(chunk_level)
        eligible = registry.eligible(pl)
        if (
            self.require_attested_at is not None
            and int(pl) >= int(self.require_attested_at)
        ):
            eligible = [
                e
                for e in eligible
                if registry.attestation.is_attested(e.name)
            ]
        if not include_unavailable:
            eligible = [
                e
                for e in eligible
                if getattr(e.provider, "available", True)
            ]
            if health is not None:
                eligible = [e for e in eligible if health.is_usable(e.name)]
        # Capacity enforcement is coarse (a provider already at its limit
        # stops receiving shards; the shard that crosses the line still
        # lands) -- adequate for steering, not a hard quota.
        eligible = [e for e in eligible if e.has_capacity_for(1)]
        return eligible

    # -- stripe-group selection ------------------------------------------------

    def snapshot(
        self,
        registry: ProviderRegistry,
        chunk_level: PrivacyLevel | int,
        health: "HealthMonitor | None" = None,
    ) -> "PlacementSnapshot":
        """Everything :meth:`stripe_group` needs that no placement changes.

        The eligible providers and each one's load-independent sort key
        (suspect verdict, region rank, cost tier).  A caller placing many
        chunks in one critical section takes it once and hands it to every
        :meth:`stripe_group` call, so the registry and the health monitor
        are consulted per window rather than per chunk.
        """
        ranked = []
        for e in self.candidates(registry, chunk_level, health=health):
            key = []
            if health is not None:
                # Suspect providers (elevated error EWMA) are a last
                # resort: correctness of future reads beats cost.
                key.append(1 if health.suspect(e.name) else 0)
            if self.preferred_regions:
                key.append(self._region_rank(e.region))
            if self.prefer_cheap:
                key.append(int(e.cost_level))
            ranked.append((tuple(key), e.name))
        return PlacementSnapshot(PrivacyLevel.coerce(chunk_level), tuple(ranked))

    def stripe_group(
        self,
        registry: ProviderRegistry,
        chunk_level: PrivacyLevel | int,
        width: int,
        load: dict[str, int] | None = None,
        health: "HealthMonitor | None" = None,
        snapshot: "PlacementSnapshot | None" = None,
    ) -> list[str]:
        """Pick ``width`` distinct provider names for one chunk's stripe.

        ``load`` maps provider name -> current chunk-shard count and is used
        for least-loaded tie-breaking inside a cost tier.  With a *health*
        monitor, DOWN providers are excluded and SUSPECT ones (elevated
        error rate) rank after healthy peers regardless of cost.  With a
        *snapshot* (taken by :meth:`snapshot` for the same level) the
        candidates and their verdicts come from it instead of being
        looked up again.
        Raises :class:`PlacementError` if fewer than ``width`` providers are
        eligible.  :meth:`stripe_groups` for one chunk, charged to a copy
        of *load*.
        """
        if snapshot is None:
            snapshot = self.snapshot(registry, chunk_level, health)
        elif int(snapshot.level) != int(chunk_level):
            raise ValueError(
                f"placement snapshot taken for PL {int(snapshot.level)}, "
                f"asked to place PL {int(chunk_level)}"
            )
        return self.stripe_groups(snapshot, width, 1, dict(load or {}))[0]

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
        """Stripe groups for *count* chunks in a row, as many
        :meth:`stripe_group` calls would pick them with each group charged
        to *load* before the next: the same groups, the same draws.
        *filename* and *serials* name the chunks, for a policy that places
        by name (:class:`repro.dht.placement.OverlayPlacement`); this one
        needs only *count*.

        Validates once; then per chunk one shuffle of the candidates (so
        equal-key providers are picked uniformly) and a stable sort by
        (suspect verdict, region preference, cost tier, load), the first
        *width* of which are the group.  *load* is advanced by one per
        member as it goes.
        """
        if width < 1:
            raise ValueError(f"stripe width must be >= 1, got {width}")
        ranked = snapshot.ranked
        if len(ranked) < width:
            raise PlacementError(
                f"need {width} providers eligible for PL "
                f"{int(snapshot.level)}, only {len(ranked)} available"
            )
        # Each candidate's sort key, kept current as its load is charged,
        # so a chunk's sort asks a dict, not a function, for its keys.
        keyed = {name: (key, load.get(name, 0)) for key, name in ranked}
        names = list(keyed)
        shuffle = self._rng.shuffle
        groups = []
        for _ in range(count):
            shuffled = names.copy()
            shuffle(shuffled)
            shuffled.sort(key=keyed.__getitem__)
            group = shuffled[:width]
            for name in group:
                load[name] = charged = load.get(name, 0) + 1
                keyed[name] = (keyed[name][0], charged)
            groups.append(group)
        return groups

    def max_stripe_width(
        self,
        registry: ProviderRegistry,
        chunk_level: PrivacyLevel | int,
        health: "HealthMonitor | None" = None,
    ) -> int:
        """Largest stripe width placeable at *chunk_level*."""
        return len(self.candidates(registry, chunk_level, health=health))
