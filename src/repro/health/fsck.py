"""``repro fsck``: offline cross-audit of the chunk table vs the fleet.

The journal (:mod:`repro.core.journal`) keeps the *operations* consistent;
fsck is the independent check that the end state actually holds.  It walks
every chunk-table row and every provider's object listing and classifies
each discrepancy:

* **missing** -- a shard or snapshot the tables reference but the provider
  no longer holds;
* **corrupt** -- a shard whose at-rest checksum (cheap ``head``, no payload
  transfer) drifted from the checksum recorded at write time;
* **orphans** -- provider objects no table references (crash litter, failed
  deletes) -- snapshot-keyed orphans are reported separately as **stale
  snapshots** since they mean a chunk's pre-state outlived it (an update
  the journal no longer covers, a retire whose delete failed);
* **unreachable** -- providers that cannot be listed (their objects can be
  neither confirmed nor condemned);
* **unknown codec** -- chunk-table rows whose codec spec this build cannot
  parse (quarantined at metadata load instead of crashing the boot); their
  shards stay untouched on the providers and the row is reported here so
  the operator knows those chunks need a newer build (or a metadata fix)
  to read.

With ``repair=True`` the damage is driven back to clean: missing/corrupt
shards are rebuilt through the scrubber (RAID reconstruction + relocation),
orphans and stale snapshots are deleted, and the audit reruns so the
returned report reflects the *post*-repair state -- a second
``run_fsck(..., repair=False)`` pass is the convergence check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.errors import BlobNotFoundError, ProviderError
from repro.core.virtual_id import shard_key, snapshot_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributor import CloudDataDistributor


@dataclass(frozen=True)
class FsckIssue:
    """One missing or corrupt object referenced by the tables."""

    virtual_id: int
    shard_index: int  # -1 for the chunk's snapshot object
    provider: str
    problem: str  # "missing" | "corrupt"

    @property
    def key(self) -> str:
        if self.shard_index < 0:
            return snapshot_key(self.virtual_id)
        return shard_key(self.virtual_id, self.shard_index)


@dataclass
class FsckReport:
    """Everything one fsck pass found (and, with repair, fixed)."""

    providers_checked: int = 0
    shards_checked: int = 0
    snapshots_checked: int = 0
    missing: list[FsckIssue] = field(default_factory=list)
    corrupt: list[FsckIssue] = field(default_factory=list)
    orphans: dict[str, list[str]] = field(default_factory=dict)
    stale_snapshots: dict[str, list[str]] = field(default_factory=dict)
    unreachable: list[str] = field(default_factory=list)
    unknown_codec: list[tuple[int, str]] = field(default_factory=list)
    # (virtual id, unparseable codec spec string)
    # Repair outcome (only populated by run_fsck(..., repair=True)):
    repaired: bool = False
    shards_rebuilt: int = 0
    chunks_unrecoverable: int = 0
    orphans_deleted: int = 0

    @property
    def clean(self) -> bool:
        return not (
            self.missing
            or self.corrupt
            or any(self.orphans.values())
            or any(self.stale_snapshots.values())
            or self.unknown_codec
        )

    def to_json(self) -> dict:
        def issues(items: list[FsckIssue]) -> list[dict]:
            return [
                {
                    "virtual_id": i.virtual_id,
                    "shard_index": i.shard_index,
                    "provider": i.provider,
                    "key": i.key,
                }
                for i in items
            ]

        return {
            "clean": self.clean,
            "providers_checked": self.providers_checked,
            "shards_checked": self.shards_checked,
            "snapshots_checked": self.snapshots_checked,
            "missing": issues(self.missing),
            "corrupt": issues(self.corrupt),
            "orphans": self.orphans,
            "stale_snapshots": self.stale_snapshots,
            "unreachable": self.unreachable,
            "unknown_codec": [
                {"virtual_id": vid, "codec": spec}
                for vid, spec in self.unknown_codec
            ],
            "repaired": self.repaired,
            "shards_rebuilt": self.shards_rebuilt,
            "chunks_unrecoverable": self.chunks_unrecoverable,
            "orphans_deleted": self.orphans_deleted,
        }

    def summary(self) -> str:
        orphan_count = sum(len(v) for v in self.orphans.values())
        stale_count = sum(len(v) for v in self.stale_snapshots.values())
        text = (
            f"fsck: {self.shards_checked} shards + {self.snapshots_checked} "
            f"snapshots across {self.providers_checked} providers -- "
            f"{len(self.missing)} missing, {len(self.corrupt)} corrupt, "
            f"{orphan_count} orphan(s), {stale_count} stale snapshot(s), "
            f"{len(self.unreachable)} unreachable, "
            f"{len(self.unknown_codec)} unknown codec(s)"
        )
        if self.repaired:
            text += (
                f"; repaired: {self.shards_rebuilt} shards rebuilt, "
                f"{self.orphans_deleted} orphan(s) deleted, "
                f"{self.chunks_unrecoverable} chunk(s) unrecoverable"
            )
        return text

    def render_text(self) -> str:
        lines = [self.summary()]
        for issue in self.missing:
            lines.append(
                f"  missing: {issue.key} at {issue.provider} "
                f"(chunk {issue.virtual_id})"
            )
        for issue in self.corrupt:
            lines.append(
                f"  corrupt: {issue.key} at {issue.provider} "
                f"(chunk {issue.virtual_id})"
            )
        for name, keys in sorted(self.orphans.items()):
            preview = ", ".join(keys[:5]) + (" ..." if len(keys) > 5 else "")
            lines.append(f"  orphans at {name}: {preview}")
        for name, keys in sorted(self.stale_snapshots.items()):
            preview = ", ".join(keys[:5]) + (" ..." if len(keys) > 5 else "")
            lines.append(f"  stale snapshots at {name}: {preview}")
        for name in self.unreachable:
            lines.append(f"  unreachable: {name}")
        for vid, spec in self.unknown_codec:
            lines.append(
                f"  unknown codec: chunk {vid} uses {spec!r} "
                "(quarantined; needs a newer build to read)"
            )
        lines.append("clean" if self.clean else "NOT clean")
        return "\n".join(lines)


def _audit(distributor: "CloudDataDistributor") -> FsckReport:
    """One read-only pass: list, cross-reference, head-check."""
    report = FsckReport()
    with distributor.op_lock:
        # provider name -> key -> (the object as an issue still unjudged,
        # its expected checksum or None)
        expected: dict[str, dict[str, tuple[FsckIssue, str | None]]] = {
            name: {} for name in distributor.registry.names()
        }
        providers = distributor.provider_table
        for _, entry in distributor.chunk_table:
            vid = entry.virtual_id
            checksums = None if entry.quarantined else entry.record.shard_checksums
            if entry.quarantined:
                report.unknown_codec.append((vid, str(entry.packed.codec)))
            for shard_index, name in enumerate(providers.names(entry.provider_indices)):
                expected[name][shard_key(vid, shard_index)] = (
                    FsckIssue(vid, shard_index, name, ""),
                    checksums[shard_index] if checksums is not None else None,
                )
            if entry.snapshot_index is not None:
                name = providers.get(entry.snapshot_index).name
                # Snapshot checksums are untracked.
                expected[name][snapshot_key(vid)] = (FsckIssue(vid, -1, name, ""), None)
        report.unknown_codec.sort()

    for name in sorted(expected):
        provider = distributor.registry.get(name).provider
        try:
            present = set(provider.keys())
        except ProviderError:
            report.unreachable.append(name)
            continue
        report.providers_checked += 1
        for key, (issue, checksum) in sorted(expected[name].items()):
            if issue.shard_index < 0:
                report.snapshots_checked += 1
            else:
                report.shards_checked += 1
            problem = None if key in present else "missing"
            if problem is None and checksum is not None:
                try:
                    if provider.head(key).checksum != checksum:
                        problem = "corrupt"
                except BlobNotFoundError:
                    problem = "missing"
                except ProviderError:
                    # Listed a moment ago but now unanswerable; treat the
                    # provider as flaky rather than condemning the shard.
                    if name not in report.unreachable:
                        report.unreachable.append(name)
            if problem is not None:
                getattr(report, problem).append(replace(issue, problem=problem))
        loose = sorted(present - set(expected[name]))
        stale = [k for k in loose if k.startswith("S")]
        orphan = [k for k in loose if not k.startswith("S")]
        if orphan:
            report.orphans[name] = orphan
        if stale:
            report.stale_snapshots[name] = stale
    return report


def _delete_loose(
    distributor: "CloudDataDistributor", report: FsckReport
) -> int:
    """Delete every orphan / stale snapshot the audit condemned."""
    return distributor._delete_objects(
        (name, key)
        for loose in (report.orphans, report.stale_snapshots)
        for name, keys in loose.items()
        for key in keys
    )


def run_fsck(
    distributor: "CloudDataDistributor", repair: bool = False
) -> FsckReport:
    """Audit (and optionally repair) one deployment.

    Without *repair* this is strictly read-only.  With it, missing and
    corrupt shards are rebuilt via the scrubber's RAID repair, loose
    objects are deleted, and the audit runs again so the returned report
    describes the deployment *after* repair (``clean`` is the convergence
    verdict; ``chunks_unrecoverable`` counts stripes repair could not
    save).
    """
    report = _audit(distributor)
    if not repair or (report.clean and not report.unreachable):
        return report

    from repro.health.scrubber import Scrubber

    # Loose objects go first: a scrubber relocation may re-home a shard
    # onto any provider, and a key it just wrote must not be deleted by a
    # stale pre-repair orphan list.
    orphans_deleted = _delete_loose(distributor, report)
    scrub = Scrubber(distributor, probe_fleet=False).run_once()

    after = _audit(distributor)
    after.repaired = True
    after.shards_rebuilt = scrub.shards_rebuilt
    after.chunks_unrecoverable = scrub.chunks_unrecoverable
    after.orphans_deleted = orphans_deleted
    return after
