"""Deterministic crash injection: kill the process at every registered
kill point, reboot, and prove recovery + fsck restore the invariants.

Each case simulates one power cut via :func:`crashing_at`, then boots a
fresh distributor over the same on-disk state the way the CLI does
(metadata snapshot -> journal recovery -> save -> checkpoint) and asserts:

* ``repro fsck --repair`` converges: the post-repair report is clean and
  a second read-only pass stays clean (no orphaned provider objects, no
  missing shards);
* an unrelated file survives byte-exact;
* the interrupted operation resolved to one of its two legal end states
  (fully applied or fully rolled back) -- never a torn middle;
* a full upload -> get -> remove round trip works afterwards;
* the tables have no holes: every client ref resolves and every file's
  serials are contiguous.
"""

from __future__ import annotations

import io
from collections import defaultdict

import pytest

from repro.core import distributor as distributor_module
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError, UnknownFileError
from repro.core.journal import IntentJournal, recover_from_journal
from repro.core.persistence import load_metadata, save_metadata
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.virtual_id import shard_key
from repro.health.fsck import run_fsck
from repro.providers.base import CloudProvider
from repro.providers.disk import DiskProvider
from repro.providers.registry import ProviderRegistry
from repro.util.crash import KILL_POINTS, CrashPoint, crashing_at

N_PROVIDERS = 6
KEEP = bytes(range(256)) * 8  # 2048 bytes -> 8 PRIVATE chunks
VICTIM = bytes(reversed(range(256))) * 8
CRASHED = b"\xab" * 2048
STREAMED = CRASHED[:768]  # 3 PRIVATE chunks
NEW_CHUNK = b"\x5a" * 128
UPDATED_VICTIM = NEW_CHUNK + VICTIM[256:]  # PRIVATE chunk size is 256
# update_chunks of serials 0 and 5 at once
UPDATED_TWICE = NEW_CHUNK + VICTIM[256:1280] + NEW_CHUNK + VICTIM[1536:]


def _fleet(root) -> ProviderRegistry:
    registry = ProviderRegistry()
    for i in range(N_PROVIDERS):
        registry.register(
            DiskProvider(f"D{i}", root / "providers" / f"D{i}"),
            PrivacyLevel.PRIVATE,
            CostLevel(1),
        )
    return registry


def boot(root):
    """One CLI-style process start over the deployment under *root*."""
    journal = IntentJournal(root / "journal.jsonl")
    distributor = CloudDataDistributor(
        _fleet(root),
        chunk_policy=ChunkSizePolicy(sizes=(4096, 1024, 512, 256)),
        seed=7,
        max_transport_workers=1,
        journal=journal,
    )
    meta = root / "meta.json"
    if meta.exists():
        load_metadata(distributor, meta)
    report = recover_from_journal(distributor, journal)
    save_metadata(distributor, meta)
    journal.checkpoint()
    return distributor, report


def _setup(root) -> CloudDataDistributor:
    distributor, _ = boot(root)
    distributor.register_client("Bob")
    distributor.add_password("Bob", "pw", PrivacyLevel.PRIVATE)
    distributor.upload_file("Bob", "pw", "keep", KEEP, PrivacyLevel.PRIVATE)
    distributor.upload_file("Bob", "pw", "victim", VICTIM, PrivacyLevel.PRIVATE)
    save_metadata(distributor, root / "meta.json")
    distributor.journal.checkpoint()
    return distributor


def _op_for(distributor: CloudDataDistributor, point: str, streamed: bool):
    """The operation that exercises *point* (chosen by its prefix)."""
    if point.startswith("remove."):
        return lambda: distributor.remove_file("Bob", "pw", "victim")
    if point.startswith("update."):
        return lambda: distributor.update_chunk(
            "Bob", "pw", "victim", 0, NEW_CHUNK
        )
    if streamed:
        # One chunk per window: the same engine, three windows deep.
        return lambda: distributor.put_stream(
            "Bob", "pw", "crashed", io.BytesIO(STREAMED), PrivacyLevel.PRIVATE,
            window_chunks=1,
        )
    # The low-level atomic/disk/journal points fire under an upload too.
    return lambda: distributor.upload_file(
        "Bob", "pw", "crashed", CRASHED, PrivacyLevel.PRIVATE
    )


def _assert_no_table_holes(distributor: CloudDataDistributor) -> None:
    for _, entry in distributor.chunk_table:
        assert not entry.quarantined
        assert entry.virtual_id in distributor.ids
    client = distributor.client_table.get("Bob")
    serials: dict[str, list[int]] = defaultdict(list)
    for ref in client.chunk_refs:
        assert distributor.chunk_table.get(ref.chunk_index) is not None
        serials[ref.filename].append(ref.serial)
    for filename, found in serials.items():
        assert sorted(found) == list(range(len(found))), (filename, found)


# fleet.* points fire only on the cross-shard migration path; their crash
# matrix lives in tests/fleet/test_migration.py.
SINGLE_NODE_POINTS = sorted(p for p in KILL_POINTS if not p.startswith("fleet."))

# A streamed upload hits the per-window points once per window; crashing at
# the *second* hit leaves a committed-but-invisible first window behind.
CRASHES = [pytest.param(p, False, 0, id=p) for p in SINGLE_NODE_POINTS] + [
    pytest.param("upload.intent_logged", True, 1, id="upload.intent_logged-w2"),
    pytest.param("upload.transferred", True, 1, id="upload.transferred-w2"),
    pytest.param("upload.committed", True, 0, id="upload.committed-stream"),
]


@pytest.mark.parametrize("point, streamed, after", CRASHES)
def test_recovery_restores_invariants(tmp_path, point, streamed, after):
    distributor = _setup(tmp_path)
    op = _op_for(distributor, point, streamed)
    with crashing_at(point, after=after) as reached:
        with pytest.raises(CrashPoint):
            op()
    assert point in reached  # the op genuinely passed through this point

    # -- reboot over the torn state ------------------------------------
    rebooted, _ = boot(tmp_path)
    report = run_fsck(rebooted, repair=True)
    assert report.clean, report.render_text()
    assert run_fsck(rebooted).clean  # convergence: second pass stays clean

    # Unrelated data is untouched.
    assert rebooted.get_file("Bob", "pw", "keep") == KEEP

    # The interrupted op landed in one of its two legal end states.
    if point.startswith("remove."):
        with pytest.raises(UnknownFileError):
            rebooted.get_file("Bob", "pw", "victim")
    elif point.startswith("update."):
        assert rebooted.get_file("Bob", "pw", "victim") in (
            VICTIM, UPDATED_VICTIM,
        )
    else:
        try:
            assert rebooted.get_file("Bob", "pw", "crashed") == (
                STREAMED if streamed else CRASHED
            )
        except UnknownFileError:
            pass  # rolled back entirely: equally legal

    # The deployment is fully writable again.
    rebooted.upload_file("Bob", "pw", "rt", KEEP, PrivacyLevel.PRIVATE)
    assert rebooted.get_file("Bob", "pw", "rt") == KEEP
    rebooted.remove_file("Bob", "pw", "rt")
    _assert_no_table_holes(rebooted)


def test_remove_dying_between_windows_is_finished_at_boot(
    tmp_path, monkeypatch
):
    """``remove.partial`` falls between a remove's windows.  Eight chunks
    in windows of three, dead after the second: six chunks are gone from
    tables and providers alike, two are whole, and recovery finishes the
    job from the intent record."""
    monkeypatch.setattr(distributor_module, "REMOVE_WINDOW_CHUNKS", 3)
    distributor = _setup(tmp_path)
    homes = [
        [
            (distributor.provider_table.get(t).name, shard_key(entry.virtual_id, i))
            for i, t in enumerate(entry.provider_indices)
        ]
        for entry in (
            distributor.chunk_table.get(ref.chunk_index)
            for ref in distributor.client_table.get("Bob").refs_for_file("victim")
        )
    ]
    widths = [len(home) for home in homes]

    def stored() -> list[int]:
        return [
            sum(
                distributor.registry.get(name).provider.contains(key)
                for name, key in home
            )
            for home in homes
        ]

    assert stored() == widths
    with crashing_at("remove.partial", after=1) as reached:
        with pytest.raises(CrashPoint):
            distributor.remove_file("Bob", "pw", "victim")
    assert reached.count("remove.partial") == 2
    assert stored() == [0] * 6 + widths[6:]
    left = distributor.client_table.get("Bob").refs_for_file("victim")
    assert [ref.serial for ref in left] == [6, 7]

    rebooted, report = boot(tmp_path)
    assert report.rolled_forward == 1
    assert report.objects_deleted == sum(widths[6:])
    assert run_fsck(rebooted).clean
    with pytest.raises(UnknownFileError):
        rebooted.get_file("Bob", "pw", "victim")
    assert rebooted.get_file("Bob", "pw", "keep") == KEEP
    _assert_no_table_holes(rebooted)


@pytest.mark.parametrize(
    "point", sorted(p for p in KILL_POINTS if p.startswith("update."))
)
def test_a_crashed_several_chunk_update_lands_whole_or_not_at_all(tmp_path, point):
    """Two chunks in one update: recovery finds both new or both old,
    with nothing left over for ``fsck`` even before a repair."""
    distributor = _setup(tmp_path)
    with crashing_at(point):
        with pytest.raises(CrashPoint):
            distributor.update_chunks(
                "Bob", "pw", "victim", {0: NEW_CHUNK, 5: NEW_CHUNK}
            )
    rebooted, _ = boot(tmp_path)
    assert run_fsck(rebooted).clean, run_fsck(rebooted).render_text()
    assert rebooted.get_file("Bob", "pw", "victim") in (VICTIM, UPDATED_TWICE)
    _assert_no_table_holes(rebooted)


def test_an_update_cut_before_its_commit_record_keeps_the_old_version(
    tmp_path, monkeypatch
):
    """Power lost while an update's commit record is half written: the
    update never committed, so recovery rolls it back -- which leaves the
    chunk readable only if the old version was still whole.  It is: the
    old stripe is retired after the commit record, never before."""
    distributor = _setup(tmp_path)
    commit = IntentJournal.commit

    def torn(journal, txn, delta):
        with crashing_at("journal.append.torn"):
            commit(journal, txn, delta)

    monkeypatch.setattr(IntentJournal, "commit", torn)
    with pytest.raises(CrashPoint):
        distributor.update_chunk("Bob", "pw", "victim", 0, NEW_CHUNK)
    monkeypatch.undo()

    rebooted, report = boot(tmp_path)
    assert (report.rolled_back, report.rolled_forward) == (1, 0)
    assert rebooted.get_file("Bob", "pw", "victim") == VICTIM
    assert run_fsck(rebooted).clean
    _assert_no_table_holes(rebooted)


def test_an_update_failed_over_then_cut_leaves_no_object_behind(
    tmp_path, monkeypatch
):
    """One provider refuses the update's shard, write failover re-places
    it on a spare, and the power goes before the commit.  The spare's
    copy is in the journal before the kill point, so recovery's rollback
    deletes it with the rest: no orphan is left for ``fsck`` to find."""
    distributor = _setup(tmp_path)
    refused: list[str] = []
    put_many = CloudProvider.put_many

    def refuse_once(provider, items, checksums=None):
        if not refused:
            refused.append(provider.name)
            return [ProviderUnavailableError(f"{provider.name} refuses")] * len(items)
        return put_many(provider, items, checksums=checksums)

    monkeypatch.setattr(DiskProvider, "put_many", refuse_once)
    with crashing_at("update.staged"):
        with pytest.raises(CrashPoint):
            distributor.update_chunk("Bob", "pw", "victim", 0, NEW_CHUNK)
    monkeypatch.undo()
    assert refused

    rebooted, report = boot(tmp_path)
    assert report.rolled_back == 1
    assert run_fsck(rebooted).clean, run_fsck(rebooted).render_text()
    assert rebooted.get_file("Bob", "pw", "victim") == VICTIM
    _assert_no_table_holes(rebooted)


def test_double_recovery_is_idempotent(tmp_path):
    """Crashing *during recovery's own cleanup* must also be survivable:
    running recovery twice converges to the same state."""
    distributor = _setup(tmp_path)
    with crashing_at("upload.transferred"):
        with pytest.raises(CrashPoint):
            distributor.upload_file(
                "Bob", "pw", "crashed", CRASHED, PrivacyLevel.PRIVATE
            )
    # First reboot recovers; boot() checkpoints, but replay the same
    # journal again by hand to model a crash before the checkpoint.
    journal = IntentJournal(tmp_path / "journal.jsonl")
    first, _ = boot(tmp_path)
    recover_from_journal(first, journal)  # second run over resolved txns
    assert run_fsck(first, repair=True).clean
    assert first.get_file("Bob", "pw", "keep") == KEEP


def test_clean_boot_reports_nothing(tmp_path):
    distributor = _setup(tmp_path)
    assert distributor.get_file("Bob", "pw", "victim") == VICTIM
    _, report = boot(tmp_path)
    assert report.rolled_back == 0
    assert report.rolled_forward == 0
    assert report.objects_deleted == 0
