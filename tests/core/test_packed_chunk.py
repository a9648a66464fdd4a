"""The packed per-chunk row is packed and unpacked in one place.

``repro.raid.codecs.PackedChunk`` is the only code that knows the layout of
a ``chunk_state`` row of ``metadata.json`` and of the ``stripe`` /
``rotation`` / ``checksums`` keys of a journal chunk spec.  Every codec
family, with and without checksums, in the 7-field layout from before
checksum tracking and under a codec this build cannot parse, goes through
``export_metadata``, ``_chunk_spec`` -> ``_restore_spec`` and the quarantine
(a Chunk Table row whose ``record`` is the packed row as loaded) and comes
back as the parent commit (e833a21) wrote it -- and the files that commit
wrote (``tests/core/data``, made by running the distributor there)
load here and are written back byte for byte.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import UnknownCodecError
from repro.core.journal import (
    IntentJournal,
    RecoveryReport,
    _restore_spec,
    recover_from_journal,
)
from repro.core.persistence import load_metadata, save_metadata
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry
from repro.raid.codecs import PackedChunk

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[2] / "src" / "repro"
FAMILIES = ["raid0@2", "raid1@3", "raid5@4", "raid6", "rs(6,3)", "aont-rs(4,2)"]
PAYLOAD = bytes(range(256)) * 3  # three chunks at 256


class _Holding(InMemoryProvider):
    """Answers for every key: recovery finds each journalled shard alive."""

    def contains(self, key: str) -> bool:
        return True


def distributor(provider_cls=InMemoryProvider, **kwargs) -> CloudDataDistributor:
    registry = ProviderRegistry()
    for i in range(9):
        registry.register(provider_cls(f"M{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(256), seed=2022,
        metrics=MetricsRegistry(), **kwargs,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d


def quarantined(d) -> dict:
    """vid -> the packed row as loaded, of every quarantined chunk."""
    return {e.virtual_id: e.record for _, e in d.chunk_table if e.quarantined}


def as_json(value):
    return json.loads(json.dumps(value))


# -- the rows, in every shape they were ever written --------------------------

SHAPES = {
    "checksums": lambda row: tuple(row),
    "no-checksums": lambda row: tuple(row[:7]) + (None,),
    "seven-field": lambda row: tuple(row[:7]),
    "unknown-codec": lambda row: ("zfec(4,2)",) + tuple(row[1:]),
    "unknown-codec-seven-field": lambda row: ("zfec(4,2)",) + tuple(row[1:7]),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("family", FAMILIES)
def test_a_row_survives_every_way_through_the_codec(family, shape):
    d = distributor(codec=family)
    d.upload_file("C", "pw", "f", PAYLOAD, PrivacyLevel.PRIVATE,
                  misleading_fraction=0.1)
    snapshot = d.export_metadata()
    rows = {vid: SHAPES[shape](row) for vid, row in snapshot["chunk_state"].items()}
    snapshot["chunk_state"] = dict(rows)
    d.import_metadata(snapshot)

    # export_metadata: a quarantined row verbatim; a parsed one in the
    # 8-field layout (the 7-field row gains its ``None``, as it always did).
    unknown = shape.startswith("unknown")
    expected = rows if unknown else {
        vid: row if len(row) == 8 else row + (None,) for vid, row in rows.items()
    }
    assert d.export_metadata()["chunk_state"] == expected
    assert set(quarantined(d)) == (set(rows) if unknown else set())

    # _chunk_spec -> _restore_spec -> _chunk_spec and export_metadata again.
    refs = d.client_table.get("C").refs_for_file("f")
    specs = [as_json(d._chunk_spec("C", ref)) for ref in refs]
    for spec, ref in zip(specs, refs):
        row = rows[spec["vid"]]
        assert spec["stripe"] == list(row[:6]) and spec["rotation"] == row[6]
        assert spec["checksums"] == (row[7] if len(row) == 8 else None)
    fresh = distributor(_Holding)
    for spec in specs:
        _restore_spec(fresh, spec, RecoveryReport())
    fresh_refs = fresh.client_table.get("C").refs_for_file("f")
    assert [as_json(fresh._chunk_spec("C", ref)) for ref in fresh_refs] == specs
    assert as_json(fresh.export_metadata()["chunk_state"]) == as_json(
        {vid: row if len(row) == 8 else row + (None,) for vid, row in rows.items()}
    )
    if unknown:
        with pytest.raises(UnknownCodecError):
            fresh.get_file("C", "pw", "f")


def test_the_codec_names_a_row_it_cannot_parse():
    row = ("zfec(4,2)", 6, 4, 2, 100, 400, 1)
    packed = PackedChunk(*row)
    assert (packed.codec, packed.shard_size, packed.orig_len) == ("zfec(4,2)", 100, 400)
    assert packed.checksums is None and tuple(packed)[:7] == row
    with pytest.raises(UnknownCodecError) as refusal:
        packed.unpack(virtual_id=7)
    assert refusal.value.virtual_id == 7
    assert PackedChunk.from_journal(packed.journal_fields()) == packed


def test_nothing_outside_the_codec_indexes_a_row():
    # What the six former readers looked like: packed[0], packed[4],
    # packed[:6], stripe[2], _codec_quarantine[vid][4] ...  Looked for in
    # every module that touches a row (the GF(2^8) kernels have a "packed"
    # of their own).
    handles_rows = re.compile(
        r"\.quarantined|PackedChunk|\.packed\b|chunk_state\b|\"stripe\""
    )
    indexes_one = re.compile(
        r"\b(?:packed|stripe|row|record)\s*\[\s*[-\d:]"
    )
    scanned, offenders = [], []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if path.relative_to(SRC) == Path("raid/codecs.py") or not handles_rows.search(text):
            continue
        scanned.append(path.name)
        offenders += [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for number, line in enumerate(text.splitlines(), 1)
            if indexes_one.search(line)
        ]
    assert {
        "distributor.py", "journal.py", "fsck.py", "exposure.py", "shard.py",
        "tables.py", "persistence.py",
    } <= set(scanned)
    assert offenders == []


# -- what e833a21 wrote ---------------------------------------------------------


def test_a_metadata_file_of_the_parent_commit_is_written_back_byte_for_byte(tmp_path):
    d = distributor()
    load_metadata(d, DATA / "e833a21_metadata.json")
    # It holds a quarantined row of each layout beside the six families.
    assert sorted(len(row) for row in quarantined(d).values()) == [7, 8]
    assert len(d.chunk_table) - len(quarantined(d)) == 15
    save_metadata(d, tmp_path / "metadata.json")
    assert (tmp_path / "metadata.json").read_bytes() == (
        DATA / "e833a21_metadata.json"
    ).read_bytes()


def test_a_journal_of_the_parent_commit_recovers_to_the_specs_it_holds(tmp_path):
    journal_path = tmp_path / "journal.log"
    shutil.copy(DATA / "e833a21_journal.log", journal_path)
    journal = IntentJournal(journal_path)
    expected: dict[int, dict] = {}
    for txn in journal.replay():
        assert txn.state == "committed"
        for spec in txn.delta["remove"]:
            del expected[spec["vid"]]
        for spec in txn.delta["add"]:
            expected[spec["vid"]] = spec
    d = distributor(_Holding)
    report = recover_from_journal(d, journal)
    assert report.chunks_restored >= len(expected) and report.chunks_dropped == 0
    client = d.client_table.get("C")
    recovered = {
        d.chunk_table.get(ref.chunk_index).virtual_id: d._chunk_spec("C", ref)
        for name in client.filenames()
        for ref in client.refs_for_file(name)
    }
    assert as_json(recovered) == as_json(expected)
    # One committed spec names a codec this build cannot parse.
    assert [PackedChunk(*row).codec for row in quarantined(d).values()] == [
        "zfec(4,2)"
    ]
