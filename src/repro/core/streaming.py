"""Constant-memory streaming upload/download through the distributor.

``upload_file``/``get_file`` hand the distributor's data path one window
holding the whole file -- fine for the paper's chunk-scale experiments,
fatal for arbitrarily large files.  This module feeds the *same* engines
(:meth:`CloudDataDistributor._upload_windows` and
:meth:`CloudDataDistributor._read_rows`) bounded windows instead: a
buffer of ``window_chunks`` chunks is read, encoded, placed and
transferred before the next window is read, so peak memory is O(window),
not O(file).

The wire cooperates: :meth:`RemoteProvider.put_stream` /
:meth:`RemoteProvider.get_stream` carry each large shard as its own frame
over a STREAM_PUT/STREAM_GET session instead of one aggregate batch
payload, and the server rolls back a window whose sender dies mid-stream.

Atomicity is the engine's: committed windows stay *invisible* (no client
ref points at their chunks) until the final commit, and any failure
deletes every chunk the stream created.  One caveat is inherent to
streaming: chunk *metadata* (tables, checksums) is O(chunks), roughly
half a kilobyte per chunk -- multi-gigabyte files should raise
``chunk_size`` (e.g. to 1 MiB) so metadata stays small while the byte
path stays O(window).
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Generator, Iterator

from repro.core import chunking
from repro.core.misleading import row_payloads
from repro.core.privacy import PrivacyLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributor import CloudDataDistributor, FileReceipt
    from repro.crypto.stream import StreamCipher
    from repro.raid.codecs import CodecSpec
    from repro.raid.striping import RaidLevel

#: Chunks per window.  Uploads keep one window on the wire while the next
#: is read and planned, so peak upload memory is roughly ``window_chunks *
#: chunk_size`` for the read buffer plus *two* windows' encoded shards
#: (times the codec's storage overhead).
DEFAULT_WINDOW_CHUNKS = 8


def _read_windows(
    fileobj, chunk_size: int, window_chunks: int
) -> "Iterator[tuple[list[bytes | memoryview], bool]]":
    """Windows of chunk payloads over one reused buffer, as the upload
    engine takes them: ``(payloads, last)`` with ``last`` set on a window
    the read under-filled (``read_into`` only does that at EOF).

    Chunk boundaries are byte-identical to ``split`` of the whole file,
    and an empty *file* still yields one empty chunk.
    """
    window = bytearray(window_chunks * chunk_size)
    with memoryview(window) as view:
        filled = chunking.read_into(fileobj, view)
        while True:
            last = filled < len(window)
            payloads = [
                view[off : min(off + chunk_size, filled)]
                for off in range(0, filled, chunk_size)
            ]
            yield payloads or [b""], last
            if last:
                return
            filled = chunking.read_into(fileobj, view)
            if filled == 0:
                return


def put_stream(
    dist: "CloudDataDistributor",
    client: str,
    password: str,
    filename: str,
    fileobj,
    level: "PrivacyLevel | int",
    codec: "CodecSpec | RaidLevel | str | None" = None,
    misleading_fraction: float = 0.0,
    chunk_size: int | None = None,
    window_chunks: int = DEFAULT_WINDOW_CHUNKS,
    cipher: "StreamCipher | None" = None,
) -> "FileReceipt":
    """Upload *fileobj* (a readable binary stream) in bounded windows.

    Chunk boundaries are byte-identical to ``split(data)`` of the whole
    file, so ``get_file`` and ``get_stream`` read streamed uploads
    interchangeably.  With *cipher*, each chunk is encrypted with
    ``nonce=serial`` before placement (pass the same cipher to
    :func:`get_stream`).  Returns the same :class:`FileReceipt` as
    ``upload_file``.
    """
    pl = PrivacyLevel.coerce(level)
    dist._authorize_upload(client, password, filename, pl)
    if window_chunks < 1:
        raise ValueError(f"window_chunks must be >= 1, got {window_chunks}")
    if chunk_size is None:
        chunk_size = dist.chunk_policy.chunk_size(pl)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return dist._upload_windows(
        client, pl, filename,
        _read_windows(fileobj, chunk_size, window_chunks),
        codec=codec, misleading_fraction=misleading_fraction, cipher=cipher,
    )


def get_stream(
    dist: "CloudDataDistributor",
    client: str,
    password: str,
    filename: str,
    window_chunks: int = DEFAULT_WINDOW_CHUNKS,
    cipher: "StreamCipher | None" = None,
) -> Iterator[bytes]:
    """Yield *filename*'s plaintext chunk by chunk with O(window) memory.

    Resolution and authorization run eagerly (errors raise here, not in
    the generator, and are audited as a failed ``get_file``); shard
    traffic happens lazily, ``window_chunks`` chunks at a time, and each
    window's shard bytes are released before the next window is fetched.
    ``b"".join(...)`` of the yields equals ``get_file``'s result, and the
    read is audited as one ``get_file`` -- when the generator finishes,
    fails, or is closed early (``ok=False``, naming the abandonment and
    listing only the chunks fetched so far).
    """
    if window_chunks < 1:
        raise ValueError(f"window_chunks must be >= 1, got {window_chunks}")
    op = ("get_file", client, filename, None)
    return _chunks(dist._read_rows(
        dist._resolve_read(op, password, eager=True), window_chunks,
        cipher=cipher, op=op,
    ))


def _chunks(pieces: "Generator[tuple[int, bytes], None, None]") -> Iterator[bytes]:
    """The read engine's pieces cut into their chunks; closing this closes
    the engine (which audits the read as abandoned)."""
    with contextlib.closing(pieces):
        for piece in pieces:
            yield from row_payloads((piece,))
