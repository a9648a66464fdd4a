"""File fragmentation and reassembly (Sections IV-A and VI).

``split`` cuts a file into fixed-size chunks whose size is dictated by the
file's privacy level (higher sensitivity -> smaller chunks, starving a
single provider of observations); ``join`` is its exact inverse.  Each chunk
carries the parent file's privacy level and its serial number ("Serial no.
corresponds to the position of the chunk within the file").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.core.privacy import ChunkSizePolicy, PrivacyLevel


@dataclass(frozen=True)
class Chunk:
    """One fragment of a client file.

    ``serial`` is the chunk's position in the file, ``level`` is inherited
    from the parent file, and ``payload`` is the raw fragment bytes (before
    any misleading-byte injection).
    """

    serial: int
    level: PrivacyLevel
    payload: bytes

    def __post_init__(self) -> None:
        if self.serial < 0:
            raise ValueError(f"serial must be >= 0, got {self.serial}")

    @property
    def size(self) -> int:
        return len(self.payload)


def equal_length_runs(
    payloads: "Sequence[bytes | memoryview]",
    max_rows: Callable[[int], int],
    beside: "Sequence[Sequence] | None" = None,
) -> Iterator[tuple[int, int, int]]:
    """Cut a window into ``(start, stop, length)`` runs of consecutive
    payloads of one *length*, none longer than ``max_rows(length)``.

    The window stages work on a run as one array operation; a file's
    chunks are all one length but for its tail, so a window is one run
    (plus at most one more) unless ``max_rows`` slabs it for memory.
    With *beside*, one entry per payload, a run also ends where the
    length of those entries changes.  *payloads* may be a 2-D array, its
    rows the payloads: one length throughout.
    """
    shape = getattr(payloads, "shape", None)
    if shape is not None and len(shape) == 2 and beside is None:
        rows, length = shape
        step = max(1, max_rows(length))
        for start in range(0, rows, step):
            yield start, min(start + step, rows), length
        return
    start = 0
    while start < len(payloads):
        length = len(payloads[start])
        limit = min(len(payloads), start + max(1, max_rows(length)))
        stop = start + 1
        while (
            stop < limit
            and len(payloads[stop]) == length
            and (beside is None or len(beside[stop]) == len(beside[start]))
        ):
            stop += 1
        yield start, stop, length
        start = stop


def cut(data: bytes, chunk_size: int) -> list[bytes]:
    """*data* cut into its chunks' payloads, in serial order: what
    :func:`split` numbers, without an object per chunk (the write engine's
    input).  An empty file is one empty payload."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if not data:
        return [b""]
    return [data[off : off + chunk_size] for off in range(0, len(data), chunk_size)]


def split(
    data: bytes,
    level: PrivacyLevel | int,
    policy: ChunkSizePolicy | None = None,
    chunk_size: int | None = None,
) -> list[Chunk]:
    """Split *data* into serially numbered chunks.

    The chunk size comes from *chunk_size* if given, otherwise from
    *policy* (defaulting to the paper's PL-based schedule).  An empty file
    yields a single empty chunk so that every stored file has at least one
    retrievable unit.  The payloads are :func:`cut`'s.
    """
    pl = PrivacyLevel.coerce(level)
    if chunk_size is None:
        chunk_size = (policy or ChunkSizePolicy()).chunk_size(pl)
    return [
        Chunk(serial=i, level=pl, payload=payload)
        for i, payload in enumerate(cut(data, chunk_size))
    ]


def read_into(fileobj, buffer: memoryview) -> int:
    """Fill *buffer* from *fileobj*; returns bytes read (< len at EOF only).

    The streaming upload path's window filler: prefers ``readinto`` (no
    intermediate copy), falls back to ``read`` for file objects without
    it, and always loops -- a short read before EOF (pipes, sockets,
    synthetic streams) must not end the window early or chunk boundaries
    would drift from :func:`split`'s.
    """
    filled = 0
    reader = getattr(fileobj, "readinto", None)
    while filled < len(buffer):
        if reader is not None:
            n = reader(buffer[filled:])
            if n is None:
                raise BlockingIOError(
                    "read_into requires a blocking file object"
                )
        else:
            data = fileobj.read(len(buffer) - filled)
            n = len(data)
            buffer[filled : filled + n] = data
        if n == 0:
            break
        filled += n
    return filled


def join(chunks: list[Chunk]) -> bytes:
    """Reassemble a file from its chunks (inverse of :func:`split`).

    Chunks may arrive in any order; serial numbers must form the contiguous
    range ``0..n-1`` with no duplicates.
    """
    if not chunks:
        raise ValueError("cannot join an empty chunk list")
    ordered = sorted(chunks, key=lambda c: c.serial)
    serials = [c.serial for c in ordered]
    if serials != list(range(len(ordered))):
        raise ValueError(
            f"chunk serials must be contiguous 0..{len(ordered) - 1}, got {serials}"
        )
    return b"".join(c.payload for c in ordered)


def chunk_count(file_size: int, chunk_size: int) -> int:
    """Number of chunks :func:`split` produces for a file of *file_size*."""
    if file_size < 0:
        raise ValueError(f"file_size must be >= 0, got {file_size}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if file_size == 0:
        return 1
    return -(-file_size // chunk_size)
