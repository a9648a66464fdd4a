"""Misleading-data injection (Sections IV-A and VII-D).

"To ensure greater dimension of privacy, the Cloud Data Distributor may add
misleading data into chunks depending on the demand of clients.  The
positions of misleading data bytes are also maintained by the distributor
and these misleading bytes are removed while providing the chunks to the
clients."

The injected positions are indices into the *stored* (post-injection) byte
string -- exactly what the Chunk Table's ``M`` column records -- so removal
is a pure function of (stored bytes, positions).
"""

from __future__ import annotations

import contextlib
import math
import numbers
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.chunking import equal_length_runs
from repro.obs.metrics import get_metrics
from repro.util.rng import SeedLike, derive_rng, spawn_seeds


#: A window is drawn, and stripped, in slabs of at most this many stored
#: bytes (one chunk when a chunk alone is longer).  The draw holds a float64
#: key and an int64 index per stored byte, 1 MiB of each at this size, so a
#: slab's working set stays in a core's 2 MiB L2 cache.  At 1 << 19 it
#: spills to L3 and a PL-3 window takes about 1.5x as long to draw.  1 << 16
#: and 1 << 18 draw as fast as this; 1 << 16 cuts twice the slabs, and its
#: extra Python calls per chunk break tests/core/test_write_path_cost.py's
#: pin (docs/performance.md, "The misleading kernels in cache").  The strip
#: holds a mask byte and, inside ``compress``, an 8-byte index per stored
#: byte.
SLAB_KEYS = 1 << 17

_UINT32 = np.dtype(np.uint32)  # (a dtype object: the fastest frombuffer)


def _row(packed: bytes) -> np.ndarray:
    """The ``M`` row over *packed*, its positions as native ``uint32``."""
    return np.frombuffer(packed, _UINT32)


#: The ``M`` row of every chunk stored without misleading bytes.
NO_POSITIONS = _row(b"")


def position_row(positions: "np.ndarray | Sequence[int]") -> np.ndarray:
    """*positions* as a row of the Chunk Table's ``M`` column.

    A row is a ``uint32`` array over a ``bytes`` object of exactly its
    size: 4 bytes a position, read-only for good (its memory is immutable),
    nothing it was cut from kept alive, and allocated like any small
    Python object (as arrays owning their data, a file's 2,048 rows were
    2,048 C-heap blocks freed with the file, and uploads read slower than
    with tuples: docs/performance.md).  A row passes through as it is; an
    integer array or a sequence of ``int`` (a tuple, a list parsed from
    JSON) is packed into one.  Anything else -- ``bool``,
    ``float`` or ``str`` members, nesting, a value outside ``[0, 2**32)``
    -- raises ``ValueError``.
    """
    if positions is NO_POSITIONS:
        # Every chunk of every file stored without misleading bytes: told
        # by identity, before anything asks numpy a question.
        return positions
    if isinstance(positions, np.ndarray):
        base = positions.base
        if (
            type(base) is bytes
            and len(base) == positions.nbytes
            and positions.dtype == np.uint32
            and positions.ndim == 1
        ):
            return positions
        values = positions
    else:
        try:
            # Member types first: numpy would take True for 1 and 1.5 for 1.
            ints = set(map(type, positions)) <= {int}
            values = np.array(positions, dtype=np.int64) if ints else None
        except (TypeError, OverflowError):  # not a sequence; past int64
            values = None
    if (
        values is None
        or values.ndim != 1
        or values.dtype.kind not in "iu"
        or (len(values) and not 0 <= values.min() <= values.max() < 1 << 32)
    ):
        raise ValueError(
            "misleading positions are not a flat sequence of integers "
            "in [0, 2**32)"
        )
    if not len(values):
        return NO_POSITIONS
    return _row(values.astype(np.uint32).tobytes())


@dataclass(frozen=True)
class InjectionResult:
    """Stored bytes plus the ``M`` row the Chunk Table must remember."""

    stored: bytes
    positions: np.ndarray

    def __eq__(self, other: object) -> bool:
        # The generated one would ask an array for a single truth value.
        if not isinstance(other, InjectionResult):
            return NotImplemented
        return self.stored == other.stored and np.array_equal(
            self.positions, other.positions
        )


@dataclass(frozen=True)
class InjectionRng:
    """The two streams an injection draws from: positions and fake bytes.

    Each chunk consumes a fixed count from each stream, in chunk order, so
    the draw for a file does not depend on how its chunks were cut into
    windows.  (One shared stream would interleave a window's position
    draws with its fake-byte draws, and that interleaving moves with the
    window size.)
    """

    positions: np.random.Generator
    fakes: np.random.Generator

    @classmethod
    def spawn(cls, seed: SeedLike = None) -> "InjectionRng":
        positions, fakes = spawn_seeds(seed, 2)
        return cls(derive_rng(positions), derive_rng(fakes))


def inject(
    payload: bytes,
    fraction: float,
    rng: "SeedLike | InjectionRng" = None,
    mimic: bool = True,
) -> InjectionResult:
    """Splice misleading bytes into *payload*.

    ``fraction`` is the ratio of misleading bytes to original bytes (0 keeps
    the payload untouched).  With ``mimic=True`` the fake bytes are sampled
    from the payload's own byte distribution so they are not trivially
    distinguishable; otherwise they are uniform random bytes.

    Positions are indices into the returned ``stored`` buffer, sorted
    ascending, and removal with :func:`remove` restores *payload* exactly.
    ``stored`` never aliases *payload*.
    """
    ((stored, rows),) = inject_runs([payload], fraction, rng, mimic)
    return InjectionResult(bytes(stored[0]), position_row(rows[0]))


def check_fraction(fraction: object) -> float:
    """*fraction* as a ratio of misleading bytes to payload bytes: a real,
    finite, non-negative number (``bool`` is not one).  Anything else
    raises ``ValueError``."""
    value = -1.0
    # (Exact types first: they skip the slower ABC check.)
    if type(fraction) in (float, int) or (
        isinstance(fraction, numbers.Real)
        and not isinstance(fraction, (bool, np.bool_))
    ):
        with contextlib.suppress(OverflowError):  # an int past float range
            value = float(fraction)
    if not 0 <= value < math.inf:  # NaN fails both
        raise ValueError(
            f"misleading fraction must be a finite number >= 0, "
            f"got {fraction!r}"
        )
    return value


def inject_runs(
    payloads: "Sequence[bytes | memoryview]",
    fraction: float,
    rng: "SeedLike | InjectionRng" = None,
    mimic: bool = True,
) -> "list[tuple[np.ndarray | Sequence[bytes | memoryview], np.ndarray]]":
    """A window's misleading bytes, injected one run of equal-length
    payloads at a time: ``(stored, rows)`` per run, in window order.

    *stored* holds the run's stored chunks as the rows of one ``uint8``
    array -- or, for a run whose length rounds to no misleading byte, is
    the run's payloads themselves -- and *rows* is the run's ``M`` column:
    a ``uint32`` array with one row of sorted positions a chunk (no column
    at all for a run without misleading bytes).  These are the forms
    :meth:`~repro.raid.codecs.ErasureCodec.encode_window` and
    :meth:`~repro.core.tables.ChunkTable.add_window` take, so the write
    engine stripes and tables a run with no array per chunk.  A run is
    drawn in slabs of bounded size; the draw does not depend on where
    slabs, runs or windows are cut.  A *fraction* :func:`check_fraction`
    refuses raises ``ValueError`` before anything is drawn.
    """
    fraction = check_fraction(fraction)
    if not isinstance(rng, InjectionRng):
        rng = InjectionRng.spawn(rng)
    t0 = time.perf_counter()
    runs: list = []
    injected = 0
    for start, stop, length in equal_length_runs(
        payloads, lambda length: len(payloads)
    ):
        n_fake = int(round(length * fraction))
        if not n_fake:
            runs.append((payloads[start:stop], np.empty((stop - start, 0), _UINT32)))
            continue
        total = length + n_fake
        stored = np.empty((stop - start, total), dtype=np.uint8)
        rows = np.empty((stop - start, n_fake), dtype=_UINT32)
        step = max(1, SLAB_KEYS // total)
        for at in range(0, stop - start, step):
            _inject_slab(
                payloads[start + at : min(start + at + step, stop)], rng, mimic,
                stored[at : at + step], rows[at : at + step],
            )
        runs.append((stored, rows))
        injected += n_fake * (stop - start)
    if injected:
        metrics = get_metrics()
        metrics.histogram("misleading_transform_seconds", op="inject").observe(
            time.perf_counter() - t0
        )
        metrics.counter("misleading_bytes_total", op="inject").inc(injected)
    return runs


def _inject_slab(
    payloads: "Sequence[bytes | memoryview]",
    rng: InjectionRng,
    mimic: bool,
    out: np.ndarray,
    rows_out: np.ndarray,
) -> None:
    """Inject misleading bytes into each of a slab of equal-length
    payloads: the stored chunks written to the rows of *out*, their sorted
    positions to the rows of *rows_out* (as many a chunk as it has
    columns)."""
    rows, total = out.shape
    n_fake = rows_out.shape[1]
    length = total - n_fake
    source = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(
        rows, length
    )
    # A uniformly random n_fake-subset of the stored positions per row:
    # the indices of the n_fake smallest of `total` iid uniform keys.
    keys = rng.positions.random((rows, total))
    positions = np.argpartition(keys, n_fake - 1, axis=1)[:, :n_fake]
    positions.sort(axis=1)
    # Draws stay on the default integer dtype: only those concatenate
    # across calls, which is what makes the draw window-invariant.
    if mimic:
        picks = rng.fakes.integers(0, length, (rows, n_fake))
        fake = np.take_along_axis(source, picks, axis=1)
    else:
        fake = rng.fakes.integers(0, 256, (rows, n_fake)).astype(np.uint8)

    flat = (positions + np.arange(rows)[:, None] * total).ravel()
    stored = out.reshape(-1)  # a view: *out* is whole rows of a C array
    genuine = np.ones(rows * total, dtype=bool)
    genuine[flat] = False
    stored[flat] = fake.ravel()
    stored[genuine] = source.ravel()
    rows_out[:] = positions


def remove(
    stored: "bytes | bytearray | memoryview | np.ndarray",
    positions: "np.ndarray | Sequence[int]",
    rows: int = 1,
    width: "int | None" = None,
    length: "int | None" = None,
) -> bytes:
    """Strip the misleading bytes at *positions* from *stored*: the
    inverse of :func:`inject`, and the one kernel every strip runs.

    By default *stored* is one stored chunk (without *positions* it comes
    back as it is).  :func:`strip` hands it a part of a slab instead:
    *rows* stored chunks of *length* bytes lying *width* bytes apart (the
    last may end with its chunk), *positions* each row's, row after row,
    equally many a row.  One mask keeps each row's first
    *length* bytes but its positions, one compress takes them.  A position
    outside its own row, or one listed twice, would take a byte from (or
    leave one to) the neighbouring row and shift every row after it; both
    raise ``ValueError`` instead, whatever the number of rows.  The
    metrics are :func:`strip`'s, once a strip.
    """
    if not len(positions):
        return stored
    blob = np.frombuffer(stored, np.uint8)
    width = len(blob) if width is None else width
    length = width if length is None else length
    # Table rows are uint32 and go as they are; a caller's tuples and lists
    # come out as int64, so a negative member shows.
    where = np.asarray(positions)
    count, kind = len(where) // rows, where.dtype.kind
    if kind not in "iu" or (kind == "i" and where.min() < 0) or (
        rows > 1 and where.max() >= length
    ):
        raise ValueError(_OUT_OF_RANGE.format(length))
    if rows == 1:  # (its padding, if any, cut off first)
        blob, keep = blob[:length], np.ones(length, dtype=bool)
        try:
            keep[where] = False
        except IndexError:  # (the one row's range check)
            raise ValueError(_OUT_OF_RANGE.format(length)) from None
    else:
        keep = np.zeros(rows * width, dtype=bool)
        keep.reshape(rows, width)[:, :length] = True
        starts = np.arange(0, rows * width, width)[:, None]
        keep[(where.reshape(rows, count) + starts).ravel()] = False
    kept = blob.compress(keep)  # faster than blob[keep]
    if len(kept) != rows * (length - count):
        raise ValueError("misleading positions contain duplicates")
    return kept.tobytes()


_OUT_OF_RANGE = "misleading positions out of range for chunks of {} bytes"


def strip(
    slabs: "Iterable[tuple[int, bytes | bytearray]]",
    runs: "Iterable[Sequence[int]]",
    positions: np.ndarray,
) -> "list[tuple[int, bytes | bytearray | memoryview]]":
    """A window's payloads from its decoded stripes: the read engine's
    strip, in pieces of whole rows.

    *slabs* yields the rows as ``(rows, buffer)``, each row k shard sizes
    long (a slab of one row may end where its stored chunk does); *runs*
    describes them, run after run of rows alike, as ``(rows, width,
    length, count)``: rows *width* bytes apart whose stored chunk is their
    first *length* bytes, *count* of them misleading; *positions* is the
    window's ``M`` heap, row after row.  Each piece is ``(rows, bytes)``
    for rows of one run, every row's payload ``length - count`` bytes of
    it: the slab itself or a view of it where nothing is cut, one strided
    copy where only the shard padding is, else one :func:`remove` call for
    each part of about ``SLAB_KEYS`` stored bytes: a large slab is cut
    into equal parts, and a run's rows that come a few at a time (a stripe
    a decode rebuilt is a slab of its own, and so are the stripes between
    such; a window's lone chunks) are joined into parts.
    ``misleading_transform_seconds{op="remove"}`` observes once a strip
    that removes anything, the byte counter advances by every byte
    removed.
    """
    pieces: list = []
    runs = iter(runs)
    left = mark = 0
    gathered: list = []  # views of the run's rows that came a few at a time
    pending = 0  # how many rows they hold

    def flush(stop: int) -> None:  # (their positions end at stop)
        nonlocal pending
        blob = b"".join(gathered) if len(gathered) > 1 else gathered[0]
        where = positions[stop - pending * count : stop]
        pieces.append((pending, remove(blob, where, pending, length, length)))
        gathered.clear()
        pending = 0

    busy = 0.0  # (the slabs decode as they are asked for: not timed here)
    for rows, slab in slabs:
        t0 = time.perf_counter()
        view, at = memoryview(slab), 0
        while rows:
            if not left:
                left, width, length, count = next(runs)
            take = min(rows, left)
            if not count:
                if take == 1 or width == length:  # nothing to cut from between rows
                    piece = slab if take * length == len(view) else view[at : at + take * length]
                else:  # the shard padding alone
                    blob = np.frombuffer(view[at : at + take * width], np.uint8)
                    piece = blob.reshape(take, width)[:, :length].tobytes()
                pieces.append((take, piece))
            elif take * width < SLAB_KEYS:  # gathered into parts of at most SLAB_KEYS
                if pending and (pending + take) * length > SLAB_KEYS:
                    flush(mark)
                if take == 1 or width == length:
                    gathered.append(view[at : at + take * length])
                else:
                    starts = range(at, at + take * width, width)
                    gathered += [view[row : row + length] for row in starts]
                pending += take
                if left == take:  # (the run's last rows)
                    flush(mark + take * count)
            else:  # in equal parts of about SLAB_KEYS stored bytes
                if pending:
                    flush(mark)
                part = -(-take // -(-take * width // SLAB_KEYS))
                for first in range(0, take, part):
                    n = min(part, take - first)
                    blob = view[at + first * width : at + (first + n) * width]
                    where = positions[mark + first * count : mark + (first + n) * count]
                    pieces.append((n, remove(blob, where, n, width, length)))
            mark += take * count
            at += take * width
            rows -= take
            left -= take
        busy += time.perf_counter() - t0
    if mark:
        _observe(busy, mark)
    return pieces


def row_payloads(pieces: "Iterable[tuple[int, bytes | bytearray | memoryview]]") -> list[bytes]:
    """Each row's payload, as ``bytes``, from :func:`strip`'s pieces: a
    piece of one row that is ``bytes`` already as it is, any other cut."""
    payloads: list[bytes] = []
    for rows, piece in pieces:
        if rows == 1 and type(piece) is bytes:
            payloads.append(piece)
            continue
        view = piece if type(piece) is bytes else memoryview(piece)
        size = len(view) // rows
        cut = [view[at * size : (at + 1) * size] for at in range(rows)]
        payloads += cut if view is piece else map(bytes, cut)
    return payloads


def _observe(seconds: float, removed: int) -> None:
    metrics = get_metrics()
    metrics.histogram("misleading_transform_seconds", op="remove").observe(seconds)
    metrics.counter("misleading_bytes_total", op="remove").inc(removed)
