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
from typing import Sequence

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
#: holds a byte or two per stored byte.
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
    This is :func:`inject_window` over a window of one.
    """
    return inject_window([payload], fraction, rng, mimic)[0]


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


def inject_window(
    payloads: "Sequence[bytes | memoryview]",
    fraction: float,
    rng: "SeedLike | InjectionRng" = None,
    mimic: bool = True,
) -> list[InjectionResult]:
    """:func:`inject` for every chunk of a window, drawn in bulk: the
    per-payload view of :func:`inject_runs`.

    Any cut of the same payload sequence into windows gives the same
    results when the calls share one :class:`InjectionRng`.  Results never
    alias *payloads*.
    """
    return [
        InjectionResult(bytes(chunk), position_row(row))
        for stored, rows in inject_runs(payloads, fraction, rng, mimic)
        for chunk, row in zip(stored, rows)
    ]


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
    stored: bytes,
    positions: "np.ndarray | Sequence[int]",
    validate: bool = False,
) -> bytes:
    """Strip the misleading bytes at *positions* from *stored*.

    Inverse of :func:`inject`; the paper's read path applies this before
    handing a chunk back to the client.

    Positions come from the distributor's own Chunk Table, where
    :func:`inject` wrote them sorted, distinct and in range -- so the
    read path strips them with a single fancy-index delete and no
    per-call validation.  ``validate=True`` enables the checks for
    callers handling untrusted position lists (tests, imported
    metadata): out-of-range or duplicate positions raise ``ValueError``.
    """
    if not len(positions):
        return stored
    t0 = time.perf_counter()
    pos = np.asarray(positions, dtype=np.int64)
    if validate:
        if pos.min() < 0 or pos.max() >= len(stored):
            raise ValueError(
                f"misleading positions out of range for buffer of "
                f"{len(stored)} bytes"
            )
        if len(np.unique(pos)) != len(pos):
            raise ValueError("misleading positions contain duplicates")
    out = np.delete(np.frombuffer(stored, dtype=np.uint8), pos).tobytes()
    metrics = get_metrics()
    metrics.histogram("misleading_transform_seconds", op="remove").observe(
        time.perf_counter() - t0
    )
    metrics.counter("misleading_bytes_total", op="remove").inc(len(pos))
    return out


def remove_window(
    stored: "Sequence[bytes]",
    positions: "Sequence[np.ndarray | Sequence[int]]",
) -> list[bytes]:
    """:func:`remove` for every chunk of a window, stripped in bulk.

    *positions* holds one row per chunk: the Chunk Table's packed rows on
    the read path, a tuple or a list of ints from any other caller.
    Consecutive chunks of one stored length and one position count are
    stripped together, one mask and one fancy-index per slab.  A run of
    one row is :func:`remove`'s; a chunk with no positions passes through.
    ``misleading_transform_seconds{op="remove"}`` observes once per call
    for the slabs (a run of one observes as :func:`remove` does), the byte
    counter advances by every byte removed.
    """
    out: list[bytes] = []
    removed = 0
    busy = 0.0
    for start, stop, length in equal_length_runs(
        stored,
        lambda length: SLAB_KEYS // max(1, length),
        beside=positions,
    ):
        count = len(positions[start])
        if not count:
            out.extend(stored[start:stop])
        elif stop - start == 1:
            out.append(remove(stored[start], positions[start]))
        else:
            t0 = time.perf_counter()
            out.extend(
                _remove_slab(stored[start:stop], positions[start:stop], length)
            )
            busy += time.perf_counter() - t0
            removed += count * (stop - start)
    if removed:
        metrics = get_metrics()
        metrics.histogram("misleading_transform_seconds", op="remove").observe(
            busy
        )
        metrics.counter("misleading_bytes_total", op="remove").inc(removed)
    return out


def _remove_slab(
    stored: "Sequence[bytes]",
    positions: "Sequence[np.ndarray | Sequence[int]]",
    length: int,
) -> list[bytes]:
    """Strip equally many positions from each of a slab of *length*-byte
    chunks.

    A position outside its own row, or one listed twice, would take a byte
    from (or leave one to) the neighbouring row and shift every row after
    it; both raise ``ValueError`` instead.
    """
    rows = len(stored)
    # Table rows are uint32 arrays and stack without a parse; a caller's
    # tuples and lists come out as int64, so a negative member shows.
    where = np.concatenate(positions).reshape(rows, -1)
    if where.dtype.kind not in "iu" or where.min() < 0 or where.max() >= length:
        raise ValueError(
            f"misleading positions out of range for chunks of {length} bytes"
        )
    kept = length - where.shape[1]
    genuine = np.ones(rows * length, dtype=bool)
    genuine[(where + np.arange(rows)[:, None] * length).ravel()] = False
    blob = np.frombuffer(b"".join(stored), dtype=np.uint8)
    blob = blob.compress(genuine).tobytes()  # faster than blob[genuine]
    if len(blob) != rows * kept:
        raise ValueError("misleading positions contain duplicates")
    return [blob[row * kept : (row + 1) * kept] for row in range(rows)]
