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

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.chunking import equal_length_runs
from repro.obs.metrics import get_metrics
from repro.util.rng import SeedLike, derive_rng, spawn_seeds


#: A window is drawn, and stripped, in slabs of at most this many chunks
#: and at most this many stored bytes (one float64 random key per byte on
#: the way in, one mask byte on the way out), so the transient arrays stay
#: a few MiB however long the window or large the chunks.
SLAB_ROWS = 256
SLAB_KEYS = 1 << 19


@dataclass(frozen=True)
class InjectionResult:
    """Stored bytes plus the position list the Chunk Table must remember."""

    stored: bytes
    positions: tuple[int, ...]


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


def inject_window(
    payloads: "Sequence[bytes | memoryview]",
    fraction: float,
    rng: "SeedLike | InjectionRng" = None,
    mimic: bool = True,
) -> list[InjectionResult]:
    """:func:`inject` for every chunk of a window, drawn in bulk.

    Consecutive payloads of equal length are drawn together, one
    vectorised pass per slab.  Any cut of the same payload sequence into
    windows gives the same results when the calls share one
    :class:`InjectionRng`.  Results never alias *payloads*.
    """
    if fraction < 0:
        raise ValueError(f"fraction must be >= 0, got {fraction}")
    if not isinstance(rng, InjectionRng):
        rng = InjectionRng.spawn(rng)
    t0 = time.perf_counter()
    results: list[InjectionResult] = []
    injected = 0

    def n_fake_for(length: int) -> int:
        return int(round(length * fraction))

    def slab_rows(length: int) -> int:
        return min(SLAB_ROWS, SLAB_KEYS // max(1, length + n_fake_for(length)))

    for start, stop, length in equal_length_runs(payloads, slab_rows):
        n_fake = n_fake_for(length)
        if n_fake:
            results.extend(
                _inject_slab(payloads[start:stop], length, n_fake, rng, mimic)
            )
            injected += n_fake * (stop - start)
        else:
            results.extend(
                InjectionResult(stored=bytes(payload), positions=())
                for payload in payloads[start:stop]
            )
    if injected:
        metrics = get_metrics()
        metrics.histogram("misleading_transform_seconds", op="inject").observe(
            time.perf_counter() - t0
        )
        metrics.counter("misleading_bytes_total", op="inject").inc(injected)
    return results


def _inject_slab(
    payloads: "Sequence[bytes | memoryview]",
    length: int,
    n_fake: int,
    rng: InjectionRng,
    mimic: bool,
) -> list[InjectionResult]:
    """Inject *n_fake* bytes into each of a slab of *length*-byte payloads."""
    rows = len(payloads)
    total = length + n_fake
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
    stored = np.empty(rows * total, dtype=np.uint8)
    genuine = np.ones(rows * total, dtype=bool)
    genuine[flat] = False
    stored[flat] = fake.ravel()
    stored[genuine] = source.ravel()
    blob = stored.tobytes()
    return [
        InjectionResult(
            stored=blob[row * total : (row + 1) * total], positions=tuple(where)
        )
        for row, where in enumerate(positions.tolist())
    ]


def remove(
    stored: bytes,
    positions: tuple[int, ...] | list[int],
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
    if not positions:
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
    positions: "Sequence[Sequence[int]]",
) -> list[bytes]:
    """:func:`remove` for every chunk of a window, stripped in bulk.

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
        lambda length: min(SLAB_ROWS, SLAB_KEYS // max(1, length)),
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
    stored: "Sequence[bytes]", positions: "Sequence[Sequence[int]]", length: int
) -> list[bytes]:
    """Strip equally many positions from each of a slab of *length*-byte
    chunks.

    A position outside its own row, or one listed twice, would take a byte
    from (or leave one to) the neighbouring row and shift every row after
    it; both raise ``ValueError`` instead.
    """
    rows = len(stored)
    where = np.array(positions, dtype=np.int64)
    if where.min() < 0 or where.max() >= length:
        raise ValueError(
            f"misleading positions out of range for chunks of {length} bytes"
        )
    kept = length - where.shape[1]
    where += np.arange(rows)[:, None] * length
    genuine = np.ones(rows * length, dtype=bool)
    genuine[where.ravel()] = False
    blob = np.frombuffer(b"".join(stored), dtype=np.uint8)[genuine].tobytes()
    if len(blob) != rows * kept:
        raise ValueError("misleading positions contain duplicates")
    return [blob[row * kept : (row + 1) * kept] for row in range(rows)]
