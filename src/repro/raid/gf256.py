"""GF(2^8) arithmetic and the one bulk kernel every Reed-Solomon codec rides.

The RS-standard field: primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D),
generator alpha = 2.  Log/antilog tables exist only to build, at import,
the 256 x 256 product table ``_MUL`` (64 KiB) and the inverse table, so
element-wise ``gf_mul``/``gf_div``/``gf_inv`` are one gather each.

Bulk work -- parity encode, erasure decode, ``gf_matmul`` -- is one kernel,
:func:`gf_apply`, over *packed-lane* tables from :func:`gf_tables`: for a
coefficient block ``A`` of up to eight output rows, input row ``l`` gets a
256-entry ``uint64`` table whose byte lane ``i`` holds ``A[i, l] * x``.
One gather per input shard advances all eight rows, so ``A @ shards`` is
``k`` gathers and ``k - 1`` XORs (``acc ^= T[l][shard_l]``) however many
parity rows there are.  Shards are read in place, long ones in ``TILE``
pieces so the accumulator stays cache-resident; more than eight rows loop
lane groups.  The log/exp matmul this replaced lives on only as the
differential oracle in ``tests/raid/test_gf_kernel.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

#: Shard bytes per kernel pass.  The uint64 accumulator and gather scratch
#: take 8 bytes per input byte each; 32 KiB measured fastest here (16 KiB
#: and 64 KiB within 10%, 1 MiB a third slower).
TILE = 32768
_LANES = 8

# Build exp/log tables for generator alpha = 2.
_EXP = np.zeros(510, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= PRIMITIVE_POLY
_EXP[255:510] = _EXP[:255]

# _MUL[a, b] = a * b; _INV[a] = 1 / a (entry 0 is never read).
_MUL = _EXP[_LOG[:, None] + _LOG[None, :]]
_MUL[0, :] = 0
_MUL[:, 0] = 0
_INV = _EXP[255 - _LOG]


def gf_mul(a, b):
    """Element-wise product in GF(256); accepts scalars or uint8 arrays."""
    return _MUL[np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)]


def gf_inv(a):
    """Element-wise multiplicative inverse; raises on zero."""
    a = np.asarray(a, dtype=np.uint8)
    if np.any(a == 0):
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return _INV[a]


def gf_div(a, b):
    """Element-wise a / b in GF(256); raises on division by zero."""
    return gf_mul(a, gf_inv(b))


def gf_pow(a: int, exponent: int) -> int:
    """Scalar a**exponent in GF(256)."""
    a = int(a) & 0xFF
    if exponent == 0:
        return 1
    if a == 0:
        return 0
    return int(_EXP[(_LOG[a] * exponent) % 255])


def gf_tables(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Compile coefficient block *a* (rows, k) into packed-lane tables.

    One read-only ``(k, 256) uint64`` array per group of eight rows: byte
    lane ``i`` of ``tables[g][l][x]`` is ``a[8 * g + i, l] * x``.
    """
    a = np.asarray(a, dtype=np.uint8)
    groups = []
    for start in range(0, a.shape[0], _LANES):
        block = a[start : start + _LANES]
        lanes = np.zeros((a.shape[1], 256, _LANES), dtype=np.uint8)
        lanes[:, :, : len(block)] = _MUL[block.T].transpose(0, 2, 1)
        table = lanes.view(np.uint64).reshape(a.shape[1], 256)
        table.setflags(write=False)
        groups.append(table)
    return tuple(groups)


def gf_apply(
    tables: tuple[np.ndarray, ...], shards: Sequence, rows: Sequence[int]
) -> np.ndarray:
    """Rows *rows* of ``A @ shards`` for ``tables = gf_tables(A)``.

    *shards* are k equal-length buffers (bytes, memoryview, contiguous
    uint8 rows), read in place.  Lane groups holding no wanted row are
    skipped, so asking for fewer rows never costs more.
    """
    views = [np.frombuffer(s, dtype=np.uint8) for s in shards]
    size = views[0].size
    out = np.empty((len(rows), size), dtype=np.uint8)
    acc = np.empty(min(size, TILE), dtype=np.uint64)
    term = np.empty_like(acc)
    for group, table in enumerate(tables):
        wanted = [(o, r % _LANES) for o, r in enumerate(rows) if r // _LANES == group]
        if not wanted:
            continue
        for start in range(0, size, TILE):
            stop = min(start + TILE, size)
            a, t = acc[: stop - start], term[: stop - start]
            # mode="clip" skips take()'s bounds pass and out= buffering;
            # uint8 indices into 256 entries cannot be out of range.
            np.take(table[0], views[0][start:stop], out=a, mode="clip")
            for row, view in zip(table[1:], views[1:]):
                np.take(row, view[start:stop], out=t, mode="clip")
                a ^= t
            packed = a.view(np.uint8).reshape(-1, _LANES)
            for o, lane in wanted:
                out[o, start:stop] = packed[:, lane]
    return out


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256), ``a`` (m, k) times ``b`` (k, n)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.ascontiguousarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
    return gf_apply(gf_tables(a), list(b), range(a.shape[0]))


def gf_mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) via Gauss-Jordan elimination.

    Raises :class:`numpy.linalg.LinAlgError` if the matrix is singular.
    """
    m = np.asarray(matrix, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    aug = np.concatenate([m.copy(), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot_rows = np.nonzero(aug[col:, col])[0]
        if pivot_rows.size == 0:
            raise np.linalg.LinAlgError("matrix is singular over GF(256)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = gf_div(aug[col], int(aug[col, col]))
        for row in range(n):
            if row != col and aug[row, col]:
                aug[row] ^= gf_mul(int(aug[row, col]), aug[col])
    return aug[:, n:].copy()


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix V[r, c] = r**c over GF(256).

    Any ``cols`` rows of it are linearly independent provided
    ``rows <= 256``, which is what makes the systematic RS generator matrix
    recoverable from any k surviving shards.
    """
    if rows > FIELD_SIZE:
        raise ValueError(f"at most {FIELD_SIZE} rows supported, got {rows}")
    out = np.zeros((rows, cols), dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            out[r, c] = gf_pow(r, c)
    return out
