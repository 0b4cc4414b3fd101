"""Deterministic row-tiled reductions.

Every O(N^2) pair sum is computed in row tiles: a tile function produces rows
lo:hi of the (never materialized) pair matrix, `blocked_row_sum` /
`blocked_total` reduce each tile with single numpy calls and combine the
partials in tile order.  Tile ranges depend only on the matrix shape, so the
result is bit-identical regardless of how many worker threads are used.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Byte budget of one tile.  Each per-tile temporary stays below glibc's default
# mmap threshold (M_MMAP_THRESHOLD, 128 KiB): a larger block is mmapped when
# allocated and unmapped when freed, so every tile of every energy call would
# page-fault its memory in afresh, while smaller blocks are reused from the heap.
_TILE_BYTES = 120 * 1024
_threads = None


def get_threads() -> int:
    global _threads
    if _threads is None:
        env = os.environ.get("FRACLAT_THREADS", "")
        _threads = int(env) if env.strip() else 1
    return _threads


def set_threads(n: int) -> None:
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    global _threads
    _threads = n


def tile_rows(n_cols: int, item_bytes: int = 8) -> int:
    """Rows per tile when a row holds n_cols items of item_bytes each (at least 1)."""
    return max(1, _TILE_BYTES // (item_bytes * max(n_cols, 1)))


def row_tiles(n_rows: int, n_cols: int, item_bytes: int = 8) -> list:
    """Fixed (lo, hi) row ranges covering an n_rows x n_cols matrix."""
    step = tile_rows(n_cols, item_bytes)
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def triangle_tiles(n: int, item_bytes: int = 8):
    """(lo, hi) row ranges over the upper triangle of an n x n matrix.

    The tile lo:hi spans columns lo:n, so tiles grow taller as rows shorten.
    Its entries below the diagonal are computed only to be overwritten, so a
    tile is at most half as tall as it is wide: at most a quarter of it is
    wasted.
    """
    lo = 0
    while lo < n:
        hi = min(n, lo + tile_rows(n - lo, item_bytes), lo + max(1, (n - lo) // 2))
        yield lo, hi
        lo = hi


def _map_tiles(fn, ranges):
    """Apply fn(lo, hi) to each row range; return partials in range order."""
    nthreads = get_threads()
    if nthreads == 1 or len(ranges) == 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        return list(pool.map(lambda r: fn(r[0], r[1]), ranges))


def blocked_total(tile, n_rows: int, n_cols: int, item_bytes: int = 8) -> float:
    """Sum of all entries of the n_rows x n_cols matrix whose rows lo:hi are
    tile(lo, hi); item_bytes sizes the tiles by the tile function's widest
    per-entry temporary."""
    ranges = row_tiles(n_rows, n_cols, item_bytes)
    total = 0.0
    for p in _map_tiles(lambda lo, hi: float(tile(lo, hi).sum()), ranges):
        total += p
    return total


def blocked_row_sum(tile, n_rows: int, n_cols: int) -> np.ndarray:
    """Row sums of the n_rows x n_cols matrix whose rows lo:hi are tile(lo, hi)."""
    ranges = row_tiles(n_rows, n_cols)
    out = np.empty(n_rows)
    for (lo, hi), part in zip(ranges, _map_tiles(lambda lo, hi: tile(lo, hi).sum(axis=1), ranges)):
        out[lo:hi] = part
    return out
