"""Deterministic row-tiled reductions.

Every O(N^2) pair sum is computed in row tiles whose ranges depend only on
the matrix shape, so the order of summation, and with it every bit of the
result, is fixed by the inputs.  Sums over a held kernel are the energy
module's pair pass over `row_tiles`; `blocked_total` sums a never materialized
pair matrix from a tile function, adding the tile partials in order.
"""

from __future__ import annotations

# Byte budget of one tile.  Each per-tile temporary stays below glibc's default
# mmap threshold (M_MMAP_THRESHOLD, 128 KiB): a larger block is mmapped when
# allocated and unmapped when freed, so every tile of every energy call would
# page-fault its memory in afresh, while smaller blocks are reused from the heap.
_TILE_BYTES = 120 * 1024


def tile_rows(n_cols: int, item_bytes: int = 8) -> int:
    """Rows per tile when a row holds n_cols items of item_bytes each (at least 1)."""
    return max(1, _TILE_BYTES // (item_bytes * max(n_cols, 1)))


def row_tiles(n_rows: int, n_cols: int, item_bytes: int = 8) -> list:
    """Fixed (lo, hi) row ranges covering an n_rows x n_cols matrix."""
    step = tile_rows(n_cols, item_bytes)
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def triangle_tiles(n: int):
    """(lo, hi) row ranges over the upper triangle of an n x n matrix.

    The tile lo:hi spans columns lo:n, so tiles grow taller as rows shorten.
    Its entries below the diagonal are computed only to be overwritten, so a
    tile is at most half as tall as it is wide: at most a quarter of it is
    wasted.
    """
    lo = 0
    while lo < n:
        hi = min(n, lo + tile_rows(n - lo), lo + max(1, (n - lo) // 2))
        yield lo, hi
        lo = hi


def blocked_total(tile, n_rows: int, n_cols: int, item_bytes: int = 8) -> float:
    """Sum of all entries of the n_rows x n_cols matrix whose rows lo:hi are
    tile(lo, hi); item_bytes sizes the tiles by the tile function's widest
    per-entry temporary."""
    total = 0.0
    for lo, hi in row_tiles(n_rows, n_cols, item_bytes):
        total += float(tile(lo, hi).sum())
    return total

