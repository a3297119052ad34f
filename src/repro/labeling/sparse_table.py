"""Static sparse table for O(1) range-minimum queries.

Classic doubling structure: ``table[k][i]`` stores the index of the minimum in
the window ``[i, i + 2^k)``.  The tree distance oracle uses it over the depth
sequence of an Euler tour, which turns LCA (and hence path length) queries into
two table lookups.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import LabelingError


class SparseTable:
    """Range-minimum query structure over a fixed sequence of comparable values."""

    def __init__(self, values: Sequence[float]) -> None:
        if len(values) == 0:
            raise LabelingError("cannot build a sparse table over an empty sequence")
        self._values = list(values)
        size = len(self._values)
        self._log = [0] * (size + 1)
        for i in range(2, size + 1):
            self._log[i] = self._log[i // 2] + 1
        levels = self._log[size] + 1
        self._table: List[List[int]] = [list(range(size))]
        for level in range(1, levels):
            previous = self._table[level - 1]
            half = 1 << (level - 1)
            width = size - (1 << level) + 1
            row = []
            for i in range(max(0, width)):
                left = previous[i]
                right = previous[i + half]
                row.append(left if self._values[left] <= self._values[right] else right)
            self._table.append(row)

    def __len__(self) -> int:
        return len(self._values)

    def argmin(self, low: int, high: int) -> int:
        """Index of the minimum value in the inclusive range ``[low, high]``."""
        if low > high:
            low, high = high, low
        if low < 0 or high >= len(self._values):
            raise LabelingError(f"range [{low}, {high}] is out of bounds for size {len(self._values)}")
        span = high - low + 1
        level = self._log[span]
        left = self._table[level][low]
        right = self._table[level][high - (1 << level) + 1]
        return left if self._values[left] <= self._values[right] else right

    def minimum(self, low: int, high: int) -> float:
        """Minimum value in the inclusive range ``[low, high]``."""
        return self._values[self.argmin(low, high)]
