"""Click's ``Vector`` data structure.

The second offloadable data structure (paper §7).  When read-only on the
fast path (e.g. MiniLB's backend list), the partitioner can place it on the
switch as an index-keyed exact-match table.
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class Vector(Generic[T]):
    """A growable array with Click-flavoured accessors."""

    def __init__(self, items: Optional[Iterable[T]] = None):
        self._items: List[T] = list(items) if items is not None else []

    def at(self, index: int) -> T:
        """Bounds-checked access (Click's ``operator[]`` is annotated as a
        read of both the index and the vector)."""
        if not 0 <= index < len(self._items):
            raise IndexError(f"Vector index {index} out of range [0, {len(self._items)})")
        return self._items[index]

    def set(self, index: int, value: T) -> None:
        if not 0 <= index < len(self._items):
            raise IndexError(f"Vector index {index} out of range [0, {len(self._items)})")
        self._items[index] = value

    def size(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items

    def clear(self) -> None:
        self._items.clear()

    def snapshot(self) -> List[T]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> T:
        return self.at(index)

    def __setitem__(self, index: int, value: T) -> None:
        self.set(index, value)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __repr__(self) -> str:
        return f"<Vector {len(self._items)} items>"
