"""Click's ``HashMap`` data structure.

This is one of the two data structures Gallium can offload (paper §7).  The
semantics match Click's: ``find`` returns a reference to the stored value or
``None``, ``insert`` overwrites.  The offload path maps a ``HashMap`` to a P4
exact-match table (paper Figure 6); the ``max_entries`` annotation is the
developer-supplied bound the paper requires ("Gallium requires a middlebox
developer to annotate a maximum size for each data structure stored in the
programmable switch").
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class HashMap(Generic[K, V]):
    """A bounded hash map with Click-flavoured accessors."""

    def __init__(self, max_entries: Optional[int] = None):
        self._data: Dict[K, V] = {}
        self.max_entries = max_entries

    def find(self, key: K) -> Optional[V]:
        """Return the value stored under ``key`` or ``None``."""
        return self._data.get(key)

    def insert(self, key: K, value: V) -> None:
        """Insert or overwrite ``key -> value``.

        Raises ``OverflowError`` when the annotated capacity is exceeded —
        the paper relies on the annotation as a hard bound for switch memory
        accounting, so silently growing past it would invalidate the
        partitioner's resource check.
        """
        if (
            self.max_entries is not None
            and key not in self._data
            and len(self._data) >= self.max_entries
        ):
            raise OverflowError(
                f"HashMap capacity exceeded (max_entries={self.max_entries})"
            )
        self._data[key] = value

    def erase(self, key: K) -> bool:
        """Remove ``key``; return True if it was present."""
        return self._data.pop(key, None) is not None

    def size(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()

    def items(self) -> Iterator[Tuple[K, V]]:
        return iter(list(self._data.items()))

    def keys(self):
        return list(self._data.keys())

    def snapshot(self) -> Dict[K, V]:
        """Return a copy of the contents (used by state-sync tests)."""
        return dict(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        bound = f"/{self.max_entries}" if self.max_entries is not None else ""
        return f"<HashMap {len(self._data)}{bound} entries>"
