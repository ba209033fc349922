"""Exact-match tables with write-back atomic updates (paper §4.3.3).

Data plane: read-only lookups.  Control plane: three-step updates —

1. stage entries in the smaller *write-back* table,
2. flip the visibility bit (one control-plane op; from this instant the
   data plane sees the new entries),
3. fold the staged entries into the main table and clear the stage.

A staged deletion is a tombstone ("A special value indicates table entry
deletion").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

Key = Tuple[int, ...]

_TOMBSTONE = object()


class TableEntryLimit(Exception):
    """Raised when a control-plane insert exceeds the table's capacity."""


class ExactMatchTable:
    """One P4 exact-match table plus its write-back companion."""

    def __init__(self, name: str, key_widths: List[int], value_width: int,
                 size: int):
        self.name = name
        self.key_widths = list(key_widths)
        self.value_width = value_width
        self.size = size
        self._main: Dict[Key, int] = {}
        self._writeback: Dict[Key, object] = {}
        #: what folding the stage would add to ``len(_main)``: the sum of
        #: :meth:`_staged_delta` over ``_writeback``, kept as entries are
        #: staged (the main table only changes under an empty stage)
        self._staged_growth = 0
        self._writeback_visible = False
        self.lookup_count = 0
        self.hit_count = 0

    # -- data plane -----------------------------------------------------------

    def lookup(self, key: Key) -> Tuple[bool, int]:
        """Data-plane lookup honouring the visibility bit."""
        self.lookup_count += 1
        if self._writeback_visible and key in self._writeback:
            staged = self._writeback[key]
            if staged is _TOMBSTONE:
                return False, 0
            self.hit_count += 1
            return True, staged  # type: ignore[return-value]
        if key in self._main:
            self.hit_count += 1
            return True, self._main[key]
        return False, 0

    # -- control plane (called by ControlPlane only) -----------------------------

    def stage(self, key: Key, value: Optional[int]) -> None:
        """Stage an insert/modify (value) or delete (None).

        Capacity is checked against the *post-fold* occupancy: staged
        deletes free their slot within the same batch, so an atomic
        erase+insert round-trip through a full table succeeds (matching
        the authoritative ``StateStore``, which applied the same journal
        sequentially).
        """
        present = key in self._main
        growth = self._staged_growth
        if key in self._writeback:
            # Re-staging a key replaces its entry: take the old share out.
            growth -= self._staged_delta(present, self._writeback[key])
        staged = _TOMBSTONE if value is None else value
        growth += self._staged_delta(present, staged)
        if value is not None and len(self._main) + growth > self.size:
            raise TableEntryLimit(
                f"table {self.name!r} full ({self.size} entries)"
            )
        self._writeback[key] = staged
        self._staged_growth = growth

    @staticmethod
    def _staged_delta(present: bool, staged: object) -> int:
        """Occupancy change a staged entry causes once folded, given
        whether the main table holds its key."""
        if staged is _TOMBSTONE:
            return -1 if present else 0
        return 0 if present else 1

    def set_visibility(self, visible: bool) -> None:
        self._writeback_visible = visible

    def clear(self) -> None:
        """Control-plane bulk clear (table rebuild during a state resync)."""
        self._main.clear()
        self.discard_writeback()

    def discard_writeback(self) -> None:
        """Abort a batch: drop staged entries without folding them.

        Used by the control plane when a multi-table batch fails partway
        through staging — leftover staged entries would otherwise leak into
        the next batch's fold and break atomicity.
        """
        self._writeback.clear()
        self._staged_growth = 0
        self._writeback_visible = False

    def fold_writeback(self) -> None:
        """Apply staged entries to the main table and clear the stage."""
        for key, value in self._writeback.items():
            if value is _TOMBSTONE:
                self._main.pop(key, None)
            else:
                self._main[key] = value  # type: ignore[assignment]
        self._writeback.clear()
        self._staged_growth = 0

    def entry_preimage(self, key: Key) -> Tuple[bool, int]:
        """Committed pre-image of one slot, ignoring any staged entry.

        The undo log snapshots this before a batch's first mutation; a
        byte-exact rollback is ``restore_entry(key, *preimage)``.
        """
        if key in self._main:
            return True, self._main[key]
        return False, 0

    def restore_entry(self, key: Key, existed: bool, value: int) -> None:
        """Write one committed slot back to its pre-image (undo-log
        rollback; bypasses the write-back stage by design)."""
        if existed:
            self._main[key] = value
        else:
            self._main.pop(key, None)

    # -- introspection -------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self._main)

    def snapshot(self) -> Dict[Key, int]:
        """Effective contents as the data plane currently sees them."""
        view = dict(self._main)
        if self._writeback_visible:
            for key, value in self._writeback.items():
                if value is _TOMBSTONE:
                    view.pop(key, None)
                else:
                    view[key] = value  # type: ignore[assignment]
        return view

    def __repr__(self) -> str:
        return (
            f"<ExactMatchTable {self.name} {self.entry_count}/{self.size}"
            f" staged={len(self._writeback)}"
            f" visible={self._writeback_visible}>"
        )
