"""A scoped pause of the cyclic garbage collector for analysis phases.

The checker's hot phases allocate millions of small containers (columnar
index arrays, edge batches, evidence records).  Every generation-2 pass the
cyclic collector runs mid-analysis must traverse the entire heap — history
transactions, micro-ops, index rows — which costs hundreds of
milliseconds at the 100k-transaction scale while collecting nothing: the
analysis pipeline allocates essentially no reference cycles, so plain
reference counting reclaims its garbage promptly.

:func:`paused_gc` disables collection for the duration of a ``with`` block
and restores the collector's previous state on exit (including on error).
Nesting is safe: an inner pause under an already-disabled collector is a
no-op, and the outermost pause re-enables.  No forced collection runs on
exit — whatever little cyclic garbage accumulated is picked up by the next
natural pass.

The pause brackets phases that hold multi-hundred-megabyte numpy
temporaries (whole-index screen columns at the 1M-transaction tier).  An
exception propagating out of such a phase carries a traceback whose frames
pin those temporaries; if the pause leaked its disabled state, the pinned
cycle graph would sit unreclaimed for the rest of the process.  The exit
path therefore restores the *snapshot* taken at entry — not a guess from
the collector's current state, which the body may have toggled — and stays
idempotent if the context is exited twice (a hazard when a ``with`` block's
own unwind re-raises through ``ExitStack``-style cleanup).
"""

from __future__ import annotations

import gc
from typing import Optional


class paused_gc:
    """Disable the cyclic GC for the block; restore the prior state after.

    A plain class rather than ``@contextmanager``: generator-based context
    managers raise on re-entry and corrupt their state on double-exit,
    while analysis retry loops re-use one pause object across attempts.
    """

    __slots__ = ("_was_enabled",)

    def __init__(self) -> None:
        self._was_enabled: Optional[bool] = None

    def __enter__(self) -> "paused_gc":
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            gc.disable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Restore the entry snapshot exactly once; a second exit (or an
        # exit without a matching entry) is a no-op instead of blindly
        # enabling a collector the caller had disabled.
        was_enabled, self._was_enabled = self._was_enabled, None
        if was_enabled is None:
            return
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
