"""Pausing Python's cycle collector across an allocation-heavy phase.

The probe campaign and the §IV report allocate hundreds of thousands of
objects that die by reference count while the world sits in the old
generation; with the collector on, that churn escalates to full-heap
passes that rescan the whole world for cycles it does not have.  The
pause ends with one young-generation collection, which scans only what
the phase allocated and resets the generation counters, so the deferred
count cannot set off a full pass in the next phase.  It never calls
``gc.freeze()``, which would pin every live object for the rest of the
process (DESIGN.md §13.4).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused_collector"]


@contextmanager
def paused_collector() -> Iterator[None]:
    """Disable the cycle collector for the ``with`` body; on exit (also
    by exception) run one young-generation collection and re-enable it.
    A no-op when the collector is already disabled, so uses nest."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.collect(1)
        gc.enable()
