"""A pause of Python's cyclic garbage collector around allocation-heavy loops.

The decoders, IBM EM and the CoNLL-U readers allocate many short-lived
objects while a large model stays loaded, and each collection pass walks
that model again. Those loops make no reference cycles, so reference
counting frees all they drop, and pausing the collector there only saves
time (`tests/test_gcpause.py` pins the no-cycle premise).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def paused_gc():
    """Disable the cyclic collector, and on exit, also by an exception,
    restore the state it had; usable as a decorator, `@paused_gc()`."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
