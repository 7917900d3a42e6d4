"""Hold off CPython's cyclic garbage collector while one unit is analysed.

Compiling and analysing a unit allocates hundreds of thousands of
container objects (tokens, AST and MIR nodes, scans, points-to facts,
summaries), and nearly all of them stay reachable until the unit's report
is built.  The collector is triggered by allocation counts, not by
garbage, so without a pause it runs full collections that traverse the
whole live unit, and everything else the process holds, and free almost
nothing.  See DESIGN §9, "GC pause per analysis unit".
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

#: Serialises the check-then-disable in :func:`gc_paused`, so two
#: threads pausing at once cannot both believe they own the pause.
_LOCK = threading.Lock()


@contextmanager
def gc_paused():
    """Disable the cyclic collector for the duration of the block.

    The pause only acts when it finds the collector enabled, so a nested
    pause, a pause concurrent with another thread's, or a caller that
    disabled the collector itself all leave the state they found; the
    owner re-enables it on the way out, exceptions included.  Callers
    drop their references to the unit before the block ends: the unit
    is full of reference cycles, and the first collection after the
    pause then frees it in one traversal.
    """
    with _LOCK:
        owner = gc.isenabled()
        if owner:
            gc.disable()
    try:
        yield
    finally:
        if owner:
            gc.enable()
