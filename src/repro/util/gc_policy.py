"""The garbage-collector setting of the evaluation hot path.

A cold grid pass allocates mostly objects that live until the pass ends
(formed programs, prepared problems, DDGs, memo tables), and CPython's
default gen-0 threshold (700) makes the collector walk the young ones
again and again while they pile up.  :func:`evaluation_gc` raises the
gen-0 threshold for the duration of an evaluation and leaves generations
1 and 2 as the caller set them.  On a cold ``default_grid()`` pass
(2-vCPU Xeon, Python 3.11.7) the collector's pauses fell from 0.23–0.29 s
in about 560 collections to 0.04–0.07 s in one or two, where
``gc.freeze()`` of everything alive before the pass still left
0.15–0.18 s.

The scope is re-entrant and thread-safe: a depth count under a lock,
the outermost entry saves the caller's thresholds and the outermost
exit restores them, on an exception too.  A library must not leave the
process's collector changed, so no entry point sets it for good.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

#: The gen-0 threshold inside the scope.
GEN0_THRESHOLD = 50_000

_lock = threading.Lock()
_depth = 0
_saved: Optional[Tuple[int, ...]] = None


def _reset_lock_in_child() -> None:
    # A fork taken while another thread held the lock would leave the
    # child's copy held for good.
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_in_child)


@contextmanager
def evaluation_gc() -> Iterator[None]:
    """Run the body with the gen-0 threshold at :data:`GEN0_THRESHOLD`.

    A caller whose gen-0 threshold is already higher, or 0 (automatic
    collection off), keeps it.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = gc.get_threshold()
            if 0 < _saved[0] < GEN0_THRESHOLD:
                gc.set_threshold(GEN0_THRESHOLD, *_saved[1:])
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.set_threshold(*_saved)
                _saved = None
