"""Pool generation: when the executor must fork fresh workers.

The executor keeps one persistent process pool across ``parallel_map``
calls.  A worker forked before the parent changed some state would keep
serving the old state, so the parent calls :func:`prime` after such a
change; that bumps :func:`generation`, and the executor recycles its
pool on the next call whenever the generation moved since the workers
forked.
"""

from __future__ import annotations

from typing import Any

_GENERATION = 0


def prime(key: str, value: Any) -> None:
    """Record that the parent set ``key`` to ``value``.

    Must run in the parent; the executor rebuilds its pool on the next
    call because the generation moved.
    """
    global _GENERATION
    _GENERATION += 1


def generation() -> int:
    """Monotone counter the executor uses to detect stale pools."""
    return _GENERATION
