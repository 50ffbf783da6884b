"""Fork-time inheritance of read-only state for worker processes.

Pickling large read-only inputs (trace corpora, pre-built Machine
templates, interning tables) into every task is the single biggest
fan-out cost the ledger measured.  POSIX fork already solves it: pages
the parent populated *before* the pool forked are inherited copy-on-
write, free of serialization.  This registry is the disciplined way to
use that:

* the parent calls :func:`prime` before fanning out;
* workers call :func:`get` — after a fork they see the primed value
  through plain module-global inheritance, with zero pickling;
* every :func:`prime` bumps :func:`generation`, and the executor
  recycles its persistent pool whenever the generation moved, so a
  stale worker can never serve a newer corpus.

The registry is **read-only by contract**: workers must never mutate a
primed value (copy-on-write means the parent would not see it, which
is exactly the kind of divergence the byte-identity tests exist to
catch).  Values must also survive being *absent*: ``get`` returns the
default when the state was never primed — e.g. under the spawn start
method — so every worker keeps a load-from-argument fallback path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

_STATE: Dict[str, Any] = {}
_GENERATION = 0


def prime(key: str, value: Any) -> None:
    """Publish read-only state for fork-time inheritance.

    Must run in the parent, before the fan-out that wants it; the
    executor rebuilds its pool on the next call because the generation
    moved.
    """
    global _GENERATION
    _STATE[key] = value
    _GENERATION += 1


def get(key: str, default: Any = None) -> Any:
    """The primed value — inherited through fork in workers."""
    return _STATE.get(key, default)


def keys() -> Iterable[str]:
    return tuple(_STATE)


def generation() -> int:
    """Monotone counter the executor uses to detect stale pools."""
    return _GENERATION
