"""Coverage of a replayed event stream: the fuzzing feedback signal.

AFL-style fuzzing needs a cheap, stable notion of "this input exercised
something new".  For an auditor pipeline the interesting dimensions are
not branches but *stream shapes* — which event types arrived, in which
adjacency order, with what timing texture, and what the auditors said
about them.  :class:`CoverageMap` tracks four feature families:

* ``type:<event-type>`` — an event of that type was delivered;
* ``trans:<a>><b>`` — type *b* arrived immediately after type *a*
  (arrival order, i.e. post-perturbation delivery order);
* ``gap:v<cpu>:<bucket>`` — log2 bucket of the inter-arrival timestamp
  gap per vCPU; bucket ``-1`` marks a non-monotonic arrival (an event
  whose timestamp precedes its predecessor's — reordering made visible);
* ``alert:<auditor>:<kind>`` — an auditor raised that alert kind.

A mutated trace or perturbed schedule that lights up a new feature is
kept as a corpus seed; one that doesn't is discarded.  Features are
plain strings so coverage maps serialize and diff trivially.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.core.auditor import Auditor
from repro.core.events import EventType, GuestEvent

#: Gaps above this land in one terminal bucket (log2(60s in ns) ~ 36).
_MAX_GAP_BUCKET = 36


def gap_bucket(delta_ns: int) -> int:
    """Log2 bucket of an inter-arrival gap; ``-1`` for non-monotonic."""
    if delta_ns < 0:
        return -1
    return min(delta_ns.bit_length(), _MAX_GAP_BUCKET)


class CoverageMap:
    """A set of stream-shape features with merge accounting."""

    def __init__(self, features: Optional[Iterable[str]] = None) -> None:
        self._features: Set[str] = set(features or ())

    # ------------------------------------------------------------------
    def add(self, feature: str) -> bool:
        """Record one feature; True when it is new to this map."""
        if feature in self._features:
            return False
        self._features.add(feature)
        return True

    def merge(self, other: "CoverageMap") -> int:
        """Absorb ``other``; returns how many features were new."""
        new = other._features - self._features
        self._features |= new
        return len(new)

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, feature: str) -> bool:
        return feature in self._features

    @property
    def features(self) -> Set[str]:
        return set(self._features)


class CoverageAuditor(Auditor):
    """Collects stream-shape coverage from inside the auditing container.

    It subscribes to every event type and observes exactly what any
    other auditor would see post-perturbation — delivery order, not
    record order — without touching :class:`ReplaySource` internals.
    """

    name = "coverage-probe"
    subscriptions = set(EventType)

    def __init__(self) -> None:
        super().__init__()
        self.map = CoverageMap()
        self._prev_type: Optional[str] = None
        self._prev_t_by_vcpu: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def audit(self, event: GuestEvent) -> None:
        etype = event.type.value
        self.map.add(f"type:{etype}")
        if self._prev_type is not None:
            self.map.add(f"trans:{self._prev_type}>{etype}")
        self._prev_type = etype
        vcpu = event.vcpu_index
        prev_t = self._prev_t_by_vcpu.get(vcpu)
        if prev_t is not None:
            self.map.add(f"gap:v{vcpu}:{gap_bucket(event.time_ns - prev_t)}")
        self._prev_t_by_vcpu[vcpu] = event.time_ns

    # ------------------------------------------------------------------
    def absorb_alerts(self, alerts_by_auditor: Dict[str, List[dict]]) -> None:
        """Fold alert-kind coverage in after a replay run."""
        for auditor, alerts in alerts_by_auditor.items():
            if auditor == self.name:
                continue
            for alert in alerts:
                self.map.add(f"alert:{auditor}:{alert.get('kind')}")
