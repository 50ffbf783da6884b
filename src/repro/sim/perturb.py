"""Seeded schedule perturbation: adversarial interleavings on demand.

Heckler (arXiv:2404.03387) shows that adversarially *timed* event
streams break guarantees that look solid under benign schedules; IRIS
(arXiv:2303.12817) shows coverage-guided search over HAV exit spaces
needs deterministic replay of each explored schedule.  This module is
the engine-side half of both: a :class:`SchedulePerturbation` plugs into
:class:`~repro.sim.engine.Engine` as its ``schedule_policy`` and
perturbs scheduling decisions in three bounded, label-scoped ways:

* **same-instant reordering** — events scheduled for the same instant
  get a seeded tie priority instead of insertion order (the documented
  engine tie-break stays intact when no policy is installed);
* **bounded jitter** — matching labels (vCPU timeslice steps, delivery
  callbacks) are shifted later by up to a fraction of their delay,
  modelling jittered vCPU timeslices and delayed exit delivery;
* **dropped delivery** — matching labels are dropped with a bounded
  probability and a hard cap, modelling lost exit delivery (EF overload,
  torn buffers).

Every draw comes from one :class:`~repro.sim.rng.RandomStreams` stream,
so a seed names a perturbation schedule deterministically — the fuzzing
harness (``repro.testing``) records only the seed and can replay any
interleaving it found bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.sim.rng import RandomStreams

#: Labels the kernel uses for vCPU timeslice stepping, and the replay
#: source for event delivery — the default jitter/drop scopes.
TIMESLICE_LABELS: Tuple[str, ...] = ("step-vcpu",)
DELIVERY_LABELS: Tuple[str, ...] = ("replay-deliver",)

#: Tie priorities are drawn from [0, _PRIO_SPAN): large enough that
#: collisions are rare, small enough to stay cheap to compare.
_PRIO_SPAN = 1 << 20


@dataclass
class PerturbationConfig:
    """Bounds of one perturbation schedule (all scoped by label prefix)."""

    #: Shuffle same-instant ordering for labels starting with any of
    #: these prefixes; ``None`` means every label (bounded reordering —
    #: only ties in ``when`` are ever affected).
    shuffle_labels: Optional[Tuple[str, ...]] = None
    #: Jitter: delay matching labels by up to ``jitter_fraction`` of
    #: their relative delay (never earlier, never before ``now``).
    jitter_fraction: float = 0.0
    jitter_labels: Tuple[str, ...] = TIMESLICE_LABELS
    #: Delay delivery labels by up to ``delay_ns_max`` with probability
    #: ``delay_probability``.
    delay_probability: float = 0.0
    delay_ns_max: int = 0
    delay_labels: Tuple[str, ...] = DELIVERY_LABELS
    #: Drop delivery labels with probability ``drop_probability``,
    #: never more than ``max_drops`` in total.
    drop_probability: float = 0.0
    drop_labels: Tuple[str, ...] = DELIVERY_LABELS
    max_drops: int = 0


@dataclass
class PerturbationStats:
    """What one perturbation run actually did."""

    scheduled: int = 0
    shuffled: int = 0
    jittered: int = 0
    delayed: int = 0
    dropped: int = 0

    def as_dict(self) -> dict:
        return {
            "scheduled": self.scheduled,
            "shuffled": self.shuffled,
            "jittered": self.jittered,
            "delayed": self.delayed,
            "dropped": self.dropped,
        }


def _matches(label: str, prefixes: Optional[Tuple[str, ...]]) -> bool:
    if prefixes is None:
        return True
    return any(label.startswith(p) for p in prefixes)


@dataclass
class SchedulePerturbation:
    """Seeded ``schedule_policy`` for :class:`~repro.sim.engine.Engine`."""

    seed: int = 0
    config: PerturbationConfig = field(default_factory=PerturbationConfig)
    stats: PerturbationStats = field(default_factory=PerturbationStats)

    def __post_init__(self) -> None:
        self._rng = RandomStreams(self.seed).stream("schedule-perturb")

    # ------------------------------------------------------------------
    def on_schedule(
        self, when_ns: int, label: str, now_ns: int
    ) -> Tuple[int, int, bool]:
        """Adjust one scheduling decision; returns ``(when, prio, drop)``.

        The engine clamps ``when`` to ``now`` and honours ``drop`` by
        returning an already-cancelled handle, so callers that expect a
        handle (for cancellation) keep working.
        """
        cfg = self.config
        rng = self._rng
        self.stats.scheduled += 1
        prio = 0
        if _matches(label, cfg.shuffle_labels):
            prio = rng.randrange(_PRIO_SPAN)
            self.stats.shuffled += 1
        if cfg.jitter_fraction > 0 and _matches(label, cfg.jitter_labels):
            delay = when_ns - now_ns
            if delay > 0:
                extra = rng.randrange(
                    0, max(1, int(delay * cfg.jitter_fraction)) + 1
                )
                if extra:
                    when_ns += extra
                    self.stats.jittered += 1
        if cfg.delay_probability > 0 and _matches(label, cfg.delay_labels):
            if cfg.delay_ns_max > 0 and rng.random() < cfg.delay_probability:
                when_ns += rng.randrange(1, cfg.delay_ns_max + 1)
                self.stats.delayed += 1
        if cfg.drop_probability > 0 and _matches(label, cfg.drop_labels):
            if (
                self.stats.dropped < cfg.max_drops
                and rng.random() < cfg.drop_probability
            ):
                self.stats.dropped += 1
                return when_ns, prio, True
        return when_ns, prio, False


def replay_perturbation(
    seed: int,
    *,
    shuffle: bool = True,
    delay_probability: float = 0.1,
    delay_ns_max: int = 500_000_000,
    drop_probability: float = 0.02,
    max_drops: int = 5,
) -> SchedulePerturbation:
    """Perturbation tuned for replayed delivery (``replay-deliver``):
    same-instant shuffles everywhere, delayed/dropped delivery only."""
    return SchedulePerturbation(
        seed=seed,
        config=PerturbationConfig(
            shuffle_labels=None if shuffle else (),
            delay_probability=delay_probability,
            delay_ns_max=delay_ns_max,
            drop_probability=drop_probability,
            max_drops=max_drops,
        ),
    )


def perturbation_from_params(params: dict) -> SchedulePerturbation:
    """Rebuild a delivery perturbation from its serialized parameters.

    The fuzzer records ``{"seed", "delay_probability", "delay_ns_max",
    "drop_probability", "max_drops"}`` in each finding so the exact
    adversarial schedule can be replayed later (shrinking, corpus
    verification).
    """
    return replay_perturbation(
        int(params["seed"]),
        delay_probability=float(params.get("delay_probability", 0.0)),
        delay_ns_max=int(params.get("delay_ns_max", 0)),
        drop_probability=float(params.get("drop_probability", 0.0)),
        max_drops=int(params.get("max_drops", 0)),
    )


def interleave_perturbation(
    seed: int, labels: Tuple[str, ...] = ("hut-op",)
) -> SchedulePerturbation:
    """Perturbation for the hut interleave differential: *only*
    same-instant shuffles, scoped to the hut op labels.

    No jitter, delays or drops — those would move ops across instants
    and break the soundness argument (each vCPU's own program order must
    be preserved; only the arbitration between vCPUs at one instant is
    architecturally unspecified, so only that may vary).
    """
    return SchedulePerturbation(
        seed=seed,
        config=PerturbationConfig(shuffle_labels=tuple(labels)),
    )
