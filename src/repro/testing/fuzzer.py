"""One fuzz campaign core for both systems under test.

A campaign's *target* names what gets fuzzed:

* a recorded scenario (:data:`repro.replay.recorder.SCENARIOS`) — the
  monitoring stack.  :class:`TraceTarget` derives candidate traces by
  trace mutation (:class:`~repro.replay.mutate.TraceMutator`), schedule
  perturbation (:func:`~repro.sim.perturb.replay_perturbation`) or
  both, replays them through fresh unmodified auditors with a
  :class:`~repro.testing.coverage.CoverageAuditor` riding along, and
  asks the :class:`~repro.testing.oracle.DifferentialOracle` whether
  the verdicts match trace ground truth;
* a hut target (:data:`repro.testing.hut.program.TARGETS`) — the
  monitored stack, through :class:`repro.testing.hut.target.HutTarget`.

:func:`_run_shard` owns everything the two have in common: the seeded
pool and the parent draw, coverage merge and pool admission (AFL's
feedback loop, IRIS's exit-space exploration), finding recording —
every occurrence, plus the first witness per key — and the merge of
each execution's metrics snapshot.  A plug-in supplies the rest and
fixes its seed derivation, RNG stream, shard count and pool cap as
constants, so a ``(target, seed, budget)`` triple names the whole
campaign byte-for-byte.

A campaign always runs as its target's fixed number of shards, each a
pure function of ``(config, shard)``, merged in shard order through
:func:`repro.parallel.parallel_map` — so any job count yields the same
result.  Within a shard the coverage-feedback pool makes execution
``i+1`` depend on execution ``i``; that is why the cut is at the shard.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.obs.metrics import MetricsRegistry
from repro.parallel import parallel_map
from repro.replay.format import Trace
from repro.replay.mutate import TraceMutator
from repro.replay.recorder import SCENARIOS, auditors_for
from repro.replay.source import ReplaySource
from repro.replay.trace_io import save_trace
from repro.sim.clock import MILLISECOND, SECOND
from repro.sim.perturb import perturbation_from_params
from repro.sim.rng import RandomStreams
from repro.testing.coverage import CoverageAuditor, CoverageMap
from repro.testing.oracle import DifferentialOracle, Discrepancy
from repro.testing.seeds import base_trace
from repro.testing.shrink import subtrace


@dataclass
class FuzzConfig:
    """One campaign's parameters."""

    #: A recorded scenario or a hut target (:func:`target_class`).
    target: str = "exploit"
    seed: int = 0
    #: Executions across all shards, each shard's unmutated baseline
    #: included.
    budget: int = 60
    #: Hut targets: ops in each shard's baseline program.
    length: int = 48
    #: Mutation operators applied per mutated candidate.
    mutations: int = 2
    #: Hut targets: inject this seeded emulator bug (mutation-kill
    #: audit).
    bug: Optional[str] = None

    def __post_init__(self) -> None:
        cls = target_class(self.target)
        if self.bug is not None:
            from repro.testing.hut.bugs import SEEDED_BUGS

            if cls is TraceTarget or self.bug not in SEEDED_BUGS:
                raise ValueError(
                    f"unknown seeded bug {self.bug!r} for target "
                    f"{self.target!r}"
                )


@dataclass
class FuzzResult:
    """What one campaign (or one shard of it) produced."""

    config: FuzzConfig
    executions: int = 0
    crashes: int = 0
    #: Executions that contributed at least one new coverage feature.
    coverage_events: int = 0
    pool_size: int = 0
    #: JSONL-ready finding dicts, one per occurrence, in shard then
    #: execution order.
    findings: List[Dict[str, Any]] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    #: First witness per finding key: the arguments of
    #: :func:`repro.testing.corpus.save_entry`.
    witnesses: Dict[str, Tuple] = field(default_factory=dict)
    #: Every execution's registry snapshot merged in execution order,
    #: plus ``fuzz.*`` campaign rows (deterministic for a fixed config).
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def unique_keys(self) -> List[str]:
        return sorted({f["key"] for f in self.findings})


def target_names() -> List[str]:
    """Every ``--target`` value: the scenarios, then the hut targets."""
    from repro.testing.hut.program import TARGETS

    return sorted(SCENARIOS) + list(TARGETS)


def target_class(name: str):
    """The plug-in class fuzzing ``name``."""
    if name in SCENARIOS:
        return TraceTarget
    from repro.testing.hut.program import TARGETS

    if name in TARGETS:
        from repro.testing.hut.target import HutTarget

        return HutTarget
    raise ValueError(f"unknown fuzz target {name!r}")


# ======================================================================
# The campaign core
# ======================================================================
def _run_shard(task: Tuple[FuzzConfig, int, int]) -> FuzzResult:
    """One shard: ``budget`` executions from the target's baseline.

    Picklable and pure in ``task``, so it may run in a worker process.
    """
    config, shard, budget = task
    target = target_class(config.target)(config, shard)
    rng = RandomStreams(target.seed).stream(target.STREAM)
    out = FuzzResult(config=config)
    registry = MetricsRegistry()
    pool = [target.baseline()]
    for iteration in range(budget):
        # Execution 0 is the pristine baseline: findings there mean the
        # system under test disagrees with its oracle on unmutated input.
        parent = pool[rng.randrange(len(pool))] if iteration else pool[0]
        candidate, fields = target.derive(parent, rng, iteration)
        found, coverage, snapshot = target.execute(candidate, fields)
        out.executions += 1
        registry.merge(snapshot)
        if out.coverage.merge(coverage):
            out.coverage_events += 1
            # A perturbation-only candidate is its parent replayed under
            # another schedule: replay-time policy, not new content.
            if candidate is not parent and len(pool) < target.MAX_POOL:
                pool.append(candidate)
        for disc in found:
            if disc.kind == "crash":
                out.crashes += 1
            entry = disc.as_dict()
            entry.update(fields, iteration=iteration)
            if target.SHARDS > 1:
                entry["shard"] = shard
            out.findings.append(entry)
            if entry["key"] not in out.witnesses:
                out.witnesses[entry["key"]] = target.witness(candidate, entry)
    out.pool_size = len(pool)
    out.metrics = registry.snapshot()
    return out


def fuzz(config: FuzzConfig, jobs: Optional[int] = None) -> FuzzResult:
    """Run one campaign as its target's shards, merged in shard order."""
    shards = target_class(config.target).SHARDS
    share, extra = divmod(config.budget, shards)
    budgets = [share + (1 if shard < extra else 0) for shard in range(shards)]
    tasks = [(config, shard, n) for shard, n in enumerate(budgets) if n]
    result = FuzzResult(config=config)
    registry = MetricsRegistry()
    for part in parallel_map(_run_shard, tasks, jobs=jobs):
        result.executions += part.executions
        result.crashes += part.crashes
        result.coverage_events += part.coverage_events
        result.pool_size += part.pool_size
        result.findings.extend(part.findings)
        result.coverage.merge(part.coverage)
        for key, witness in part.witnesses.items():
            result.witnesses.setdefault(key, witness)
        registry.merge(part.metrics)
    target = config.target
    registry.counter("fuzz.execs", target=target).value = result.executions
    registry.counter("fuzz.crashes", target=target).value = result.crashes
    kinds = Counter({f["key"]: f["kind"] for f in result.findings}.values())
    for kind, count in sorted(kinds.items()):
        registry.counter("fuzz.findings", target=target, kind=kind).value = count
    result.metrics = registry.snapshot()
    return result


# ======================================================================
# The trace target
# ======================================================================
#: How a candidate is derived from its parent each execution.
_MODES = ("mutate", "perturb", "both")

#: Adversarial delivery-parameter menu (Heckler-style: the interesting
#: schedules are the *aggressive* ones — multi-second delays shuffle
#: arrival order across auditor windows, heavy drops starve blocking
#: checkpoints).  Each perturbed execution draws one value per axis.
_DELAY_PROBABILITIES = (0.0, 0.1, 0.3, 0.6)
_DELAY_MAXIMA = (
    100 * MILLISECOND,
    500 * MILLISECOND,
    2 * SECOND,
    6 * SECOND,
)
_DROP_PROBABILITIES = (0.0, 0.05, 0.2, 0.5, 0.9)
_DROP_CAPS = (5, 50, 400, 4000)

#: The trace-entry finding fields (``Discrepancy.as_dict``).
_FINDING_FIELDS = ("kind", "auditor", "subject", "detail", "key")

_ORACLE = DifferentialOracle()


def _draw_perturb_params(rng, seed: int) -> Dict[str, Any]:
    def pick(menu):
        return menu[rng.randrange(len(menu))]

    return {
        "seed": seed,
        "delay_probability": pick(_DELAY_PROBABILITIES),
        "delay_ns_max": pick(_DELAY_MAXIMA),
        "drop_probability": pick(_DROP_PROBABILITIES),
        "max_drops": pick(_DROP_CAPS),
    }


def _replay(trace: Trace, perturb_params, *extra, metrics=None):
    perturb = (
        perturbation_from_params(perturb_params) if perturb_params else None
    )
    return ReplaySource(
        trace, auditors_for(trace) + list(extra), perturb=perturb,
        metrics=metrics,
    ).run()


class TraceTarget:
    """Fuzz plug-in and corpus-entry kind for recorded traces."""

    STREAM = "fuzz"
    SHARDS = 1
    MAX_POOL = 32
    SHRINK_TESTS = 2000
    UNIT = "records"
    #: Entry naming: ``miss-hrkd-pid7.jsonl``.
    PREFIX = ""
    SEP = ""

    def __init__(self, config: FuzzConfig, shard: int) -> None:
        self.config = config
        self.seed = config.seed

    def baseline(self) -> Trace:
        return base_trace(self.config.target, seed=self.config.seed)

    def derive(self, parent: Trace, rng, iteration: int):
        candidate, ops, perturb = parent, [], None
        if iteration:
            iter_seed = rng.randrange(2**31)
            mode = _MODES[rng.randrange(len(_MODES))]
            if mode != "perturb":
                candidate, ops = TraceMutator(seed=iter_seed).mutate(
                    parent, n_mutations=self.config.mutations
                )
            if mode != "mutate":
                perturb = _draw_perturb_params(rng, iter_seed)
        return candidate, {
            "scenario": self.config.target,
            "seed": self.config.seed,
            "ops": ops,
            "perturb": perturb,
        }

    def execute(self, trace: Trace, fields: Dict[str, Any]):
        probe = CoverageAuditor()
        registry = MetricsRegistry()
        report = _replay(trace, fields["perturb"], probe, metrics=registry)
        probe.absorb_alerts(report.alerts)
        return _ORACLE.check(trace, report), probe.map, registry.snapshot()

    def witness(self, trace: Trace, entry: Dict[str, Any]) -> Tuple:
        snapshot = Trace(
            header=copy.deepcopy(trace.header), records=trace.records
        )
        return snapshot, entry, entry["perturb"], len(trace.records)

    # ------------------------------------------------------------------
    # Corpus-entry side
    # ------------------------------------------------------------------
    @staticmethod
    def meta(trace: Trace) -> Dict[str, Any]:
        return trace.header.meta

    @staticmethod
    def items(trace: Trace) -> List[Any]:
        return trace.records

    rebuild = staticmethod(subtrace)

    @staticmethod
    def params(trace: Trace) -> Optional[Dict[str, Any]]:
        """The schedule perturbation the header's finding replays under."""
        finding = trace.header.meta.get("finding")
        perturb = finding.get("perturb") if isinstance(finding, dict) else None
        if perturb is not None:
            try:
                perturbation_from_params(perturb)
            except (AttributeError, KeyError, TypeError, ValueError):
                raise TraceFormatError(f"bad perturb parameters {perturb!r}")
        return perturb

    @staticmethod
    def check(trace: Trace, perturb_params) -> List[Discrepancy]:
        return _ORACLE.check(trace, _replay(trace, perturb_params))

    @staticmethod
    def stamp(
        trace: Trace,
        finding: Dict[str, Any],
        perturb_params,
        original: Optional[int],
    ) -> None:
        meta = {k: finding[k] for k in _FINDING_FIELDS if k in finding}
        meta["perturb"] = dict(perturb_params) if perturb_params else None
        if original is not None:
            meta["original_records"] = original
        trace.header.meta["finding"] = meta

    write = staticmethod(save_trace)
