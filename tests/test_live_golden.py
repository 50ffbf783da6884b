"""Pinned live behaviour: the fault-campaign grid and the recorded scenarios.

A speed-up on the live path (guest, engine, hw, KVM, EF, EM) that
changed what the simulation does would still pass a jobs-1-vs-jobs-2
comparison, because both sides would change alike.  These tests pin
the behaviour itself, as the unchanged program produced it at seed 0:

* every trial of the 8-trial grid the ``live-campaign`` benchmark runs
  (the first first-pass site of each fault class x ``http`` x transient
  x both preemption settings): its outcome and how many events its
  pipeline published, at ``jobs=1`` and ``jobs=2``;
* the sha256 of the record lines (header excluded: it carries wall
  time) of each of the four recordable scenarios.

If one of these moves, the change altered guest-visible behaviour; a
deliberate behaviour change re-pins them and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.campaign import TrialConfig, run_campaign
from repro.faults.injector import InjectionMode
from repro.faults.sites import FaultClass, build_site_catalog
from repro.replay.recorder import record_scenario
from repro.sim.clock import SECOND

#: The benchmark grid's shortened windows.
GRID_CONFIG = TrialConfig(
    warmup_ns=1 * SECOND,
    detect_window_ns=4 * SECOND,
    classify_window_ns=4 * SECOND,
    goshd_threshold_ns=2 * SECOND,
)

#: ``(site_id, preemptible, outcome, flow.published)`` per trial, in
#: grid order.
GRID_SEED0 = [
    (0, False, "full_hang", 497),
    (0, True, "full_hang", 497),
    (13, False, "not_manifested", 1071),
    (13, True, "not_manifested", 1071),
    (1, False, "partial_hang", 2166),
    (1, True, "partial_hang", 2166),
    (2, False, "not_manifested", 1077),
    (2, True, "not_manifested", 1077),
]

#: sha256 of the ``\n``-joined record lines of ``record <name> --seed 0``.
RECORD_LINES_SHA256 = {
    "baseline": "7268d56ae556c3ed9e640cafe1d7b9e437d3e17562e44ad2eb23dfc67e9647a4",
    "exploit": "e73c73638d20f210b82f9ef4109c0e146328dac4acd35e7d8827b1308050c699",
    "hang": "e04a1814da049b6aadb2819e88432e8b2458307e8da76b6e7c02a0b46f56dca2",
    "rootkit": "e3ff38b16abe6381addf410c3b5d2f061de96b41c92db33613af79b371b87d70",
}


def grid_sites():
    catalog = [s for s in build_site_catalog() if s.activation_pass == 1]
    return [next(s for s in catalog if s.fault_class is fault_class)
            for fault_class in FaultClass]


def published(snapshot) -> int:
    return sum(value for name, _, value in snapshot.get("counters", ())
               if name == "flow.published")


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_grid_is_pinned(jobs):
    summary = run_campaign(
        grid_sites(),
        workloads=("http",),
        modes=(InjectionMode.TRANSIENT,),
        preempt_options=(False, True),
        seeds=(0,),
        base_config=GRID_CONFIG,
        jobs=jobs,
    )
    got = [
        (r.site.site_id, r.config.preemptible, r.outcome.value, published(r.metrics))
        for r in summary.results
    ]
    assert got == GRID_SEED0


@pytest.mark.parametrize("scenario", sorted(RECORD_LINES_SHA256))
def test_recorded_scenario_is_pinned(scenario):
    run = record_scenario(scenario, seed=0)
    lines = "\n".join(json.dumps(record, sort_keys=True) for record in run.trace.records)
    assert hashlib.sha256(lines.encode()).hexdigest() == RECORD_LINES_SHA256[scenario]
