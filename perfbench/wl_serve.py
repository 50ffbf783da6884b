"""Workload ``serve-socket``: socket stream -> verdicts.

``python -m repro.serve run --jobs 1`` runs as a child process and the
benchmark is its only client, on one connection (:mod:`serve_client`).
Set-up records the exploit and hang scenarios at the seed, encodes
their records, spawns the service and pushes one stream of each
through it.  Then two phases:

* **open loop** — stream opens arrive as a seeded Poisson process at
  :data:`OPEN_RATE` streams/s (see there for how it relates to the
  closed-loop capacity).  The mix is mostly
  short exploit streams plus longer hang streams, where GOSHD's timer
  checks raise the verdict.  Each stream is timed from its scheduled
  open to the receipt of its ``verdict`` frame.
* **closed loop** — cycles of the same :data:`CLOSED_CYCLE` streams,
  one in flight, each next stream sent when one finishes; capacity is
  one cycle's work over the median cycle.

The client and the service share one CPU, and times are corrected for
host contention on it (:mod:`speed`) by probes the client takes while
the service is idle: one between two closed-loop streams, one just
before each open-loop arrival is due and one when a verdict arrives,
the open-loop ones only while no stream is in flight.
This is why the closed loop keeps one stream in flight, not two: with
two, the service is never idle, and a probe would time-share the CPU
with it.

Every verdict must pass ``check_payloads``, report ``reproduced`` and
match the recorded live verdicts; the service must answer ``shutdown``
with ``bye``, exit 0 and leave no traceback on its stderr.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import speed
from common import (
    MIN_OPS, MIN_ROUNDS, OUT_DIR, SETUP_REPEATS, Metrics, Outcome, Timings,
    percentile, peak_rss_mb, sha256_json,
)
from serve_client import LatencyBook, ServeClient, encode_bodies, run_open_loop

from repro.prof import perf_counter
from repro.replay.recorder import record_scenario
from repro.serve.load import check_payloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Open-loop stream arrival rate (streams per wall second).  This mix's
#: closed-loop capacity was 15-25 streams/s of wall time on the
#: reference machine, half that while the host's neighbours slowed it.
#: Every stream shares one connection and one CPU, so overlapping
#: streams slow each other, and above ~40% load a slow spell doubled
#: p50 and p90; 3/s keeps the load under that when slow.
OPEN_RATE = 3.0
#: Share of hang streams in the mix; the rest are exploit streams.  At
#: 0.15 the p50 stream is an exploit stream and the p90 stream a hang
#: stream (even the slowest exploit stream finishes before the fastest
#: hang stream), so neither percentile sits on the boundary between
#: the two.
HANG_SHARE = 0.15
#: Open-loop streams per run: p90 needs 10 samples beyond it.
OPEN_STREAMS = MIN_OPS
#: Streams in one cycle of the closed-loop sequence.
CLOSED_CYCLE = 20
#: Share of ``--seconds`` the closed loop runs for (and at least
#: ``MIN_ROUNDS`` cycles); the open loop's fixed plan takes the rest.
CLOSED_SHARE = 0.5
#: p99 of sender lateness above which the open loop did not run open.
LAG_BOUND_MS = 50.0
#: How long before an arrival is due the sender takes its speed probe
#: (a probe takes 4-10 ms), when the gap to it is that long.
PROBE_LEAD_S = 0.03
#: Longest a phase may take before the run gives up on the service.
PHASE_TIMEOUT_S = 120.0


class Inputs:
    """What set-up produced: per-scenario header, bodies and verdicts."""

    def __init__(self, seed: int) -> None:
        self.header: Dict[str, Dict[str, Any]] = {}
        self.bodies: Dict[str, List[bytes]] = {}
        self.end_ns: Dict[str, Optional[int]] = {}
        self.verdicts: Dict[str, list] = {}
        for name in ("exploit", "hang"):
            trace = record_scenario(name, seed=seed).trace
            trace.header.meta.pop("live_wall_seconds", None)
            self.header[name] = trace.header.to_record()
            self.bodies[name] = encode_bodies(trace.records)
            self.end_ns[name] = trace.header.end_ns
            self.verdicts[name] = trace.header.meta["live_verdicts"]

    def digest(self) -> str:
        return sha256_json({
            name: [self.header[name],
                   [b.decode("utf-8") for b in self.bodies[name]]]
            for name in sorted(self.header)
        })


def build_plan(seed: int, n_open: int, n_closed: int) -> Dict[str, Any]:
    """Seeded arrival plan: open-loop (due time, scenario) pairs and the
    closed-loop scenario sequence."""
    rng = random.Random(f"perfbench-serve:{seed}")

    def mix(n: int) -> List[str]:
        # An exact share, shuffled: a binomial draw would move p90 and
        # the offered load from seed to seed.
        hang = round(HANG_SHARE * n)
        names = ["hang"] * hang + ["exploit"] * (n - hang)
        rng.shuffle(names)
        return names

    t = 0.0
    arrivals = []
    for scenario in mix(n_open):
        t += rng.expovariate(OPEN_RATE)
        arrivals.append((round(t, 6), scenario))
    return {"open": arrivals, "closed": mix(n_closed)}


# ----------------------------------------------------------------------
# The service child
# ----------------------------------------------------------------------
class Service:
    """A ``repro.serve run`` child on a socket under ``perfbench/out``."""

    def __init__(self, tag: str, traced_out: Optional[Path] = None) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        sock = OUT_DIR / f"{tag}-{os.getpid()}.sock"
        # Relative: UNIX socket paths are limited to ~100 bytes and the
        # checkout may live anywhere.
        self.socket = os.path.relpath(sock)
        if len(self.socket) > 100:
            raise OSError(f"socket path too long: {self.socket}")
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        self.stderr_path = OUT_DIR / f"{tag}-{os.getpid()}.stderr"
        serve_args = ["run", "--jobs", "1", "--socket", self.socket]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--out", str(traced_out), "--", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, env=env)
        line = self.proc.stdout.readline()
        if not line.startswith(b"serving on"):
            self.stop()
            raise OSError(f"service did not start: {line!r}")

    def kill(self) -> None:
        """Last-resort cleanup on an error path: the child never outlives us."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        if os.path.exists(self.socket):
            os.unlink(self.socket)

    def stop(self, timeout: float = 30.0) -> List[str]:
        """Wait for the child (killing it past ``timeout``); returns problems."""
        problems = []
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
            problems.append("service did not exit after shutdown")
        self.proc.stdout.close()
        self._stderr.close()
        if code != 0:
            problems.append(f"service exited with code {code}")
        text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        if "Traceback" in text:
            problems.append("traceback on the service's stderr")
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        if not problems:  # kept for diagnosis otherwise
            self.stderr_path.unlink()
        return problems


async def _shutdown(socket_path: str) -> bool:
    client = await ServeClient.connect(socket_path)
    return await client.shutdown()


async def _warm(socket_path: str, inputs: "Inputs", outcome: Outcome) -> None:
    """One stream of each scenario on a throwaway connection, so the
    timed phases do not pay the service's first-stream costs."""
    client = await ServeClient.connect(socket_path)
    for scenario in ("exploit", "hang"):
        await _one_stream(client, inputs, f"warm-{scenario}", scenario, outcome)
    await client.close()


def stop_service(service: Service, client_ok: bool, outcome: Outcome) -> None:
    if not client_ok:
        outcome.fail("service did not answer shutdown with bye")
    for problem in service.stop():
        outcome.fail(problem)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def _check(payload: Optional[dict], stream_id: str, expected: list) -> str:
    if payload is None:
        return f"{stream_id}: no verdict (connection failed)"
    problems = check_payloads([payload])
    if problems:
        return problems[0]
    if payload.get("reproduced") is not True:
        return f"{stream_id}: reproduced={payload.get('reproduced')!r}"
    if payload.get("verdicts") != expected:
        return f"{stream_id}: verdicts differ from the recorded live run"
    return ""


async def _one_stream(client: ServeClient, inputs: Inputs, stream_id: str,
                      scenario: str, outcome: Outcome) -> Optional[float]:
    payload, received = await client.run_stream(
        stream_id, inputs.header[scenario], inputs.bodies[scenario],
        inputs.end_ns[scenario])
    problem = _check(payload, stream_id, inputs.verdicts[scenario])
    outcome.record(not problem, problem)
    return None if problem else received


async def open_phase(client: ServeClient, inputs: Inputs,
                     arrivals: List[Tuple[float, str]],
                     outcome: Outcome) -> Tuple[LatencyBook, List[Tuple[float, ...]]]:
    """Returns the book and, per stream, the speed probes it is
    corrected by: the last one taken before it was due and the last one
    taken by the time its verdict arrived.  A probe is only taken while
    no stream is in flight, so it never shares the CPU with the
    service."""
    book = LatencyBook([due for due, _ in arrivals])
    probes = [speed.probe()]
    stream_probes: List[Tuple[float, ...]] = [(speed.PROBE_REF_S,)] * len(arrivals)
    in_flight = [0]

    def probe_if_idle() -> None:
        if in_flight[0] == 0:
            probes.append(speed.probe())

    async def sleep_then_probe(delay: float) -> None:
        # The sender's gap before an arrival is due.
        wake = perf_counter() + delay
        if delay > PROBE_LEAD_S:
            await asyncio.sleep(delay - PROBE_LEAD_S)
            probe_if_idle()
        rest = wake - perf_counter()
        if rest > 0:
            await asyncio.sleep(rest)

    async def start(i: int) -> Optional[float]:
        before = probes[-1]
        _, scenario = arrivals[i]
        in_flight[0] += 1
        try:
            received = await _one_stream(client, inputs, f"o{i:04d}-{scenario}",
                                         scenario, outcome)
        finally:
            in_flight[0] -= 1
        probe_if_idle()
        stream_probes[i] = (before, probes[-1])
        return received

    await run_open_loop(book, start, sleep=sleep_then_probe)
    return book, stream_probes


async def closed_cycle(client: ServeClient, inputs: Inputs, sequence: List[str],
                       outcome: Outcome, cycle: int = 0) -> Tuple[float, float]:
    """Run the sequence once, one stream at a time, each between two
    speed probes (the service is idle then); returns the cycle's summed
    stream walls, (raw, corrected)."""
    raw = corrected = 0.0
    before = speed.probe()
    for i, scenario in enumerate(sequence):
        t0 = perf_counter()
        await _one_stream(client, inputs, f"c{cycle:03d}.{i:03d}-{scenario}",
                          scenario, outcome)
        wall = perf_counter() - t0
        after = speed.probe()
        raw += wall
        corrected += speed.correct(wall, (before, after))
        before = after
    return raw, corrected


async def closed_phase(client: ServeClient, inputs: Inputs, sequence: List[str],
                       outcome: Outcome, seconds: float) -> List[Tuple[float, float]]:
    """Whole cycles of the sequence until ``seconds`` pass and at least
    :data:`MIN_ROUNDS` cycles ran; returns each cycle's (raw, corrected)
    wall time.  Every cycle completes the same mix of scenarios."""
    deadline = perf_counter() + seconds
    walls: List[Tuple[float, float]] = []
    while len(walls) < MIN_ROUNDS or perf_counter() < deadline:
        walls.append(await closed_cycle(client, inputs, sequence, outcome, len(walls)))
    return walls


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> Tuple[Outcome, Metrics, List[str]]:
    services: List[Service] = []
    try:
        # The client and every service it starts share one CPU, the one
        # the speed probes run on.
        with speed.one_cpu():
            return _run(seed, seconds, trace, services)
    finally:
        for service in services:
            service.kill()


def _run(seed: int, seconds: float, trace: bool,
         services: List[Service]) -> Tuple[Outcome, Metrics, List[str]]:
    outcome = Outcome()
    setups: List[float] = []
    service: Optional[Service] = None
    repeats = 1 if trace else SETUP_REPEATS
    digests = set()
    for i in range(repeats):
        if service is not None:
            stop_service(service, asyncio.run(_shutdown(service.socket)), outcome)
        before = speed.probe()
        t0 = perf_counter()
        inputs = Inputs(seed)
        service = Service("serve")
        services.append(service)
        asyncio.run(_warm(service.socket, inputs, outcome))
        setups.append(speed.correct(perf_counter() - t0, (before, speed.probe())))
        digests.add(inputs.digest())
    if len(digests) != 1:
        outcome.fail("set-ups recorded different inputs for one seed")
    plan = build_plan(seed, OPEN_STREAMS, CLOSED_CYCLE)
    notes = [f"seed {seed}", f"input traces sha256 {digests.pop()}",
             f"arrival plan sha256 {sha256_json(plan)}"]
    if trace:
        metrics = _traced(service, inputs, plan, outcome, seed, notes, services)
        return outcome, metrics, notes

    async def measure():
        client = await ServeClient.connect(service.socket)
        book, stream_probes = await open_phase(client, inputs, plan["open"], outcome)
        walls = await closed_phase(client, inputs, plan["closed"], outcome,
                                   seconds * CLOSED_SHARE)
        return book, stream_probes, walls, await client.shutdown()

    # A service that stops answering must not hold the run past its
    # time limit; the caller then kills the child.
    book, stream_probes, walls, ok = asyncio.run(
        asyncio.wait_for(measure(), PHASE_TIMEOUT_S))
    stop_service(service, ok, outcome)
    lag_p99 = 1000 * percentile(book.send_lags(), 0.99)
    if lag_p99 > LAG_BOUND_MS:
        outcome.fail(f"open loop invalid: sender lag p99 {lag_p99:.1f} ms "
                     f"> {LAG_BOUND_MS} ms")
    timings = Timings()
    timings.rounds = walls
    timings.ops = [(latency, speed.correct(latency, probes))
                   for latency, probes in zip(book.latencies(), stream_probes)]
    events = sum(len(inputs.bodies[scenario]) for scenario in plan["closed"])
    streams = len(plan["closed"])
    notes += [
        f"open loop: {len(timings.ops)} streams at {OPEN_RATE}/s, "
        f"hang share {HANG_SHARE}; loadgen.send_lag_ms_p99 {lag_p99:.3f} ms",
        f"closed loop: cycles of {streams} streams, {events} events each, "
        f"one stream in flight; client and service on one CPU",
    ]
    notes += timings.notes(events, streams)
    metrics: Metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(include_children=True), "MB"),
        **timings.metrics(events, streams),
    }
    return outcome, metrics, notes


def _traced(service: Service, inputs: Inputs, plan: Dict[str, Any],
            outcome: Outcome, seed: int, notes: List[str],
            services: List[Service]) -> Metrics:
    """Untraced service: a short open loop (sender lag) and one cycle
    of the closed-loop sequence; then a traced service on that cycle."""
    sequence = plan["closed"]
    warm = plan["open"][:20]

    async def untraced():
        client = await ServeClient.connect(service.socket)
        book, _ = await open_phase(client, inputs, warm, outcome)
        _, wall = await closed_cycle(client, inputs, sequence, outcome)
        return book, wall, await client.shutdown()

    book, untraced_wall, ok = asyncio.run(
        asyncio.wait_for(untraced(), PHASE_TIMEOUT_S))
    stop_service(service, ok, outcome)

    out = OUT_DIR / f"serve-traced-s{seed}"
    traced_service = Service("serve-traced", traced_out=out)
    services.append(traced_service)

    async def traced_run():
        client = await ServeClient.connect(traced_service.socket)
        _, wall = await closed_cycle(client, inputs, sequence, outcome)
        return client, wall, await client.shutdown()

    client, traced_wall, ok = asyncio.run(
        asyncio.wait_for(traced_run(), PHASE_TIMEOUT_S))
    stop_service(traced_service, ok, outcome)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    values: Dict[str, float] = dict(summary["values"])
    values["transport.client_s"] = client.client_s
    values["transport.credit_wait_s"] = client.credit_wait_s
    values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    values["loadgen.send_lag_ms_p99"] = 1000 * percentile(book.send_lags(), 0.99)
    notes.append("serve layers traced inside the service child; "
                 "transport.client_s and transport.credit_wait_s are client-side")
    return layers.assemble(values)
