"""Run ``python -m repro.serve`` with the layer wrappers installed.

Usage: ``python serve_traced.py --out DIR -- run --jobs 1 --socket PATH``

The service's own ``main`` runs unchanged; every layer boundary of
:mod:`layers` is wrapped, plus the connection handler as the root span.
At exit the spans go to ``DIR/spans.bin`` and the per-layer values to
``DIR/summary.json`` for the benchmark process to read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from common import percentile  # noqa: E402
from tracing import Boundary, Tracer, layer_metrics, traced, write_spans  # noqa: E402


def main(argv) -> int:
    split = argv.index("--")
    out = Path(argv[argv.index("--out") + 1])
    serve_argv = argv[split + 1:]
    tracer = Tracer()
    services = []

    def keep_service(tracer, args, result):
        services.append(args[0])

    rows = layers.boundaries() + [
        Boundary("repro.serve.service", "StreamService.__init__", "other",
                 after=keep_service),
        Boundary("repro.serve.service", "StreamService._handle_connection", "other"),
    ]
    from repro.serve.__main__ import main as serve_main

    with traced(tracer, rows):
        code = serve_main(serve_argv)

    values = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    values.update(layers.counts_from_spans(tracer))
    payloads = [p for service in services for p in service.payloads.values()]
    snapshots = [s for service in services for s in service.snapshots.values()]
    values["decode.rejected"] = sum(p["rejected"] for p in payloads)
    values["replay.records"] = sum(
        p["events_replayed"] + p["rejected"] + p["scans"] for p in payloads)
    values["container.dropped"] = sum(
        layers.snapshot_total(snapshots, "flow.dropped", reason=reason)
        for reason in ("crash", "quarantined"))
    values["admission.dropped"] = sum(sum(p["dropped"].values()) for p in payloads)
    waits = tracer.samples.get("admission.wait_ns")
    if waits:
        values["admission.queue_wait_ns_p99"] = percentile(waits, 0.99)
    out.mkdir(parents=True, exist_ok=True)
    write_spans(tracer, out / "spans.bin", {"workload": "serve-socket"})
    (out / "summary.json").write_text(
        json.dumps({"values": values}, sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
