"""The asyncio socket service end to end (repro.serve.service).

Everything here drives a real UNIX socket — the point is that the
wall-clock transport cannot reach the deterministic results: jobs=1
vs jobs=2 byte-identical, repeat runs byte-identical, errors contained
to one connection.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.replay.recorder import record_scenario
from repro.serve.load import build_plan, run_load
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.serve.service import StreamService

HELLO = encode_frame({"kind": "hello", "version": PROTOCOL_VERSION})


def serve_and(client_coro_factory, jobs=1, config=None, tmp_path=None):
    """Start a service on a tmp socket, run the client, stop cleanly."""
    socket_path = str(tmp_path / "serve.sock")

    async def scenario():
        service = StreamService(socket_path, jobs=jobs, config=config)
        await service.start()
        try:
            result = await client_coro_factory(socket_path)
        finally:
            await service.stop()
        return service, result

    return asyncio.run(scenario())


def small_plan(seed=3, streams=2):
    return build_plan("spike", seed=seed, streams=streams)


async def exchange(socket_path, pieces, eof=True, welcome_first=False):
    """Write ``pieces`` one write each (yielding between writes so the
    service sees them as separate reads), then read every reply frame
    until the service closes.  ``welcome_first`` waits for the welcome
    after the first piece, as a polite client does."""
    reader, writer = await asyncio.open_unix_connection(
        socket_path, limit=4 * MAX_FRAME_BYTES
    )
    replies = []
    try:
        for i, piece in enumerate(pieces):
            writer.write(piece)
            await writer.drain()
            await asyncio.sleep(0)
            if welcome_first and i == 0:
                replies.append(await reader.readline())
        if eof:
            writer.write_eof()
    except ConnectionError:
        pass  # the service hung up first; its replies are still readable
    while True:
        line = await reader.readline()
        if not line:
            break
        replies.append(line)
    writer.close()
    return replies


def host_rows(export_frame):
    """The transport rows of an ``export{scope: all}`` reply."""
    return [line for line in export_frame["lines"] if "transport." in line]


class TestEndToEnd:
    def test_load_reports_every_stream_with_reproduced_verdicts(self, tmp_path):
        plan = small_plan()

        async def client(socket_path):
            return await run_load(socket_path, plan, export_scope="pipeline")

        service, result = serve_and(client, tmp_path=tmp_path)
        assert [v["stream"] for v in result["verdicts"]] == sorted(
            spec["stream"] for spec in plan
        )
        for verdict in result["verdicts"]:
            assert verdict["offered"] == verdict["admitted"] + sum(
                verdict["dropped"].values()
            )
            assert verdict["reproduced"] is True
        assert result["export"]
        assert len(service.payloads) == len(plan)

    def test_jobs_do_not_change_verdicts_or_export(self, tmp_path):
        plan = small_plan()

        async def client(socket_path):
            return await run_load(socket_path, plan, export_scope="pipeline")

        _, serial = serve_and(client, jobs=1, tmp_path=tmp_path)
        _, sharded = serve_and(client, jobs=2, tmp_path=tmp_path)
        assert serial["verdicts"] == sharded["verdicts"]
        assert serial["export"] == sharded["export"]

    def test_repeat_runs_against_one_service_are_byte_identical(self, tmp_path):
        # Closed stream ids are reusable: re-running the same seeded
        # load against a long-lived service overwrites its results and
        # reproduces them exactly.
        plan = small_plan()

        async def client(socket_path):
            first = await run_load(socket_path, plan, export_scope="pipeline")
            second = await run_load(socket_path, plan, export_scope="pipeline")
            return first, second

        _, (first, second) = serve_and(client, tmp_path=tmp_path)
        assert first["verdicts"] == second["verdicts"]
        assert first["export"] == second["export"]

    def test_transport_counters_stay_out_of_pipeline_export(self, tmp_path):
        plan = small_plan()

        async def client(socket_path):
            pipeline = await run_load(socket_path, plan, export_scope="pipeline")
            host = await run_load(socket_path, plan, export_scope="all")
            return pipeline, host

        _, (pipeline, host) = serve_and(client, tmp_path=tmp_path)
        assert not any("transport." in line for line in pipeline["export"])
        assert any("transport." in line for line in host["export"])

    def test_overload_sheds_with_visible_slowdown_and_accounting(self, tmp_path):
        plan = build_plan(
            "spike",
            seed=3,
            streams=2,
            rate=200_000.0,
            config={"max_wait_ns": 1_000_000},
        )

        async def client(socket_path):
            return await run_load(socket_path, plan)

        _, result = serve_and(client, tmp_path=tmp_path)
        total_dropped = sum(
            sum(v["dropped"].values()) for v in result["verdicts"]
        )
        assert total_dropped > 0
        assert result["slowdowns"] > 0
        for verdict in result["verdicts"]:
            assert verdict["offered"] == verdict["admitted"] + sum(
                verdict["dropped"].values()
            )


class TestProtocolContract:
    def test_version_mismatch_is_one_error_frame(self, tmp_path):
        async def client(socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(encode_frame({"kind": "hello", "version": 999}))
            await writer.drain()
            frame = decode_frame(await reader.readline())
            writer.close()
            return frame

        _, frame = serve_and(client, tmp_path=tmp_path)
        assert frame["kind"] == "error"
        assert "version" in frame["message"]

    def test_error_poisons_one_connection_not_the_service(self, tmp_path):
        plan = small_plan()

        async def client(socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(
                encode_frame({"kind": "hello", "version": PROTOCOL_VERSION})
            )
            await writer.drain()
            await reader.readline()  # welcome
            writer.write(
                encode_frame({"kind": "rec", "stream": "ghost", "body": {}})
            )
            await writer.drain()
            error = decode_frame(await reader.readline())
            writer.close()
            # The service must still serve a fresh connection.
            result = await run_load(socket_path, plan)
            return error, result

        _, (error, result) = serve_and(client, tmp_path=tmp_path)
        assert error["kind"] == "error"
        assert "unopened stream" in error["message"]
        assert len(result["verdicts"]) == len(plan)

    def test_concurrently_open_duplicate_stream_id_rejected(self, tmp_path):
        run = record_scenario("exploit", seed=0)
        header = run.trace.header.to_record()

        async def client(socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(
                encode_frame({"kind": "hello", "version": PROTOCOL_VERSION})
            )
            await writer.drain()
            await reader.readline()  # welcome
            for _ in range(2):
                writer.write(
                    encode_frame(
                        {"kind": "stream-open", "stream": "dup", "header": header}
                    )
                )
                await writer.drain()
            ack = decode_frame(await reader.readline())
            second = decode_frame(await reader.readline())
            writer.close()
            return ack, second

        _, (ack, second) = serve_and(client, tmp_path=tmp_path)
        assert ack["kind"] == "stream-ack"
        assert second["kind"] == "error"
        assert "already open" in second["message"]

    def test_client_raises_on_unreported_streams(self, tmp_path):
        # A server that hangs up mid-stream must surface as an error to
        # the load client, not as a hang or a silent partial result.
        plan = small_plan()
        socket_path = str(tmp_path / "fake.sock")

        async def rude_server(reader, writer):
            await reader.readline()  # hello
            writer.write(
                encode_frame({"kind": "welcome", "version": PROTOCOL_VERSION, "jobs": 1})
            )
            await writer.drain()
            line = await reader.readline()  # first stream-open
            frame = decode_frame(line)
            writer.write(
                encode_frame(
                    {"kind": "stream-ack", "stream": frame["stream"], "credit": 4}
                )
            )
            await writer.drain()
            writer.close()  # hang up with every stream unreported

        async def scenario():
            server = await asyncio.start_unix_server(rude_server, path=socket_path)
            try:
                with pytest.raises(ProtocolError, match="unreported"):
                    await run_load(socket_path, plan)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestHostileFrames:
    """A frame the service cannot accept is one counted ``error`` frame
    on its own connection: no traceback, and the next connection is
    served as usual."""

    PAD = b'{"kind": "rec", "pad": "' + b"a" * MAX_FRAME_BYTES + b'"}\n'

    @pytest.fixture(scope="class")
    def header(self):
        return record_scenario("exploit", seed=0).trace.header.to_record()

    def assert_contained(self, tmp_path, caplog, pieces, message, eof=True, jobs=1):
        async def client(socket_path):
            bad = await exchange(socket_path, pieces, eof=eof)
            probe = await exchange(
                socket_path, [HELLO + encode_frame({"kind": "export", "scope": "all"})]
            )
            return bad, probe

        service, (bad, probe) = serve_and(client, jobs=jobs, tmp_path=tmp_path)
        frames = [decode_frame(line) for line in bad]
        assert [f["kind"] for f in frames] == ["welcome", "error"]
        assert frames[1]["message"].startswith(message)
        assert service.transport.total("transport.errors") == 1
        welcome, export = (decode_frame(line) for line in probe)
        assert (welcome["kind"], export["kind"]) == ("welcome", "export-result")
        assert '"transport.errors"' in "".join(host_rows(export))
        assert "Traceback" not in caplog.text
        assert "Unhandled exception" not in caplog.text

    def test_oversize_frame(self, tmp_path, caplog):
        self.assert_contained(
            tmp_path, caplog, [HELLO, self.PAD],
            f"bad frame (over {MAX_FRAME_BYTES} bytes)",
        )

    def test_unterminated_tail_past_the_bound(self, tmp_path, caplog):
        # No newline and no EOF: the service must not wait for either.
        self.assert_contained(
            tmp_path, caplog, [HELLO, self.PAD[:-1]],
            f"bad frame (over {MAX_FRAME_BYTES} bytes)", eof=False,
        )

    def test_non_utf8_frame(self, tmp_path, caplog):
        self.assert_contained(
            tmp_path, caplog, [HELLO + b'{"kind": "\xff"}\n'],
            "bad frame (not UTF-8)",
        )

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"queue_limit": 0}, "queue_limit must be >= 1, got 0"),
            ({"service_ns": -5}, "service_ns must be >= 1, got -5"),
            ({"queue_limit": "x"}, "queue_limit must be an int, got 'x'"),
            ({"max_wait_ns": None}, "max_wait_ns must be an int, got None"),
            ({"rhc_timeout_ns": "y"}, "rhc_timeout_ns must be an int, got 'y'"),
            ({"service_ns": True}, "service_ns must be an int, got True"),
        ],
        ids=["queue_limit-0", "service_ns-negative", "queue_limit-str",
             "max_wait_ns-null", "rhc_timeout_ns-str", "service_ns-bool"],
    )
    def test_bad_stream_config(self, tmp_path, caplog, header, config, message):
        open_frame = {"kind": "stream-open", "stream": "s", "header": header,
                      "config": config}
        self.assert_contained(
            tmp_path, caplog, [HELLO + encode_frame(open_frame)],
            f"stream config {message}",
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_header_at_any_job_count(self, tmp_path, caplog, jobs):
        # At jobs > 1 the header used to be parsed only by the shard
        # task, after the stream had been acked.
        frames = [
            {"kind": "stream-open", "stream": "s", "header": {"bogus": 1}},
            {"kind": "stream-close", "stream": "s"},
        ]
        self.assert_contained(
            tmp_path, caplog, [HELLO + b"".join(map(encode_frame, frames))],
            "not a trace header", jobs=jobs,
        )


class TestFraming:
    """However the producer's bytes are split across writes, the service
    sees the same frames in the same order."""

    @pytest.fixture(scope="class")
    def wire(self):
        run = record_scenario("exploit", seed=0)
        frames = [
            {"kind": "stream-open", "stream": "x",
             "header": run.trace.header.to_record()},
            *({"kind": "rec", "stream": "x", "body": record}
              for record in run.trace.records),
            {"kind": "stream-close", "stream": "x",
             "sent": len(run.trace.records), "end_ns": run.trace.header.end_ns},
            {"kind": "export", "scope": "pipeline"},
            {"kind": "export", "scope": "all"},
            {"kind": "shutdown"},
        ]
        return [encode_frame(frame) for frame in frames]

    @staticmethod
    def pushed(tmp_path, pieces, welcome_first=False):
        async def client(socket_path):
            return await exchange(socket_path, pieces, welcome_first=welcome_first)

        service, replies = serve_and(client, tmp_path=tmp_path)
        host = [
            service.transport.value("transport.frames", dir="in"),
            service.transport.value("transport.bytes", dir="in"),
        ]
        return replies, host

    def test_every_split_gives_the_same_replies(self, tmp_path, wire):
        blob = HELLO + b"".join(wire)
        reference = self.pushed(tmp_path, [HELLO, *wire], welcome_first=True)
        replies, host = reference
        kinds = [decode_frame(line)["kind"] for line in replies]
        assert kinds[:2] == ["welcome", "stream-ack"]
        assert "credit" in kinds
        assert kinds[-4:] == ["verdict", "export-result", "export-result", "bye"]
        assert decode_frame(replies[-4])["reproduced"] is True
        assert decode_frame(replies[-3])["lines"]
        assert host_rows(decode_frame(replies[-2]))
        assert host == [len(wire) + 1, len(blob)]
        ways = {
            "one write": [blob],
            "hello pipelined with stream-open": [HELLO + wire[0], *wire[1:]],
            **{
                f"every {n} bytes": [blob[i:i + n] for i in range(0, len(blob), n)]
                for n in (1, 7, 4096)
            },
        }
        for way, pieces in ways.items():
            assert self.pushed(tmp_path, pieces) == reference, way

    def test_final_frame_without_newline_is_handled(self, tmp_path):
        last = encode_frame({"kind": "export", "scope": "all"})[:-1]
        replies, host = self.pushed(tmp_path, [HELLO + last])
        welcome, export = (decode_frame(line) for line in replies)
        assert (welcome["kind"], export["kind"]) == ("welcome", "export-result")
        assert host == [2, len(HELLO) + len(last)]


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param(b'{"kind": "\xff"}\n', "bad frame (not UTF-8)", id="bad-byte"),
        pytest.param(b'{"kind": "\xed\xa0\x80"}\n', "bad frame (not UTF-8)",
                     id="surrogate"),
        pytest.param(b"not json\n", "bad frame (not JSON)", id="text"),
        pytest.param(b"\n", "bad frame (not JSON)", id="empty"),
        pytest.param(b'{"kind": "rec"} trailing\n', "bad frame (not JSON)",
                     id="trailing"),
        pytest.param(b'{"n": ' + b"1" * 5000 + b"}\n", "bad frame (not JSON)",
                     id="int-past-digit-limit"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000 + b"\n",
                     "bad frame (not JSON)", id="nesting-past-recursion-limit"),
        pytest.param(b"[]\n", "bad frame (no kind)", id="not-an-object"),
        pytest.param(b'{"kind": 7}\n', "bad frame (no kind)", id="kind-not-str"),
        pytest.param(b'"' + b"a" * MAX_FRAME_BYTES + b'"', "bad frame (over",
                     id="oversize"),
    ],
)
def test_decode_frame_rejects(line, message):
    with pytest.raises(ProtocolError) as info:
        decode_frame(line)
    assert str(info.value).startswith(message)


def test_decode_frame_accepts_lines_with_or_without_newline():
    frame = {"body": {"comm": "café"}, "kind": "rec"}
    wire = encode_frame(frame)
    assert decode_frame(wire) == decode_frame(wire[:-1]) == frame
