"""Every answer shape gets a terminal reply over the wire.

Grouped answers carry numpy arrays and version differences a per-side
``reuse`` dict; both must reach a :class:`ServeClient` (and HTTP
``/query``, and the stdin loop) as plain JSON.  A failure inside the
handler or while encoding its reply must come back as a typed
``internal`` error on a connection that stays usable — never as a
request that silently dies while the client waits.  Every wait here is
bounded, so a regression fails instead of hanging the suite.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from serveutil import (
    DIFF,
    GROUPED,
    GROUPED_DIFF,
    PLAIN,
    fresh_service,
    versioned_service,
)

from repro.errors import ServeError
from repro.serve import ServeClient, ServeConfig, start_server
from repro.serve.handler import RequestHandler
from repro.service import serve_statements

#: Seconds a reply may take before the test counts it as never sent.
REPLY_TIMEOUT = 30.0


@pytest.fixture(scope="module")
def tpch():
    return fresh_service()


@pytest.fixture(scope="module")
def versioned():
    return versioned_service()


def serve(service, scenario):
    """Run ``scenario(server, client)`` against a fresh server, drained."""

    async def main():
        server = await start_server(
            service, ServeConfig(port=0, http_port=0, workers=2)
        )
        client = await ServeClient.connect("127.0.0.1", server.tcp_port)
        try:
            return await asyncio.wait_for(
                scenario(server, client), REPLY_TIMEOUT
            )
        finally:
            await client.close()
            await server.drain()

    return asyncio.run(main())


async def http_query(port: int, statement: str) -> tuple[str, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps({"statement": statement}).encode()
    writer.write(
        b"POST /query HTTP/1.1\r\nHost: x\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, payload = data.partition(b"\r\n\r\n")
    return head.decode().splitlines()[0], json.loads(payload)


def assert_matches_in_process(payload: dict, service, statement: str):
    """The wire answer equals the in-process one, value for value."""
    local = service.query(statement)
    assert set(payload["values"]) == set(local.values)
    for alias, want in local.values.items():
        got = payload["values"][alias]
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want))
    if local.keys is None:
        assert "keys" not in payload
    else:
        assert set(payload["keys"]) == set(local.keys)
        for name, col in local.keys.items():
            assert payload["keys"][name] == np.asarray(col).tolist()


class TestGroupedAnswers:
    def test_tcp_reply_is_json_lists_with_keys(self, tpch):
        async def scenario(server, client):
            return await client.query(GROUPED)

        payload = serve(tpch, scenario)
        assert payload["status"] == "ok"
        values, keys = payload["values"], payload["keys"]
        assert set(keys) == {"l_returnflag", "l_linestatus"}
        n_groups = len(keys["l_returnflag"])
        assert n_groups >= 2
        assert all(isinstance(k, str) for k in keys["l_returnflag"])
        for column in values.values():
            assert len(column) == n_groups
            assert all(isinstance(v, float) for v in column)
        assert_matches_in_process(payload, tpch, GROUPED)

    def test_http_query_reply(self, tpch):
        async def scenario(server, client):
            return await http_query(server.http_port, GROUPED)

        status, payload = serve(tpch, scenario)
        assert status == "HTTP/1.1 200 OK"
        assert_matches_in_process(payload, tpch, GROUPED)

    def test_scalar_values_stay_floats(self, tpch):
        async def scenario(server, client):
            return await client.query(PLAIN)

        payload = serve(tpch, scenario)
        assert isinstance(payload["values"]["avg_qty"], float)
        assert "keys" not in payload


class TestVersionDifferences:
    @pytest.mark.parametrize("statement", [DIFF, GROUPED_DIFF])
    def test_tcp_reply_and_tag(self, versioned, statement):
        async def scenario(server, client):
            return await client.query(statement, seed=4)

        payload = serve(versioned, scenario)
        assert payload["status"] == "ok"
        assert payload["tag"] in ("hi=fresh,lo=fresh", "result-cache")
        assert_matches_in_process(payload, versioned, statement)

    def test_diff_value_over_tcp(self, versioned):
        async def scenario(server, client):
            return await client.query(DIFF, seed=5)

        payload = serve(versioned, scenario)
        assert payload["values"] == {"d": 180.0}

    def test_stdin_loop(self, versioned):
        lines: list[str] = []
        served = serve_statements(
            versioned, [DIFF, GROUPED_DIFF], workers=2, out=lines.append
        )
        assert served == 2
        headers = [line for line in lines if line.startswith("-- [")]
        assert len(headers) == 2
        assert all(
            "hi=" in h and "lo=" in h or "result-cache" in h
            for h in headers
        )

    def test_serve_text_tag(self):
        lines, served = RequestHandler(versioned_service()).serve_text(DIFF)
        assert served == 1
        assert lines[0].startswith("-- [hi=fresh,lo=fresh, ")


class TestFailuresBecomeTypedErrors:
    def test_handler_exception_over_tcp(self, tpch, monkeypatch):
        def boom(self, request, decision, emit=None, **kwargs):
            raise RuntimeError("injected")

        async def scenario(server, client):
            monkeypatch.setattr(RequestHandler, "execute", boom)
            with pytest.raises(ServeError, match=r"\[internal\].*injected"):
                await client.query(PLAIN)
            monkeypatch.undo()
            # Same connection, next request: still served.
            assert await client.ping()
            return await client.query(PLAIN)

        assert serve(tpch, scenario)["status"] == "ok"

    def test_unencodable_reply_over_tcp(self, tpch, monkeypatch):
        real = RequestHandler.execute

        def poisoned(self, *args, **kwargs):
            return dict(real(self, *args, **kwargs), bad=object())

        async def scenario(server, client):
            monkeypatch.setattr(RequestHandler, "execute", poisoned)
            with pytest.raises(ServeError, match=r"\[internal\]"):
                await client.query(PLAIN)
            monkeypatch.undo()
            return await client.query(PLAIN)

        assert serve(tpch, scenario)["status"] == "ok"

    def test_failures_over_http(self, tpch, monkeypatch):
        real = RequestHandler.execute

        def boom(self, *args, **kwargs):
            raise RuntimeError("injected")

        def poisoned(self, *args, **kwargs):
            return dict(real(self, *args, **kwargs), bad=np.arange(2))

        async def scenario(server, client):
            answers = []
            for fake in (boom, poisoned):
                monkeypatch.setattr(RequestHandler, "execute", fake)
                answers.append(await http_query(server.http_port, PLAIN))
            monkeypatch.undo()
            answers.append(await http_query(server.http_port, PLAIN))
            return answers

        (s1, p1), (s2, p2), (s3, p3) = serve(tpch, scenario)
        for status, payload in ((s1, p1), (s2, p2)):
            assert status == "HTTP/1.1 500 Internal Server Error"
            assert payload["type"] == "error"
            assert payload["code"] == "internal"
            assert payload["id"] == 0
        assert "injected" in p1["error"]
        assert s3 == "HTTP/1.1 200 OK" and p3["status"] == "ok"
