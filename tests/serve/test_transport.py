"""The shared HTTP transport: it exists once, a failed start cleans up
after itself, and a failure's own retry hint decides ``Retry-After``.

(The drain and error-answer contract both servers inherit from it is in
``test_server_e2e.py``, bound to each server.)
"""

import json
import socket
from pathlib import Path

import pytest
from serveutil import http_request_full, make_corpus, save_layout

import repro
from repro.cluster import RemoteShardedIndex, ShardServerThread, Topology
from repro.index import open_index
from repro.serve import ServeConfig, ServerThread

DIM = 8


def test_sockets_and_signals_live_once():
    """Keeps the copies from growing back: one listener, one connection
    loop, one place a process waits for its signal."""
    sources = [path.read_text()
               for path in Path(repro.__file__).parent.rglob("*.py")]
    assert sum("asyncio.start_server" in text for text in sources) == 1
    assert sum(text.count("def _handle_connection")
               for text in sources) == 1
    assert sum(text.count("class _Connection") for text in sources) == 1
    cli = [path.read_text()
           for path in (Path(repro.__file__).parent / "cli").glob("*.py")]
    assert sum(text.count("add_signal_handler") for text in cli) == 1


@pytest.fixture()
def layout(tmp_path):
    keys, vectors = make_corpus(n=30, dim=DIM, seed=5)
    return save_layout(tmp_path, keys, vectors, 1), vectors


@pytest.mark.parametrize("thread_class", [ServerThread, ShardServerThread])
def test_failed_start_closes_the_log_and_joins_the_thread(thread_class,
                                                          layout, tmp_path):
    path, _vectors = layout
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        handle = thread_class(open_index(path), port=busy.getsockname()[1],
                              log_path=tmp_path / "access.log")
        with pytest.raises(OSError):
            handle.start()
    assert (tmp_path / "access.log").exists()
    assert handle.server._log_handle is None
    assert not handle._thread.is_alive()
    handle.stop()   # nothing to stop; must not raise


def test_retry_after_comes_from_the_failure_not_the_status(layout):
    """Both are 503s: a shard that answers nonsense is terminal
    (``ShardProtocolError.retry_after`` is ``None`` — no header), a
    shard that is down is worth retrying (``ShardUnavailable`` — 1)."""
    path, vectors = layout
    body = json.dumps({"vector": vectors[0].tolist(), "k": 3,
                       "no_cache": True}).encode()
    shard = ShardServerThread(open_index(path)).start()
    remote = RemoteShardedIndex.connect(
        Topology.from_addresses([("127.0.0.1", shard.port)]),
        retries=0, timeout=5.0)
    try:
        with ServerThread(remote,
                          config=ServeConfig(max_wait_ms=1.0)) as front:
            async def nonsense(request):
                return 200, {"shards": "not a list"}, 0

            shard.server._respond = nonsense
            status, headers, data = http_request_full(
                front.port, "POST", "/query", body)
            assert status == 503, data
            assert "Retry-After" not in headers
            shard.stop()
            status, headers, data = http_request_full(
                front.port, "POST", "/query", body)
            assert status == 503, data
            assert headers.get("Retry-After") == "1"
    finally:
        remote.close()
        shard.stop()
