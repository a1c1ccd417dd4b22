"""Unit tests for the HTTP framing and /query payload validation."""

import asyncio
import json
import sys

import numpy as np
import pytest

from repro.serve.protocol import (
    ProtocolError,
    parse_query_payload,
    read_request,
    render_response,
)


def parse(raw: bytes, max_body: int = 1 << 20):
    """Run read_request over an in-memory stream."""
    async def _go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body=max_body)
    return asyncio.run(_go())


def _post(body: bytes, extra: str = "") -> bytes:
    return (f"POST /query HTTP/1.1\r\nHost: x\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class TestReadRequest:
    def test_parses_post_with_body(self):
        request = parse(_post(b'{"vector": [1.0]}'))
        assert request.method == "POST"
        assert request.target == "/query"
        assert request.body == b'{"vector": [1.0]}'
        assert request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_connection_close_header(self):
        request = parse(_post(b"{}", extra="Connection: close\r\n"))
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        request = parse(b"GET /healthz HTTP/1.0\r\n\r\n")
        assert not request.keep_alive

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_non_http_version_is_400(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"GET / SPDY/9\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_body_is_413_and_closes(self):
        with pytest.raises(ProtocolError) as err:
            parse(_post(b"x" * 100), max_body=10)
        assert err.value.status == 413
        assert err.value.close

    def test_invalid_content_length_is_400(self):
        raw = b"POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 400

    def test_post_without_length_is_411(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"POST /query HTTP/1.1\r\nHost: x\r\n\r\n")
        assert err.value.status == 411

    def test_transfer_encoding_is_501(self):
        raw = (b"POST /query HTTP/1.1\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n")
        with pytest.raises(ProtocolError) as err:
            parse(raw)
        assert err.value.status == 501

    def test_truncated_body_raises_incomplete_read(self):
        raw = (b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        with pytest.raises(asyncio.IncompleteReadError):
            parse(raw)


class TestRenderResponse:
    def test_frames_status_headers_body(self):
        raw = render_response(200, b'{"ok": true}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 12" in head
        assert b"Connection: keep-alive" in head
        assert body == b'{"ok": true}'

    def test_close_connection(self):
        raw = render_response(400, b"{}", keep_alive=False)
        assert b"Connection: close" in raw


class TestParseQueryPayload:
    DIM = 4

    def _ok(self, payload):
        return parse_query_payload(json.dumps(payload).encode(), self.DIM)

    def _err(self, payload) -> ProtocolError:
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode())
        with pytest.raises(ProtocolError) as err:
            parse_query_payload(body, self.DIM)
        return err.value

    def test_single_shape(self):
        matrix, k, excludes, single = self._ok(
            {"vector": [1, 2, 3, 4], "k": 3, "exclude": "key"})
        assert single and k == 3 and excludes == ["key"]
        assert matrix.shape == (1, self.DIM)

    def test_batch_shape(self):
        matrix, k, excludes, single = self._ok(
            {"vectors": [[1, 2, 3, 4], [5, 6, 7, 8]],
             "excludes": ["a", None]})
        assert not single and k == 10 and excludes == ["a", None]
        assert matrix.shape == (2, self.DIM)
        assert matrix.dtype == np.float64

    def test_invalid_json_is_400(self):
        assert self._err(b"{nope").status == 400

    def test_non_object_is_400(self):
        assert self._err([1, 2]).status == 400

    def test_missing_vector_is_400(self):
        assert "missing" in self._err({"k": 5}).message

    def test_both_shapes_is_400(self):
        error = self._err({"vector": [1, 2, 3, 4],
                           "vectors": [[1, 2, 3, 4]]})
        assert "mutually exclusive" in error.message

    def test_wrong_dim_is_400(self):
        assert "dims" in self._err({"vector": [1, 2]}).message

    def test_ragged_batch_is_400(self):
        assert self._err({"vectors": [[1, 2, 3, 4], [1, 2]]}).status == 400

    def test_non_numeric_entries_are_400(self):
        assert self._err({"vector": [1, "x", 3, 4]}).status == 400
        assert self._err({"vector": [True, 1, 2, 3]}).status == 400

    def test_non_finite_is_400(self):
        assert "finite" in self._err({"vector": [1, 2, 3, float("nan")]
                                      }).message

    def test_bad_k_is_400(self):
        for k in (0, -1, 1.5, "3", True):
            assert self._err({"vector": [1, 2, 3, 4], "k": k}).status == 400

    def test_k_past_maxsize_is_400(self):
        error = self._err({"vector": [1, 2, 3, 4], "k": sys.maxsize + 1})
        assert error.status == 400 and "'k'" in error.message

    def test_integer_too_large_for_float_is_400(self):
        error = self._err({"vector": [10 ** 400, 1, 2, 3]})
        assert error.status == 400 and "finite" in error.message

    def test_integer_past_the_digit_limit_is_400(self):
        # 5 000 digits: past Python's default int-to-str limit (4 300),
        # so json.loads refuses it; where it parses, float64 overflows.
        error = self._err(b'{"vector": [' + b"1" * 5000 + b', 1, 2, 3]}')
        assert error.status == 400

    def test_nested_past_the_recursion_limit_is_400(self):
        # 100 kB, far under the body cap: json.loads recurses once per
        # "[" and raises RecursionError, which must not reach the
        # transport's last-resort 500.
        for body in (b"[" * 100_000,
                     b'{"vector": ' + b"[" * 100_000 + b"]}",
                     b'{"vector": [1, 2, 3, 4], "k": '
                     + b"[" * 100_000 + b"]}"):
            error = self._err(body)
            assert error.status == 400 and "not valid JSON" in error.message

    def test_misaligned_excludes_are_400(self):
        error = self._err({"vectors": [[1, 2, 3, 4]], "excludes": ["a", "b"]})
        assert "align" in error.message

    def test_non_string_exclude_is_400(self):
        assert self._err({"vector": [1, 2, 3, 4],
                          "exclude": 7}).status == 400

    def test_empty_batch_is_400(self):
        assert self._err({"vectors": []}).status == 400
