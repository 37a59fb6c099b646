"""The serve client against a fake server: a bad response is a typed error.

The fake server answers one request with one raw line. A line that is
not JSON, not a JSON object, or longer than the client's stream limit
must raise ``ServeError("protocol", ...)`` from the client, and make
``repro request`` exit 1 with a one-line message instead of a traceback.
So must a port nothing listens on, as ``ServeError("connect", ...)``.
"""

import contextlib
import socket
import threading

import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.serve.client import request_once
from repro.serve.server import ServeConfig

from tests.serve.conftest import run_async

#: Bad response lines, each with a fragment of the error it raises.
BAD_LINES = {
    "not-json": (b"not json\n", "not JSON"),
    "not-an-object": (b"[1, 2]\n", "not a JSON object"),
    "over-the-limit": (b"x" * (2 * ServeConfig.max_frame_bytes) + b"\n", "exceeds"),
}


@contextlib.contextmanager
def fake_server(line: bytes):
    """A listener that reads one request line and answers with ``line``.

    Yields its port.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def answer() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as requests:
            requests.readline()
            try:
                conn.sendall(line)
            except OSError:  # the client hung up on an overlong line
                pass

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    finally:
        listener.close()


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_bad_response_is_a_protocol_error(case):
    line, fragment = BAD_LINES[case]
    with fake_server(line) as port:
        with pytest.raises(ServeError) as excinfo:
            run_async(request_once("127.0.0.1", port, {"kind": "ping"}))
    assert excinfo.value.code == "protocol"
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_request_command_reports_a_bad_response(case, capsys):
    line, fragment = BAD_LINES[case]
    with fake_server(line) as port:
        code = main(["request", "--port", str(port), '{"kind": "ping"}'])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("request: ")
    assert fragment in captured.err
    assert "Traceback" not in captured.err


def closed_port() -> int:
    """A port that was bound and then closed: nothing listens on it."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


def test_refused_connection_is_a_connect_error():
    port = closed_port()
    with pytest.raises(ServeError) as excinfo:
        run_async(request_once("127.0.0.1", port, {"kind": "ping"}))
    assert excinfo.value.code == "connect"
    assert f"127.0.0.1:{port}" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, ConnectionRefusedError)


def test_request_command_reports_a_refused_connection(capsys):
    port = closed_port()
    code = main(["request", "--port", str(port), '{"kind": "ping"}'])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"request: cannot connect to 127.0.0.1:{port}")
    assert "Traceback" not in captured.err
