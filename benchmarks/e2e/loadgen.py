"""Closed-loop HTTP/1.1 load generator over keep-alive loopback sockets.

Each request is written with **one ``sendall`` (head + body) on a
``TCP_NODELAY`` socket**.  A stock ``http.client`` POST sends head and
body separately, and Nagle + delayed ACK then put a ~40 ms floor under
every request; :func:`nagle_selftest` proves that floor is absent.  The
timed interval is first byte sent -> last body byte read
(``Content-Length``); response bytes are kept and parsed only after the
timed phase.

Run ``python benchmarks/e2e/loadgen.py`` for the self-test alone.
"""

from __future__ import annotations

import itertools
import socket
import statistics
import threading
import time
from dataclasses import dataclass

#: the harness rule: never more client threads/connections than this.
MAX_CONNECTIONS = 2


@dataclass
class Reply:
    index: int          # position in the schedule
    connection: int
    sent: float         # perf_counter at first byte sent
    done: float         # perf_counter at last body byte read
    status: int
    body: bytes

    @property
    def rtt_ms(self) -> float:
        return (self.done - self.sent) * 1e3


def wire_bytes(path: str, body: bytes, headers=(), *,
               api_key: str = "", method: str = "POST") -> bytes:
    """One whole HTTP/1.1 request, head and body in a single buffer."""
    head = [f"{method} {path} HTTP/1.1", "Host: bench",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}"]
    if api_key:
        head.append(f"X-Api-Key: {api_key}")
    head += [f"{k}: {v}" for k, v in headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class Connection:
    """One keep-alive connection; ``request`` is a blocking round trip."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 120.0) -> None:
        self.sock = socket.create_connection((host, port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, wire: bytes) -> tuple[float, float, int, bytes]:
        """Send one request; returns (sent, done, status, body)."""
        buf = self._buf
        sent = time.perf_counter()
        self.sock.sendall(wire)
        while (end := buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = bytes(buf[:end]).decode("latin-1").split("\r\n")
        status = int(head[0].split(None, 2)[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        while len(buf) < total:
            self._fill()
        done = time.perf_counter()
        body = bytes(buf[end + 4:total])
        del buf[:total]
        return sent, done, status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def get(self, path: str) -> bytes:
        _, _, status, body = self.request(
            wire_bytes(path, b"", method="GET"))
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return body


def run_closed_loop(port: int, wires: list[bytes], connections: int
                    ) -> tuple[list[Reply], float, float]:
    """Drive ``wires`` in schedule order over ``connections`` sockets.

    Each connection sends its next request only after the previous
    reply is complete; a free connection takes the next unsent op.
    Returns the replies in schedule order, the elapsed seconds, and the
    mean time a connection sat between a reply and its next send
    (client overhead).
    """
    if not 1 <= connections <= MAX_CONNECTIONS:
        raise ValueError(f"connections must be 1..{MAX_CONNECTIONS}")
    counter = itertools.count()
    lock = threading.Lock()
    replies: list[Reply] = []
    gaps: list[float] = []
    errors: list[BaseException] = []
    conns = [Connection(port) for _ in range(connections)]
    start = time.perf_counter()

    def worker(cid: int) -> None:
        conn, last_done = conns[cid], None
        try:
            while True:
                with lock:
                    i = next(counter)
                if i >= len(wires):
                    return
                sent, done, status, body = conn.request(wires[i])
                if last_done is not None:
                    gaps.append(sent - last_done)
                last_done = done
                replies.append(Reply(i, cid, sent, done, status, body))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    try:
        if connections == 1:
            worker(0)
        else:
            threads = [threading.Thread(target=worker, args=(c,))
                       for c in range(connections)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        elapsed = time.perf_counter() - start
    finally:
        for conn in conns:
            conn.close()
    if errors:
        raise errors[0]
    replies.sort(key=lambda r: r.index)
    late_ms = statistics.fmean(gaps) * 1e3 if gaps else 0.0
    return replies, elapsed, late_ms


# -- self-test: the Nagle / delayed-ACK floor is absent ------------------------

def _echo_server(listener: socket.socket) -> None:
    """Answer each request on one connection with a tiny 200."""
    conn, _ = listener.accept()
    reply = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
             b"Content-Length: 2\r\n\r\n{}")
    buf = bytearray()
    with conn:
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return
            buf += chunk
            while (end := buf.find(b"\r\n\r\n")) >= 0:
                head = bytes(buf[:end]).lower()
                mark = head.find(b"content-length:")
                length = int(head[mark + 15:].split(b"\r\n")[0])
                if len(buf) < end + 4 + length:
                    break
                del buf[:end + 4 + length]
                conn.sendall(reply)


def nagle_selftest(rounds: int = 200, limit_ms: float = 5.0) -> float:
    """Loopback echo RTT p50 in ms; raises if it is ``>= limit_ms``
    (a 40 ms floor means head and body went out in separate writes)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    thread = threading.Thread(target=_echo_server, args=(listener,),
                              daemon=True)
    thread.start()
    try:
        wire = wire_bytes("/v1/search", b"x" * 4096)
        with Connection(listener.getsockname()[1]) as conn:
            rtts = []
            for _ in range(rounds):
                sent, done, status, _ = conn.request(wire)
                rtts.append((done - sent) * 1e3)
    finally:
        thread.join(timeout=10.0)
        listener.close()
    p50 = statistics.median(rtts)
    if status != 200 or p50 >= limit_ms:
        raise RuntimeError(
            f"loopback echo RTT p50 {p50:.3f} ms >= {limit_ms} ms: the "
            f"Nagle/delayed-ACK floor is present")
    return p50


if __name__ == "__main__":
    print(f"loopback echo RTT p50 = {nagle_selftest():.4f} ms "
          f"(limit 5 ms): ok")
