"""Client side of the benchmark: NDJSON connections and the op ledger.

A :class:`Lane` is one TCP connection driven by one thread.  It sends
requests (immediately, or at scheduled due times), reads replies and
pushed events, and stamps every frame with ``time.perf_counter()`` as
it arrives.  On Linux that clock is ``CLOCK_MONOTONIC``, shared by every
process on the host, so generator stamps and server-side span stamps
(written by ``launcher.py``) can be compared directly.

:class:`OpLedger` counts every op attempted and every failure by op
and cause (error frame by code, timeout, lost connection); it is the
denominator of the benchmark's ``attempted`` / ``failed`` fields.
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time
from collections import Counter
from typing import Callable, Optional

#: the latency limit of ``on_time_share``: a scheduled op counts as on
#: time when its reply arrives within this many seconds of its due time
ON_TIME_LIMIT_S = 0.050

#: an open-loop send that left more than this many seconds after its
#: due time left late through the generator's own fault (or a host
#: stall): it is left out of the latencies and ``on_time_share``
LATE_SEND_S = 0.010

#: how long any single reply may take before the op counts as timed out
REPLY_TIMEOUT_S = 30.0

#: the op of a schedule entry that sends nothing: at its due time the
#: lane calls the entry's ``fields`` (a host-speed probe)
PROBE = "probe"


class LaneError(RuntimeError):
    """The server failed the generator: the connection was lost, a
    reply never came, or the server never started.  ``cause`` is the
    op ledger's failure cause."""

    def __init__(self, message: str, cause: str = "lost_connection"):
        super().__init__(message)
        self.cause = cause


class OpLedger:
    """Ops attempted and failed, by op and by cause (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def attempt(self, op: str) -> None:
        with self._lock:
            self.attempted[op] += 1

    def fail(self, op: str, cause: str) -> None:
        with self._lock:
            self.failed[(op, cause)] += 1

    def totals(self) -> tuple[int, int]:
        with self._lock:
            return sum(self.attempted.values()), sum(self.failed.values())

    def report(self) -> dict:
        with self._lock:
            return {
                "attempted": dict(self.attempted),
                "failed": {f"{op}:{cause}": n
                           for (op, cause), n in self.failed.items()},
            }


class OpRecord:
    """One request: when it was due, sent and answered, and how."""

    __slots__ = ("op", "due", "sent", "replied", "reply", "error", "tag")

    def __init__(self, op: str, due: float, tag=None) -> None:
        self.op = op
        self.due = due
        self.sent: Optional[float] = None
        self.replied: Optional[float] = None
        self.reply: Optional[dict] = None
        self.error: Optional[str] = None
        self.tag = tag

    @property
    def ok(self) -> bool:
        return self.reply is not None and self.error is None

    def on_time(self) -> bool:
        return self.ok and self.replied - self.due <= ON_TIME_LIMIT_S

    def left_late(self) -> bool:
        return self.sent - self.due > LATE_SEND_S


class Lane:
    """One connection to the server, owned by one thread at a time."""

    def __init__(self, port: int, ledger: OpLedger,
                 on_event: Optional[Callable[[float, dict], None]] = None,
                 ) -> None:
        self.ledger = ledger
        self.on_event = on_event
        try:
            self.sock = socket.create_connection(("127.0.0.1", port),
                                                 timeout=REPLY_TIMEOUT_S)
        except OSError as exc:
            raise LaneError(f"cannot connect: {exc}") from exc
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()
        self._next_id = 1
        self._pending: dict[int, OpRecord] = {}
        #: every request sent on this lane, in send order
        self.sent: list[OpRecord] = []
        #: the server's ``hello`` event (the first frame on every
        #: connection)
        self.hello: Optional[dict] = None
        self.on_event = self._capture_hello
        try:
            self.wait(lambda: self.hello is not None)
        finally:
            self.on_event = on_event

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def send(self, op: str, *, due: Optional[float] = None, tag=None,
             **fields) -> OpRecord:
        """Send one request now; ``due`` defaults to the send time."""
        record = OpRecord(op, due if due is not None else 0.0, tag)
        request_id = self._next_id
        self._next_id += 1
        payload = json.dumps({"op": op, "id": request_id, **fields},
                             separators=(",", ":")).encode() + b"\n"
        self.ledger.attempt(op)
        record.sent = time.perf_counter()
        if due is None:
            record.due = record.sent
        try:
            self.sock.sendall(payload)
        except OSError as exc:
            self._fail(record, "lost_connection")
            raise LaneError(f"{op}: connection lost: {exc}") from exc
        self._pending[request_id] = record
        self.sent.append(record)
        return record

    def request(self, op: str, **fields) -> OpRecord:
        """Send one request and wait for its reply (closed loop)."""
        record = self.send(op, **fields)
        self.wait(lambda: record.replied is not None)
        return record

    def wait(self, done: Callable[[], bool]) -> None:
        """Read frames until ``done()`` holds; times out pending ops."""
        deadline = time.perf_counter() + REPLY_TIMEOUT_S
        while not done():
            left = deadline - time.perf_counter()
            if left <= 0:
                self._expire_pending()
                raise LaneError("timed out waiting for the server",
                                "timeout")
            self.poll(left)

    def drain(self) -> None:
        """Wait until every sent request has its reply."""
        self.wait(lambda: not self._pending)

    def poll(self, timeout: float) -> None:
        """Handle every frame that arrives within ``timeout`` seconds
        (returns after the first read, or on timeout)."""
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not ready:
            return
        try:
            chunk = self.sock.recv(1 << 16)
        except OSError as exc:
            self._expire_pending("lost_connection")
            raise LaneError(f"connection lost: {exc}") from exc
        now = time.perf_counter()
        if not chunk:
            self._expire_pending("lost_connection")
            raise LaneError("server closed the connection")
        self._buf += chunk
        while True:
            end = self._buf.find(b"\n")
            if end < 0:
                return
            line = bytes(self._buf[:end])
            del self._buf[:end + 1]
            self._dispatch(now, json.loads(line))

    def listen(self, stop: Callable[[], bool]) -> None:
        """Handle pushed events until ``stop()`` turns true."""
        while not stop():
            self.poll(0.02)

    def run_schedule(self, schedule: list) -> list[OpRecord]:
        """Open loop: send each ``(due, op, fields, tag)`` entry at its
        due time whatever the replies are doing, then wait for the
        replies.  ``fields`` may be a callable evaluated at send time
        (it may read :attr:`sent`); an entry whose ``tag`` is
        ``"after_reply"`` first waits for all earlier replies.  Returns
        the sent ops."""
        records = []
        for due, op, fields, tag in schedule:
            if tag == "after_reply":
                self.drain()
            while True:
                left = due - time.perf_counter()
                if left <= 0:
                    break
                self.poll(left)
            if op == PROBE:
                fields()
                continue
            if callable(fields):
                fields = fields()
            records.append(self.send(op, due=due, tag=tag, **fields))
        self.drain()
        return records

    # ------------------------------------------------------------------
    def _capture_hello(self, now: float, frame: dict) -> None:
        if self.hello is None:
            self.hello = frame

    def _dispatch(self, now: float, frame: dict) -> None:
        if "event" in frame:
            if self.on_event is not None:
                self.on_event(now, frame)
            return
        record = self._pending.pop(frame.get("id"), None)
        if record is None:
            return
        record.replied = now
        record.reply = frame
        if not frame.get("ok"):
            code = frame.get("error", {}).get("code", "unknown")
            record.error = code
            cause = "quota_refusal" if code == "quota_exceeded" \
                else f"error_frame:{code}"
            self.ledger.fail(record.op, cause)

    def _fail(self, record: OpRecord, cause: str) -> None:
        record.error = cause
        self.ledger.fail(record.op, cause)

    def _expire_pending(self, cause: str = "timeout") -> None:
        for record in self._pending.values():
            self._fail(record, cause)
        self._pending.clear()
