"""The three workloads: how each sets a server up and drives its phase.

Every workload runs against one server process through at most two
connections ("lanes"), each owned by one thread: the main thread runs
lane 0 and a helper thread runs lane 1.

* ``steady`` -- closed loop.  Lane 0 sends 64-row batches of uniform
  d=2 rows into a 512-row window, waits for the ack and for every delta
  the batch caused, then reads four ad-hoc snapshots, then sends again.
  Lane 1 subscribes to three continuous queries in two skyband groups.
  Engine generate/insert is nearly all of the server's time here.
* ``live`` -- open loop.  Lane 0 sends single anticorrelated d=3 rows
  at 100 rows/s (the server is about a third busy); lane 1 subscribes to
  two queries and sends ad-hoc snapshot reads at 10/s.  One-row ticks
  make the per-tick fixed costs (protocol, dispatch, session, fan-out)
  a large share, and the reads exercise the PST query path.
* ``tenants`` -- a multi-tenant server.  Tenant ``alpha`` (lane 0)
  streams single rows at 50 rows/s under an ingest quota, subscribes to
  one query on the same lane and reads snapshots at 10/s (clear of
  beta's registers).  Tenant ``beta`` (lane 1) registers a full-window
  query on a scoring function with no live group every 2 s and
  unregisters it 1 s later; each register runs inline on the shared
  event loop, so alpha's on-time share measures tenant isolation.

Every row comes from the run's seed, so one seed gives one input.
"""

from __future__ import annotations

import json
import threading
import time
from itertools import islice
from pathlib import Path
from typing import Callable, Optional

from repro.datasets.synthetic import anticorrelated_stream, uniform_stream
from repro.serve.client import apply_delta

from hostspeed import SETUP_PROBES, SpeedLog
from wire import PROBE, REPLY_TIMEOUT_S, Lane, LaneError, OpLedger, OpRecord

BATCH_ROWS = 64
#: host-speed probes per second in the open-loop phases (the closed
#: loop probes once per cycle)
PROBE_RATE = 10.0


class DeltaBook:
    """Subscriber-side state shared by the lanes: each query's
    delta-applied answer, and when each tick's first delta arrived."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self.answers: dict[str, dict] = {}
        self.first_arrival: dict[tuple[str, int], float] = {}
        self.received = 0

    def baseline(self, ns: str, query: str, answer: list) -> None:
        with self._cond:
            self.answers[f"{ns}/{query}"] = {
                (p["older"], p["newer"]): p for p in answer
            }

    def on_event(self, ns: str) -> Callable[[float, dict], None]:
        def handle(now: float, frame: dict) -> None:
            if frame.get("event") != "delta":
                return
            with self._cond:
                apply_delta(self.answers[f"{ns}/{frame['query']}"], frame)
                self.first_arrival.setdefault((ns, frame["tick"]), now)
                self.received += 1
                self._cond.notify_all()
        return handle

    def wait_for(self, count: int) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self.received >= count,
                                       REPLY_TIMEOUT_S)

    def first_delta(self, ns: str, record: OpRecord) -> Optional[float]:
        """Arrival of the first delta frame any tick of this ingest
        caused, or ``None`` when it caused none."""
        reply = record.reply
        if not record.ok or not reply.get("deltas"):
            return None
        now_seq, count = reply["now_seq"], reply["ingested"]
        with self._cond:
            times = [self.first_arrival[(ns, tick)]
                     for tick in range(now_seq - count + 1, now_seq + 1)
                     if (ns, tick) in self.first_arrival]
        return min(times) if times else None


class Helper(threading.Thread):
    """The second generator thread; re-raises its error on join."""

    def __init__(self, target: Callable[[], object]) -> None:
        super().__init__(name="perfbench-lane1", daemon=True)
        self._target_fn = target
        self.error: Optional[BaseException] = None
        self.result = None

    def run(self) -> None:
        try:
            self.result = self._target_fn()
        except Exception as exc:  # re-raised in the main thread
            self.error = exc

    def finish(self):
        self.join(REPLY_TIMEOUT_S * 2)
        if self.is_alive():
            raise LaneError("lane 1 did not finish", "timeout")
        if self.error is not None:
            raise self.error
        return self.result


class Query:
    """A registered query as the generator knows it."""

    def __init__(self, ns: str, spec: dict, handle: str) -> None:
        self.ns = ns
        self.scoring = spec["scoring"]
        self.k = spec["k"]
        self.n = spec.get("n")
        self.handle = handle


class Deployment:
    """One set-up server: its lanes, queries, and the acked rows."""

    def __init__(self, server, lanes: list[Lane], book: DeltaBook,
                 speed: SpeedLog) -> None:
        self.server = server
        self.lanes = lanes
        self.book = book
        #: the run's host-speed probes; set-up steps add to it
        self.speed = speed
        self.queries: list[Query] = []
        #: namespace -> rows the server acknowledged, in stream order
        self.acked: dict[str, list] = {}
        #: namespace -> the lane that ingests into it
        self.writer: dict[str, Lane] = {}
        #: ``(sent, replied)`` of each group-building register
        self.register_at: list[tuple[float, float]] = []
        self.streams: dict[str, object] = {}
        #: ``(start, end)`` of the set-up, from the server's spawn
        self.setup_at = (0.0, 0.0)

    def close(self) -> None:
        for lane in self.lanes:
            lane.close()

    def take(self, ns: str, count: int) -> list:
        return [list(row) for row in islice(self.streams[ns], count)]

    def admit(self, ns: str, record: OpRecord, rows: list) -> int:
        """Book the rows an ingest admitted (a quota cut admits an exact
        prefix, reported in the error details)."""
        if record.ok:
            admitted = record.reply["ingested"]
        elif record.reply is not None:
            details = record.reply.get("error", {}).get("details", {})
            admitted = details.get("ingested", 0)
        else:
            admitted = 0
        self.acked[ns].extend(rows[:admitted])
        return admitted

    def fill(self, ns: str, count: int) -> None:
        lane = self.writer[ns]
        while count > 0:
            rows = self.take(ns, min(BATCH_ROWS, count))
            record = lane.request("ingest", rows=rows)
            if self.admit(ns, record, rows) != len(rows):
                raise LaneError(f"fill of {ns!r} was refused: "
                                f"{record.error}")
            count -= len(rows)
        self.speed.probe(SETUP_PROBES)

    def register(self, ns: str, spec: dict, subscriber: Lane,
                 builds_group: bool) -> Query:
        self.speed.probe(SETUP_PROBES)
        record = self.writer[ns].request("register", **spec)
        self.speed.probe(SETUP_PROBES)
        if not record.ok:
            raise LaneError(f"register {spec} failed: {record.error}")
        if builds_group:
            self.register_at.append((record.sent, record.replied))
        query = Query(ns, spec, record.reply["query"])
        reply = subscriber.request("subscribe", query=query.handle)
        if not reply.ok:
            raise LaneError(f"subscribe failed: {reply.error}")
        self.book.baseline(ns, query.handle, reply.reply["answer"])
        self.queries.append(query)
        return query

    def stats(self) -> dict:
        """The ``stats`` reply (metrics included) seen by lane 0."""
        record = self.lanes[0].request("stats", metrics=True)
        if not record.ok:
            raise LaneError(f"stats failed: {record.error}")
        return record.reply["stats"]


class PhaseResult:
    """Raw samples of one timed phase."""

    def __init__(self) -> None:
        self.t0 = 0.0
        self.t1 = 0.0
        self.rows = 0
        self.ingests: list[OpRecord] = []
        self.reads: list[OpRecord] = []
        self.registers: list[OpRecord] = []
        #: (record, first delta arrival) for ingests that caused deltas
        self.deltas: list[tuple[OpRecord, float]] = []
        #: seconds each open-loop send left after its due time
        self.lateness: list[float] = []
        #: closed loop only: ``(rows, start, end)`` of each full cycle
        #: (send, ack, deltas, reads)
        self.cycles: list[tuple[int, float, float]] = []
        self.closed_loop = False


def _schedule(start: float, rate: float, seconds: float, offset: float,
              op: str, fields) -> list:
    count = int(seconds * rate)
    return [(start + offset + i / rate, op,
             fields(i) if callable(fields) else fields, None)
            for i in range(count)]


def _probes(speed: SpeedLog, start: float, seconds: float,
            offset: float) -> list:
    """Open-loop schedule entries that probe the host's speed at
    ``PROBE_RATE``, ``offset`` seconds into each period: a quiet slot,
    clear of the ticks and reads around it."""
    return [(start + offset + j / PROBE_RATE, PROBE, speed.probe, None)
            for j in range(int(seconds * PROBE_RATE))]


def _settle(dep: Deployment, result: PhaseResult, ns: str, rows: list,
            subscriber: Lane, scheduled: list) -> None:
    """End of an open-loop phase: wait for every delta the acks
    announced, book the admitted single-row ingests and their first
    deltas, and keep how late each scheduled send left."""
    expected = sum(r.reply["deltas"] for r in result.ingests if r.ok)
    subscriber.wait(lambda: dep.book.received >= expected)
    for record, row in zip(result.ingests, rows):
        result.rows += dep.admit(ns, record, [row])
        first = dep.book.first_delta(ns, record)
        if first is not None:
            result.deltas.append((record, first))
    result.lateness = [r.sent - r.due for r in scheduled]


class Workload:
    """A workload: its server, set-up and timed phase."""

    name = ""
    columns = 2
    window = 512
    #: the namespace each lane works in
    LANES = ("default", "default")
    #: ``(register spec, builds a new skyband group)`` in order
    QUERIES: tuple = ()
    #: phase rows whose engine Counters the traced ledger reports (a
    #: fixed prefix of the seeded stream, so the counts repeat exactly)
    COUNT_ROWS = 1000

    def serve_args(self, workdir: Path) -> list:
        return ["--window", str(self.window), "--columns", str(self.columns)]

    def window_of(self, ns: str) -> int:
        return self.window

    def streams(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, server, ledger: OpLedger, seed: int,
              speed: SpeedLog) -> Deployment:
        """Connect, fill the windows, register and subscribe."""
        book = DeltaBook()
        dep = Deployment(server, [Lane(server.port, ledger, book.on_event(ns))
                                  for ns in self.LANES], book, speed)
        dep.streams = self.streams(seed)
        dep.acked = {ns: [] for ns in dep.streams}
        dep.writer = {self.LANES[0]: dep.lanes[0]}
        self.prepare(dep)
        return dep

    def prepare(self, dep: Deployment) -> None:
        dep.fill("default", self.window)
        for spec, builds in self.QUERIES:
            dep.register("default", spec, dep.lanes[1], builds)

    def phase(self, dep: Deployment, seconds: float) -> PhaseResult:
        raise NotImplementedError


class Steady(Workload):
    name = "steady"
    columns = 2
    window = 512
    #: registration order: the first two build a skyband group over the
    #: full window, the third joins the closest group
    QUERIES = (({"scoring": "closest", "k": 20, "n": 256}, True),
               ({"scoring": "furthest", "k": 10}, True),
               ({"scoring": "closest", "k": 5}, False))
    COUNT_ROWS = 2048
    #: an ad-hoc read inside the registered closest k=20 n=256 query
    SNAPSHOT = {"scoring": "closest", "k": 10, "n": 200}
    #: reads per cycle: a read is sub-millisecond and spreads with the
    #: host's wake-up latency, so its median needs many samples
    READS = 4

    def streams(self, seed: int) -> dict:
        return {"default": uniform_stream(self.columns, seed=seed)}

    def phase(self, dep, seconds) -> PhaseResult:
        writer, subscriber = dep.lanes
        result = PhaseResult()
        result.closed_loop = True
        stop = threading.Event()
        helper = Helper(lambda: subscriber.listen(stop.is_set))
        helper.start()
        expected = dep.book.received
        try:
            result.t0 = time.perf_counter()
            end = result.t0 + seconds
            while time.perf_counter() < end:
                rows = dep.take("default", BATCH_ROWS)
                record = writer.request("ingest", rows=rows)
                result.ingests.append(record)
                admitted = dep.admit("default", record, rows)
                result.rows += admitted
                if record.ok:
                    expected += record.reply["deltas"]
                if not dep.book.wait_for(expected):
                    dep.lanes[0].ledger.fail("ingest", "timeout")
                    raise LaneError("deltas of a batch never arrived",
                                    "timeout")
                for _ in range(self.READS):
                    read = writer.request("snapshot", **self.SNAPSHOT)
                    result.reads.append(read)
                result.cycles.append((admitted, record.sent, read.replied))
                # the server is idle until the next send
                dep.speed.probe()
            result.t1 = time.perf_counter()
        finally:
            stop.set()
            helper.finish()
        for record in result.ingests:
            first = dep.book.first_delta("default", record)
            if first is not None:
                result.deltas.append((record, first))
        return result


class Live(Workload):
    name = "live"
    columns = 3
    window = 512
    RATE = 100.0
    READ_RATE = 10.0
    #: reads are due 8 ms after an ingest, in the gap before the next
    #: one: they time the read path, not a wait behind a tick (a wait
    #: that would jump once a slow host stretches ticks past the offset)
    READ_OFFSET = 0.8 / RATE
    #: host-speed probes run 3.5 ms before an ingest, after the
    #: previous tick's deltas and clear of the reads
    PROBE_OFFSET = 4.65 / RATE
    QUERIES = (({"scoring": "closest", "k": 10, "n": 64}, True),
               ({"scoring": "dissimilar", "k": 5, "n": 128}, True))
    #: an ad-hoc read inside the registered closest k=10 n=64 query
    SNAPSHOT = {"scoring": "closest", "k": 5, "n": 48}

    def streams(self, seed: int) -> dict:
        return {"default": anticorrelated_stream(self.columns, seed=seed)}

    def phase(self, dep, seconds) -> PhaseResult:
        writer, reader = dep.lanes
        result = PhaseResult()
        rows = dep.take("default", int(seconds * self.RATE))
        start = time.perf_counter() + 0.05
        ingest = sorted(
            _schedule(start, self.RATE, seconds, 0.0, "ingest",
                      lambda i: {"rows": [rows[i]]})
            + _probes(dep.speed, start, seconds, self.PROBE_OFFSET),
            key=lambda entry: entry[0])
        reads = _schedule(start, self.READ_RATE, seconds, self.READ_OFFSET,
                          "snapshot", self.SNAPSHOT)
        helper = Helper(lambda: reader.run_schedule(reads))
        result.t0 = start
        helper.start()
        try:
            result.ingests = writer.run_schedule(ingest)
        finally:
            result.reads = helper.finish()
        result.t1 = max(r.replied for r in result.ingests + result.reads)
        _settle(dep, result, "default", rows, reader,
                result.ingests + result.reads)
        return result


class Tenants(Workload):
    name = "tenants"
    columns = 2
    window = 448            # beta's window; alpha's is capped below
    ALPHA_WINDOW = 256
    COUNT_ROWS = 500
    RATE = 50.0
    READ_RATE = 10.0
    #: reads sit midway between alpha's ingests
    READ_OFFSET = 0.5 / RATE
    #: host-speed probes sit 5 ms before an ingest, clear of the reads
    PROBE_OFFSET = 2.75 / RATE
    REGISTER_PERIOD = 2.0
    #: beta's first register is due this long after the phase starts
    REGISTER_LEAD = 0.25
    #: reads and host-speed probes run only from this long after a
    #: register is due until the next one: a register holds the shared
    #: loop for 0.3-0.5 s, so a read queued behind it would time the
    #: register (which alpha's on_time_share and delta_ms_p50 already
    #: show), not the read path, and a probe beside it would share the
    #: server's CPU and read the server's load as a slow host
    CLEAR_S = 0.9
    ALPHA_QUERY = {"scoring": "closest", "k": 10, "n": 128}
    SNAPSHOT = {"scoring": "closest", "k": 5, "n": 100}
    #: beta has no live group on this scoring function, so every
    #: register bootstraps a new skyband over the full window
    BETA_QUERY = {"scoring": "furthest", "k": 10}
    TOKENS = {"alpha": "alpha-bench-token", "beta": "beta-bench-token"}
    LANES = ("alpha", "beta")

    def serve_args(self, workdir: Path) -> list:
        path = workdir / "tenants.json"
        path.write_text(json.dumps({
            "admin_token": "admin-bench-token",
            "tenants": {
                "alpha": {"token": self.TOKENS["alpha"], "quotas": {
                    "max_window_objects": self.ALPHA_WINDOW,
                    "max_queries": 2,
                    "max_subscribers": 2,
                    # generous: a 0.5-s stall queues ~25 rows, which the
                    # bucket must still admit (no op may fail)
                    "ingest_rows_per_sec": 200,
                    "burst_rows": 300,
                }},
                "beta": {"token": self.TOKENS["beta"],
                         "quotas": {"max_queries": 2}},
            },
        }))
        return super().serve_args(workdir) + ["--tenants", str(path)]

    def window_of(self, ns: str) -> int:
        return self.ALPHA_WINDOW if ns == "alpha" else self.window

    def streams(self, seed: int) -> dict:
        return {"alpha": uniform_stream(self.columns, seed=seed),
                "beta": uniform_stream(self.columns, seed=seed + 7919)}

    def prepare(self, dep: Deployment) -> None:
        dep.writer = {"alpha": dep.lanes[0], "beta": dep.lanes[1]}
        for ns, lane in dep.writer.items():
            record = lane.request("auth", namespace=ns,
                                  token=self.TOKENS[ns])
            if not record.ok:
                raise LaneError(f"auth {ns} failed: {record.error}")
        dep.fill("alpha", self.ALPHA_WINDOW)
        dep.fill("beta", self.window)
        dep.register("alpha", self.ALPHA_QUERY, dep.lanes[0], True)

    def phase(self, dep, seconds) -> PhaseResult:
        alpha, beta = dep.lanes
        result = PhaseResult()
        rows = dep.take("alpha", int(seconds * self.RATE))
        start = time.perf_counter() + 0.05

        def clear(entry) -> bool:
            return ((entry[0] - start - self.REGISTER_LEAD)
                    % self.REGISTER_PERIOD >= self.CLEAR_S)

        schedule = sorted(
            _schedule(start, self.RATE, seconds, 0.0, "ingest",
                      lambda i: {"rows": [rows[i]]})
            + list(filter(clear, _schedule(
                start, self.READ_RATE, seconds, self.READ_OFFSET,
                "snapshot", self.SNAPSHOT)))
            + list(filter(clear, _probes(dep.speed, start, seconds,
                                         self.PROBE_OFFSET))),
            key=lambda entry: entry[0])
        cycles = int(seconds / self.REGISTER_PERIOD)
        beta_schedule = []
        for j in range(cycles):
            due = start + self.REGISTER_LEAD + j * self.REGISTER_PERIOD
            beta_schedule.append((due, "register", self.BETA_QUERY, None))
            beta_schedule.append((
                due + self.REGISTER_PERIOD / 2, "unregister",
                lambda: {"query": beta.sent[-1].reply["query"]},
                "after_reply"))
        helper = Helper(lambda: beta.run_schedule(beta_schedule))
        result.t0 = start
        helper.start()
        try:
            sent = alpha.run_schedule(schedule)
        finally:
            beta_sent = helper.finish()
        result.ingests = [r for r in sent if r.op == "ingest"]
        result.reads = [r for r in sent if r.op == "snapshot"]
        result.registers = [r for r in beta_sent if r.op == "register"]
        result.t1 = max(r.replied for r in sent + beta_sent)
        _settle(dep, result, "alpha", rows, alpha,
                [r for r in sent + beta_sent if r.tag != "after_reply"])
        return result


WORKLOADS = {w.name: w for w in (Steady(), Live(), Tenants())}
