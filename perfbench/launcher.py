"""Traced server for the per-layer run.

Builds the same server ``repro serve`` builds -- same arguments, same
public constructors, same flight recorder and span ring -- and adds a
live :class:`~repro.obs.recorder.MetricsRecorder` (sharing the server's
metrics registry, so ``stats`` with ``metrics`` shows engine phases)
and one :class:`~repro.obs.cost_model.Counters` per session.  Before
serving it wraps these entry points with spans timed from outside:

* ``ServerMonitor.ingest`` / ``register`` / ``snapshot`` /
  ``drain_deltas`` (``serve.session.*``); ingest spans also carry the
  ``Counters`` the call added;
* ``FairMultiplexer.submit``, from the call to the start of its thunk
  (``serve.tenancy.mux_wait``);
* ``encode_frame`` / ``decode_frame`` as the server module calls them
  (``serve.protocol.*``), with the frame's byte count.

Spans stay in memory and are written as JSON to ``--spans-out`` when
the server drains (SIGTERM).  ``--inject-delay NAME`` makes the named
span's entry point take twice as long (a busy wait after the call);
the ledger test uses it to check that the ledger blames that layer.

    python3 perfbench/launcher.py --spans-out spans.json \\
        [--inject-delay serve.protocol.encode] <repro serve arguments>
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import build_serve_parser  # noqa: E402
from repro.obs.cost_model import Counters  # noqa: E402
from repro.obs.flight import FlightRecorder  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.recorder import MetricsRecorder  # noqa: E402
from repro.obs.spans import NULL_SPANS, SpanRecorder  # noqa: E402
from repro.serve import server as server_module  # noqa: E402
from repro.serve.server import ServeServer  # noqa: E402
from repro.serve.session import ServerMonitor  # noqa: E402
from repro.serve.tenancy import FairMultiplexer, NamespaceRegistry  # noqa: E402

#: the Counters fields an ingest span carries (the exact-count layer)
COUNTED = ("pairs_considered", "candidate_pairs", "score_evaluations",
           "skyband_inserts", "pst_inserts", "pst_deletes")


class SpanLog:
    """Finished spans as ``[name, start, end, extra]`` lists."""

    def __init__(self, inject: str | None) -> None:
        self.spans: list = []
        self.inject = inject

    def close(self, name: str, start: float, extra=None) -> None:
        end = perf_counter()
        if name == self.inject:
            stop = end + (end - start)
            while perf_counter() < stop:
                pass
            end = perf_counter()
        self.spans.append([name, start, end, extra])

    def wrap(self, cls, attr: str, name: str, extra=None) -> None:
        original = getattr(cls, attr)
        log = self

        def timed(*args, **kwargs):
            start = perf_counter()
            result = original(*args, **kwargs)
            log.close(name, start, extra(args, result) if extra else None)
            return result

        setattr(cls, attr, timed)

    def wrap_ingest(self) -> None:
        original = ServerMonitor.ingest
        log = self

        def ingest(session, rows, **kwargs):
            counters = session.monitor.counters
            before = [getattr(counters, f) for f in COUNTED]
            start = perf_counter()
            result = original(session, rows, **kwargs)
            log.close("serve.session.ingest", start, {
                "ns": session.namespace, "rows": result[0],
                "counts": [getattr(counters, f) - b
                           for f, b in zip(COUNTED, before)],
            })
            return result

        ServerMonitor.ingest = ingest

    def wrap_submit(self) -> None:
        original = FairMultiplexer.submit
        log = self

        async def submit(mux, name, thunk):
            called = perf_counter()

            def started():
                log.close("serve.tenancy.mux_wait", called)
                return thunk()

            return await original(mux, name, started)

        FairMultiplexer.submit = submit


def instrument(log: SpanLog) -> None:
    log.wrap_ingest()
    log.wrap(ServerMonitor, "register", "serve.session.register")
    log.wrap(ServerMonitor, "snapshot", "serve.session.snapshot")
    log.wrap(ServerMonitor, "drain_deltas", "serve.session.drain_deltas",
             lambda args, result: len(result))
    log.wrap_submit()
    log.wrap(server_module, "encode_frame", "serve.protocol.encode",
             lambda args, result: len(result))
    log.wrap(server_module, "decode_frame", "serve.protocol.decode",
             lambda args, result: len(args[0]))


def build_server(args) -> ServeServer:
    """The server ``repro serve`` builds for these arguments (fresh
    windows only: no restore, no standby)."""
    registry = MetricsRegistry()

    def session(window: int) -> ServerMonitor:
        monitor = ServerMonitor(
            window, args.columns, time_horizon=args.horizon,
            strategy=args.strategy, audit=args.audit, spans=spans,
            recorder=MetricsRecorder(registry, trace=False),
        )
        monitor.monitor.counters = Counters()
        return monitor

    spans = (SpanRecorder(args.trace_capacity)
             if args.trace_capacity > 0 else NULL_SPANS)
    flight = FlightRecorder(
        dump_dir=args.flight_dir,
        slow_tick_seconds=(args.slow_tick_ms / 1e3
                           if args.slow_tick_ms is not None else None),
    )
    if spans is not NULL_SPANS:
        spans.sink = flight.record_span
    tenants = single = None
    if args.tenants is not None:
        def factory(name, spec):
            cap = spec.quotas.max_window_objects
            return session(min(args.window, cap) if cap else args.window)
        tenants = NamespaceRegistry.from_file(args.tenants, factory)
    else:
        single = session(args.window)
    return ServeServer(
        single, host=args.host, port=args.port,
        backpressure=args.backpressure, queue_depth=args.queue_depth,
        checkpoint_dir=args.checkpoint_dir, registry=registry, spans=spans,
        flight=flight, obs_port=args.obs_port, obs_host=args.obs_host,
        tenants=tenants, mux_pending=args.mux_pending,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--inject-delay", default=None, metavar="SPAN")
    own, rest = parser.parse_known_args(argv)
    args = build_serve_parser().parse_args(rest)
    log = SpanLog(own.inject_delay)
    instrument(log)
    server = build_server(args)

    async def serve() -> None:
        await server.start()
        server.install_signal_handlers()
        print(f"repro serve: listening on {server.host}:{server.port}",
              flush=True)
        await server.serve_until_stopped()

    asyncio.run(serve())
    Path(own.spans_out).write_text(json.dumps(
        {"counted": COUNTED, "spans": log.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
