"""Served benchmark of ``repro serve`` (see perfbench/README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics against the real CLI
server; ``--trace 1`` measures the per-layer ledger against the traced
launcher.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The times in
the end-to-end metrics are scaled to the reference host speed
(``hostspeed.py``).  Diagnostics (the measured, unscaled metrics, tail
percentiles, the op ledger, generator lateness, host-speed probe) go to
stderr and to ``.perfbench/records.jsonl`` for ``spread.py``.

Exit codes: 0 measured (a server fault -- lost connection, timeout, a
server that never started -- is measured too: ``correct`` is false and
the failed ops are booked); 2 not run from a checkout of the
repository; 3 invalid run (the generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import SETUP_PROBES, SpeedLog, pin  # noqa: E402
from proc import ServerProcess  # noqa: E402
from wire import LATE_SEND_S, LaneError, OpLedger  # noqa: E402

#: rounds per untraced run: each starts a fresh server (one set-up),
#: drives a 1/ROUNDS slice of the phase and ends with the gate, so the
#: set-up and register samples are spread across the whole run
ROUNDS = 6
#: open-loop sends that left late (``wire.LATE_SEND_S``) are left out
#: of the latencies and ``on_time_share``, so a generator or host stall
#: is not charged to the server; when more than this share of a run's
#: sends left late the generator fell behind its schedule and the run is
#: reported invalid instead of as a number
LATE_SHARE_MAX = 0.02
#: the untraced comparison phase of a traced run, as a share of
#: ``--seconds`` (it gives ``trace.overhead``)
COMPARE_SHARE = 1 / 3


class InvalidRun(Exception):
    """The run produced no trustworthy number."""


def host_probe() -> float:
    """Host speed relative to the reference (median of 25 probes).

    Taken before and after each run and reported beside the metrics: it
    shows whether a spread in the measured values came from the host."""
    speed = SpeedLog()
    for _ in range(25):
        speed.probe()
    return speed.speed()


def tail(samples: list) -> dict:
    """Median plus the highest of p90/p99/p999 with at least ten
    samples beyond it, and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered) if n else None}
    for label, q in (("p999", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if n * (1 - q) >= 10:
            out[label] = ordered[min(n - 1, int(q * n))]
            break
    return out


def ms(values) -> list:
    return [v * 1e3 for v in values]


def start_deployment(workload, ledger, seed, workdir, speed,
                     **server_kw):
    speed.probe(SETUP_PROBES)
    started = time.perf_counter()
    server = ServerProcess(ROOT, workdir, workload.serve_args(workdir),
                           **server_kw)
    try:
        dep = workload.setup(server, ledger, seed, speed)
    except BaseException:
        server.stop()
        raise
    dep.setup_at = (started, time.perf_counter())
    speed.probe(SETUP_PROBES)
    return dep


def stop_deployment(dep) -> None:
    dep.close()
    dep.server.stop()


def check_lateness(phases) -> dict:
    lateness = [late for phase in phases for late in phase.lateness]
    if not lateness:
        return {}
    info = tail(ms(lateness))
    info["max"] = max(lateness) * 1e3
    info["late_sends"] = sum(late > LATE_SEND_S for late in lateness)
    if info["late_sends"] > LATE_SHARE_MAX * len(lateness):
        raise InvalidRun(f"generator fell behind its schedule: {info}")
    return info


def end_to_end(phases: list, setups: list, setup_registers: list,
               span) -> tuple:
    """The six end-to-end metrics plus their tails, pooled over the
    rounds of one run.  ``span(t0, t1)`` turns an interval into the
    seconds it is reported as: measured, or scaled to the reference
    host speed.  ``setups`` and ``setup_registers`` are the set-ups'
    and their group-building registers' ``(start, end)``."""
    def pooled(attr):
        return [item for phase in phases for item in getattr(phase, attr)]

    # sends that left late are the generator's, not the server's
    deltas = [span(record.due, first) * 1e3
              for record, first in pooled("deltas")
              if not record.left_late()]
    reads = [span(r.due, r.replied) * 1e3 for r in pooled("reads")
             if r.ok and not r.left_late()]
    registers = ([span(r.due, r.replied) * 1e3 for r in pooled("registers")
                  if r.ok and not r.left_late()]
                 or [span(t0, t1) * 1e3 for t0, t1 in setup_registers])
    setup_s = [span(t0, t1) for t0, t1 in setups]
    if phases[0].closed_loop:
        # median over the closed-loop cycles of every round
        rate = statistics.median(rows / span(t0, t1) for rows, t0, t1
                                 in pooled("cycles"))
        scheduled = pooled("reads")
    else:
        # the offered rate until the server falls behind: a saturation
        # guard, measured on the generator's clock
        rate = (sum(phase.rows for phase in phases)
                / sum(phase.t1 - phase.t0 for phase in phases))
        scheduled = [r for r in pooled("ingests") if not r.left_late()]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ingest_rows_per_s": (rate, "rows/s"),
        "delta_ms_p50": (statistics.median(deltas), "ms"),
        "snapshot_ms_p50": (statistics.median(reads), "ms"),
        "register_ms_p50": (statistics.median(registers), "ms"),
        "on_time_share": (sum(r.on_time() for r in scheduled)
                          / len(scheduled), "fraction"),
    }
    tails = {"delta_ms": tail(deltas), "snapshot_ms": tail(reads),
             "register_ms": tail(registers), "setup_s": tail(setup_s)}
    if phases[0].closed_loop:
        # per-round rates show how much the host moved within the run
        tails["round_rows_per_s"] = [
            statistics.median(rows / span(t0, t1)
                              for rows, t0, t1 in phase.cycles)
            for phase in phases]
    return ({name: {"value": value, "unit": unit}
             for name, (value, unit) in metrics.items()}, tails)


def untraced(workload, ledger, seed, seconds, workdir) -> dict:
    import gate

    phases, setups, registers, problems = [], [], [], []
    speed = SpeedLog()
    for round_no in range(ROUNDS):
        dep = start_deployment(workload, ledger, seed, workdir, speed)
        try:
            setups.append(dep.setup_at)
            registers += dep.register_at
            phases.append(workload.phase(dep, seconds / ROUNDS))
            problems += gate.check(dep, workload,
                                   brute=round_no == ROUNDS - 1)
        finally:
            stop_deployment(dep)
    lateness = check_lateness(phases)
    metrics, tails = end_to_end(
        phases, setups, registers,
        lambda t0, t1: (t1 - t0) * speed.scale(t0, t1))
    measured, _ = end_to_end(phases, setups, registers,
                             lambda t0, t1: t1 - t0)
    return {"metrics": metrics, "tails": tails, "problems": problems,
            "lateness_ms": lateness, "measured": measured,
            "run_speed": speed.speed()}


def traced(workload, ledger, seed, seconds, workdir,
           inject_delay=None) -> dict:
    import gate
    import ledger as layers

    # Untraced comparison phase: the same server as the end-to-end run.
    speed = SpeedLog()
    dep = start_deployment(workload, ledger, seed, workdir, speed)
    try:
        base_before = dep.stats()
        base = workload.phase(dep, seconds * COMPARE_SHARE)
        base_after = dep.stats()
        problems = gate.check(dep, workload, brute=False)
    finally:
        stop_deployment(dep)
    check_lateness([base])
    spans_out = workdir / "spans.json"
    dep = start_deployment(
        workload, ledger, seed, workdir, speed, spans_out=spans_out,
        extra_args=["--inject-delay", inject_delay] if inject_delay else [])
    try:
        before = dep.stats()
        cpu0 = dep.server.cpu_seconds()
        phase = workload.phase(dep, seconds)
        cpu = dep.server.cpu_seconds() - cpu0
        after = dep.stats()
        problems += gate.check(dep, workload)
    finally:
        stop_deployment(dep)
    spans = json.loads(spans_out.read_text())
    metrics, selfs = layers.per_layer(
        workload, phase, spans, before, after, cpu, dep.acked,
        base=(base, base_before, base_after))
    closure = metrics["trace.closure"][0]
    if abs(closure - 1) > layers.CLOSURE_TOLERANCE:
        problems.append(f"the ledger does not close: layer self times "
                        f"cover {closure:.3f} of the server's op time")
    return {"metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "tails": {}, "problems": problems,
            "self_us_per_row": {k: v * 1e6 for k, v in selfs.items()},
            "lateness_ms": check_lateness([phase])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-delay", default=None, metavar="SPAN",
                        help=argparse.SUPPRESS)  # the ledger test's hook
    args = parser.parse_args(argv)
    # A terminated run still drains and waits for its server processes
    # (the ``finally`` blocks run on the way out).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    state = ROOT / ".perfbench"
    workdir = state / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = OpLedger()
    # Before any thread or server starts, so every one inherits it: an
    # end-to-end run shares one CPU with its server, so the host-speed
    # probes see all the measured work.  A traced run does not pin: on a
    # shared CPU the generator's wake-ups preempt the server inside ops
    # but outside any span, and the ledger's closure on ``live`` fell
    # from 0.95 to 0.92.
    if not args.trace:
        pin()
    probe_before = host_probe()
    try:
        if args.trace:
            run = traced(workload, ledger, args.seed, args.seconds, workdir,
                         args.inject_delay)
        else:
            run = untraced(workload, ledger, args.seed, args.seconds,
                           workdir)
    except LaneError as exc:
        # a server fault is a measured failure, not an invalid run
        if not ledger.totals()[1]:
            ledger.attempt("server")
            ledger.fail("server", exc.cause)
        run = {"metrics": {}, "tails": {}, "lateness_ms": {},
               "problems": [f"server fault: {exc}"]}
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        with open(state / "records.jsonl", "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "time": time.time(),
                "invalid": str(exc), "ops": ledger.report()}) + "\n")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_after = host_probe()
    attempted, failed = ledger.totals()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "time": time.time(),
        "correct": not run["problems"], "problems": run["problems"],
        "ops": ledger.report(), "tails": run["tails"],
        "lateness_ms": run["lateness_ms"],
        "self_us_per_row": run.get("self_us_per_row", {}),
        "host_probe": {"before": probe_before, "after": probe_after,
                       "run": run.get("run_speed")},
        "metrics": run["metrics"],
        "measured": run.get("measured", {}),
    }
    with open(state / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("metrics", "correct")}, indent=1),
          file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
