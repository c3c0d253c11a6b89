"""The per-layer ledger of a traced run.

Inputs: the launcher's spans, the ``stats`` reply (with the metrics
registry) read just before and just after the timed phase, the server
process's CPU time over the phase, and the generator's own op records.
Spans are kept only when they lie inside the phase; all clocks are
``CLOCK_MONOTONIC``.

Self time of a layer is its time minus the time of the layers it calls:

============================  ==========================================
``serve.protocol``            encode + decode spans
``serve.tenancy``             fair-multiplexer wait spans
``serve.session``             session spans minus the engine phases
``core.monitor``              ``window`` + ``queries`` phases
``core.maintenance``          ``expire`` + ``generate`` + ``insert``
                              minus ``pst_rebuild``
``structures.pst``            ``pst_rebuild`` phase
``serve.server``              server op time minus the spans inside it
============================  ==========================================

``trace.closure`` is the traced self time inside ops (every layer but
``serve.server``, less decode, which runs before the op clock starts)
over the server's own op time; the run is only trusted when it is
within 10% of 1.
"""

from __future__ import annotations

import statistics

from repro.analysis.theory import (
    expected_new_skyband_pairs,
    expected_skyband_size,
    ta_access_bound,
)
from repro.baselines.supreme import SupremeAlgorithm
from repro.serve.session import SCORING_NAMES

#: ops whose handler time is the server's op time (the ``stats`` reads
#: that bracket the phase are left out)
SERVED_OPS = ("ingest", "register", "unregister", "snapshot", "subscribe")
ENGINE_PHASES = ("window", "expire", "generate", "insert", "queries")
#: rows the supreme lower bound is timed on (after a full-window warm-up)
SUPREME_ROWS = 256
CLOSURE_TOLERANCE = 0.10


def _registry_delta(before: dict, after: dict):
    """``(count, sum)`` change of a histogram between two snapshots;
    ``label`` selects one child of a labelled family (``None`` sums
    every child)."""
    def delta(name: str, label: str | None = None) -> tuple[int, float]:
        count = total = 0
        for snap, sign in ((after, 1), (before, -1)):
            family = snap.get("metrics", {}).get(name, {})
            children = ([family] if "count" in family else
                        [v for k, v in family.items()
                         if label is None or k == label])
            for child in children:
                count += sign * child["count"]
                total += sign * child["sum"]
        return count, total
    return delta


def _scoring_name(group: dict) -> str:
    # "s1-closest(d=2)" -> "closest"
    return group["scoring_function"].split("-", 1)[1].split("(", 1)[0]


def supreme_us_per_row(groups: list, rows: list, window: int,
                       columns: int) -> float:
    """Chargeable µs/row of the paper's ``supreme`` lower bound (§VI-B),
    one instance per skyband group, over the last rows the server saw."""
    measured = rows[-SUPREME_ROWS:]
    warm = rows[-SUPREME_ROWS - window:-SUPREME_ROWS]
    total = 0.0
    for group in groups:
        scoring = SCORING_NAMES[_scoring_name(group)](columns)
        supreme = SupremeAlgorithm(scoring, group["K"], window, columns)
        for row in warm:
            supreme.append(tuple(row))
        supreme.chargeable_seconds = 0.0
        for row in measured:
            supreme.append(tuple(row))
        total += supreme.chargeable_seconds / max(1, len(measured))
    return total * 1e6


SESSION_SPANS = tuple(f"serve.session.{name}" for name in
                      ("ingest", "register", "snapshot", "drain_deltas"))


def self_times(spent: dict, phase_s: dict, op_s: float) -> dict:
    """Seconds of self time per layer over the phase, from the seconds
    ``spent`` in each span name, the engine phase seconds and the
    server's op seconds."""
    session = sum(spent.get(name, 0.0) for name in SESSION_SPANS)
    engine = sum(phase_s.get(p, 0.0) for p in ENGINE_PHASES)
    encode = spent.get("serve.protocol.encode", 0.0)
    decode = spent.get("serve.protocol.decode", 0.0)
    mux = spent.get("serve.tenancy.mux_wait", 0.0)
    pst = phase_s.get("pst_rebuild", 0.0)
    return {
        "serve.protocol": encode + decode,
        "serve.tenancy": mux,
        "serve.session": session - engine,
        "core.monitor": phase_s.get("window", 0.0)
        + phase_s.get("queries", 0.0),
        "core.maintenance": phase_s.get("expire", 0.0)
        + phase_s.get("generate", 0.0) + phase_s.get("insert", 0.0) - pst,
        "structures.pst": pst,
        "serve.server": op_s - session - encode - mux,
    }


def blame(base: dict, changed: dict) -> str:
    """The layer whose self time per row grew by the largest factor."""
    return max((layer for layer in base if base[layer] > 0),
               key=lambda layer: changed.get(layer, 0.0) / base[layer])


def per_layer(workload, phase, launcher: dict, before: dict, after: dict,
              cpu_s: float, acked: dict, base: tuple) -> tuple[dict, dict]:
    """``(metrics, self_times_per_row)`` of one traced phase.

    ``base`` is ``(phase, stats before, stats after)`` of the untraced
    comparison phase; the server's own ingest op clock on both sides
    gives ``trace.overhead``."""
    rows = max(1, phase.rows)
    inside = [s for s in launcher["spans"]
              if s[1] >= phase.t0 and s[2] <= phase.t1]
    durations: dict = {}
    for name, start, end, _ in inside:
        durations.setdefault(name, []).append(end - start)
    spent = {name: sum(values) for name, values in durations.items()}
    delta = _registry_delta(before, after)
    phase_s = {p: delta("repro_phase_seconds", f"phase={p}")[1]
               for p in ENGINE_PHASES + ("staircase", "pst_rebuild")}
    op_s = sum(delta("repro_serve_op_seconds", f"op={op}")[1]
               for op in SERVED_OPS)
    ingest_ops, ingest_op_s = delta("repro_serve_op_seconds", "op=ingest")

    # Exact counts: the Counters of the first COUNT_ROWS phase rows.
    ingests = sorted((s for s in inside if s[0] == "serve.session.ingest"
                      and s[3]["ns"] == workload.LANES[0]),
                     key=lambda s: s[1])
    counted_rows = 0
    counts = [0] * len(launcher["counted"])
    for span in ingests:
        if counted_rows >= workload.COUNT_ROWS:
            break
        counted_rows += span[3]["rows"]
        counts = [a + b for a, b in zip(counts, span[3]["counts"])]
    count = dict(zip(launcher["counted"], counts))
    per = max(1, counted_rows)

    codec = (durations.get("serve.protocol.encode", [])
             + durations.get("serve.protocol.decode", []))
    bytes_in = sum(s[3] for s in inside if s[0] == "serve.protocol.decode")
    bytes_out = sum(s[3] for s in inside if s[0] == "serve.protocol.encode")
    deltas = sum(s[3] for s in inside
                 if s[0] == "serve.session.drain_deltas")
    session_calls = [d for name in SESSION_SPANS
                     for d in durations.get(name, [])]
    mux = durations.get("serve.tenancy.mux_wait", [])
    acks = [r.replied - r.sent for r in phase.ingests if r.ok]
    refused = sum(r.error == "quota_exceeded" for r in phase.ingests)

    ns = workload.LANES[0]
    window = workload.window_of(ns)
    groups = after["groups"]
    thm3 = sum(expected_skyband_size(g["K"], window) for g in groups)
    lemma2 = sum(expected_new_skyband_pairs(g["K"], window) for g in groups)
    bound = sum(ta_access_bound(workload.columns, window, g["K"])
                if g["strategy"] == "ta" else window - 1 for g in groups)
    engine_us = sum(phase_s[p] for p in ENGINE_PHASES) / rows * 1e6
    supreme_us = supreme_us_per_row(groups, acked[ns], window,
                                    workload.columns)
    selfs = self_times(spent, phase_s, op_s)
    base_phase, base_before, base_after = base
    base_op_s = _registry_delta(base_before, base_after)(
        "repro_serve_op_seconds", "op=ingest")[1]
    base_per_row = base_op_s / max(1, base_phase.rows)
    traced_per_row = ingest_op_s / rows

    def mean_ms(name: str) -> float:
        values = durations.get(name, [])
        return statistics.fmean(values) * 1e3 if values else 0.0

    metrics = {
        # exact counts (repeat for a fixed seed)
        "core.maintenance.pairs_considered_per_row":
            (count["pairs_considered"] / per, "count/row"),
        "core.maintenance.candidate_pairs_per_row":
            (count["candidate_pairs"] / per, "count/row"),
        "core.maintenance.score_evaluations_per_row":
            (count["score_evaluations"] / per, "count/row"),
        "core.maintenance.skyband_inserts_per_row":
            (count["skyband_inserts"] / per, "count/row"),
        "core.maintenance.survivor_share":
            (count["skyband_inserts"] / max(1, count["pairs_considered"]),
             "fraction"),
        "structures.pst.ops_per_row":
            ((count["pst_inserts"] + count["pst_deletes"]) / per,
             "count/row"),
        "serve.protocol.frames_per_row": (len(codec) / rows, "count/row"),
        "serve.protocol.bytes_in_per_row": (bytes_in / rows, "B/row"),
        "serve.protocol.bytes_out_per_row": (bytes_out / rows, "B/row"),
        "serve.session.deltas_per_tick": (deltas / rows, "count/row"),
        "analysis.theory.skyband_vs_thm3":
            (sum(g["skyband_size"] for g in groups) / thm3, "ratio"),
        "analysis.theory.new_pairs_vs_lemma2":
            (count["skyband_inserts"] / per / lemma2, "ratio"),
        "analysis.theory.ta_access_vs_bound":
            (count["pairs_considered"] / per / bound, "ratio"),
        # timings
        "serve.protocol.codec_us_per_frame":
            (sum(codec) / max(1, len(codec)) * 1e6, "us/frame"),
        "serve.server.op_ms_ingest":
            (ingest_op_s / max(1, ingest_ops) * 1e3, "ms/op"),
        "serve.server.outside_op_ms":
            ((statistics.fmean(acks) if acks else 0.0) * 1e3
             - ingest_op_s / max(1, ingest_ops) * 1e3, "ms/op"),
        "serve.server.cpu_ms_per_row": (cpu_s / rows * 1e3, "ms/row"),
        "serve.server.loop_block_ms_max":
            (max(session_calls, default=0.0) * 1e3, "ms"),
        "serve.tenancy.mux_wait_ms_p50":
            (statistics.median(mux) * 1e3 if mux else 0.0, "ms"),
        "serve.tenancy.mux_wait_ms_max": (max(mux, default=0.0) * 1e3, "ms"),
        "serve.tenancy.quota_refused_share":
            (refused / max(1, len(phase.ingests)), "fraction"),
        "serve.session.ingest_ms_per_row":
            (spent.get("serve.session.ingest", 0.0) / rows * 1e3, "ms/row"),
        "serve.session.register_ms": (mean_ms("serve.session.register"),
                                      "ms/op"),
        "serve.session.snapshot_ms": (mean_ms("serve.session.snapshot"),
                                      "ms/op"),
        "core.monitor.window_us_per_row":
            (phase_s["window"] / rows * 1e6, "us/row"),
        "core.monitor.queries_us_per_row":
            (phase_s["queries"] / rows * 1e6, "us/row"),
        "core.maintenance.expire_us_per_row":
            (phase_s["expire"] / rows * 1e6, "us/row"),
        "core.maintenance.generate_us_per_row":
            (phase_s["generate"] / rows * 1e6, "us/row"),
        "core.maintenance.insert_us_per_row":
            (phase_s["insert"] / rows * 1e6, "us/row"),
        "core.maintenance.staircase_us_per_row":
            (phase_s["staircase"] / rows * 1e6, "us/row"),
        "structures.pst.rebuild_us_per_row":
            (phase_s["pst_rebuild"] / rows * 1e6, "us/row"),
        "baselines.supreme.engine_multiple":
            (engine_us / supreme_us if supreme_us else 0.0, "ratio"),
        "trace.closure":
            ((op_s - selfs["serve.server"]) / op_s if op_s else 0.0,
             "ratio"),
        "trace.overhead":
            (base_per_row / traced_per_row if traced_per_row else 0.0,
             "ratio"),
    }
    return metrics, {layer: s / rows for layer, s in selfs.items()}
