"""The correctness gate every run ends with.

For each subscribed query three answers must agree (the last, costly
one is checked in the final round of a run):

1. the subscriber's answer: the ``subscribe`` baseline with every delta
   frame replayed on top (:func:`repro.serve.client.apply_delta`);
2. the server's reply to a ``snapshot`` of the query's handle;
3. :class:`repro.baselines.brute.BruteForceReference` fed exactly the
   rows the server acknowledged, in order.
"""

from __future__ import annotations

from repro.baselines.brute import BruteForceReference
from repro.serve.session import SCORING_NAMES

#: brute force scores the pair directly while the engine may combine
#: per-attribute terms, so scores agree to rounding, not bit for bit
SCORE_TOLERANCE = 1e-9


def _close(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        abs(a[key] - b[key]) <= SCORE_TOLERANCE * max(1.0, abs(a[key]))
        for key in a)


def check(dep, workload, brute: bool = True) -> list[str]:
    """Problems found (empty when every query passes).  ``brute=False``
    skips the O(N^2) brute-force answer (rounds before a run's last)."""
    problems = []
    for query in dep.queries:
        label = f"{query.ns}/{query.handle}"
        record = dep.writer[query.ns].request("snapshot", query=query.handle)
        if not record.ok:
            problems.append(f"{label}: snapshot failed ({record.error})")
            continue
        rows = dep.acked[query.ns]
        if record.reply["tick"] != len(rows):
            problems.append(f"{label}: server is at tick "
                            f"{record.reply['tick']}, {len(rows)} rows acked")
            continue
        snapshot = {(p["older"], p["newer"]): p["score"]
                    for p in record.reply["answer"]}
        applied = {key: p["score"] for key, p
                   in dep.book.answers[label].items()}
        if applied != snapshot:
            problems.append(f"{label}: delta-applied answer != snapshot")
        if not brute:
            continue
        reference = BruteForceReference(
            SCORING_NAMES[query.scoring](workload.columns),
            workload.window_of(query.ns))
        for row in rows:
            reference.append(tuple(row))
        expected = {(p.older.seq, p.newer.seq): p.score
                    for p in reference.top_k(query.k, query.n)}
        if not _close(snapshot, expected):
            problems.append(f"{label}: snapshot != brute-force answer")
    return problems
