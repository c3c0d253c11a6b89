"""Checks of the traced ledger: closure, and blame under an injected delay.

Runs two short traced ``live`` runs -- one plain, one whose
``encode_frame`` entry point takes twice as long -- and asserts that the
ledger closes within 10% and names ``serve.protocol`` as the layer
that grew.  From the repository root (about a minute)::

    PYTHONPATH=src python3 -m pytest perfbench/test_ledger.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

RECORDS = HERE.parent / ".perfbench" / "records.jsonl"


def traced_run(*extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "live",
         "--seed", "3", "--seconds", "6", "--trace", "1", *extra],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return json.loads(RECORDS.read_text().splitlines()[-1])


def test_ledger_closes_and_blames_the_delayed_layer():
    base = traced_run()
    delayed = traced_run("--inject-delay", "serve.protocol.encode")
    for record in (base, delayed):
        closure = record["metrics"]["trace.closure"]["value"]
        assert abs(closure - 1) <= ledger.CLOSURE_TOLERANCE, closure
    assert ledger.blame(base["self_us_per_row"],
                        delayed["self_us_per_row"]) == "serve.protocol"
