"""Spread report: is a noisy verdict the host's or the program's?

Runs ``run.py`` (untraced) on one commit with seeds 1..runs and
reports, per end-to-end metric, the median and the distance between the
first and third quartile as a share of the median -- the statistic the
acceptance rule uses -- for the reported (host-speed scaled) and the
measured values, beside the same statistic for the host-speed probe
taken around and during each run::

    python3 perfbench/spread.py --workload live --runs 10 --seconds 24

A metric whose measured spread tracks the probe's spread points at the
host; a metric that spreads while the probe holds points at the program
(or the benchmark).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDS = HERE.parent / ".perfbench" / "records.jsonl"


def spread(values: list) -> float:
    """Inter-quartile distance over the median (``n=4`` quantiles)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def report(records: list) -> dict:
    out = {}
    metrics = sorted({name for r in records for name in r["metrics"]})
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in records
                  if name in r["metrics"]]
        measured = [r["measured"][name]["value"] for r in records
                    if name in r.get("measured", {})]
        if len(values) >= 2:
            out[name] = {"median": statistics.median(values),
                         "iqr_share": spread(values), "n": len(values)}
        if len(measured) >= 2:
            out[name]["measured_median"] = statistics.median(measured)
            out[name]["measured_iqr_share"] = spread(measured)
    probes = [r["host_probe"][when] for r in records
              for when in ("before", "after", "run")
              if r["host_probe"].get(when)]
    if len(probes) >= 2:
        out["host_probe"] = {"median": statistics.median(probes),
                             "iqr_share": spread(probes), "n": len(probes)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    records = []
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}: "
                  f"{done.stderr.strip()[-500:]}", file=sys.stderr)
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in
                  result["metrics"].items()), file=sys.stderr, flush=True)
        records.append(json.loads(RECORDS.read_text().splitlines()[-1]))
    print(json.dumps(report(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
