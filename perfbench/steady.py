"""Steadiness check: repeated fresh-process runs of every workload.

``python3 perfbench/run.py --steady RUNS [--seed FIRST] [--seconds S]``
runs each workload RUNS times, one process at a time, with seeds FIRST,
FIRST+1, ...  The workload order alternates between passes (forward,
then reversed), so a slow spell of the host falls on different
workloads.  For each end-to-end metric it prints the median, the
quartiles, the spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the
metric's bound from ``BENCHMARK.json``, plus each workload's share of
failed operations.  Two such tables taken at different times can be
compared directly: each median should stay within its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over
    the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(runs: int, first_seed: int, seconds: float) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    results: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(runs):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            result = _run(name, first_seed + index, seconds)
            results[name].append(result)
            print(
                f"pass {index + 1}/{runs} {name}: "
                + " ".join(
                    f"{metric}={value['value']:.4g}"
                    for metric, value in result["metrics"].items()
                ),
                file=sys.stderr,
                flush=True,
            )
    print(
        f"{'workload':16} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
        f"{'spread':>7} {'bound':>6}"
    )
    for name in names:
        shares = {r["failed"] / r["attempted"] for r in results[name]}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results[name]]
            median, q1, q3, share = spread(values)
            print(
                f"{name:16} {metric:12} {median:10.4f} {q1:10.4f} {q3:10.4f} "
                f"{share:7.1%} {bound:6.0%}"
            )
        print(
            f"{name:16} failed share {sorted(shares)} over {runs} runs, "
            f"correct in {sum(r['correct'] for r in results[name])}"
        )
    return 0
