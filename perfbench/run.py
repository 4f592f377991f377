#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the SPIFFI simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_closed --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the benchmark repeats whole rounds of the workload
(cold set-up, simulation, output checks) until ``--seconds`` have
passed, each on the vCPU that is fastest at its start, and prints the
end-to-end metrics: the median over rounds of the set-up and run
times, each scaled from the host pace measured around its round to the
reference pace (see ``cpus.py``), and the process's peak resident
memory.  With
``--trace 1`` it runs one untraced round and one traced round, checks
that the traced round reproduced the untraced one exactly, writes the
traced spans under ``.perfbench/``, and prints the per-layer metrics.
The last line of standard output is always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--steady RUNS`` runs every workload RUNS times in fresh processes,
alternating the workload order, and prints each end-to-end metric's
median, quartiles and spread next to its bound (see ``steady.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The one known program fault the benchmark keeps as a failing
#: operation: the striped layout's remainder accounting (see README).
KNOWN_FAULT = "placement_audit"
#: Rounds every run completes however short ``--seconds`` is.
MIN_ROUNDS = 3


def _load_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: no simulator source under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


def _measure(workload: str, seed: int, seconds: float) -> dict:
    import cpus
    import workloads

    build, run_round = workloads.WORKLOADS[workload]
    config = build(seed)
    rounds = []
    started = time.perf_counter()
    starts = []
    with cpus.Pinner() as pin:
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
            starts.append(len(pin.samples))
            rounds.append(run_round(config, pin=pin))
        starts.append(len(pin.samples))
        pin()  # the pace just after the last round
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Each round's host seconds over the host pace measured around it
    # (every sample taken during the round and the next one after it),
    # in reference seconds; the median over rounds is reported.
    paces = [
        statistics.mean(pin.samples[first : last + 1])
        for first, last in zip(starts, starts[1:])
    ]
    scale = [cpus.REFERENCE_S / pace for pace in paces]
    setups = [r.setup_s * k for r, k in zip(rounds, scale)]
    runs = [sum(r.parts) * k for r, k in zip(rounds, scale) if r.parts]
    print(
        f"{workload} seed {seed}: {len(rounds)} rounds; host seconds: set-up "
        f"median {statistics.median(r.setup_s for r in rounds):.4f}, run median "
        f"{statistics.median(sum(r.parts) for r in rounds):.4f}; probe median "
        f"{statistics.median(paces) * 1e3:.3f} ms",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(runs) if runs else 0.0, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return _result(rounds, metrics)


def _traced(workload: str, seed: int) -> dict:
    import layers
    import spans
    import workloads

    build, run_round = workloads.WORKLOADS[workload]
    config = build(seed)
    plain = run_round(config)
    tracer = spans.Tracer()
    traced = run_round(config, tracer)
    if traced.results != plain.results:
        # The traced simulation must be the untraced one, exactly.
        traced.ops[0] = (traced.ops[0][0], False, "traced results differ")
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}.bin")
    tracer.write(path)
    print(
        f"{workload} seed {seed}: {len(tracer.span_id)} spans written to {path}",
        file=sys.stderr,
    )
    metrics = layers.per_layer(tracer, traced, plain)
    return _result([plain, traced], metrics)


def _result(rounds, metrics: dict) -> dict:
    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if not op[1]]
    for name, _, detail in {op[0]: op for op in failed}.values():
        print(f"failed: {name}: {detail}", file=sys.stderr)
    return {
        "correct": all(name == KNOWN_FAULT for name, _, _ in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steady", type=int, metavar="RUNS", help="steadiness check: RUNS per workload"
    )
    args = parser.parse_args(argv)
    _load_program()
    if args.steady:
        import steady

        return steady.main(args.steady, args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.trace:
        result = _traced(args.workload, args.seed)
    else:
        result = _measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
