#!/usr/bin/env python3
"""cProfile self time of one untraced round, grouped by ``repro`` package.

An independent view to set beside the traced per-layer shares: run
from the root of a checkout as

    python3 perfbench/profile_layers.py paper_closed [SEED]

and it prints each package's share of the profiled self time over the
round's set-up and simulation (the output checks are not profiled).
Functions outside ``repro`` are charged to their nearest ``repro``
caller, as the tracer charges them to the enclosing span.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def _package(filename: str) -> str | None:
    marker = os.sep + "repro" + os.sep
    if marker not in filename:
        return None
    rest = filename.split(marker, 1)[1]
    return rest.split(os.sep, 1)[0] if os.sep in rest else "repro"


def main() -> int:
    workload = sys.argv[1]
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    build, run_round = workloads.WORKLOADS[workload]
    # The round enters the profiler as the context of its measured part.
    profile = cProfile.Profile()
    run_round(build(seed), profile)
    stats = pstats.Stats(profile).stats
    shares: dict[str, float] = {}
    for (filename, _, _), (_, _, self_s, _, callers) in stats.items():
        package = _package(filename)
        if package is None:
            # Charge non-repro code to its repro callers, by call share.
            repro_callers = {
                caller: timing for caller, timing in callers.items()
                if _package(caller[0]) is not None
            }
            total = sum(timing[1] for timing in repro_callers.values())
            for caller, timing in repro_callers.items():
                owner = _package(caller[0])
                shares[owner] = shares.get(owner, 0.0) + self_s * timing[1] / total
            if not repro_callers:
                shares["(outside repro)"] = shares.get("(outside repro)", 0.0) + self_s
            continue
        shares[package] = shares.get(package, 0.0) + self_s
    total = sum(shares.values())
    for package, seconds in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"{package:16} {seconds:8.3f} s {seconds / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
