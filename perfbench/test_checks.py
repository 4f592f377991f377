"""Each output check rejects a wrong output and accepts a right one.

Run from the root of a checkout with ``python3 -m pytest perfbench`` or
``python3 -m unittest discover -s perfbench``.
"""

from __future__ import annotations

import os
import sys
import types
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from repro.experiments.search import Probe, SearchResult  # noqa: E402
from repro.layout.base import Placement  # noqa: E402
from repro.layout.nonstriped import NonStripedLayout  # noqa: E402
from repro.layout.striped import StripedLayout  # noqa: E402
from repro.sim.rng import RandomSource  # noqa: E402

BLOCK = 512 * 1024
#: Block counts whose remainders differ across a 4-disk row.
BLOCK_COUNTS = [13, 18, 7, 22, 9, 16, 11, 30]


class OverlappingLayout:
    """Two videos whose first blocks share one extent of disk 0, and a
    third block placed past the end of the disk."""

    block_size = BLOCK

    def replica_placements(self, video, block):
        offset = block * BLOCK if video == 0 else 0
        return (Placement(0, 0, 0, offset),)

    def disk_used_bytes(self, disk):
        return 2 * BLOCK


def metrics(**fields):
    base = dict(
        terminals=10,
        measure_s=5.0,
        glitches=0,
        blocks_delivered=48,  # 25.2 MB against an ideal of 25 +/- 21 MB
        offered_sessions=20,
        admitted_sessions=12,
        balked_sessions=4,
        reneged_sessions=2,
        proxy_requests=100,
        proxy_hits=70,
        proxy_misses=28,
    )
    base.update(fields)
    return types.SimpleNamespace(**base)


def search(max_terminals, glitches_by_terminals):
    probes = tuple(
        Probe(terminals, 1, types.SimpleNamespace(glitches=glitches))
        for terminals, glitches in glitches_by_terminals
    )
    return SearchResult(max_terminals, 40, probes)


class PlacementAuditTest(unittest.TestCase):
    def test_rejects_overlapping_and_past_the_end(self):
        ok, detail = checks.placement_audit(OverlappingLayout(), [3, 1])
        self.assertFalse(ok)
        self.assertIn("1 overlapping", detail)
        self.assertIn("1 past the end", detail)

    def test_accepts_one_node_striped(self):
        layout = StripedLayout(BLOCK_COUNTS, 1, 4, BLOCK)
        ok, detail = checks.placement_audit(layout, BLOCK_COUNTS)
        self.assertTrue(ok, detail)

    def test_accepts_nonstriped(self):
        layout = NonStripedLayout(BLOCK_COUNTS, 2, 2, BLOCK, RandomSource(3))
        ok, detail = checks.placement_audit(layout, BLOCK_COUNTS)
        self.assertTrue(ok, detail)


class DeliveredBytesTest(unittest.TestCase):
    def check(self, record):
        return checks.delivered_bytes(record, 4_000_000.0, 2 * 1024 * 1024, BLOCK)[0]

    def test_accepts_conserving_record(self):
        self.assertTrue(self.check(metrics()))

    def test_rejects_more_than_ideal_plus_buffers(self):
        self.assertFalse(self.check(metrics(blocks_delivered=90)))
        self.assertFalse(self.check(metrics(blocks_delivered=90, glitches=5)))

    def test_glitch_free_run_cannot_starve(self):
        self.assertFalse(self.check(metrics(blocks_delivered=5)))
        self.assertTrue(self.check(metrics(blocks_delivered=5, glitches=5)))


class DiskCeilingTest(unittest.TestCase):
    def test_ceiling(self):
        ceiling = 4 * checks.PAPER_DISK_TRANSFER_BPS * 10.0 + 4 * BLOCK
        self.assertTrue(checks.disk_ceiling(ceiling, 4, 10.0, BLOCK)[0])
        self.assertFalse(checks.disk_ceiling(ceiling + 1, 4, 10.0, BLOCK)[0])


class ClusterAccountingTest(unittest.TestCase):
    def test_sessions(self):
        self.assertTrue(checks.session_accounting(metrics(), waiting=2)[0])
        self.assertTrue(checks.session_accounting(metrics(), waiting=5)[0])
        # Two offered sessions neither settled nor waiting.
        self.assertFalse(checks.session_accounting(metrics(), waiting=1)[0])
        # More sessions settled than offered.
        self.assertFalse(
            checks.session_accounting(metrics(admitted_sessions=15), waiting=5)[0]
        )

    def test_proxy(self):
        self.assertTrue(checks.proxy_accounting(metrics(), unresolved=2)[0])
        self.assertFalse(checks.proxy_accounting(metrics(), unresolved=0)[0])
        self.assertFalse(checks.proxy_accounting(metrics(proxy_requests=0), 0)[0])


class SearchConsistencyTest(unittest.TestCase):
    def test_accepts_consistent_search(self):
        result = search(160, [(160, 0), (200, 3), (240, 40)])
        self.assertTrue(checks.search_consistency(result)[0])

    def test_rejects_glitching_maximum(self):
        result = search(200, [(160, 0), (200, 3), (240, 40)])
        self.assertFalse(checks.search_consistency(result)[0])

    def test_replications(self):
        glitched_once = search(160, [(160, 0), (160, 0), (200, 0), (200, 2)])
        self.assertTrue(checks.search_consistency(glitched_once)[0])
        clean_above = search(160, [(160, 0), (160, 0), (200, 0), (200, 0)])
        self.assertFalse(checks.search_consistency(clean_above)[0])

    def test_rejects_unprobed_step_above_maximum(self):
        result = search(160, [(120, 0), (160, 0)])
        self.assertFalse(checks.search_consistency(result)[0])


if __name__ == "__main__":
    unittest.main()
