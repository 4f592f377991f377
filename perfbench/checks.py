"""Output checks: properties every correct run must satisfy.

Each check compares a run's output against an independent calculation
or a property the model must hold, never against a saved copy of an
earlier output.  A check returns ``(ok, detail)``; ``detail`` says what
was measured so a failure can be read off the benchmark's stderr.

The constants below are taken from the paper (Table 1), not from the
program, so a change to the program's own parameters cannot move the
check along with it.
"""

from __future__ import annotations

#: Table 1: sustained disk transfer rate, bytes per second.
PAPER_DISK_TRANSFER_BPS = 7.4e6


def placement_audit(layout, block_counts) -> tuple[bool, str]:
    """Every stored block copy has its own extent on its disk, and the
    extent lies inside the bytes the layout says the disk holds
    (paper §5.2: a video's fragment on a disk is laid out contiguously,
    so fragments of different videos may not overlap)."""
    extents: dict[int, list[int]] = {}
    past_end = 0
    size = layout.block_size
    for video, count in enumerate(block_counts):
        for block in range(count):
            for placement in layout.replica_placements(video, block):
                disk = placement.disk_global
                extents.setdefault(disk, []).append(placement.byte_offset)
                if placement.byte_offset + size > layout.disk_used_bytes(disk):
                    past_end += 1
    overlapping = 0
    for offsets in extents.values():
        offsets.sort()
        overlapping += sum(
            1 for lower, upper in zip(offsets, offsets[1:]) if upper - lower < size
        )
    copies = sum(len(offsets) for offsets in extents.values())
    detail = (
        f"{copies} block copies: {overlapping} overlapping, "
        f"{past_end} past the end of their disk"
    )
    return overlapping == 0 and past_end == 0, detail


def delivered_bytes(metrics, bit_rate_bps, terminal_buffer_bytes, block_size):
    """Bytes delivered to a closed population over the window.

    A terminal displays at the video bit rate and can run ahead of its
    display by at most its own buffer, so no run delivers more than
    N x bit rate x window plus N buffers.  A glitch-free run never
    starves either, so it delivers at least that ideal minus N buffers.
    """
    ideal = metrics.terminals * bit_rate_bps / 8.0 * metrics.measure_s
    slack = metrics.terminals * terminal_buffer_bytes
    delivered = metrics.blocks_delivered * block_size
    ok = delivered <= ideal + slack
    if metrics.glitches == 0:
        ok = ok and delivered >= ideal - slack
    detail = (
        f"{delivered / 1e6:.1f} MB delivered, ideal {ideal / 1e6:.1f} MB "
        f"+/- {slack / 1e6:.1f} MB, {metrics.glitches} glitches"
    )
    return ok, detail


def disk_ceiling(bytes_read, disks, window_s, max_request_bytes):
    """Disks cannot read faster than the Table 1 transfer rate.  Reads
    are counted when they complete, so each disk may finish one read
    that began before the window opened."""
    ceiling = disks * PAPER_DISK_TRANSFER_BPS * window_s + disks * max_request_bytes
    detail = f"{bytes_read / 1e6:.1f} MB read, ceiling {ceiling / 1e6:.1f} MB"
    return bytes_read <= ceiling, detail


def session_accounting(metrics, waiting):
    """Every offered session is admitted, balked or reneged exactly once,
    or is still waiting for a verdict when the run stops.

    *waiting* counts the sessions in admission queues and unopened
    launch windows.  A session that fails over after admission queues
    again on another member, so *waiting* may exceed the unsettled
    first attempts but never fall short of them.
    """
    settled = (
        metrics.admitted_sessions + metrics.balked_sessions + metrics.reneged_sessions
    )
    unsettled = metrics.offered_sessions - settled
    detail = (
        f"offered {metrics.offered_sessions} = admitted "
        f"{metrics.admitted_sessions} + balked {metrics.balked_sessions} + "
        f"reneged {metrics.reneged_sessions} + {unsettled} unsettled, "
        f"{waiting} waiting"
    )
    return metrics.offered_sessions > 0 and 0 <= unsettled <= waiting, detail


def proxy_accounting(metrics, unresolved):
    """Each proxy request is a hit or a miss, or still waiting to find
    out which when the run stops."""
    detail = (
        f"proxy {metrics.proxy_requests} requests vs {metrics.proxy_hits} hits "
        f"+ {metrics.proxy_misses} misses + {unresolved} unresolved"
    )
    ok = metrics.proxy_requests > 0 and (
        metrics.proxy_hits + metrics.proxy_misses + unresolved
        == metrics.proxy_requests
    )
    return ok, detail


def search_consistency(result):
    """Every probe at or below the reported maximum is glitch-free, and
    the point one granularity above the maximum glitched (in at least
    one of its replications)."""
    top = result.max_terminals
    below_clean = all(
        probe.glitch_free for probe in result.probes if probe.terminals <= top
    )
    above = [
        probe for probe in result.probes
        if probe.terminals == top + result.granularity
    ]
    above_glitched = any(not probe.glitch_free for probe in above)
    detail = (
        f"max {top} from probes "
        + ", ".join(
            f"{probe.terminals}:{probe.metrics.glitches}" for probe in result.probes
        )
    )
    return below_clean and above_glitched, detail
