"""Property tests: how each marker splits a back-to-back burst.

A sender's burst (a "train" of segments) enqueues back-to-back inside
one callback, so segment ``i`` (1-based) of a train enqueued onto a port
holding ``base`` packets sees occupancy ``base + i``.  For every
enqueue-point scheme whose condition is monotone in occupancy the
per-packet decisions therefore split the train into an unmarked prefix
and a CE-marked suffix whose boundary has a closed form.  Each test
drives the per-packet datapath through a real port and compares the
split it produced against that closed form over a grid of bases,
thresholds and train widths — and pins the two cases (dequeue-point
marking, PMSB's averaged occupancy) where no such closed form exists.
"""

import math

import pytest

from repro.core.pmsb import PmsbMarker
from repro.ecn.base import MarkPoint, NullMarker
from repro.ecn.per_port import PerPortMarker
from repro.ecn.per_queue import PerQueueMarker
from repro.net.link import Link
from repro.net.packet import make_data
from repro.net.port import Port
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.engine import Simulator


class Sink:
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append((packet.seq, packet.ce))


def make_port(marker, n_queues=2, sink=None):
    sim = Simulator()
    link = Link(sim, 10e9, 1e-6, sink if sink is not None else Sink())
    port = Port(sim, link, DwrrScheduler(n_queues), marker=marker,
                name="test")
    return sim, port


def fill(port, queue_index, count):
    """Pre-load ``count`` packets into one queue without marking."""
    for i in range(count):
        packet = make_data(0, 0, 1, i, 1500, queue_index, ect=False)
        port.enqueue(packet, queue_index)


def brute_force_unmarked(marker, port, queue_index, n, ect=True):
    """Per-packet datapath: longest unmarked prefix of an n-burst.

    Replays the marker's ``decide`` against live occupancy while
    enqueueing ``n`` segments one at a time.
    """
    decisions = []
    for i in range(n):
        packet = make_data(9, 0, 1, 1000 + i, 1500, queue_index, ect=ect)
        port.enqueue(packet, queue_index)
        decisions.append(packet.ce)
    # The prefix property: once marking starts it never stops within
    # the burst (monotone occupancy).  Assert it so the closed form is
    # compared against a shape it can actually express.
    first_marked = next((i for i, ce in enumerate(decisions) if ce), n)
    assert all(decisions[i] for i in range(first_marked, n)), decisions
    return first_marked


def threshold_unmarked(threshold, base):
    """Closed form for a single threshold ``K`` on one occupancy axis.

    Segment i is unmarked while base + i < K: the prefix length is the
    count of positive integers strictly below K - base.
    """
    return max(0, math.ceil(threshold - base) - 1)


def pmsb_split(port_threshold, queue_threshold, base_port, base_queue, n):
    """Closed form for Algorithm 1 over a burst into one queue.

    Both conditions are monotone: the port check first holds at
    ``i_port``, the queue check at ``i_queue``, and segments are marked
    from ``max(i_port, i_queue)`` on.  Segments in between pass the port
    check but fail the queue check — the protected victims.  Returns
    ``(unmarked, victims)``.
    """
    i_port = max(1, math.ceil(port_threshold - base_port))
    i_queue = max(1, math.ceil(queue_threshold - base_queue))
    i_mark = max(i_port, i_queue)
    victims = max(0, min(i_mark - 1, n) - i_port + 1)
    return i_mark - 1, victims


class TestPerPortTrainSplit:
    @pytest.mark.parametrize("threshold", [0.0, 1.0, 4.0, 7.5, 16.0, 40.0])
    @pytest.mark.parametrize("base", [0, 1, 3, 8, 15, 16, 17, 50])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_matches_brute_force(self, threshold, base, n):
        marker = PerPortMarker(threshold)
        _, port = make_port(marker)
        fill(port, 0, base)
        observed = brute_force_unmarked(marker, port, 0, n)

        unmarked = threshold_unmarked(threshold, base)
        assert min(unmarked, n) == observed
        assert marker.packets_seen == n
        assert marker.packets_marked == n - observed

    def test_accounting_matches_per_packet(self):
        marker = PerPortMarker(4.0)
        _, port = make_port(marker)
        unmarked = brute_force_unmarked(marker, port, 0, 8)
        assert unmarked == 3
        assert marker.packets_seen == 8
        assert marker.packets_marked == 5

    def test_non_ect_train_never_marks(self):
        marker = PerPortMarker(1.0)
        _, port = make_port(marker)
        fill(port, 0, 100)
        assert brute_force_unmarked(marker, port, 0, 8, ect=False) == 8
        assert marker.packets_marked == 0

    def test_dequeue_point_has_no_closed_form(self):
        # Dequeue-point decisions read occupancy at departure, not the
        # segment's position in the burst: an 8-burst into an empty port
        # leaves its head (dequeued at once, occupancy 1) and its tail
        # (departing as the queue drains) unmarked and marks the middle
        # — no prefix/suffix split for a closed form to describe.
        marker = PerPortMarker(4.0, mark_point=MarkPoint.DEQUEUE)
        sink = Sink()
        sim, port = make_port(marker, sink=sink)
        for i in range(8):
            port.enqueue(make_data(9, 0, 1, i, 1500, 0, ect=True), 0)
        sim.run()
        assert [ce for _, ce in sink.received] == [
            False, True, True, True, True, False, False, False]
        assert threshold_unmarked(4.0, 0) == 3


class TestPerQueueTrainSplit:
    @pytest.mark.parametrize("threshold", [0.0, 2.0, 6.5, 16.0])
    @pytest.mark.parametrize("base", [0, 1, 5, 16, 30])
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_matches_brute_force(self, threshold, base, n):
        marker = PerQueueMarker(threshold)
        _, port = make_port(marker)
        # Traffic in the other queue must not move the queue axis.
        fill(port, 0, 7)
        fill(port, 1, base)
        observed = brute_force_unmarked(marker, port, 1, n)

        unmarked = threshold_unmarked(threshold, base)
        assert min(unmarked, n) == observed
        assert marker.packets_marked == n - observed

    def test_vector_thresholds_use_own_queue(self):
        marker = PerQueueMarker([100.0, 2.0])
        _, port = make_port(marker)
        # Queue 1's threshold is 2: segment 1 sees occupancy 1 (below),
        # segment 2 sees 2 (marked) — unmarked prefix of 1.
        assert brute_force_unmarked(marker, port, 1, 6) == 1


class TestPmsbTrainSplit:
    @pytest.mark.parametrize("port_threshold", [1.0, 8.0, 12.0, 16.0])
    @pytest.mark.parametrize("base_other", [0, 4, 10, 20])
    @pytest.mark.parametrize("base_own", [0, 2, 9])
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_matches_brute_force(self, port_threshold, base_other,
                                 base_own, n):
        # Pre-load base_other packets into queue 0 and base_own into
        # queue 1, then burst n into queue 1: segment i sees port
        # occupancy (base_other + base_own) + i and queue occupancy
        # base_own + i.
        marker = PmsbMarker(port_threshold)
        _, port = make_port(marker)
        fill(port, 0, base_other)
        fill(port, 1, base_own)
        observed = brute_force_unmarked(marker, port, 1, n)

        unmarked, victims = pmsb_split(
            port_threshold, marker.queue_threshold(port, 1),
            base_other + base_own, base_own, n)
        assert min(unmarked, n) == observed
        assert marker.victims_protected == victims
        assert marker.packets_seen == n
        assert marker.packets_marked == n - observed

    def test_ewma_variant_has_no_closed_form(self):
        # The §IV-C variant compares an EWMA that lags the burst, so the
        # split drifts from the instantaneous closed form: a 16-burst
        # into an empty port crosses K=12 at segment 12 instantaneously
        # but only at segment 13 on the average (avg_i = i - 1 + 2^-i).
        marker = PmsbMarker(12.0, average_weight=0.5)
        _, port = make_port(marker)
        observed = brute_force_unmarked(marker, port, 0, 16)
        unmarked, _ = pmsb_split(12.0, marker.queue_threshold(port, 0),
                                 0, 0, 16)
        assert unmarked == 11
        assert observed == 12


class TestNullMarkerTrainSplit:
    def test_whole_train_passes(self):
        marker = NullMarker()
        _, port = make_port(marker)
        fill(port, 0, 50)
        assert brute_force_unmarked(marker, port, 0, 16) == 16
        assert marker.packets_marked == 0
