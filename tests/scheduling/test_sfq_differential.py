"""Heap SFQ against the head scan it replaced.

``WfqScheduler`` and ``SpWfqScheduler`` keep their backlog in one heap.
The oracle below is the representation they had before — start tags in a
FIFO per queue, every dequeue scanning the queue heads in ascending
index with a strict ``<`` — so the two must agree packet for packet,
ties included, under any interleaving of enqueue, dequeue and clear.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import make_data
from repro.scheduling.hybrid import SpWfqScheduler
from repro.scheduling.wfq import WfqScheduler

N_QUEUES = 4


class ScanSfq:
    """Per-level start-time fair queueing by scanning queue heads."""

    def __init__(self, weights, priorities):
        self.weights, self.priorities = weights, priorities
        self.clear()

    def clear(self):
        self.virtual_time = dict.fromkeys(self.priorities, 0.0)
        self.finish = [0.0] * N_QUEUES
        self.queues = [deque() for _ in range(N_QUEUES)]

    def enqueue(self, queue, packet):
        start = max(self.virtual_time[self.priorities[queue]],
                    self.finish[queue])
        self.finish[queue] = start + packet.size / self.weights[queue]
        self.queues[queue].append((start, packet))

    def dequeue(self):
        for level in sorted(self.virtual_time):
            best = -1
            for queue in range(N_QUEUES):
                tagged = self.queues[queue]
                if (self.priorities[queue] == level and tagged
                        and (best < 0
                             or tagged[0][0] < self.queues[best][0][0])):
                    best = queue
            if best >= 0:
                self.virtual_time[level], packet = self.queues[best].popleft()
                return best, packet
        return None


# Few distinct sizes and weights, so equal start tags are the common
# case rather than a coincidence: the tie-break is what is under test.
enqueue = st.tuples(st.just("enqueue"), st.integers(0, N_QUEUES - 1),
                    st.sampled_from([500, 1000, 1500]))
dequeue = st.tuples(st.just("dequeue"))
clear = st.tuples(st.just("clear"))
# Arrivals outnumber departures so a backlog (and with it, ties between
# queue heads) builds up; a clear now and then restarts from empty.
operations = st.lists(
    st.one_of(enqueue, enqueue, enqueue, dequeue, dequeue, clear),
    max_size=80)
weight_vectors = st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                          min_size=N_QUEUES, max_size=N_QUEUES)


def build(kind, weights):
    if kind == "wfq":
        priorities = [0] * N_QUEUES
        return WfqScheduler(N_QUEUES, weights), priorities
    priorities = [0, 1, 1, 2]
    return SpWfqScheduler(N_QUEUES, priorities, weights), priorities


def virtual_time(scheduler):
    time = scheduler._virtual_time
    return time if isinstance(time, dict) else {0: time}


@pytest.mark.parametrize("kind", ["wfq", "sp+wfq"])
@given(weights=weight_vectors, ops=operations)
def test_heap_serves_what_the_head_scan_serves(kind, weights, ops):
    scheduler, priorities = build(kind, weights)
    oracle = ScanSfq(weights, priorities)
    for seq, op in enumerate(ops):
        if op[0] == "enqueue":
            packet = make_data(1, 0, 1, seq, size=op[2])
            scheduler.enqueue(op[1], packet)
            oracle.enqueue(op[1], packet)
        elif op[0] == "dequeue":
            served, expected = scheduler.dequeue(), oracle.dequeue()
            assert (served is None) == (expected is None)
            if served is not None:
                assert served[0] == expected[0] and served[1] is expected[1]
        else:
            scheduler.clear()
            oracle.clear()
        assert virtual_time(scheduler) == oracle.virtual_time
        assert ([scheduler.queue_len(q) for q in range(N_QUEUES)]
                == [len(tagged) for tagged in oracle.queues])
        assert len(scheduler) == sum(map(len, oracle.queues))


def test_equal_tags_go_to_the_lowest_queue_index():
    scheduler = WfqScheduler(N_QUEUES)
    for queue in (3, 1, 2, 1):
        scheduler.enqueue(queue, make_data(1, 0, 1, queue))
    # Every head starts at tag 0: ascending index, then queue 1's second.
    assert [scheduler.dequeue()[0] for _ in range(4)] == [1, 2, 3, 1]
