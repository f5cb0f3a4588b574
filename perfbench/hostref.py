"""A fixed pure-Python probe of how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by ±20% over
minutes (see ``STEADINESS.md``): the process gets its CPU time, but the
core under it runs slower or faster.  Raw host seconds per operation
carry that drift into every run.  This probe does a fixed amount of
interpreter work of the same kind the simulations do (a heap-driven
event loop calling bound methods on slotted objects, dict counters,
deques, tuples, plus integer arithmetic).  ``run.py`` times it between
operations, in the same process, and divides the run's median operation
time by the probe's median time.

The probe never imports the program, so no change to the program moves
it.  Its work is frozen: changing anything below changes every
host-normalised metric, and breaks comparison with earlier records.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from collections import deque

#: Median probe time on the machine the benchmark was defined on (a
#: 2-vCPU Xeon VM, CPython 3.11).  Host-normalised times are scaled by
#: it, so they read as seconds on that machine.
NOMINAL_S = 0.2


class _Node:
    __slots__ = ("net", "queue", "tx", "busy", "peers")

    def __init__(self, net):
        self.net = net
        self.queue = deque()
        self.tx = {}
        self.busy = False
        self.peers = ()

    def receive(self, pkt):
        flow, size, _hop = pkt
        self.tx[flow] = self.tx.get(flow, 0) + size
        if self.busy:
            self.queue.append(pkt)
        else:
            self.busy = True
            self.net.call_later(size * 8e-9, self.done, pkt)

    def done(self, pkt):
        flow, size, hop = pkt
        peer = self.peers[hop % len(self.peers)]
        self.net.call_later(1e-6, peer.receive, (flow, size, hop + 1))
        if self.queue:
            nxt = self.queue.popleft()
            self.net.call_later(nxt[1] * 8e-9, self.done, nxt)
        else:
            self.busy = False


class _Net:
    __slots__ = ("now", "heap", "seq")

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0

    def call_later(self, delay, fn, arg):
        self.seq += 1
        heapq.heappush(self.heap, [self.now + delay, self.seq, fn, arg])

    def run(self, events):
        heap = self.heap
        for _ in range(events):
            entry = heapq.heappop(heap)
            self.now = entry[0]
            entry[2](entry[3])


def _event_loop(events=100_000, nodes=400, flows=2000) -> float:
    rng = random.Random(11)
    net = _Net()
    ring = [_Node(net) for _ in range(nodes)]
    for node in ring:
        node.peers = tuple(ring[rng.randrange(nodes)] for _ in range(3))
    for f in range(flows):
        pkt = (f"flow{f}", 1500 + (f % 7) * 1000, f)
        net.call_later(rng.random() * 1e-4, ring[f % nodes].receive, pkt)
    net.run(events)
    return net.now


def _arithmetic(n=400_000) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


def probe() -> float:
    """Host seconds for one fixed round of reference work.

    The cyclic collector is off while it runs, so the program's live
    objects cannot change its cost, and collects its garbage after.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _event_loop()
        _arithmetic()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    gc.collect()
    return elapsed
