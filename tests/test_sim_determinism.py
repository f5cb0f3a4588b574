"""Fast path vs. slow path equivalence, and allocation regressions.

``Environment(fast_path=False)`` forces the classic event-per-hop
machinery (transmitter/worker processes, Store round trips); the default
fast path replaces those with scheduled callbacks and inline completion.
The contract is that the two differ only in kernel work, never in
simulated behaviour: identical delivery order, identical timestamps,
identical flow metrics.
"""

import pytest

from repro.harness.runner import SweepRunner
from repro.harness.sweeps import demo_specs
from repro.netsim import BulkTransfer, CbrFlow, ClassicalIP, build_testbed
from repro.netsim.core import Packet
from repro.netsim.ip import TESTBED_MTU
from repro.shard.workloads import PartitionView, wan_multiflow
from repro.sim import Environment, Event, Store

MB = 1024 * 1024


def _run_bulk(fast_path: bool, nbytes: int = 2 * MB):
    """A WAN bulk transfer with every flow delivery recorded in order."""
    tb = build_testbed(env=Environment(fast_path=fast_path))
    bt = BulkTransfer(
        tb.net, "sp2", "t3e-600", nbytes, ip=ClassicalIP(TESTBED_MTU)
    )
    deliveries: list[tuple] = []
    for hname in ("sp2", "t3e-600"):
        host = tb.net.host(hname)
        for flow, sink in list(host._sinks.items()):
            def wrapped(packet, t, _sink=sink, _h=hname):
                deliveries.append((_h, packet.kind, packet.seq, t))
                _sink(packet, t)

            host._sinks[flow] = wrapped
    goodput = bt.run()
    return {
        "deliveries": deliveries,
        "goodput": goodput,
        "elapsed": tb.env.now,
        "retransmits": bt.retransmits,
        "timeouts": bt.timeouts,
        "scheduled": tb.env.scheduled_count,
    }


def test_fast_and_slow_paths_deliver_identically():
    fast = _run_bulk(fast_path=True)
    slow = _run_bulk(fast_path=False)
    # Same packets, same order, same (exact) timestamps end to end.
    assert fast["deliveries"] == slow["deliveries"]
    assert fast["goodput"] == slow["goodput"]
    assert fast["elapsed"] == slow["elapsed"]
    assert fast["retransmits"] == slow["retransmits"]
    assert fast["timeouts"] == slow["timeouts"]
    # ... and the fast path got there with far less kernel work.
    assert fast["scheduled"] < slow["scheduled"]


def test_fast_path_is_run_to_run_deterministic():
    a = _run_bulk(fast_path=True)
    b = _run_bulk(fast_path=True)
    assert a == b


def _run_contended(fast_path: bool, nbytes: int = MB):
    """Two competing bulk transfers plus a CBR stream on the shared ATM
    gateway attachment, every delivery at every endpoint recorded."""
    tb = build_testbed(env=Environment(fast_path=fast_path))
    ip = ClassicalIP(TESTBED_MTU)
    bulks = [
        BulkTransfer(tb.net, src, "e500-gmd", nbytes, ip=ip, name=f"bulk-{src}")
        for src in ("t3e-600", "t3e-1200")
    ]
    cbr = CbrFlow(
        tb.net,
        "onyx2-juelich",
        "onyx2-gmd",
        frame_bytes=1_350_000,
        interval=0.04,
        n_frames=5,
        ip=ip,
        name="cbr",
    )
    deliveries: list[tuple] = []
    for hname in (
        "t3e-600", "t3e-1200", "e500-gmd", "onyx2-juelich", "onyx2-gmd",
    ):
        host = tb.net.host(hname)
        for flow, sink in list(host._sinks.items()):
            def wrapped(packet, t, _sink=sink, _h=hname):
                deliveries.append((_h, packet.flow, packet.kind, packet.seq, t))
                _sink(packet, t)

            host._sinks[flow] = wrapped
    for bt in bulks:
        tb.net.env.run(until=bt.done)
    tb.net.env.run(until=cbr.done)
    wan = tb.wan_link
    return {
        "deliveries": deliveries,
        "goodputs": {bt.name: bt.throughput for bt in bulks},
        "retransmits": {bt.name: bt.retransmits for bt in bulks},
        "cbr_frames": cbr.frames_received,
        "elapsed": tb.env.now,
        "flow_tx": {d: dict(wan.flow_tx_bytes[d]) for d in wan.flow_tx_bytes},
        "scheduled": tb.env.scheduled_count,
    }


def test_contended_fast_and_slow_paths_identical():
    """DRR arbitration must not break the two-forms contract: with
    competing bulks plus a CBR stream on one bottleneck, both paths see
    the same packets, order, timestamps, and per-flow accounting."""
    fast = _run_contended(fast_path=True)
    slow = _run_contended(fast_path=False)
    assert fast["deliveries"] == slow["deliveries"]
    assert fast["goodputs"] == slow["goodputs"]
    assert fast["retransmits"] == slow["retransmits"]
    assert fast["cbr_frames"] == slow["cbr_frames"]
    assert fast["elapsed"] == slow["elapsed"]
    assert fast["flow_tx"] == slow["flow_tx"]
    assert fast["scheduled"] < slow["scheduled"]


def test_contended_fast_path_is_run_to_run_deterministic():
    a = _run_contended(fast_path=True)
    b = _run_contended(fast_path=True)
    assert a == b


def _link_counters(fast_path: bool) -> dict:
    """Every link's transmit, busy and loss tallies after a drained
    bidirectional multi-flow WAN run (bulks both ways plus D1 video)."""
    state = wan_multiflow({"mbytes": 2, "fast_path": fast_path}, PartitionView())
    state.env.run()
    out = {}
    for name, link in state.net.links.items():
        ends = (link.a.name, link.b.name)
        out[name] = {
            "tx_packets": link.tx_packets,
            "tx_bytes": link.tx_bytes,
            "flow_tx_packets": link.flow_tx_packets,
            "flow_tx_bytes": link.flow_tx_bytes,
            "busy_seconds": {d: link.busy_seconds(d) for d in ends},
            "drops": link.drops,
            "lost": link.lost,
        }
    return out


def test_link_counters_match_the_reference():
    """Per-link accounting is identical on both paths: every packet the
    fast transmitter serializes is counted exactly once, on every link
    and direction, and busy time folds to the same elapsed figure."""
    fast = _link_counters(fast_path=True)
    slow = _link_counters(fast_path=False)
    assert fast.keys() == slow.keys()
    for name in slow:
        assert fast[name] == slow[name], name
    assert sum(sum(c["tx_packets"].values()) for c in slow.values()) > 0


def test_demo_sweep_metrics_stable_across_runs():
    specs = demo_specs(n=4, duration=0.0)
    a = SweepRunner(serial=True).run(specs, name="demo")
    b = SweepRunner(serial=True).run(specs, name="demo")
    assert a.metrics() == b.metrics()


def test_hot_path_classes_have_no_instance_dict():
    env = Environment()
    hot = [
        env,
        Event(env),
        env.timeout(0.0),
        Store(env),
        Packet(flow="f", src="a", dst="b", ip_bytes=1500, payload_bytes=1448),
    ]
    for obj in hot:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.arbitrary_new_attribute = 1


def test_process_is_slotted():
    env = Environment()

    def proc():
        yield env.timeout(0.0)

    p = env.process(proc())
    assert not hasattr(p, "__dict__")
    env.run()
