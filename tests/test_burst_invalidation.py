"""Burst invalidation: faults and DRR contention mid-burst.

On the fast path CBR sources pre-schedule whole bursts (one kernel
event per frame), and the lazy link transmitter pre-schedules each
packet's arrival at the far node when its serialization starts.  A
fault or a competing flow arriving mid-burst must cancel exactly the
right pre-scheduled work.  These tests pin the contract: every delivery
tuple (endpoint, kind, seq, timestamp) is bit-identical to the classic
generator/process slow path.
"""

import pytest

from repro.netsim import BulkTransfer, CbrFlow, ClassicalIP, build_testbed
from repro.netsim.faults import FaultInjector
from repro.netsim.ip import TESTBED_MTU
from repro.sim import Environment

VARIANTS = ("fast", "slow")


def _record_deliveries(net, hosts):
    deliveries: list[tuple] = []
    for hname in hosts:
        host = net.host(hname)
        for flow, sink in list(host._sinks.items()):
            def wrapped(packet, t, _sink=sink, _h=hname):
                deliveries.append((_h, packet.kind, packet.seq, t))
                _sink(packet, t)

            host._sinks[flow] = wrapped
    return deliveries


def _run_fault_mid_burst(variant):
    """A CBR stream over the WAN with the link failing mid-stream."""
    tb = build_testbed(env=Environment(fast_path=variant == "fast"))
    cbr = CbrFlow(
        tb.net,
        "sp2",
        "t3e-600",
        frame_bytes=128 * 1024,
        interval=2e-3,
        n_frames=30,
        ip=ClassicalIP(TESTBED_MTU),
        name="video",
        drain_timeout=0.5,
    )
    # Down for 8 ms starting a third of the way in: several pre-scheduled
    # frame bursts and in-flight link arrivals get chopped mid-flight.
    FaultInjector(tb.net).link_down(tb.wan_link, at=0.02, duration=8e-3)
    deliveries = _record_deliveries(tb.net, ("sp2", "t3e-600"))
    tb.net.env.run(until=cbr.done)
    return {
        "deliveries": deliveries,
        "elapsed": tb.net.env.now,
        "frames_received": cbr.frames_received,
        "frames_lost": cbr.frames_lost,
    }


def _run_contention_mid_burst(variant):
    """A CBR stream sharing the WAN with a bulk transfer: cross-flow
    arrivals interleave with the CBR bursts in every DRR round."""
    tb = build_testbed(env=Environment(fast_path=variant == "fast"))
    ip = ClassicalIP(TESTBED_MTU)
    cbr = CbrFlow(
        tb.net,
        "sp2",
        "t3e-600",
        frame_bytes=128 * 1024,
        interval=2e-3,
        n_frames=25,
        ip=ip,
        name="video",
        drain_timeout=0.5,
    )
    bulk = BulkTransfer(
        tb.net, "sp2", "t3e-600", 2 * 1024 * 1024, ip=ip, name="bulk"
    )
    deliveries = _record_deliveries(tb.net, ("sp2", "t3e-600"))
    env = tb.net.env
    env.run(until=env.all_of([cbr.done, bulk.done]))
    return {
        "deliveries": deliveries,
        "elapsed": env.now,
        "frames_received": cbr.frames_received,
        "goodput": bulk.throughput,
        "retransmits": bulk.retransmits,
    }


@pytest.fixture(scope="module")
def fault_runs():
    return {variant: _run_fault_mid_burst(variant) for variant in VARIANTS}


@pytest.fixture(scope="module")
def contention_runs():
    return {variant: _run_contention_mid_burst(variant) for variant in VARIANTS}


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fast"])
def test_fault_mid_burst_is_bit_identical(fault_runs, variant):
    ref = fault_runs["fast"]
    assert fault_runs[variant] == ref, (
        f"{variant} diverged from the fast path under a mid-burst fault"
    )


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fast"])
def test_contention_mid_burst_is_bit_identical(contention_runs, variant):
    ref = contention_runs["fast"]
    assert contention_runs[variant] == ref, (
        f"{variant} diverged from the fast path under DRR contention"
    )


def test_fault_scenario_actually_loses_frames(fault_runs):
    """The fault window must actually bite (otherwise the identity
    assertions above prove nothing about invalidation)."""
    ref = fault_runs["fast"]
    assert ref["frames_lost"] > 0
    assert ref["frames_received"] > 0


def test_contention_scenario_actually_contends(contention_runs):
    ref = contention_runs["fast"]
    assert ref["frames_received"] > 0
    assert ref["goodput"] > 0
