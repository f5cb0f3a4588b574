"""The fluid/packet hybrid engine: workload determinism, analytic
correctness against the closed-form TCP model, fluid-vs-packet
cross-validation, and the background-load coupling seams.

The determinism contract is the load-bearing piece: the workload
generator must produce bit-identical schedules for a given seed across
Python versions (3.10-3.12 run in CI) and across serial vs. pooled
harness execution — the ``hybrid`` sweep baseline pins the schedule
digest, and these tests pin the mechanism behind it.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fluid import (
    BoundedPareto,
    FluidEngine,
    HybridSimulation,
    WorkloadGenerator,
    diurnal_factor,
)
from repro.netsim import (
    BulkTransfer,
    ClassicalIP,
    FaultInjector,
    Host,
    Network,
    PingFlow,
    Switch,
    build_testbed,
)
from repro.netsim.ip import TESTBED_MTU
from repro.netsim.tcp import tcp_steady_throughput
from repro.sim import Environment

MB = 1024 * 1024
PAIRS = [("t3e-600", "sp2"), ("t90", "onyx2-gmd")]


def _generator(seed=42, **kw):
    kw.setdefault("n_sessions", 300)
    kw.setdefault("session_rate", 25.0)
    return WorkloadGenerator(PAIRS, seed=seed, **kw)


# -- workload generator ------------------------------------------------------

class TestWorkloadDeterminism:
    def test_same_seed_identical_schedule(self):
        a, b = _generator(), _generator()
        assert a.schedule() == b.schedule()
        assert a.digest() == b.digest()

    def test_different_seed_different_schedule(self):
        assert _generator(seed=1).digest() != _generator(seed=2).digest()

    def test_golden_digest(self):
        """The digest pinned across interpreter versions: if this moves,
        every committed hybrid baseline moves with it."""
        wg = _generator(seed=42)
        assert wg.digest() == (
            "d96b77544fa2a42b99c45485cc1a3d74da9c1b422a35c40fcfefac437812083c"
        )

    def test_diurnal_schedule_deterministic(self):
        a = _generator(diurnal_amplitude=0.4, diurnal_period=30.0)
        b = _generator(diurnal_amplitude=0.4, diurnal_period=30.0)
        assert a.digest() == b.digest()

    def test_times_quantized_to_microseconds(self):
        for arrival in _generator().schedule():
            assert arrival.at == round(arrival.at * 1e6) / 1e6

    def test_arrivals_ordered_and_sized(self):
        sched = _generator().schedule()
        sizes = BoundedPareto()
        assert all(a.at <= b.at for a, b in zip(sched, sched[1:]))
        assert all(sizes.lo <= a.nbytes <= sizes.hi for a in sched)
        assert len({a.name for a in sched}) == len(sched)

    def test_serial_and_pooled_sweep_runs_agree(self):
        """The schedule digest (and every other fluid metric) must be
        identical whether scenarios run inline or in pool workers."""
        from repro.harness import SweepRunner, make_spec

        specs = [
            make_spec("fluid_wan", sessions=150, session_rate=25.0),
            make_spec("fluid_wan", sessions=150, session_rate=25.0, oc48=False),
        ]
        serial = SweepRunner(serial=True).run(specs, name="fluid")
        pooled = SweepRunner(processes=2).run(specs, name="fluid")
        assert serial.ok and pooled.ok
        serial_m, pooled_m = serial.metrics(), pooled.metrics()
        # Wall-clock figures legitimately differ; everything else must
        # agree exactly, including the schedule SHA.
        for key in serial_m:
            if key.endswith(("/wall_s", "/flows_per_sec")):
                continue
            assert serial_m[key] == pooled_m[key], key
        assert any(key.endswith("/schedule_sha") for key in serial_m)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            WorkloadGenerator([], n_sessions=1, session_rate=1.0, seed=0)
        with pytest.raises(ValueError):
            _generator(n_sessions=0)
        with pytest.raises(ValueError):
            _generator(session_rate=0.0)
        with pytest.raises(ValueError):
            _generator(diurnal_amplitude=1.0)


class TestBoundedPareto:
    def test_inverse_cdf_endpoints(self):
        d = BoundedPareto()
        assert d.sample(0.0) == pytest.approx(d.lo)
        assert d.sample(1.0 - 1e-12) == pytest.approx(d.hi, rel=1e-3)

    def test_mean_matches_monte_carlo_quadrature(self):
        d = BoundedPareto(shape=1.3, lo=1e5, hi=1e8)
        n = 20000
        quad = sum(d.sample((i + 0.5) / n) for i in range(n)) / n
        assert d.mean == pytest.approx(quad, rel=0.01)

    def test_shape_one_special_case(self):
        d = BoundedPareto(shape=1.0, lo=1e5, hi=1e7)
        assert d.lo < d.mean < d.hi

    def test_heavy_tail(self):
        """Most flows are mice; most bytes ride in elephants."""
        d = BoundedPareto(shape=1.3, lo=256 * 1024, hi=1024 * MB)
        assert d.mean > 3 * d.lo  # mean far above the median regime
        assert d.sample(0.5) < d.mean

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedPareto(shape=0.0)
        with pytest.raises(ValueError):
            BoundedPareto(lo=10, hi=10)

    def test_diurnal_factor_bounds(self):
        for i in range(50):
            f = diurnal_factor(i * 1.7, period=60.0, amplitude=0.3)
            assert 0.7 - 1e-12 <= f <= 1.3 + 1e-12
        assert diurnal_factor(5.0, period=0.0, amplitude=0.3) == 1.0
        assert diurnal_factor(5.0, period=60.0, amplitude=0.0) == 1.0


# -- fluid engine ------------------------------------------------------------

class _UtilReference:
    """Per-event utilization accounting kept outside the engine: every
    re-solve closes the interval since the previous one at the loads
    :meth:`FluidEngine.resource_loads` reported for it."""

    def __init__(self, eng):
        self.integral: dict[str, float] = {}
        self.loads: dict[str, float] = {}
        self.t = eng.now
        eng.on_rates_changed = self._on_resolve

    def _close(self, now):
        for r, load in self.loads.items():
            self.integral[r] = self.integral.get(r, 0.0) + load * (now - self.t)
        self.t = now

    def _on_resolve(self, eng):
        self._close(eng.now)
        self.loads = eng.resource_loads()

    def assert_matches(self, eng):
        self._close(eng.now)
        assert self.integral, "no fluid load was ever recorded"
        for r, integral in self.integral.items():
            assert eng.mean_utilization(r) == pytest.approx(
                integral / eng.now, rel=1e-12
            ), r


class TestFluidEngine:
    def test_single_flow_matches_closed_form(self):
        """One fluid flow's FCT is exactly size / tcp_steady_throughput."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        rate = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.schedule_flow(0.0, "bulk", "t3e-600", "sp2", 64 * MB)
        eng.run()
        (done,) = eng.completed
        assert done.fct == pytest.approx(64 * MB * 8 / rate, rel=1e-9)
        assert done.mean_rate == pytest.approx(rate, rel=1e-9)

    def test_equal_flows_share_equally(self):
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=8 * MB)
        for i in range(3):
            eng.schedule_flow(0.0, f"f{i}", "t3e-600", "sp2", 16 * MB)
        eng.run()
        fcts = [f.fct for f in eng.completed]
        assert max(fcts) == pytest.approx(min(fcts), rel=1e-9)

    def test_piecewise_rate_after_departure(self):
        """When the short flow leaves, the survivor speeds up: total time
        is shorter than two full-rate halves run serially would suggest."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        rate = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.schedule_flow(0.0, "long", "t3e-600", "sp2", 32 * MB)
        eng.schedule_flow(0.0, "short", "t3e-600", "sp2", 8 * MB)
        eng.run()
        done = {f.name: f for f in eng.completed}
        # Shared phase: both at rate/2 until short's 8MB drain.
        t_short = 8 * MB * 8 / (rate / 2)
        assert done["short"].fct == pytest.approx(t_short, rel=1e-9)
        # Long drains 8MB in the shared phase, then 24MB at full rate.
        t_long = t_short + 24 * MB * 8 / rate
        assert done["long"].fct == pytest.approx(t_long, rel=1e-9)
        assert eng.resolves >= 3  # arrivals, departure, final

    def test_late_arrival_triggers_resolve(self):
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        solo_fct = 16 * MB * 8 / tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.schedule_flow(0.0, "a", "t3e-600", "sp2", 16 * MB)
        eng.schedule_flow(solo_fct / 2, "b", "t3e-600", "sp2", 16 * MB)
        eng.run()
        done = {f.name: f for f in eng.completed}
        assert done["a"].completed < done["b"].completed
        # b's mid-flight arrival halves a's rate for its second half.
        assert done["a"].fct == pytest.approx(1.5 * solo_fct, rel=1e-6)
        assert eng.resolves >= 4  # two arrivals, two departures

    def test_invalidate_paths_carries_remaining_volume(self):
        """A mid-flight topology change must neither lose nor duplicate
        the bits already transferred."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        rate = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.schedule_flow(0.0, "bulk", "t3e-600", "sp2", 32 * MB)
        half = 16 * MB * 8 / rate
        eng.advance_to(0.0)
        eng.advance_to(half)
        eng.invalidate_paths()  # same topology, rebuilt classes
        eng.run()
        (done,) = eng.completed
        assert done.fct == pytest.approx(32 * MB * 8 / rate, rel=1e-6)
        assert done.nbytes == 32 * MB  # original size survives the rebuild

    def test_mean_utilization_single_bottleneck(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Switch(env, "sw", latency=1e-6))
        net.add(Host(env, "b"))
        net.link("a", "sw", 1e9, 1e-6)
        net.link("sw", "b", 1e8, 1e-6)
        eng = FluidEngine(net)
        ref = _UtilReference(eng)
        eng.schedule_flow(0.0, "f", "a", "b", 10 * MB)
        eng.run()
        # The 100 Mbit/s hop ran saturated the whole time (framing
        # overhead means payload rate < wire rate, utilization = 1).
        link = net.nodes["sw"].link_to("b")
        assert eng.mean_utilization(f"link:{link.name}:sw") == pytest.approx(
            1.0, rel=1e-6
        )
        ref.assert_matches(eng)

    def test_mean_utilization_across_a_mid_day_fault(self):
        """Served bits retired at a topology invalidation and those of
        the live classes folded in on read must add up to the same
        integral as per-event accounting, across a WAN cut and repair."""
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=8 * MB)
        ref = _UtilReference(eng)
        eng.offer(
            WorkloadGenerator(
                [("t3e-600", "sp2"), ("sp2", "t3e-600"), ("t90", "onyx2-gmd")],
                n_sessions=120,
                session_rate=60.0,
                seed=5,
                sizes=BoundedPareto(lo=MB, hi=16 * MB),
            ).schedule()
        )
        eng.run(until=0.8)
        assert eng.active > 0
        tb.wan_link.set_up(False)
        eng.invalidate_paths()  # cross-site flows park on the cut WAN
        ref.assert_matches(eng)
        eng.run(until=1.2)
        tb.wan_link.set_up(True)
        eng.invalidate_paths()
        eng.run()
        assert len(eng.completed) == 120
        ref.assert_matches(eng)

    def test_rejects_past_arrivals_and_bad_sizes(self):
        tb = build_testbed()
        eng = FluidEngine(tb.net)
        eng.schedule_flow(1.0, "ok", "t3e-600", "sp2", 1024)
        eng.run()
        with pytest.raises(ValueError):
            eng.schedule_flow(0.5, "late", "t3e-600", "sp2", 1024)
        with pytest.raises(ValueError):
            eng.schedule_flow(eng.now + 1, "empty", "t3e-600", "sp2", 0)
        with pytest.raises(ValueError):
            eng.advance_to(eng.now - 1.0)

    def test_fct_stats_shape(self):
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=8 * MB)
        assert eng.fct_stats() == {}
        for i in range(10):
            eng.schedule_flow(0.1 * i, f"f{i}", "t3e-600", "sp2", MB)
        eng.run()
        stats = eng.fct_stats()
        assert set(stats) == {"mean", "p50", "p95", "p99", "max"}
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]


# -- fluid vs packet cross-validation ----------------------------------------

class TestFluidVsPacket:
    def test_agreement_within_5pct_on_overlap_grid(self):
        """The validity envelope the CI sweep pins: distinct-source
        bulk transfers across the shared GMD attachment agree within 5%
        between the packet and fluid engines."""
        ip = ClassicalIP(TESTBED_MTU)
        sources = ["t3e-600", "t3e-1200", "t90"]
        for n in (1, 2, 3):
            tb = build_testbed()
            flows = [
                BulkTransfer(
                    tb.net, sources[i], "e500-gmd", 16 * MB, ip=ip,
                    window_bytes=8 * MB, name=f"b{i}",
                )
                for i in range(n)
            ]
            tb.net.env.run()
            tb2 = build_testbed()
            eng = FluidEngine(tb2.net, ip=ip, window_bytes=8 * MB)
            for i in range(n):
                eng.schedule_flow(0.0, f"b{i}", sources[i], "e500-gmd", 16 * MB)
            eng.run()
            fluid = {f.name: f for f in eng.completed}
            for f in flows:
                pkt_fct = f.end_time - f.start_time
                assert fluid[f.name].fct == pytest.approx(pkt_fct, rel=0.05)
                assert fluid[f.name].mean_rate == pytest.approx(
                    f.throughput, rel=0.05
                )


# -- hybrid coupling ---------------------------------------------------------

class TestHybridCoupling:
    def test_zero_fluid_load_is_bit_identical(self):
        """An idle hybrid must not perturb the packet world at all."""
        tb_ref = build_testbed()
        ref = PingFlow(tb_ref.net, "t3e-600", "sp2", count=30, interval=0.01)
        tb_ref.net.env.run()

        tb = build_testbed()
        HybridSimulation(tb.net)
        ping = PingFlow(tb.net, "t3e-600", "sp2", count=30, interval=0.01)
        tb.net.env.run()
        assert ping.rtt.mean == ref.rtt.mean
        assert tb.net.env.scheduled_count == tb_ref.net.env.scheduled_count

    def test_fluid_load_inflates_packet_rtt(self):
        tb_ref = build_testbed()
        ref = PingFlow(tb_ref.net, "t3e-600", "sp2", count=30, interval=0.01)
        tb_ref.net.env.run()

        tb = build_testbed()
        hyb = HybridSimulation(tb.net, window_bytes=8 * MB)
        ping = PingFlow(tb.net, "t3e-600", "sp2", count=30, interval=0.01)
        hyb.add_packet_flow(ping)
        wg = WorkloadGenerator(
            [("t3e-600", "sp2")],
            n_sessions=15,
            session_rate=50.0,
            seed=3,
            sizes=BoundedPareto(lo=4 * MB, hi=32 * MB),
        )
        hyb.offer(wg.schedule())
        tb.net.env.run()
        assert len(hyb.engine.completed) == 15
        assert ping.rtt.mean > ref.rtt.mean
        assert hyb.peak_background > 0.0

    def test_packet_demand_reserves_fluid_share(self):
        """With a packet flow declared, fluid flows on the same path get
        less than the full capacity — the solve leaves the packet share."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        solo = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.add_static_demand("packet", "t3e-600", "sp2", solo / 2)
        eng.schedule_flow(0.0, "fluid", "t3e-600", "sp2", 8 * MB)
        eng.run()
        (done,) = eng.completed
        assert done.mean_rate == pytest.approx(solo / 2, rel=1e-6)

    def test_static_demand_requires_route(self):
        tb = build_testbed()
        eng = FluidEngine(tb.net)
        with pytest.raises(ValueError):
            eng.add_static_demand("bad", "t3e-600", "no-such-host", 1e6)

    def test_background_seam_validation(self):
        tb = build_testbed()
        link = tb.net.links[tb.wan_link.name]
        with pytest.raises(ValueError):
            link.set_background_load("sw-juelich", 1.0)
        with pytest.raises(ValueError):
            link.set_background_load("sw-juelich", -0.1)
        with pytest.raises(KeyError):
            link.set_background_load("not-an-endpoint", 0.5)
        with pytest.raises(ValueError):
            HybridSimulation(build_testbed().net, max_background=1.0)

    def test_background_load_stretches_serialization(self):
        """share s on a link direction scales packet goodput by (1-s)."""
        def run(share):
            tb = build_testbed()
            link = tb.net.links[tb.wan_link.name]
            link.set_background_load("sw-juelich", share)
            bt = BulkTransfer(
                tb.net, "t3e-600", "sp2", 4 * MB, ip=ClassicalIP(TESTBED_MTU)
            )
            return bt.run()

        # The WAN wire is not the bottleneck at share=0; at 0.98 its
        # residual 2% is, and goodput must drop substantially.
        assert run(0.98) < 0.5 * run(0.0)

    def test_topology_fault_reroutes_fluid_flows(self):
        """A WAN outage mid-flight stalls fluid flows (rate 0 on the
        partitioned path) and repair resumes them — completions must
        land after the repair, with the volume intact."""
        tb = build_testbed()
        hyb = HybridSimulation(tb.net, window_bytes=8 * MB)
        wg = WorkloadGenerator(
            [("t3e-600", "sp2")],
            n_sessions=5,
            session_rate=100.0,
            seed=9,
            sizes=BoundedPareto(lo=2 * MB, hi=8 * MB),
        )
        hyb.offer(wg.schedule())
        FaultInjector(tb.net).link_down(tb.wan_link, at=0.05, duration=2.0)
        tb.net.env.run()
        assert len(hyb.engine.completed) == 5
        assert all(f.completed >= 2.05 - 1e-9 for f in hyb.engine.completed)

    def test_gateway_background_seam(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        from repro.netsim import Gateway

        net.add(Gateway(env, "gw", per_packet=1e-5))
        net.add(Host(env, "b"))
        net.link("a", "gw", 1e9, 1e-6)
        net.link("gw", "b", 1e9, 1e-6)
        gw = net.nodes["gw"]
        gw.set_background_load(0.5)
        assert gw.background_share == 0.5
        assert gw._eff_per_packet == pytest.approx(2e-5)
        gw.set_background_load(0.0)
        assert gw._eff_per_packet == pytest.approx(1e-5)
        with pytest.raises(ValueError):
            gw.set_background_load(1.0)


# -- solver core -------------------------------------------------------------

INF = math.inf


def _reference_max_min(costs, caps, counts):
    """Progressive filling over dicts and sets, as the solver read
    before it was compiled, with demand summed in insertion order
    (every sum left to right)."""

    def total(terms):
        acc = 0.0
        for term in terms:
            acc += term
        return acc

    def load(r):
        return total(counts[n] * rates[n] * c[r] for n, c in costs.items() if r in c)

    rates = {n: 0.0 for n in costs}
    live = list(costs)
    while live:
        delta = INF
        live_resources = {r for n in live for r in costs[n]}
        for r in live_resources:
            demand = total(counts[n] * costs[n][r] for n in live if r in costs[n])
            if demand > 0:
                delta = min(delta, max(0.0, 1.0 - load(r)) / demand)
        for n in live:
            delta = min(delta, caps[n] - rates[n])
        if delta == INF:
            for n in live:
                rates[n] = INF
            break
        for n in live:
            rates[n] += delta
        saturated = {r for r in live_resources if load(r) >= 1.0 - 1e-9}
        frozen = {
            n
            for n in live
            if (caps[n] != INF and rates[n] >= caps[n] - 1e-9 * max(1.0, caps[n]))
            or any(r in saturated for r in costs[n])
        }
        if not frozen:
            break
        live = [n for n in live if n not in frozen]
    return rates


#: Few distinct costs, so duplicate and dominated cost vectors are common.
_COST = st.one_of(
    st.sampled_from([0.0, 1e-9, 2e-9, 2.5e-9, 1e-8]),
    st.floats(1e-10, 1e-7),
    st.just(INF),
)


@st.composite
def _max_min_instances(draw):
    """1-6 demands over 1-30 resources with counts 1-1000: resources
    draw a user set and costs, echoes copy one's user set with costs
    scaled by at most 1 (duplicates and dominated vectors); a demand no
    resource picks runs on a free path."""
    names = [f"d{i}" for i in range(draw(st.integers(1, 6)))]
    resources = []
    for _ in range(draw(st.integers(1, 30))):
        if resources and draw(st.booleans()):
            users = draw(st.sampled_from(resources))
            scale = draw(st.sampled_from([1.0, 0.5, 0.0]))
            resources.append(
                {n: c if c == INF else c * scale for n, c in users.items()}
            )
        else:
            users = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
            resources.append({n: draw(_COST) for n in users})
    costs = {n: {} for n in names}
    for j, users in enumerate(resources):
        for n, c in users.items():
            costs[n][f"r{j}"] = c
    caps = {
        n: draw(st.one_of(st.just(INF), st.just(0.0), st.floats(1e6, 1e10)))
        for n in names
    }
    counts = {n: draw(st.integers(1, 1000)) for n in names}
    return costs, caps, counts


class TestMaxMinRates:
    def test_class_aggregation_matches_individuals(self):
        """Counts are exact: m identical demands solved as one class get
        the same rate as m individual demands."""
        from repro.netsim.tcp import max_min_rates

        costs_one = {"c": {"r": 1e-8}}
        agg = max_min_rates(costs_one, {"c": math.inf}, {"c": 4})
        costs_many = {f"f{i}": {"r": 1e-8} for i in range(4)}
        caps = {f"f{i}": math.inf for i in range(4)}
        indiv = max_min_rates(costs_many, caps)
        assert agg["c"] == pytest.approx(indiv["f0"], rel=1e-9)

    def test_caps_respected(self):
        from repro.netsim.tcp import max_min_rates

        rates = max_min_rates(
            {"a": {"r": 1e-8}, "b": {"r": 1e-8}},
            {"a": 10e6, "b": math.inf},
        )
        assert rates["a"] == pytest.approx(10e6)
        assert rates["b"] == pytest.approx(1e8 - 10e6, rel=1e-6)

    def test_compile_drops_duplicate_and_dominated_resources(self):
        from repro.netsim.tcp import compile_max_min

        problem = compile_max_min(
            {
                "a": {"x": 2e-9, "y": 2e-9, "z": 1e-9, "solo": 0.0},
                "b": {"x": 1e-9, "y": 1e-9, "z": 1e-9},
            }
        )
        # y duplicates x and z is dominated by it (same users {a, b});
        # solo is a's alone and stays.
        assert problem.names == ("a", "b")
        assert problem.users == (((0, 2e-9), (1, 1e-9)), ((0, 0.0),))
        assert problem.uses == ((0, 1), (0,))

    def test_compiled_problem_resolves_under_new_caps_and_counts(self):
        from repro.netsim.tcp import compile_max_min, max_min_rates

        costs = {"a": {"r": 1e-8}, "b": {"r": 1e-8, "s": 5e-9}}
        problem = compile_max_min(costs)
        for caps, counts in [
            ({"a": math.inf, "b": math.inf}, {"a": 1, "b": 1}),
            ({"a": 1e7, "b": math.inf}, {"a": 3, "b": 2}),
        ]:
            assert max_min_rates(problem, caps, counts) == max_min_rates(
                costs, caps, counts
            )

    @settings(max_examples=300, deadline=None)
    @given(instance=_max_min_instances())
    @example(
        instance=({"a": {}, "b": {"r": 0.0}}, {"a": INF, "b": INF}, {"a": 1, "b": 1})
    )
    @example(
        instance=(
            {"a": {"r": INF, "s": 1e-9}, "b": {"s": 1e-9}},
            {"a": INF, "b": INF},
            {"a": 1, "b": 1},
        )
    )
    def test_compiled_solver_matches_reference_bit_for_bit(self, instance):
        """Dominance pruning and flat incidence lists change no bit of
        any rate: checked against the dict-and-set progressive filling
        the solver was compiled from."""
        from repro.netsim.tcp import max_min_rates

        costs, caps, counts = instance
        assert max_min_rates(costs, caps, counts) == _reference_max_min(
            costs, caps, counts
        )

    def test_free_paths_and_stall_guard(self):
        """The two exits that do not freeze by saturation: nothing
        finite left (uncapped free paths run at ``inf``) and the stall
        guard (an infinite cost pins the water level at zero while
        nothing saturates)."""
        from repro.netsim.tcp import max_min_rates

        free = max_min_rates({"a": {}, "b": {"r": 0.0}}, {"a": INF, "b": INF})
        assert free == {"a": INF, "b": INF}
        stalled = max_min_rates(
            {"a": {"r": INF, "s": 1e-9}, "b": {"s": 1e-9}}, {"a": INF, "b": INF}
        )
        assert stalled == {"a": 0.0, "b": 0.0}


# -- hash-seed determinism ---------------------------------------------------

#: A harness ``fluid_wan`` day whose re-solves used to sum over a set of
#: tuple keys: its completions moved with ``PYTHONHASHSEED``.
_HASH_SEED_DAY = """
from repro.fluid import FluidEngine
from repro.harness import scenarios
from repro.harness.spec import make_spec
from repro.util.units import MBYTE

spec = make_spec(
    "fluid_wan", sessions=1000, session_rate=90.0, oc48=True, bench_seed=7
)
eng = FluidEngine(
    scenarios._testbed(spec).net,
    ip=scenarios._ip(spec),
    window_bytes=int(spec.get("window_mbytes", 8)) * MBYTE,
)
eng.offer(scenarios._workload(spec).schedule())
eng.run()
print(repr(([(f.name, f.arrived, f.completed) for f in eng.completed], eng.now)))
"""


def test_fluid_day_independent_of_hash_seed():
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_DAY],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
