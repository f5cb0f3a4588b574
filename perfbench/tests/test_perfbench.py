"""Tests for the benchmark itself: comparator, checks, seeds, metric names,
and that tracing leaves simulated outcomes unchanged.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Operations here use shrunken inputs so the whole file takes seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import hostref, run, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL_PACKET = workloads.PacketMix("small_packet", mbytes=1)
SMALL_SHARDED = workloads.PacketMix("small_sharded", shards=2, mbytes=1)
SMALL_FLUID = workloads.FluidDay(sessions=300)
SMALL_FMRI = workloads.FmriSession(n_frames=16)
SMALL_ALL = [SMALL_PACKET, SMALL_SHARDED, SMALL_FLUID, SMALL_FMRI]


def _name(workload):
    return workload.name


def _loop(workload, seed=1, perturb=None):
    inputs = workload.inputs(seed)
    expected = workload.expected(inputs)
    if perturb is not None:
        perturb(expected)
    return run.Loop(workload, inputs, expected)


# -- the reference comparator -------------------------------------------------
def test_comparator_finds_no_divergence_between_reference_and_itself():
    inputs = SMALL_PACKET.inputs(3)
    reference = SMALL_PACKET.reference(inputs)
    assert reference  # per-flow values were compared
    assert workloads.divergence(reference, dict(reference)) == (0, len(reference))


def test_comparator_counts_changed_and_missing_values():
    ref = {"a": 1.0, "b": 2, "c": True}
    assert workloads.divergence({"a": 1.0, "b": 3, "c": True}, ref) == (1, 3)
    assert workloads.divergence({"a": 1.0, "b": 2}, ref) == (1, 3)
    # bit identity, not numeric closeness
    assert workloads.divergence({"a": 1.0 + 2**-52, "b": 2, "c": True}, ref) == (1, 3)


def test_counters_are_not_flow_results():
    results = workloads.flow_results({"x_goodput_mbps": 1.0, "_link_hops.s0": 9})
    assert results == {"x_goodput_mbps": 1.0}


# -- operation checks ---------------------------------------------------------
def test_small_packet_op_passes_its_checks():
    loop = _loop(SMALL_PACKET)
    outcome, wall = loop.op()
    assert outcome is not None and wall > 0
    assert (loop.attempted, loop.failed) == (1, 0)
    assert SMALL_PACKET.work(outcome) > 0


def test_perturbed_expected_value_fails_the_op_without_crashing():
    def perturb(expected):
        name = sorted(expected["segments"])[0]
        expected["segments"][name] += 1

    loop = _loop(SMALL_PACKET, perturb=perturb)
    metrics = run.run_untraced(loop, seconds=0.0, hostref=lambda: 0.1)
    assert (loop.attempted, loop.failed) == (1, 1)
    assert metrics["norm_wall_s"] > 0 and metrics["norm_work_per_s"] == 0.0


def test_host_normalised_metrics_scale_by_the_reference_median():
    probes = []

    def probe():
        probes.append(0.05)
        time.sleep(0.05)
        return 0.05

    metrics = run.run_untraced(_loop(SMALL_PACKET), seconds=0.0, hostref=probe)
    assert len(probes) >= 2  # a warm-up, then at least one after the op
    scale = hostref.NOMINAL_S / 0.05
    assert metrics["norm_wall_s"] == metrics["wall_s"] * scale
    assert metrics["norm_work_per_s"] == metrics["work_per_s"] / scale
    assert "norm_wall_s" not in run.run_untraced(_loop(SMALL_PACKET), seconds=0.0)


def test_host_reference_probe_times_fixed_work():
    assert hostref._event_loop() == hostref._event_loop()
    assert hostref.probe() > 0


def test_setup_probes_run_between_ops_and_report_their_median():
    loop = _loop(SMALL_FLUID)
    probes = []

    def probe():
        probes.append(loop.attempted)  # ops finished before this probe
        return float(len(probes))

    metrics = run.run_untraced(loop, seconds=0.0, probe=probe)
    assert probes == [1] * run.SETUP_PROBES
    assert metrics["setup_s"] == (run.SETUP_PROBES + 1) / 2
    assert metrics["peak_rss_mb"] > 0
    assert "setup_s" not in run.run_untraced(_loop(SMALL_FLUID), seconds=0.0)


def test_perturbed_fluid_digest_fails_the_op():
    loop = _loop(SMALL_FLUID, perturb=lambda e: e.update(digest="0" * 64))
    outcome, _ = loop.op()
    assert outcome is None and loop.failed == 1


def test_fluid_check_passes_and_counts_every_session():
    loop = _loop(SMALL_FLUID)
    outcome, _ = loop.op()
    assert outcome is not None
    assert SMALL_FLUID.work(outcome) == 300


def test_raising_op_counts_as_failed():
    class Broken(workloads.PacketMix):
        def run(self, inputs, phase=workloads.no_phase):
            raise RuntimeError("boom")

    broken = Broken("broken", mbytes=1)
    loop = run.Loop(broken, broken.inputs(1), {"segments": {}, "frames": {}})
    assert loop.op() == (None, pytest.approx(0, abs=1.0))
    assert loop.failed == 1


# -- seeds --------------------------------------------------------------------
@pytest.mark.parametrize("workload", [SMALL_PACKET, SMALL_FLUID, SMALL_FMRI], ids=_name)
def test_same_seed_same_inputs_and_two_seeds_differ(workload):
    assert repr(workload.inputs(5)) == repr(workload.inputs(5))
    assert repr(workload.inputs(5)) != repr(workload.inputs(6))


@pytest.mark.parametrize("workload", SMALL_ALL[:3], ids=_name)
def test_same_seed_gives_identical_outputs(workload):
    inputs = workload.inputs(7)
    first = workload.fingerprint(workload.run(inputs))
    assert workload.fingerprint(workload.run(workload.inputs(7))) == first


def test_sharded_run_does_the_same_link_work():
    inputs = SMALL_PACKET.inputs(2)
    plain = SMALL_PACKET.run(inputs)
    sharded = SMALL_SHARDED.run(inputs)
    assert SMALL_SHARDED.check(sharded, SMALL_SHARDED.expected(inputs)) == []
    assert SMALL_PACKET.work(plain) == SMALL_SHARDED.work(sharded)


# -- metric names -------------------------------------------------------------
def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_metrics_cover_the_spec():
    metrics = tracer.per_layer_metrics({}, [], {}, 1.0, 0)
    traced_only = {"trace.overhead_ratio", "trace.unattributed_share"}
    assert set(metrics) | traced_only == set(run.PER_LAYER)


# -- tracing ------------------------------------------------------------------
def _traced(workload, inputs):
    trace = tracer.Tracer()
    with trace, trace.span("op"):
        outcome = workload.run(inputs, phase=trace.span)
    return trace, outcome


@pytest.mark.parametrize("workload", SMALL_ALL, ids=_name)
def test_traced_outcome_equals_untraced(workload):
    inputs = workload.inputs(4)
    plain = workload.fingerprint(workload.run(inputs))
    trace, outcome = _traced(workload, inputs)
    assert workload.fingerprint(outcome) == plain
    stats = trace.stats()
    assert stats["op"][0] == 1
    assert tracer.unattributed_share(stats) < 0.2


def test_tracer_restores_every_patch():
    from repro.netsim import core
    from repro.sim import engine

    def patched():
        return engine.Environment.run, core.Link.send, engine.Environment.__init__

    before = patched()
    with tracer.Tracer():
        assert core.Link.send is not before[1]
    assert patched() == before


def test_packet_trace_attributes_the_layers():
    inputs = SMALL_PACKET.inputs(4)
    trace, outcome = _traced(SMALL_PACKET, inputs)
    counts = SMALL_PACKET.layer_counts(outcome, SMALL_PACKET.expected(inputs))
    metrics = tracer.per_layer_metrics(trace.stats(), trace.envs, counts, 1.0, 0)
    for name in (
        "sim.entries",
        "netsim.link.hops",
        "netsim.switch.forwards",
        "netsim.gateway.services",
        "netsim.host.stage_ops",
        "netsim.tcp.segments_sent",
        "netsim.drr.ops",
        "netsim.route.lookups",
    ):
        assert metrics[name] > 0, name
    assert metrics["shard.rounds"] == 0  # unsharded: no barrier protocol
    assert 0 < metrics["sim.entry_reuse_ratio"] <= 1


def test_span_self_time_excludes_children():
    trace = tracer.Tracer()
    inner = trace.wrap("inner", lambda: sum(range(20000)))
    with trace.span("outer"):
        inner()
        inner()
    stats = trace.stats()
    n, total, own = stats["outer"]
    assert n == 1 and stats["inner"][0] == 2
    assert own <= total - stats["inner"][1] + 1


# -- the command --------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = [sys.executable, "perfbench/run.py", "--workload", "packet_mix"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the recorded defect ------------------------------------------------------
def _two_flow_goodputs(fast_path):
    from repro.netsim import BulkTransfer, ClassicalIP, build_testbed
    from repro.sim import Environment
    from repro.util.units import MBYTE

    env = Environment(fast_path=fast_path)
    tb = build_testbed(env)
    ip = ClassicalIP(mtu=64 * 1024)
    flows = [
        BulkTransfer(tb.net, "e500-gmd", "t3e-1200", 4 * MBYTE, ip=ip, name="a"),
        BulkTransfer(tb.net, "onyx2-gmd", "t90", 4 * MBYTE, ip=ip, name="b"),
    ]
    env.run()
    return [f.throughput for f in flows]


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the lazy Link service form swaps these goodputs "
    "(255.131 vs 257.020 Mbit/s); the packet workloads report it as "
    "ref_divergence > 0",
)
def test_known_defect_fast_path_swaps_goodputs():
    assert _two_flow_goodputs(True) == _two_flow_goodputs(False)
