"""The benchmark's workloads: inputs from a seed, one operation, its checks.

One operation is one complete simulation.  Each workload turns the
benchmark seed into generated inputs (the program never sees the seed
itself), runs the operation on them, and checks the outcome against
expected values derived from the inputs:

* ``packet_mix`` / ``packet_mix_sharded`` — the heavy ``wan_multiflow``
  shard workload (6 WAN bulks at 64 KB MTU, 4 local bulks and two D1
  streams at 9180 B) under seeded random wire loss on the WAN link,
  unsharded or with ``shards=2`` on the in-process serial scheduler;
* ``fluid_day`` — the 10k-session heavy-tailed diurnal day of the
  ``fluid_wan`` scenario on :class:`~repro.fluid.FluidEngine`;
* ``fmri_session`` — the paper's Section-4 FIRE run: 40 frames through
  :class:`~repro.fire.RTClient`, then RVO delegated over 2-rank metampi
  RPC.

The program is imported lazily (inside functions), so importing this
module costs nothing and the set-up probe in ``run.py`` times the
program's own imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Optional

#: Context-manager factory for coarse phases of an operation; the
#: traced run passes one that records a span per phase.
Phase = Callable[[str], contextlib.AbstractContextManager]


def no_phase(_name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit input seed derived from the benchmark seed and a tag."""
    digest = hashlib.sha256(f"{tag}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil(n·q), at least 1
    return ordered[int(rank) - 1]


def digest_of(value: Any) -> str:
    """SHA-256 of ``repr(value)``: floats repr exactly, so equal digests
    mean bit-identical results."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


class Workload:
    """Defaults for the optional parts of a workload."""

    name: str
    work_unit: ClassVar[str]

    def comparable(self, outcome) -> Optional[dict[str, Any]]:
        """Per-value results a reference run is compared with, if any."""
        return None

    def reference_divergence(self, inputs, results) -> Optional[tuple[int, int]]:
        """(values differing from the reference, values compared), if the
        workload has a reference form."""
        return None

    def sample(self, outcome) -> Any:
        """The small part of an outcome the report keeps."""
        return None

    def report(self, samples: list) -> dict[str, tuple[float, str]]:
        """Workload-specific report lines: name -> (value, unit)."""
        return {}


# -- packet workloads ---------------------------------------------------------

#: Shard-registry name of the packet mix (``wan_multiflow`` plus the
#: extra end-state counters the checks need).
PACKET_WORKLOAD = "perfbench_packet_mix"
PACKET_MBYTES = 32
PACKET_LOSS_RATE = 1e-3
#: Result keys starting with this prefix are per-shard work counters,
#: not per-flow results: they are left out of every result comparison.
COUNTER_PREFIX = "_"


def _link_counts(net) -> tuple[int, int]:
    """(packets transmitted, packets dropped or lost) over every link."""
    hops = drops = 0
    for link in net.links.values():
        hops += sum(link.tx_packets.values())
        drops += sum(link.drops.values()) + sum(link.lost.values())
    return hops, drops


def _flow_drops(net, flow: str) -> int:
    """Packets of ``flow`` this network counted as dropped or lost."""
    from repro.netsim.core import Gateway

    total = sum(
        per_flow.get(flow, 0)
        for link in net.links.values()
        for per_flow in link.flow_drops.values()
    )
    for node in net.nodes.values():
        if isinstance(node, Gateway):
            total += node.flow_drops.get(flow, 0)
    return total


def _register_packet_workload() -> None:
    """Register the packet mix with the program's shard-workload registry.

    The workload is ``wan_multiflow`` unchanged.  Its ``collect`` also
    reports, for each flow this shard sends, whether the sender finished,
    and per shard the link transmit and drop totals and each D1 stream's
    counted packet losses — so the benchmark can check end states and
    count link hops from the run's own results.
    """
    from repro.netsim.flows import CbrFlow
    from repro.shard.workloads import WORKLOADS, shard_workload, wan_multiflow

    if PACKET_WORKLOAD in WORKLOADS:
        return

    @shard_workload(PACKET_WORKLOAD)
    def packet_mix(params: dict, view) -> Any:
        state = wan_multiflow(params, view)
        net = state.net
        base = state.collect
        shard = f".s{view.shard}"

        def collect() -> dict[str, Any]:
            out = base()
            for flow in state.flows:
                if net.drives(flow.src):
                    out[flow.name + "_done"] = flow.done.triggered
                if isinstance(flow, CbrFlow):
                    key = f"{COUNTER_PREFIX}drops.{flow.name}{shard}"
                    out[key] = _flow_drops(net, flow.name)
            hops, drops = _link_counts(net)
            out[f"{COUNTER_PREFIX}link_hops{shard}"] = hops
            out[f"{COUNTER_PREFIX}link_drops{shard}"] = drops
            return out

        state.collect = collect
        return state


def _shard_sum(metrics: dict[str, Any], counter: str) -> int:
    """Sum of a per-shard counter over the shards that reported it."""
    prefix = f"{COUNTER_PREFIX}{counter}.s"
    return sum(v for k, v in metrics.items() if k.startswith(prefix))


def flow_results(metrics: dict[str, Any]) -> dict[str, Any]:
    """The merged per-flow result values of a packet run."""
    return {k: v for k, v in metrics.items() if not k.startswith(COUNTER_PREFIX)}


def divergence(result: dict[str, Any], reference: dict[str, Any]) -> tuple[int, int]:
    """(values not bit-identical to ``reference``, values compared).

    A key missing on either side counts as divergent.
    """
    keys = set(result) | set(reference)
    differ = sum(
        1
        for k in keys
        if k not in result
        or k not in reference
        or repr(result[k]) != repr(reference[k])
    )
    return differ, len(keys)


@dataclass
class PacketMix(Workload):
    """The heavy WAN multi-flow mix, unsharded or sharded (serial)."""

    name: str
    shards: int = 1
    mbytes: int = PACKET_MBYTES
    work_unit: ClassVar[str] = "link_hops"

    def inputs(self, seed: int) -> dict[str, Any]:
        return {
            "heavy": True,
            "video": True,
            "mbytes": self.mbytes,
            "loss_rate": PACKET_LOSS_RATE,
            "seed": derive_seed(seed, "wan-loss"),
            "fast_path": True,
        }

    def expected(self, inputs: dict[str, Any]) -> dict[str, Any]:
        """Per-flow end-state targets, read off the built (unrun) mix."""
        from repro.netsim.flows import BulkTransfer, CbrFlow
        from repro.shard.workloads import PartitionView, build_workload

        _register_packet_workload()
        state = build_workload(PACKET_WORKLOAD, inputs, PartitionView())
        segments = {}
        frames = {}
        for flow in state.flows:
            if isinstance(flow, BulkTransfer):
                segments[flow.name] = len(flow.ip.segments(flow.nbytes))
            elif isinstance(flow, CbrFlow):
                frames[flow.name] = flow.n_frames
        return {"segments": segments, "frames": frames}

    def run(self, inputs: dict[str, Any], phase: Phase = no_phase):
        from repro.shard.runner import run_workload

        _register_packet_workload()
        return run_workload(PACKET_WORKLOAD, inputs, shards=self.shards, mode="serial")

    def check(self, outcome, expected: dict[str, Any]) -> list[str]:
        m = outcome.metrics
        problems = []
        for name, n in expected["segments"].items():
            got = m.get(name + "_segments_delivered")
            if got != n:
                problems.append(f"{name}: delivered {got} of {n} segments")
            if m.get(name + "_done") is not True:
                problems.append(f"{name}: sender never completed")
            if not m.get(name + "_goodput_mbps", 0) > 0:
                problems.append(f"{name}: no goodput")
        for name, n in expected["frames"].items():
            got = m.get(name + "_frames_received", -1)
            if m.get(name + "_done") is not True or not 0 <= got <= n:
                problems.append(f"{name}: stream never drained")
                continue
            # A frame not received must have lost at least one segment
            # that some link or gateway counted.
            lost = _shard_sum(m, "drops." + name)
            if n - got > lost:
                problems.append(
                    f"{name}: {n - got} frames missing but only {lost} "
                    "packet losses counted"
                )
        if self.shards > 1 and outcome.n_shards != self.shards:
            problems.append(f"ran on {outcome.n_shards} shards, not {self.shards}")
        return problems

    def fingerprint(self, outcome) -> str:
        return digest_of(sorted(outcome.metrics.items()))

    def work(self, outcome) -> int:
        return _shard_sum(outcome.metrics, "link_hops")

    def comparable(self, outcome) -> dict[str, Any]:
        return flow_results(outcome.metrics)

    def reference(self, inputs: dict[str, Any]) -> dict[str, Any]:
        """Per-flow results of the ``fast_path=False`` unsharded run."""
        from repro.shard.runner import run_workload

        _register_packet_workload()
        ref = run_workload(PACKET_WORKLOAD, {**inputs, "fast_path": False})
        return flow_results(ref.metrics)

    def reference_divergence(self, inputs, results) -> Optional[tuple[int, int]]:
        if results is None:
            return None
        return divergence(results, self.reference(inputs))

    def layer_counts(self, outcome, expected: dict[str, Any]) -> dict[str, float]:
        m = outcome.metrics
        segments = sum(expected["segments"].values())
        retransmits = sum(
            m.get(name + "_retransmits", 0) for name in expected["segments"]
        )
        sent = segments + retransmits
        counts = {
            "netsim.link.hops": self.work(outcome),
            "netsim.link.drops": _shard_sum(m, "link_drops"),
            "netsim.tcp.segments_sent": sent,
            "netsim.tcp.retransmits": retransmits,
            "netsim.tcp.timeouts": sum(
                m.get(name + "_timeouts", 0) for name in expected["segments"]
            ),
            "netsim.tcp.useful_ratio": segments / sent if sent else 0.0,
        }
        if outcome.n_shards > 1:
            stats = outcome.shard_stats
            windows = sum(s.windows for s in stats)
            stalls = sum(s.stalls for s in stats)
            counts["shard.rounds"] = outcome.rounds
            counts["shard.horizon_jumps"] = outcome.horizon_jumps
            counts["shard.stall_ratio"] = stalls / windows if windows else 0.0
            counts["shard.msgs"] = sum(s.msgs_sent for s in stats)
            counts["shard.bytes"] = sum(s.bytes_sent for s in stats)
            counts["shard.window_s"] = sum(s.window_wall_s for s in stats)
            counts["shard.wall_s"] = outcome.wall_s
        return counts


# -- fluid workload -----------------------------------------------------------

FLUID_SESSIONS = 10_000
FLUID_SESSION_RATE = 90.0


@dataclass
class FluidOutcome:
    arrived: int
    completed: list  #: CompletedFlow records, in completion order
    resolves: int
    peak_active: int
    end_time: float


def _completed_digest(completed: list) -> str:
    """The schedule digest recomputed from completed sessions, in the
    form :meth:`repro.fluid.WorkloadGenerator.digest` hashes arrivals:
    it matches only if every arrival completed with its identity,
    size and (quantized) arrival time intact."""
    h = hashlib.sha256()
    for c in sorted(completed, key=lambda c: c.name):
        h.update(
            f"{round(c.arrived * 1e6)}|{c.name}|{c.src}|{c.dst}|{c.nbytes}\n".encode()
        )
    return h.hexdigest()


@dataclass
class FluidDay(Workload):
    """The full ``fluid_wan`` shape: 10k heavy-tailed diurnal sessions.

    Testbed, transport, window and session generator all come from the
    harness's ``fluid_wan`` scenario, so the day follows that scenario's
    shape; the benchmark seed enters through the spec's content hash.
    """

    name: str = "fluid_day"
    sessions: int = FLUID_SESSIONS
    work_unit: ClassVar[str] = "sessions"

    def inputs(self, seed: int) -> dict[str, Any]:
        from repro.harness import scenarios
        from repro.harness.spec import make_spec

        spec = make_spec(
            "fluid_wan",
            sessions=self.sessions,
            session_rate=FLUID_SESSION_RATE,
            oc48=True,
            bench_seed=derive_seed(seed, "fluid-day"),
        )
        gen = scenarios._workload(spec)
        return {"spec": spec, "schedule": gen.schedule(), "digest": gen.digest()}

    def expected(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return {"sessions": len(inputs["schedule"]), "digest": inputs["digest"]}

    def run(self, inputs: dict[str, Any], phase: Phase = no_phase) -> FluidOutcome:
        from repro.fluid import FluidEngine
        from repro.harness import scenarios
        from repro.util.units import MBYTE

        spec = inputs["spec"]
        with phase("build.op"):
            eng = FluidEngine(
                scenarios._testbed(spec).net,
                ip=scenarios._ip(spec),
                window_bytes=int(spec.get("window_mbytes", 8)) * MBYTE,
            )
            eng.offer(inputs["schedule"])
        with phase("fluid.run"):
            eng.run()
        return FluidOutcome(
            arrived=eng.arrived,
            completed=eng.completed,
            resolves=eng.resolves,
            peak_active=eng.peak_active,
            end_time=eng.now,
        )

    def check(self, outcome: FluidOutcome, expected: dict[str, Any]) -> list[str]:
        problems = []
        n = expected["sessions"]
        if outcome.arrived != n:
            problems.append(f"{outcome.arrived} of {n} sessions arrived")
        if len(outcome.completed) != outcome.arrived:
            problems.append(
                f"{len(outcome.completed)} completed != {outcome.arrived} arrived"
            )
        if _completed_digest(outcome.completed) != expected["digest"]:
            problems.append("completed sessions do not match the schedule digest")
        return problems

    def fingerprint(self, outcome: FluidOutcome) -> str:
        return digest_of((
            [(c.name, c.arrived, c.completed) for c in outcome.completed],
            outcome.resolves,
            outcome.peak_active,
            outcome.end_time,
        ))

    def work(self, outcome: FluidOutcome) -> int:
        return len(outcome.completed)

    def layer_counts(self, outcome: FluidOutcome, expected) -> dict[str, float]:
        return {
            "fluid.resolves": outcome.resolves,
            "fluid.peak_active": outcome.peak_active,
        }


# -- fMRI workload ------------------------------------------------------------

FMRI_FRAMES = 40
#: How far an RVO site fit may sit from the phantom's truth (seconds);
#: the delay tolerance is the one tests/test_integration.py uses.
FMRI_FIT_TOLERANCE = 1.5


@dataclass
class FmriOutcome:
    frames: list  #: ProcessedFrame per acquisition
    frame_s: list  #: host seconds per frame (fetch + process)
    images_served: int
    fits: list  #: (delay, dispersion) per activation site
    motion: list  #: estimated motion magnitude per corrected frame
    rpc_msgs: int
    rpc_bytes: int
    rvo: Any = field(repr=False, default=None)


@dataclass
class FmriSession(Workload):
    """Section 4: realtime FIRE chain, then RVO on the 'T3E' over RPC."""

    name: str = "fmri_session"
    n_frames: int = FMRI_FRAMES
    work_unit: ClassVar[str] = "frames"

    def inputs(self, seed: int) -> dict[str, Any]:
        from repro.fire import ScannerConfig

        config = ScannerConfig(
            n_frames=self.n_frames,
            noise_sigma=3.0,
            motion_amplitude=0.5,
            seed=derive_seed(seed, "scanner-noise"),
        )
        return {"config": config}

    def expected(self, inputs: dict[str, Any]) -> dict[str, Any]:
        from repro.fire import HeadPhantom

        sites = [(s.delay, s.dispersion) for s in HeadPhantom().sites]
        return {
            "frames": inputs["config"].n_frames,
            "sites": sites,
            "tolerance": FMRI_FIT_TOLERANCE,
        }

    def run(self, inputs: dict[str, Any], phase: Phase = no_phase) -> FmriOutcome:
        import numpy as np

        from repro.core import RpcClient, RpcServer
        from repro.fire import (
            HeadPhantom,
            ModuleFlags,
            RTClient,
            RTServer,
            SimulatedScanner,
        )
        from repro.fire import rt
        from repro.machines import CRAY_T3E_600, SGI_ONYX2_GMD
        from repro.metampi import MetaMPI

        config = inputs["config"]
        with phase("build.op"):
            phantom = HeadPhantom()
            scanner = SimulatedScanner(phantom, config)
            server = RTServer(scanner)
            client = RTClient(server, flags=ModuleFlags(rvo=False))
        frames = []
        frame_s = []
        clock = time.perf_counter
        with phase("fire.frames"):
            for i in range(config.n_frames):
                t0 = clock()
                frames.append(client.process_frame(server.get_image(i)))
                frame_s.append(clock() - t0)

        with phase("metampi.session"):
            ts = np.stack(client.processed)
            stimulus = scanner.stimulus
            mask = phantom.brain_mask()
            outcome: dict[str, Any] = {}

            def program(comm):
                if comm.rank == 0:  # the T3E side
                    server_rpc = RpcServer(comm, peer=1)
                    server_rpc.register(
                        "rvo",
                        lambda: rt.rvo_raster(ts, stimulus, tr=config.tr, mask=mask),
                    )
                    return server_rpc.serve()
                proxy = RpcClient(comm, peer=0)  # the RT-client side
                outcome["rvo"] = proxy.rvo()
                proxy.shutdown()
                return None

            mc = MetaMPI(wallclock_timeout=120)
            mc.add_machine(CRAY_T3E_600, ranks=1)
            mc.add_machine(SGI_ONYX2_GMD, ranks=1)
            mc.run(program)
        rvo = outcome["rvo"]
        traffic = mc.runtime.traffic_summary()
        scopes = [s for label in traffic.values() for s in label.values()]
        return FmriOutcome(
            frames=frames,
            frame_s=frame_s,
            images_served=server.images_served,
            fits=[
                rvo.best_site_parameters(site.mask(phantom.shape))
                for site in phantom.sites
            ],
            motion=[m.magnitude for m in client.motion_track],
            rpc_msgs=int(sum(s["messages"] for s in scopes)),
            rpc_bytes=int(sum(s["bytes"] for s in scopes)),
            rvo=rvo,
        )

    def check(self, outcome: FmriOutcome, expected: dict[str, Any]) -> list[str]:
        problems = []
        n = expected["frames"]
        if len(outcome.frames) != n or outcome.images_served != n:
            problems.append(
                f"processed {len(outcome.frames)} / served "
                f"{outcome.images_served} of {n} frames"
            )
        if len(outcome.fits) != len(expected["sites"]):
            problems.append("RVO returned the wrong number of site fits")
        tol = expected["tolerance"]
        for i, ((d, s), (d0, s0)) in enumerate(zip(outcome.fits, expected["sites"])):
            if not (abs(d - d0) <= tol and abs(s - s0) <= tol):
                problems.append(
                    f"site {i}: fit ({d:.2f}, {s:.2f}) s is not within "
                    f"{tol} s of the truth ({d0}, {s0})"
                )
        return problems

    def fingerprint(self, outcome: FmriOutcome) -> str:
        h = hashlib.sha256()
        for frame in outcome.frames:
            h.update(frame.correlation.tobytes())
            h.update(repr(frame.active_voxels).encode())
        rvo = outcome.rvo
        for array in (rvo.correlation, rvo.delay, rvo.dispersion):
            h.update(array.tobytes())
        h.update(repr((outcome.fits, outcome.motion, outcome.rpc_bytes)).encode())
        return h.hexdigest()

    def work(self, outcome: FmriOutcome) -> int:
        return len(outcome.frames)

    def sample(self, outcome: FmriOutcome) -> list[float]:
        return outcome.frame_s

    def report(self, samples: list) -> dict[str, tuple[float, str]]:
        frame_ms = [s * 1e3 for frame_s in samples for s in frame_s]
        return {
            "frame_ms_p50": (percentile(frame_ms, 0.50), "ms"),
            "frame_ms_p75": (percentile(frame_ms, 0.75), "ms"),
        }

    def layer_counts(self, outcome: FmriOutcome, expected) -> dict[str, float]:
        return {
            "metampi.msgs": outcome.rpc_msgs,
            "metampi.bytes": outcome.rpc_bytes,
        }


WORKLOADS: dict[str, Any] = {
    "packet_mix": PacketMix("packet_mix"),
    "packet_mix_sharded": PacketMix("packet_mix_sharded", shards=2),
    "fluid_day": FluidDay(),
    "fmri_session": FmriSession(),
}


def get(name: str) -> Any:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})"
        ) from None


__all__ = [
    "WORKLOADS",
    "derive_seed",
    "divergence",
    "flow_results",
    "get",
    "no_phase",
    "percentile",
]
