#!/usr/bin/env python3
"""Run one benchmark workload in a closed loop and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload packet_mix --seed 1 --seconds 24 --trace 0

One process runs complete simulations back to back (a closed loop with a
single client) for ``--seconds`` of host time, checks every operation's
outcome, and prints a readable report followed, as its last line, by one
JSON object::

    {"correct": true, "attempted": 17, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, timed with tracing off.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics from the traced ones (see ``perfbench/tracer.py``),
checking that traced and untraced outcomes are identical.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics (name -> unit), reported with ``--trace 0``.
END_TO_END = {
    "norm_wall_s": "s",
    "norm_work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (name -> unit), reported with ``--trace 1``.
PER_LAYER = {
    "sim.entries": "count",
    "sim.entry_reuse_ratio": "ratio",
    "sim.self_s": "s",
    "sim.ns_per_entry": "ns",
    "netsim.link.hops": "count",
    "netsim.link.ns_per_hop": "ns",
    "netsim.link.drops": "count",
    "netsim.switch.forwards": "count",
    "netsim.switch.ns_per_forward": "ns",
    "netsim.gateway.services": "count",
    "netsim.gateway.ns_per_service": "ns",
    "netsim.host.stage_ops": "count",
    "netsim.host.ns_per_stage_op": "ns",
    "netsim.tcp.segments_sent": "count",
    "netsim.tcp.retransmits": "count",
    "netsim.tcp.timeouts": "count",
    "netsim.tcp.useful_ratio": "ratio",
    "netsim.tcp.ns_per_segment": "ns",
    "netsim.drr.ops": "count",
    "netsim.drr.ns_per_op": "ns",
    "netsim.route.lookups": "count",
    "netsim.route.s": "s",
    "shard.rounds": "count",
    "shard.horizon_jumps": "count",
    "shard.stall_ratio": "ratio",
    "shard.msgs": "count",
    "shard.bytes": "B",
    "shard.window_s": "s",
    "shard.barrier_s": "s",
    "shard.us_per_round": "us",
    "fluid.resolves": "count",
    "fluid.us_per_resolve": "us",
    "fluid.resolve_share": "ratio",
    "fluid.peak_active": "count",
    "fire.median_ms": "ms",
    "fire.motion_est_ms": "ms",
    "fire.motion_corr_ms": "ms",
    "fire.correlate_ms": "ms",
    "fire.scan_gen_ms": "ms",
    "fire.rvo_ms": "ms",
    "metampi.msgs": "count",
    "metampi.bytes": "B",
    "metampi.rpc_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

#: Fresh-interpreter set-ups timed per run, spread over its operations;
#: ``setup_s`` is their median.
SETUP_PROBES = 11
#: Share of a run's measured time spent on host reference probes.
HOSTREF_SHARE = 0.3
#: An operation running longer than this has stalled and fails.
OP_LIMIT_S = 60.0


class OpStalled(RuntimeError):
    """An operation exceeded :data:`OP_LIMIT_S` of host time."""


@contextlib.contextmanager
def op_limit(seconds: float):
    """Raise :class:`OpStalled` in the main thread after ``seconds``."""

    def alarm(_signum, _frame):
        raise OpStalled(f"operation exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_program() -> None:
    """Put the checkout's ``src/`` and root first on the import path and
    make sure ``repro`` resolves there, not to some installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    for path in (str(ROOT), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def setup_probe(name: str, seed: int) -> float:
    """Host seconds for the program's imports plus input construction."""
    from perfbench import workloads

    t0 = time.perf_counter()
    workload = workloads.get(name)
    workload.expected(workload.inputs(seed))
    return time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter (imports are cold)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        name,
        "--seed",
        str(seed),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed-loop runner: runs, times and checks operations."""

    def __init__(self, workload, inputs, expected):
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None  #: first passing operation's fingerprint
        self.first = None  #: first passing outcome's comparable results

    def op(self, phase=None, wrap=contextlib.nullcontext):
        """Run one operation; return (outcome or None, host seconds).

        ``phase`` records coarse phases and ``wrap`` encloses the
        operation (both used by the traced run).
        """
        from perfbench.workloads import no_phase

        self.attempted += 1
        workload = self.workload
        t0 = time.perf_counter()
        try:
            with op_limit(OP_LIMIT_S), wrap():
                outcome = workload.run(self.inputs, phase=phase or no_phase)
            wall = time.perf_counter() - t0
            problems = workload.check(outcome, self.expected)
            fingerprint = workload.fingerprint(outcome)
        except Exception as exc:  # one failed op must not end the run
            wall = time.perf_counter() - t0
            outcome = None
            problems = [f"raised {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        else:
            if self.fingerprint is None and not problems:
                self.fingerprint = fingerprint
                self.first = workload.comparable(outcome)
            elif self.fingerprint not in (None, fingerprint):
                problems.append("outcome differs from the run's first operation")
        if problems:
            self.failed += 1
            failure = "; ".join(problems)
            print(f"# op {self.attempted} FAILED: {failure}", file=sys.stderr)
            return None, wall
        return outcome, wall


def run_untraced(loop: Loop, seconds: float, probe=None, hostref=None) -> dict:
    """Operations until ``seconds`` have passed; end-to-end metrics.

    ``wall_s`` is the median operation; ``work_per_s`` is the work the
    passing operations completed over the host time they took.
    ``hostref``, if given, times the fixed reference work of
    :func:`perfbench.hostref.probe` between operations, as often as
    keeps it at :data:`HOSTREF_SHARE` of the run; ``norm_wall_s`` and
    ``norm_work_per_s`` are ``wall_s`` and ``work_per_s`` rescaled by
    the median reference time to a host where it takes
    :data:`perfbench.hostref.NOMINAL_S`.  This takes the shared host's
    drift out of the run (see ``STEADINESS.md``).  Reference time
    counts towards ``seconds``.
    ``peak_rss_mb`` is read after the first operation: over repeated
    ``fmri_session`` operations the peak jumps by ~30 MB at random, as
    the rank threads' malloc arenas keep freed memory.  ``probe``, if
    given, times one set-up; :data:`SETUP_PROBES` of them run between
    operations, spread over the run so they see the same host as the
    operations, and ``setup_s`` is their median.  Probe time does not
    count towards ``seconds``.
    """
    from perfbench.hostref import NOMINAL_S

    walls, samples, setups, refs = [], [], [], []
    work = work_s = probe_s = 0.0
    rss = None
    if hostref is not None:
        hostref()  # warm-up: the first probe in a process runs slower
    start = time.perf_counter()
    while True:
        outcome, wall = loop.op()
        walls.append(wall)
        if outcome is not None:
            work += loop.workload.work(outcome)
            work_s += wall
            samples.append(loop.workload.sample(outcome))
            del outcome
        if rss is None:
            rss = peak_rss_mb()
        while hostref is not None and sum(refs) < HOSTREF_SHARE * (
            time.perf_counter() - start - probe_s
        ):
            refs.append(hostref())
        elapsed = time.perf_counter() - start - probe_s
        if probe is not None:
            share = min(1.0, elapsed / seconds) if seconds > 0 else 1.0
            t0 = time.perf_counter()
            while len(setups) < -(-SETUP_PROBES * share // 1):
                setups.append(probe())
            probe_s += time.perf_counter() - t0
        if elapsed >= seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "work_per_s": work / work_s if work_s else 0.0,
        "peak_rss_mb": rss,
    }
    unit = loop.workload.work_unit
    print(f"# {'wall_s':<18} {metrics['wall_s']:.4f} s  (median of {len(walls)} ops)")
    print(f"# {unit + '_per_s':<18} {metrics['work_per_s']:.1f} 1/s  (host time)")
    if refs:
        ref_s = statistics.median(refs)
        scale = NOMINAL_S / ref_s
        metrics["norm_wall_s"] = metrics["wall_s"] * scale
        metrics["norm_work_per_s"] = metrics["work_per_s"] / scale
        print(
            f"# {'hostref_s':<18} {ref_s:.4f} s  (median of {len(refs)} "
            f"reference probes; {NOMINAL_S:g} s on the nominal host)"
        )
        print(f"# {'norm_wall_s':<18} {metrics['norm_wall_s']:.4f} s")
        print(
            f"# {'norm_work_per_s':<18} {metrics['norm_work_per_s']:.1f} 1/s  "
            f"(host-normalised {unit}_per_s)"
        )
    print(
        f"# {'peak_rss_mb':<18} {metrics['peak_rss_mb']:.1f} MB  "
        "(after the first op)"
    )
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        print(
            f"# {'setup_s':<18} {metrics['setup_s']:.4f} s  (median of "
            f"{len(setups)} fresh-interpreter set-ups between ops)"
        )
    extra = loop.workload.report(samples) if samples else {}
    for name, (value, extra_unit) in extra.items():
        print(f"# {name:<18} {value:.3f} {extra_unit}")
    ref = loop.workload.reference_divergence(loop.inputs, loop.first)
    if ref is not None:
        differ, total = ref
        print(
            f"# {'ref_divergence':<18} {differ / total:.4f}  ({differ} of {total} "
            "per-flow values differ from the fast_path=False unsharded reference)"
        )
    return metrics


def run_traced(loop: Loop, seconds: float) -> dict:
    """Alternate untraced and traced operations; per-layer metrics."""
    from perfbench import tracer as tr

    tracer = tr.Tracer()
    with tracer:  # calibrate once, outside every timed operation
        pass

    @contextlib.contextmanager
    def traced_op():
        tracer.reset()
        with tracer, tracer.span("op"):
            yield

    plain, traced, per_op, layers, closure = [], [], [], {}, []
    start = time.perf_counter()
    while True:
        tracing = len(plain) > len(traced)
        if not tracing:
            outcome, wall = loop.op()
            plain.append(wall)
        else:
            outcome, wall = loop.op(phase=tracer.span, wrap=traced_op)
            traced.append(wall)
        if tracing and outcome is not None:
            counts = loop.workload.layer_counts(outcome, loop.expected)
            frames = len(getattr(outcome, "frames", ()))
            metrics = tr.per_layer_metrics(
                tracer.stats(), tracer.envs, counts, wall, frames
            )
            main = tracer.main_stats()
            metrics["trace.unattributed_share"] = tr.unattributed_share(main)
            per_op.append(metrics)
            layer_ns = tr.layer_self_ns(main)
            for layer, ns in layer_ns.items():
                layers.setdefault(layer, []).append(ns / 1e9 / wall)
            closure.append(sum(layer_ns.values()) / 1e9)
        del outcome
        if traced and time.perf_counter() - start >= seconds:
            break

    metrics = {
        name: statistics.median(m[name] for m in per_op) if per_op else 0.0
        for name in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    plain_s = statistics.median(plain)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / plain_s
    print(
        f"# {len(plain)} untraced + {len(traced)} traced ops; tracing cost "
        f"subtracted from parents: {tracer.wrap_cost_ns:.0f} ns per wrapped "
        f"call, {tracer.dispatch_cost_ns:.0f} ns per dispatch"
    )
    print("# self time per layer, share of the traced op wall:")
    for layer, shares in sorted(layers.items(), key=lambda kv: -max(kv[1])):
        print(f"#   {layer:<10} {statistics.median(shares):7.2%}")
    if closure:
        ratio = statistics.median(closure) / plain_s
        print(f"# layer self times sum to {ratio:.2f}x the untraced op wall")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from perfbench import workloads

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    workload = workloads.get(args.workload)
    inputs = workload.inputs(args.seed)
    loop = Loop(workload, inputs, workload.expected(inputs))
    print(
        f"# perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    if args.trace:
        metrics, units = run_traced(loop, args.seconds), PER_LAYER
    else:
        from perfbench import hostref

        probe = functools.partial(probe_setup, args.workload, args.seed)
        metrics = run_untraced(loop, args.seconds, probe, hostref.probe)
        units = END_TO_END
    print(
        f"# {'failed_ratio':<18} {loop.failed / loop.attempted:.4f}  "
        f"({loop.failed} of {loop.attempted} ops failed)"
    )
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
