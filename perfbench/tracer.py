"""Outside-in tracing: spans around the program's layer entry points.

Nothing here changes the program's files.  While a :class:`Tracer` is
installed it replaces, on the classes and module bindings the program
looks up at call time,

* ``Environment.run`` / ``advance`` with loops that dispatch the same
  entries in the same order and recycle them the same way, timing each
  dispatched callback under a label naming its owner's module and class;
* ``Environment.schedule`` / ``call_at`` / ``call_later`` (engine
  scheduling cost, charged to the engine);
* the layer entry points: ``Link.send`` (calls from a ``Switch`` are
  switch forwards, since folded switch arrivals bypass
  ``Switch.receive``), ``Host.send`` / ``receive``, ``Gateway.receive``,
  the ``DrrScheduler`` operations, ``Network.route_link``, the TCP sinks,
  ``max_min_rates`` where :mod:`repro.fluid.engine` binds it, the
  :mod:`repro.fire.rt` module bindings, ``SimulatedScanner.frame`` and
  ``RpcClient.call``;

and restores every original on :meth:`Tracer.uninstall`.

A span's self time is its duration minus the time its child spans
cover.  Spans are aggregated per label in memory (count, total, self),
one table per thread so rank threads never contend, and merged when the
run ends.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable

_clock = time.perf_counter_ns

#: Calibration: no-op children per trial, and trials (the minimum wins).
CALIBRATE_CHILDREN = 20000
CALIBRATE_REPEATS = 5


class _Threadlocal(threading.local):
    """Per-thread span stacks and stats table (rank threads never share).

    The open-span stacks hold plain ints (time and count of each open
    span's closed children), so recording a span allocates no container
    the garbage collector would have to scan.
    """

    def __init__(self, tables: list):
        self.child_ns: list[int] = []
        self.children: list[int] = []
        #: label -> [count, total_ns, self_ns, direct_children]
        self.stats: dict[str, list[int]] = {}
        tables.append(self.stats)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self._tables: list[dict[str, list[int]]] = []
        self._local = _Threadlocal(self._tables)
        self._patches: list[tuple[Any, str, Any]] = []
        self._labels: dict[Any, str] = {}
        #: tracing cost a parent span absorbs per direct child (ns):
        #: per wrapped call, and per dispatched engine entry
        self.wrap_cost_ns = 0.0
        self.dispatch_cost_ns = 0.0
        self._calibrated = False
        #: environments created while installed
        self.envs: list[Any] = []

    # -- spans ----------------------------------------------------------------
    def _open(self) -> None:
        local = self._local
        local.child_ns.append(0)
        local.children.append(0)

    def _close(self, label: str, dur: int) -> None:
        local = self._local
        child_ns = local.child_ns
        children = local.children
        own = dur - child_ns.pop()
        kids = children.pop()
        if child_ns:
            child_ns[-1] += dur
            children[-1] += 1
        rec = local.stats.get(label)
        if rec is None:
            rec = local.stats[label] = [0, 0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += own
        rec[3] += kids

    @contextlib.contextmanager
    def span(self, label: str):
        """Record the ``with`` body as one span (coarse phases)."""
        self._open()
        t0 = _clock()
        try:
            yield
        finally:
            self._close(label, _clock() - t0)

    def wrap(self, label: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``label``."""
        local = self._local

        def traced(*args, **kwargs):
            local.child_ns.append(0)
            local.children.append(0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # _close inlined: a traced packet op closes ~750k spans
                dur = _clock() - t0
                child_ns = local.child_ns
                children = local.children
                own = dur - child_ns.pop()
                kids = children.pop()
                if child_ns:
                    child_ns[-1] += dur
                    children[-1] += 1
                rec = local.stats.get(label)
                if rec is None:
                    rec = local.stats[label] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
                rec[3] += kids

        traced.__wrapped__ = fn
        return traced

    def stats(self) -> dict[str, tuple[int, int, int]]:
        """Merged ``label -> (count, total_ns, self_ns)`` over threads.

        Self time is corrected for the tracing cost each span absorbed
        from its direct children (calibrated by :meth:`calibrate`).
        """
        out: dict[str, list[int]] = {}
        for table in self._tables:
            for label, (n, total, own, children) in list(table.items()):
                loop = label in _LOOP_LABELS
                cost = self.dispatch_cost_ns if loop else self.wrap_cost_ns
                rec = out.setdefault(label, [0, 0, 0])
                rec[0] += n
                rec[1] += total
                rec[2] += max(0, int(own - children * cost))
        return {k: tuple(v) for k, v in out.items()}

    def main_stats(self) -> dict[str, tuple[int, int, int]]:
        """:meth:`stats` restricted to the thread that created the tracer,
        whose spans tile the operation (rank threads run while it waits)."""
        tables, self._tables = self._tables, self._tables[:1]
        try:
            return self.stats()
        finally:
            self._tables = tables

    def reset(self) -> None:
        for table in self._tables:
            table.clear()
        self.envs.clear()

    def calibrate(self) -> None:
        """Measure the tracing cost a parent absorbs per direct child.

        A wrapped no-op call costs its caller the wrapper's bookkeeping;
        a dispatched no-op entry costs the traced loop its labelling and
        bookkeeping on top of what the untraced loop spends.  Both are
        taken as the minimum over :data:`CALIBRATE_REPEATS` trials of
        :data:`CALIBRATE_CHILDREN` children.
        Must run while installed.
        """
        from repro.sim.engine import Environment

        n = CALIBRATE_CHILDREN

        class Probe:
            def noop(self, *_args) -> None:
                pass

        noop = Probe().noop
        wrapped = self.wrap("calibrate.child", noop)
        plain_run = next(
            orig
            for owner, attr, orig in self._patches
            if owner is Environment and attr == "run"
        )

        def parent_self(fn) -> int:
            self.reset()
            with self.span("calibrate.parent"):
                for _ in range(n):
                    fn()
            return self._local.stats["calibrate.parent"][2]

        def loaded_env():
            env = Environment()
            for _ in range(n):
                env.call_later(0.0, noop)
            self.reset()
            return env

        def traced_loop_self() -> int:
            env = loaded_env()
            env.run()
            return self._local.stats["sim.run"][2]

        def plain_loop_ns() -> int:
            env = loaded_env()
            t0 = _clock()
            plain_run(env)
            return _clock() - t0

        trials = range(CALIBRATE_REPEATS)
        wrap_ns = min(parent_self(wrapped) - parent_self(noop) for _ in trials)
        loop_ns = min(traced_loop_self() - plain_loop_ns() for _ in trials)
        self.wrap_cost_ns = max(0.0, wrap_ns / n)
        self.dispatch_cost_ns = max(0.0, loop_ns / n)
        self.reset()

    # -- callback labels ------------------------------------------------------
    def _owner_label(self, obj: Any, args: Any) -> str:
        """``cb:<module>.<Class>.<function>`` for a dispatched entry."""
        if args is None:
            # An Event firing: label it by the first process it resumes.
            callbacks = obj.callbacks
            if callbacks:
                return self._owner_label(callbacks[0], ())
            cls = type(obj)
            return f"cb:{cls.__module__}.{cls.__qualname__}._fire"
        owner = getattr(obj, "__self__", None)
        func = getattr(obj, "__func__", None)
        if owner is not None and func is not None:
            gen = getattr(owner, "_generator", None)
            if gen is not None:  # a Process resume: name the generator
                key = gen.gi_code
                label = self._labels.get(key)
                if label is None:
                    frame = gen.gi_frame
                    module = frame.f_globals.get("__name__", "?") if frame else "?"
                    label = f"cb:{module}.{gen.__qualname__}"
                    self._labels[key] = label
                return label
            key = (type(owner), func)
            label = self._labels.get(key)
            if label is None:
                cls = type(owner)
                label = f"cb:{cls.__module__}.{cls.__qualname__}.{func.__name__}"
                self._labels[key] = label
            return label
        inner = getattr(obj, "func", None)  # functools.partial
        if inner is not None:
            return self._owner_label(inner, ())
        module = getattr(obj, "__module__", None) or "?"
        qual = getattr(obj, "__qualname__", None) or type(obj).__qualname__
        return f"cb:{module}.{qual}"

    # -- the engine loop ------------------------------------------------------
    def _traced_loops(self, engine_mod, events_mod):
        """Replacements for ``Environment.run`` and ``advance``.

        The loops pop, recycle and dispatch exactly as the originals do
        (same order, same arena bookkeeping); each dispatch is a span.
        """
        from heapq import heappop

        Event = events_mod.Event
        SimulationError = engine_mod.SimulationError
        pool_max = engine_mod._POOL_MAX
        label_of = self._owner_label
        local = self._local

        def dispatch_one(env, queue, pool) -> None:
            entry = heappop(queue)
            env._now = entry[0]
            obj = entry[2]
            args = entry[3]
            entry[2] = entry[3] = None
            if len(pool) < pool_max:
                pool.append(entry)
            label = label_of(obj, args)
            child_ns = local.child_ns
            children = local.children
            child_ns.append(0)
            children.append(0)
            t0 = _clock()
            try:
                if args is None:
                    obj._fire()
                else:
                    obj(*args)
            finally:
                dur = _clock() - t0
                own = dur - child_ns.pop()
                kids = children.pop()
                child_ns[-1] += dur  # the enclosing sim.run/advance span
                children[-1] += 1
                stats = local.stats
                rec = stats.get(label)
                if rec is None:
                    rec = stats[label] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
                rec[3] += kids

        def run(env, until=None):
            queue = env._queue
            pool = env._pool
            if until is None:
                while queue:
                    dispatch_one(env, queue, pool)
                return None
            if isinstance(until, Event):
                while not until._processed:
                    if not queue:
                        raise SimulationError(
                            "event queue drained before the awaited event fired"
                        )
                    dispatch_one(env, queue, pool)
                if until._ok is False:
                    raise until._value
                return until._value
            horizon = float(until)
            if horizon < env._now:
                raise SimulationError("cannot run() backwards in time")
            while queue and queue[0][0] <= horizon:
                dispatch_one(env, queue, pool)
            env._now = horizon
            return None

        def advance(env, horizon):
            if horizon < env._now:
                raise SimulationError("cannot advance() backwards in time")
            queue = env._queue
            pool = env._pool
            dispatched = 0
            while queue and queue[0][0] <= horizon:
                dispatch_one(env, queue, pool)
                dispatched += 1
            env._now = horizon
            return dispatched

        return self.wrap("sim.run", run), self.wrap("sim.advance", advance)

    # -- installation ---------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_attr(self, owner: Any, attr: str, label: str) -> None:
        self._patch(owner, attr, self.wrap(label, getattr(owner, attr)))

    def _tracking_init(self, cls: Any, into: list) -> None:
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)

        self._patch(cls, "__init__", __init__)

    def install(self) -> "Tracer":
        """Patch the program's entry points (undo with :meth:`uninstall`)."""
        from repro.core import rpc
        from repro.fire import rt, scanner
        from repro.fluid import engine as fluid_engine
        from repro.netsim import core, flows, sched
        from repro.shard import runner
        from repro.sim import engine, events

        Env = engine.Environment
        run, advance = self._traced_loops(engine, events)
        self._patch(Env, "run", run)
        self._patch(Env, "advance", advance)
        for attr in ("schedule", "call_at", "call_later"):
            self._wrap_attr(Env, attr, "sim.schedule")
        self._tracking_init(Env, self.envs)

        # Link.send: a call from a Switch is that switch's forward.
        send = core.Link.send
        switch_cls = core.Switch
        link_send = self.wrap("netsim.link.send", send)
        switch_send = self.wrap("netsim.switch.forward", send)

        def traced_send(link, from_node, packet):
            if type(from_node) is switch_cls:
                return switch_send(link, from_node, packet)
            return link_send(link, from_node, packet)

        self._patch(core.Link, "send", traced_send)
        self._wrap_attr(core.Host, "send", "netsim.host.send")
        self._wrap_attr(core.Host, "receive", "netsim.host.receive")
        self._wrap_attr(core.Gateway, "receive", "netsim.gateway.receive")
        for op in _DRR_OPS:
            self._wrap_attr(sched.DrrScheduler, op, "netsim.drr." + op)
        self._wrap_attr(core.Network, "route_link", "netsim.route.route_link")
        # TCP's delivery entry points (bound as host sinks at construction).
        self._wrap_attr(flows.BulkTransfer, "_on_data", "netsim.tcp.on_data")
        self._wrap_attr(flows.BulkTransfer, "_on_ack", "netsim.tcp.on_ack")
        # The sharded runner's per-op phases, via its module bindings.
        self._wrap_attr(runner, "build_workload", "build.workload")
        self._wrap_attr(runner, "partition_network", "shard.partition")
        self._wrap_attr(runner, "inject_arrivals", "shard.inject")
        # Fluid re-solve where the engine binds it.
        self._wrap_attr(fluid_engine, "max_min_rates", "fluid.max_min_rates")
        # FIRE: the RT-client's module bindings, plus scan generation.
        self._wrap_attr(rt, "median_filter3d", "fire.median")
        self._wrap_attr(rt, "estimate_motion", "fire.motion_est")
        self._wrap_attr(rt, "correct_motion", "fire.motion_corr")
        self._wrap_attr(rt, "rvo_raster", "fire.rvo")
        analyzer = rt.CorrelationAnalyzer
        traced_analyzer = {
            "update": self.wrap("fire.correlate", analyzer.update),
            "correlation": self.wrap("fire.correlate", analyzer.correlation),
        }
        subclass = type(analyzer.__name__, (analyzer,), traced_analyzer)
        self._patch(rt, "CorrelationAnalyzer", subclass)
        self._wrap_attr(scanner.SimulatedScanner, "frame", "fire.scan_gen")
        self._wrap_attr(rpc.RpcClient, "call", "metampi.rpc")
        if not self._calibrated:
            self.calibrate()
            self._calibrated = True
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


#: The DrrScheduler operations traced as ``netsim.drr.<op>``.
_DRR_OPS = (
    "put_nowait",
    "dequeue",
    "get",
    "claim",
    "commit_claim",
    "restore_front",
    "clear",
)


# -- layer attribution --------------------------------------------------------

#: Spans whose direct children are dispatched engine entries.
_LOOP_LABELS = frozenset({"sim.run", "sim.advance"})

#: Owner class (``module.Class``) of a dispatched callback -> layer.
_CALLBACK_LAYERS = {
    "repro.netsim.core.Link": "link",
    "repro.shard.boundary.ShardCutLink": "link",
    "repro.netsim.core.Switch": "switch",
    "repro.netsim.core.Gateway": "gateway",
    "repro.netsim.core.Host": "host",
    "repro.netsim.core._SerialStage": "host",
    "repro.netsim.core._TandemStage": "host",
    "repro.netsim.flows.BulkTransfer": "tcp",
    "repro.netsim.sched.DrrScheduler": "drr",
}


def layer_of(label: str) -> str:
    """The layer a span label's self time is charged to."""
    if not label.startswith("cb:"):
        head = label.split(".")
        if head[0] == "netsim":
            return head[1]
        return head[0]
    path = label[3:]
    if path.endswith("._sw_arrive"):  # folded switch arrival + forward
        return "switch"
    parts = path.split(".")
    for cut in range(len(parts) - 1, 1, -1):
        layer = _CALLBACK_LAYERS.get(".".join(parts[:cut]))
        if layer is not None:
            return layer
    return "other"


def layer_self_ns(stats: dict[str, tuple[int, int, int]]) -> dict[str, int]:
    """Self nanoseconds per layer."""
    out: dict[str, int] = {}
    for label, (_n, _total, own) in stats.items():
        layer = layer_of(label)
        out[layer] = out.get(layer, 0) + own
    return out


def count(stats, *labels: str) -> int:
    return sum(stats[label][0] for label in labels if label in stats)


def total_ns(stats, *labels: str) -> int:
    return sum(stats[label][1] for label in labels if label in stats)


def prefixed(stats, prefix: str) -> list[str]:
    return [label for label in stats if label.startswith(prefix)]


def engine_counts(envs: list) -> tuple[int, int]:
    """(entries scheduled, entries that needed a fresh allocation)."""
    return (
        sum(env.scheduled_count for env in envs),
        sum(env.pool_allocs for env in envs),
    )


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    stats: dict[str, tuple[int, int, int]],
    envs: list,
    counts: dict[str, float],
    op_wall_s: float,
    frames: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``counts`` are the workload's own end-state counters (link hops, TCP
    segments, shard statistics, fluid and metampi totals); ``frames`` is
    the number of fMRI frames the per-frame FIRE times divide by.
    Metrics of layers the operation never entered read 0.
    """
    own = layer_self_ns(stats)
    entries, allocs = engine_counts(envs)
    hops = counts.get("netsim.link.hops", 0)
    forwards = count(stats, "netsim.switch.forward")
    services = count(stats, "netsim.gateway.receive")
    stage_ops = count(stats, "netsim.host.send", "netsim.host.receive")
    segments = counts.get("netsim.tcp.segments_sent", 0)
    drr_ops = count(stats, *prefixed(stats, "netsim.drr."))
    resolves = count(stats, "fluid.max_min_rates")
    resolve_ns = total_ns(stats, "fluid.max_min_rates")
    rounds = counts.get("shard.rounds", 0)
    window_s = counts.get("shard.window_s", 0.0)
    barrier_s = 0.0
    if rounds:
        build_s = total_ns(stats, "build.workload") / 1e9
        barrier_s = max(0.0, counts["shard.wall_s"] - window_s - build_s)
    per_frame_ms = 1e-6 / frames if frames else 0.0

    return {
        "sim.entries": entries,
        "sim.entry_reuse_ratio": ratio(entries - allocs, entries),
        "sim.self_s": own.get("sim", 0) / 1e9,
        "sim.ns_per_entry": ratio(own.get("sim", 0), entries),
        "netsim.link.hops": hops,
        "netsim.link.ns_per_hop": ratio(own.get("link", 0), hops),
        "netsim.link.drops": counts.get("netsim.link.drops", 0),
        "netsim.switch.forwards": forwards,
        "netsim.switch.ns_per_forward": ratio(own.get("switch", 0), forwards),
        "netsim.gateway.services": services,
        "netsim.gateway.ns_per_service": ratio(own.get("gateway", 0), services),
        "netsim.host.stage_ops": stage_ops,
        "netsim.host.ns_per_stage_op": ratio(own.get("host", 0), stage_ops),
        "netsim.tcp.segments_sent": segments,
        "netsim.tcp.retransmits": counts.get("netsim.tcp.retransmits", 0),
        "netsim.tcp.timeouts": counts.get("netsim.tcp.timeouts", 0),
        "netsim.tcp.useful_ratio": counts.get("netsim.tcp.useful_ratio", 0.0),
        "netsim.tcp.ns_per_segment": ratio(own.get("tcp", 0), segments),
        "netsim.drr.ops": drr_ops,
        "netsim.drr.ns_per_op": ratio(own.get("drr", 0), drr_ops),
        "netsim.route.lookups": count(stats, "netsim.route.route_link"),
        "netsim.route.s": total_ns(stats, "netsim.route.route_link") / 1e9,
        "shard.rounds": rounds,
        "shard.horizon_jumps": counts.get("shard.horizon_jumps", 0),
        "shard.stall_ratio": counts.get("shard.stall_ratio", 0.0),
        "shard.msgs": counts.get("shard.msgs", 0),
        "shard.bytes": counts.get("shard.bytes", 0),
        "shard.window_s": window_s,
        "shard.barrier_s": barrier_s,
        "shard.us_per_round": ratio(barrier_s * 1e6, rounds),
        "fluid.resolves": counts.get("fluid.resolves", 0),
        "fluid.us_per_resolve": ratio(resolve_ns / 1e3, resolves),
        "fluid.resolve_share": ratio(resolve_ns / 1e9, op_wall_s),
        "fluid.peak_active": counts.get("fluid.peak_active", 0),
        "fire.median_ms": total_ns(stats, "fire.median") * per_frame_ms,
        "fire.motion_est_ms": total_ns(stats, "fire.motion_est") * per_frame_ms,
        "fire.motion_corr_ms": total_ns(stats, "fire.motion_corr") * per_frame_ms,
        "fire.correlate_ms": total_ns(stats, "fire.correlate") * per_frame_ms,
        "fire.scan_gen_ms": total_ns(stats, "fire.scan_gen") * per_frame_ms,
        "fire.rvo_ms": total_ns(stats, "fire.rvo") / 1e6,
        "metampi.msgs": counts.get("metampi.msgs", 0),
        "metampi.bytes": counts.get("metampi.bytes", 0),
        "metampi.rpc_ms": total_ns(stats, "metampi.rpc") / 1e6,
    }


def unattributed_share(stats) -> float:
    """Share of the ``op`` span not covered by any child span."""
    _n, total, own = stats.get("op", (0, 0, 0))
    return ratio(own, total)
