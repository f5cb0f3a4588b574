"""TCP throughput model for the testbed paths.

Two views that must agree (and are cross-checked in the tests):

* :func:`tcp_steady_throughput` — closed-form steady state: the minimum of
  the window limit ``W/RTT`` and the slowest pipeline stage on the path
  (wire serialization with framing overhead, host stack per-packet cost,
  host I/O bus, gateway forwarding).
* :class:`repro.netsim.flows.BulkTransfer` — the discrete-event sliding
  window implementation measured end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.netsim.core import Gateway, Network
from repro.netsim.ip import ClassicalIP


@dataclass
class PathCharacterization:
    """Per-full-size-segment stage costs along a path.

    ``stages`` names each serial pipeline stage the way the figures do
    (``sp2.iobus``, ``dfn.wire``); ``resources`` keys the same costs by
    the *physical resource* they occupy, so two flows whose paths share
    a resource key contend for it — the basis of
    :func:`fair_share_throughputs`.  Resource keys: ``host:{h}:stack`` /
    ``host:{h}:iobus`` (one CPU / bus serves both directions),
    ``link:{name}:{src}`` (a transmitter is directional), ``gw:{g}``
    (the serial forwarding worker serves both directions).
    """

    stages: dict[str, float] = field(default_factory=dict)  #: name -> seconds
    resources: dict[str, float] = field(default_factory=dict)  #: resource -> seconds
    rtt: float = 0.0  #: zero-load round trip of a full segment + ack
    mss: int = 0

    @property
    def bottleneck_stage(self) -> str:
        """Name of the slowest stage (``"none"`` for a free path — all
        zero-cost hosts on infinite-rate wires)."""
        if not self.stages:
            return "none"
        return max(self.stages, key=self.stages.get)

    @property
    def per_packet_time(self) -> float:
        """Seconds per segment at the bottleneck (0 for a free path)."""
        return max(self.stages.values(), default=0.0)

    def pipeline_rate(self) -> float:
        """Goodput (bit/s of application payload) ignoring the window."""
        t = self.per_packet_time
        return self.mss * 8 / t if t > 0 else float("inf")


def characterize_path(
    net: Network, src: str, dst: str, ip: ClassicalIP
) -> PathCharacterization:
    """Walk the routed path and collect per-stage costs for full segments.

    Raises :class:`ValueError` for ``src == dst`` — a self-path has no
    wire, no stages and no meaningful RTT, and every earlier caller that
    hit it got an arbitrary crash out of the routing layer instead of a
    diagnosis.
    """
    if src == dst:
        raise ValueError(
            f"cannot characterize a self-path: src == dst == {src!r}"
        )
    mss = ip.max_segment
    ip_bytes = ip.datagram_bytes(mss)
    path, links = net.path_links(src, dst)
    out = PathCharacterization(mss=mss)
    rtt = 0.0

    for name in (src, dst):
        host = net.host(name)
        if host.cpu_per_packet:
            out.stages[f"{name}.stack"] = host.cpu_per_packet
            out.resources[f"host:{name}:stack"] = host.cpu_per_packet
            rtt += 2 * host.cpu_per_packet
        if host.io_bus_rate != float("inf"):
            t = ip_bytes * 8 / host.io_bus_rate
            out.stages[f"{name}.iobus"] = t
            out.resources[f"host:{name}:iobus"] = t
            rtt += t

    # Walk the exact links routing chose (parallel-link aware): a
    # by-neighbour-name lookup would be ambiguous on a redundant bundle.
    for (u, v), link in zip(zip(path, path[1:]), links):
        wire = link.framing.wire_bytes(ip_bytes)
        t = wire * 8 / link.rate
        if t > 0:  # an infinite-rate wire is not a pipeline stage
            out.stages[f"{link.name}.wire"] = t
            out.resources[f"link:{link.name}:{u}"] = t
        ack_wire = link.framing.wire_bytes(40)
        rtt += t + 2 * link.propagation + ack_wire * 8 / link.rate
        node = net.nodes[v]
        if isinstance(node, Gateway) and node.per_packet:
            out.stages[f"{v}.forward"] = node.per_packet
            out.resources[f"gw:{v}"] = node.per_packet
            rtt += 2 * node.per_packet

    out.rtt = rtt
    return out


def tcp_steady_throughput(
    net: Network,
    src: str,
    dst: str,
    ip: ClassicalIP,
    window_bytes: float = float("inf"),
) -> float:
    """Predicted steady-state TCP goodput in bit/s of application data."""
    char = characterize_path(net, src, dst, ip)
    window_rate = window_bytes * 8 / char.rtt if char.rtt > 0 else float("inf")
    return min(char.pipeline_rate(), window_rate)


def tcp_loss_throughput_bound(
    net: Network,
    src: str,
    dst: str,
    ip: ClassicalIP,
    loss_rate: float,
    window_bytes: float = float("inf"),
) -> float:
    """Upper bound on goodput under random per-packet loss ``loss_rate``.

    The Mathis/Semke/Mahdavi steady-state form ``MSS/(RTT*sqrt(2p/3))``
    capped by the zero-loss limit of :func:`tcp_steady_throughput`.  The
    discrete-event :class:`~repro.netsim.flows.BulkTransfer` under
    injected loss must measure at or below this (cross-checked in the
    tests); at ``loss_rate=0`` it degenerates to the zero-loss reference,
    and at ``loss_rate=1`` (every packet lost) the bound is exactly 0 —
    the raw Mathis form would still report a positive goodput there.
    Rates outside ``[0, 1]`` are a caller bug and raise ``ValueError``.
    """
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
    zero_loss = tcp_steady_throughput(net, src, dst, ip, window_bytes)
    if loss_rate <= 0:
        return zero_loss
    if loss_rate >= 1.0:
        return 0.0
    char = characterize_path(net, src, dst, ip)
    if char.rtt <= 0:
        return zero_loss
    mathis = char.mss * 8 / (char.rtt * math.sqrt(2.0 * loss_rate / 3.0))
    return min(zero_loss, mathis)


@dataclass(frozen=True)
class FlowDemand:
    """A hypothetical flow for :func:`fair_share_throughputs`.

    Duck-types the attributes the solver reads off real flow objects:
    :class:`~repro.netsim.flows.BulkTransfer` contributes
    ``src/dst/ip/window_bytes/name``; a fixed-rate source (CBR video)
    is expressed through ``rate`` (bit/s of application payload),
    mirroring ``frame_bytes * 8 / interval``.
    """

    name: str
    src: str
    dst: str
    ip: ClassicalIP = field(default_factory=ClassicalIP)
    window_bytes: float = float("inf")
    rate: float = float("inf")  #: fixed offered-rate cap, bit/s of payload


@dataclass(frozen=True, eq=False)
class MaxMinProblem:
    """The demand/resource incidence of a :func:`max_min_rates` input,
    compiled once by :func:`compile_max_min` so a caller re-solving the
    same demands under new caps and counts skips the dict walk."""

    names: tuple  #: demand names, in ``costs`` insertion order
    users: tuple  #: per resource: ``((demand index, seconds per bit), ...)``
    uses: tuple  #: per demand: indexes into ``users`` of its resources


def _dominates(a: list, b: list) -> bool:
    """Whether resource column ``a`` costs ≥ ``b`` for every user."""
    return all(ca >= cb for (_, ca), (_, cb) in zip(a, b))


def compile_max_min(costs: Mapping[Any, Mapping[str, float]]) -> MaxMinProblem:
    """Compile ``{demand: {resource: seconds per bit}}`` into flat
    per-resource incidence lists, in ``costs`` insertion order.

    A resource is dropped when a kept one has the same user set and an
    elementwise ≥ cost vector.  Float ``+``, ``*`` and ``/`` are
    monotone, so the dropped resource's load, demand and slack never
    undercut the kept one's: it can neither set the water level nor
    saturate first, and dropping it leaves every rate bit-identical.
    """
    incidence: dict[str, list[tuple[int, float]]] = {}
    for i, demand_costs in enumerate(costs.values()):
        for r, c in demand_costs.items():
            incidence.setdefault(r, []).append((i, c))
    groups: dict[tuple[int, ...], list[list[tuple[int, float]]]] = {}
    for column in incidence.values():
        kept = groups.setdefault(tuple(i for i, _ in column), [])
        if not any(_dominates(k, column) for k in kept):
            kept[:] = [k for k in kept if not _dominates(column, k)]
            kept.append(column)
    users = tuple(tuple(column) for kept in groups.values() for column in kept)
    uses: list[list[int]] = [[] for _ in costs]
    for j, column in enumerate(users):
        for i, _ in column:
            uses[i].append(j)
    return MaxMinProblem(tuple(costs), users, tuple(map(tuple, uses)))


def max_min_rates(
    costs: Mapping[Any, Mapping[str, float]] | MaxMinProblem,
    caps: Mapping[Any, float],
    counts: Mapping[Any, int] | None = None,
) -> dict[Any, float]:
    """Water-fill max-min rates from precomputed per-bit resource costs.

    ``costs`` maps each demand name to ``{resource: seconds per bit}``,
    or is that mapping already compiled by :func:`compile_max_min`;
    ``caps`` bounds each demand's own rate (``inf`` for uncapped).
    ``counts`` optionally aggregates *classes* of identical demands: a
    class with count ``m`` occupies ``m × rate × cost`` of each resource
    and the returned rate is the per-member rate.  Aggregation is exact
    for max-min fairness — members of a class face identical constraints,
    so progressive filling raises them in lockstep — and is what lets
    the fluid engine (:mod:`repro.fluid`) re-solve thousands of
    concurrent flows as a handful of path classes.

    Loads and demands are summed left to right in demand insertion
    order, so the rates never depend on hash seeds or on the
    interpreter's ``sum`` algorithm.

    This is the solver core of :func:`fair_share_throughputs`, exposed
    separately so event-driven callers can cache the expensive
    path-characterization step and re-solve on every flow event.
    """
    if not isinstance(costs, MaxMinProblem):
        costs = compile_max_min(costs)
    names = costs.names
    n_of = counts or {}
    rates = _water_fill(
        costs, [caps[n] for n in names], [n_of.get(n, 1) for n in names]
    )
    return dict(zip(names, rates))


def _water_fill(
    problem: MaxMinProblem, caps: list[float], counts: list[int]
) -> list[float]:
    """Progressive filling over the compiled incidence lists.

    The hot loop spells out ``min``/``max`` as comparisons (same result,
    NaN included) and keeps per-resource live-user counts, so resources
    whose users are all frozen drop out without a rescan.
    """
    inf = float("inf")
    users, uses = problem.users, problem.uses
    rates = [0.0] * len(caps)
    is_live = [True] * len(caps)
    live = list(range(len(caps)))
    live_users = [len(u) for u in users]
    active = list(range(len(users)))  # resources with a live user
    while live:
        # Tightest constraint over live demands: resource slack shared
        # by everyone using it, or a live demand's distance to its cap.
        shares = [m * r for m, r in zip(counts, rates)]
        delta = inf
        for j in active:
            load = demand = 0.0
            for i, c in users[j]:
                load += shares[i] * c
                if is_live[i]:
                    demand += counts[i] * c
            if demand > 0:  # zero-cost resources constrain nothing
                slack = 1.0 - load
                d = (slack if slack > 0.0 else 0.0) / demand
                if d < delta:
                    delta = d
        for i in live:
            d = caps[i] - rates[i]
            if d < delta:
                delta = d
        if delta == inf:
            # No finite constraint left (free paths, uncapped demands).
            for i in live:
                rates[i] = inf
            break
        for i in live:
            rates[i] += delta
        shares = [m * r for m, r in zip(counts, rates)]
        saturated = set()
        for j in active:
            load = 0.0
            for i, c in users[j]:
                load += shares[i] * c
            if load >= 1.0 - 1e-9:
                saturated.add(j)
        frozen = [
            i
            for i in live
            if (caps[i] != inf and rates[i] >= caps[i] - 1e-9 * max(1.0, caps[i]))
            or not saturated.isdisjoint(uses[i])
        ]
        if not frozen:  # numerical stall guard: never loop forever
            break
        for i in frozen:
            is_live[i] = False
            for j in uses[i]:
                live_users[j] -= 1
        live = [i for i in live if is_live[i]]
        active = [j for j in active if live_users[j]]
    return rates


def demand_cap(flow: Any, char: PathCharacterization) -> float:
    """The flow's own rate ceiling, duck-typed off the flow object:
    a fixed offered rate (``rate``), a CBR frame cadence, a ping probe
    cadence, or the TCP window limit ``W·8/RTT``."""
    cap = float(getattr(flow, "rate", float("inf")))
    frame_bytes = getattr(flow, "frame_bytes", None)
    if frame_bytes is not None:  # CbrFlow: fixed frame cadence
        cap = min(cap, frame_bytes * 8 / flow.interval)
    payload = getattr(flow, "payload", None)
    if payload is not None:  # PingFlow: tiny probes on a timer
        cap = min(cap, payload * 8 / flow.interval)
    window = getattr(flow, "window_bytes", float("inf"))
    if window != float("inf") and char.rtt > 0:
        cap = min(cap, window * 8 / char.rtt)
    return cap


def fair_share_throughputs(
    net: Network, flows, ip: ClassicalIP | None = None
) -> dict[str, float]:
    """Max-min fair goodput (bit/s of payload) per concurrent flow.

    Water-filling (progressive filling) over the shared resources from
    :func:`characterize_path`: every unfrozen flow's rate rises at the
    same pace until a resource saturates — freezing all flows crossing
    it — or a flow hits its own cap (window limit ``W·8/RTT``, or a
    fixed offered rate for CBR-style sources, which under round-robin
    service receives exactly ``min(rate, fair share)``).  Repeats until
    every flow is frozen; the result is the unique max-min allocation.

    ``flows`` may be live flow objects (:class:`BulkTransfer`,
    :class:`CbrFlow`, :class:`PingFlow` — attributes are duck-typed) or
    :class:`FlowDemand` records; ``ip`` supplies the IP layer for
    entries that don't carry their own.  This is the closed-form
    reference the discrete-event DRR schedulers are cross-checked
    against: the model shares *goodput* while DRR shares *wire bytes*,
    so the two agree when competing flows use the same MTU and framing
    (as the testbed scenarios do).
    """
    costs: dict[str, dict[str, float]] = {}  # flow -> resource -> s/bit
    caps: dict[str, float] = {}
    for flow in flows:
        name = flow.name
        if name in costs:
            raise ValueError(f"duplicate flow name {name!r}")
        flow_ip = getattr(flow, "ip", None) or ip or ClassicalIP()
        char = characterize_path(net, flow.src, flow.dst, flow_ip)
        bits = char.mss * 8
        costs[name] = {r: t / bits for r, t in char.resources.items()}
        caps[name] = demand_cap(flow, char)
    return max_min_rates(costs, caps)


@dataclass(frozen=True)
class TcpModel:
    """Bundles the IP layer and window for a connection."""

    ip: ClassicalIP
    window_bytes: int = 8 * 1024 * 1024
    slow_start: bool = False

    def predicted_throughput(self, net: Network, src: str, dst: str) -> float:
        """Closed-form goodput prediction for this connection."""
        return tcp_steady_throughput(net, src, dst, self.ip, self.window_bytes)
