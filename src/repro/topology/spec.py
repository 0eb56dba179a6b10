"""Declarative simulation construction: ``Topology`` + ``SimulationSpec``.

This is the one public way to build a simulation (DESIGN.md §11). A
:class:`Topology` declares the *world* — NICs (each with a QoS policy
and scheduler choice), hosts bound to NICs, apps on hosts, and wires
between NICs; a :class:`SimulationSpec` binds a topology to a
:class:`~repro.topology.setup.ScaledSetup`, a duration, and an
execution plan (shard count, window override, observability taps), and
``spec.run()`` executes it — inline for one shard, over the
conservative-window barrier protocol (:mod:`repro.sim.shard`) for
many.

The timeline figures, the scheduler crossbar and ``fv simulate``'s
argument plumbing are thin adapters over this module; see
:func:`repro.topology.timeline`.

A *domain* — the unit of parallelism — is one NIC plus the hosts/apps
that feed it and the sink that terminates wires pointing at it. Apps
within a domain are ordered by name (``vf_index`` = position), exactly
as the classic runners enumerated ``sorted(demands.items())``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigError
from .setup import ScaledSetup

__all__ = [
    "AppSpec",
    "NicSpec",
    "HostSpec",
    "WireSpec",
    "DomainSpec",
    "Topology",
    "SimulationSpec",
]

#: Demand forms accepted by :meth:`Topology.app`: ``None`` (always
#: backlogged), a tuple of ``(start, end, nominal_bps)`` spans
#: (picklable — required for spawn-start workers), or a bare callable
#: ``time -> nominal_bps`` (fork/inline only).
DemandLike = Union[None, Sequence[Tuple[float, float, float]], Callable[[float], float]]


@dataclass(frozen=True)
class AppSpec:
    """One sender application on a host.

    ``demand`` is the *offered* load in nominal bit/s over time; the
    sender blasts at ``rate_bps`` (default: the setup's backlogging
    rate) gated by it. ``packet_size=None`` inherits the spec default.
    """

    name: str
    host: str
    demand: DemandLike = None
    packet_size: Optional[int] = None
    rate_bps: Optional[float] = None
    jitter: float = 0.1


@dataclass(frozen=True)
class NicSpec:
    """One NIC (== one simulation domain).

    ``scheduler`` names a :mod:`repro.sched` registry entry;
    ``"flowvalve"`` (the default) runs the full calibrated NIC
    pipeline, anything else runs the crossbar's ``ScheduledPort`` DES
    runtime. ``config`` overrides :meth:`ScaledSetup.nic_config`
    fields; ``queue_limit`` bounds a software scheduler's buffering.
    """

    name: str
    policy: Any
    scheduler: str = "flowvalve"
    backend: str = "pifo"
    config: Mapping[str, Any] = field(default_factory=dict)
    queue_limit: Optional[int] = None
    params: Optional[Any] = None


@dataclass(frozen=True)
class HostSpec:
    """A named app container attached to one NIC."""

    name: str
    nic: str


@dataclass(frozen=True)
class WireSpec:
    """A NIC's egress wire terminating at another domain's sink.

    ``propagation_delay`` is in *nominal* seconds and is multiplied by
    the setup's scale at build time (a time constant, DESIGN.md §1);
    the scaled value is the shard planner's lookahead. A NIC with no
    wire spec delivers to its own local sink (the classic testbed).
    """

    src: str
    dst: str
    propagation_delay: float = 5e-5


@dataclass(frozen=True)
class DomainSpec:
    """One resolved domain: NIC + its apps (name-ordered) + egress."""

    name: str
    index: int
    nic: NicSpec
    apps: Tuple[AppSpec, ...]
    wire: Optional[WireSpec]

    @property
    def remote(self) -> bool:
        """True when this domain's egress terminates in another domain."""
        return self.wire is not None and self.wire.dst != self.name


class Topology:
    """Builder for the simulated world.

    >>> topo = Topology()
    >>> topo.nic("n0", policy=policy)
    >>> topo.host("h0", nic="n0")
    >>> topo.app("h0", "KVS", demand=((0.0, 30.0, 9e9),))
    >>> topo.wire("n0", to="n1", propagation_delay=5e-5)   # cross-domain

    Methods return ``self`` for chaining. Domain order (== worker
    assignment order, seed-derivation order, packet-sequence banks) is
    NIC insertion order.
    """

    def __init__(self) -> None:
        self._nics: Dict[str, NicSpec] = {}
        self._hosts: Dict[str, HostSpec] = {}
        self._apps: List[AppSpec] = []
        self._wires: Dict[str, WireSpec] = {}

    # ------------------------------------------------------------------
    def nic(
        self,
        name: str,
        policy: Any,
        *,
        scheduler: str = "flowvalve",
        backend: str = "pifo",
        queue_limit: Optional[int] = None,
        params: Optional[Any] = None,
        **config: Any,
    ) -> "Topology":
        """Declare a NIC. Keyword overrides go to the NIC config."""
        if name in self._nics:
            raise ConfigError(f"duplicate NIC name {name!r}")
        self._nics[name] = NicSpec(
            name=name, policy=policy, scheduler=scheduler, backend=backend,
            config=dict(config), queue_limit=queue_limit, params=params,
        )
        return self

    def host(self, name: str, nic: str) -> "Topology":
        """Declare a host bound to *nic*."""
        if name in self._hosts:
            raise ConfigError(f"duplicate host name {name!r}")
        if nic not in self._nics:
            raise ConfigError(f"host {name!r} names unknown NIC {nic!r}")
        self._hosts[name] = HostSpec(name=name, nic=nic)
        return self

    def app(
        self,
        host: str,
        name: str,
        *,
        demand: DemandLike = None,
        packet_size: Optional[int] = None,
        rate_bps: Optional[float] = None,
        jitter: float = 0.1,
    ) -> "Topology":
        """Declare an app on *host* (see :data:`DemandLike`)."""
        if host not in self._hosts:
            raise ConfigError(f"app {name!r} names unknown host {host!r}")
        self._apps.append(
            AppSpec(
                name=name, host=host, demand=demand,
                packet_size=packet_size, rate_bps=rate_bps, jitter=jitter,
            )
        )
        return self

    def wire(self, src: str, to: str, *, propagation_delay: float = 5e-5) -> "Topology":
        """Point *src* NIC's egress at NIC *to*'s sink.

        *to* may name a NIC declared later (rings); it is validated at
        :meth:`domains` resolution time.
        """
        if src not in self._nics:
            raise ConfigError(f"wire source names unknown NIC {src!r}")
        if src in self._wires:
            raise ConfigError(f"NIC {src!r} already has an egress wire")
        if propagation_delay < 0:
            raise ConfigError(
                f"propagation delay must be >= 0, got {propagation_delay}"
            )
        self._wires[src] = WireSpec(src=src, dst=to, propagation_delay=propagation_delay)
        return self

    # ------------------------------------------------------------------
    def domains(self) -> Tuple[DomainSpec, ...]:
        """Resolve into ordered domains; validates the declaration."""
        if not self._nics:
            raise ConfigError("topology declares no NICs")
        for wire in self._wires.values():
            if wire.dst not in self._nics:
                raise ConfigError(
                    f"wire {wire.src!r} -> {wire.dst!r} names unknown NIC {wire.dst!r}"
                )
        by_nic: Dict[str, List[AppSpec]] = {name: [] for name in self._nics}
        for app in self._apps:
            by_nic[self._hosts[app.host].nic].append(app)
        out: List[DomainSpec] = []
        for index, (name, nic) in enumerate(self._nics.items()):
            apps = sorted(by_nic[name], key=lambda a: a.name)
            seen = set()
            for app in apps:
                if app.name in seen:
                    raise ConfigError(
                        f"duplicate app name {app.name!r} in domain {name!r} "
                        "(apps are accounted per name per sink)"
                    )
                seen.add(app.name)
            out.append(
                DomainSpec(
                    name=name, index=index, nic=nic,
                    apps=tuple(apps), wire=self._wires.get(name),
                )
            )
        return tuple(out)


@dataclass(frozen=True)
class SimulationSpec:
    """A complete, runnable simulation description.

    The spec is what shard workers receive: everything needed to
    rebuild any domain deterministically. ``shards=1`` runs inline
    (bit-identical to the pre-shard engine for single-domain
    topologies); ``shards=N`` fans domains over N worker processes.

    ``window`` overrides the barrier spacing (must be ``<=`` the
    planner's lookahead). ``collect_records`` switches sinks to the
    eventful route and records per-delivery/per-drop streams — the
    determinism suite's byte-comparison tap. ``trace_path``/
    ``metrics_path`` are single-domain-only observability dumps
    (identical semantics to the classic runners). ``timeout`` is the
    multi-process wall-clock budget in seconds.
    """

    topology: Topology
    setup: ScaledSetup = ScaledSetup()
    duration: float = 10.0
    bin_seconds: float = 5.0
    title: str = "simulation"
    packet_size: int = 1500
    params: Optional[Any] = None
    shards: int = 1
    window: Optional[float] = None
    record_delays: bool = False
    collect_records: bool = False
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    trace_limit: int = 0
    metrics_interval: Optional[float] = None
    timeout: Optional[float] = None

    def with_shards(self, shards: int) -> "SimulationSpec":
        """The same run at a different shard count (determinism suite)."""
        return replace(self, shards=shards)

    def plan(self):
        """The :class:`~repro.sim.shard.ShardPlan` this spec executes
        under (zero-lookahead guard included)."""
        from ..sim.shard import BoundaryWire, ShardPlan

        domains = self.topology.domains()
        self._validate(domains)
        wires = [
            BoundaryWire(
                src=d.name,
                dst=d.wire.dst,
                lookahead=d.wire.propagation_delay * self.setup.scale,
            )
            for d in domains
            if d.remote
        ]
        return ShardPlan.build(
            [d.name for d in domains], wires, self.shards, window=self.window
        )

    def run(self):
        """Execute; returns a :class:`~repro.topology.result.SimulationResult`."""
        from ..sim.shard import execute

        return execute(self)

    # ------------------------------------------------------------------
    def _validate(self, domains: Sequence[DomainSpec]) -> None:
        if self.setup.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.setup.scale}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if (self.trace_path or self.metrics_path) and (
            len(domains) > 1 or self.shards > 1
        ):
            raise ConfigError(
                "trace/metrics taps are single-domain, single-shard only "
                "(one tracer per simulator; workers cannot share a file)"
            )
        from ..sched import scheduler_names

        known = set(scheduler_names())
        for domain in domains:
            if domain.nic.scheduler not in known:
                raise ConfigError(
                    f"domain {domain.name!r} names unknown scheduler "
                    f"{domain.nic.scheduler!r}; known: {sorted(known)}"
                )
            if self.collect_records and domain.nic.scheduler != "flowvalve":
                raise ConfigError(
                    "collect_records is implemented for flowvalve domains "
                    f"(domain {domain.name!r} runs {domain.nic.scheduler!r})"
                )
