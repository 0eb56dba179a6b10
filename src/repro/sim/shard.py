"""Conservative-time-window parallel DES: the sharded execution engine.

A multi-NIC/multi-host :class:`~repro.topology.Topology` is cut into
*domains* (one NIC, its senders, its sink — the unit that shares an
event queue) and domains are assigned to shard worker processes by a
:class:`ShardPlan`. Synchronization is classic conservative windowing
(DESIGN.md §11):

* **Lookahead** ``L`` = the minimum scaled propagation delay over all
  cross-domain wires. A frame finishing serialisation at time *t*
  cannot arrive remotely before ``t + L``.
* **Windows** of length ``Δ <= L`` tile ``[0, duration]``. Every frame
  sent during window *k* arrives at or after barrier *k*'s time, so
  domains simulate a window with no inbound communication, then
  exchange at the barrier.
* **Exchange**: each domain's boundary links record
  :class:`~repro.net.boundary.WireRecord` trains instead of delivering
  (zero events); at the barrier each shard sends the coordinator only
  the shipments bound for another shard's domains, the coordinator
  forwards each to the shard that owns its destination, and every
  shard merges its own shipments with the forwarded ones into
  per-destination trains ordered by ``(arrival, source domain, wire
  order)``. The destination splices the train into its queue with one
  ``EventQueue.push_run`` — the run-lane format burst ingress already
  uses.

Because every domain owns its own :class:`Simulator` (seed derived
from the domain index), its own RNG streams, and a disjoint packet
sequence range, a domain's event stream is a pure function of its
local state plus the injected barrier trains — which the protocol
makes identical regardless of how domains are spread over processes.
``--shards N`` is therefore *bit-identical* to ``--shards 1``, and a
single-domain topology degenerates to exactly one open-window
``run(until=duration)``, i.e. today's engine (gated by the golden
traces).

Worker lifecycle mirrors the campaign runner: ``fork`` start method
when available, daemon processes, half-duplex pipes, wall-clock
deadlines with terminate-on-timeout.
"""

from __future__ import annotations

import multiprocessing
import time as _time
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Container, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..net.boundary import WireRecord

__all__ = ["BoundaryWire", "ShardPlan", "ShardError", "can_spawn_workers", "execute"]


def can_spawn_workers() -> bool:
    """True when this process may fork shard workers.

    Daemonic processes (the campaign runner's task workers) are not
    allowed children; there the engine runs the same barrier protocol
    inline — bit-identical by construction, just single-process.
    """
    return not multiprocessing.current_process().daemon


class ShardError(SimulationError):
    """The shard barrier protocol failed (worker death, timeout,
    protocol violation). Carries the failing shard's traceback when
    one was recovered."""


@dataclass(frozen=True)
class BoundaryWire:
    """One cross-domain link: ``src`` domain's egress feeds ``dst``
    domain's sink, with *scaled* propagation delay ``lookahead``."""

    src: str
    dst: str
    lookahead: float


@dataclass(frozen=True)
class ShardPlan:
    """The partition + synchronization contract for one run.

    ``assignment[i]`` is the shard index of ``domains[i]`` (contiguous
    blocks — ring neighbours tend to stay together, minimising
    cross-*process* traffic for the fabric topologies). ``window`` is
    the barrier spacing (``None`` when no windowing is needed);
    ``degraded`` marks the zero-lookahead fallback: multi-domain, but
    windowing impossible, so everything runs in-process sequentially
    with end-of-run record folding.
    """

    domains: Tuple[str, ...]
    assignment: Tuple[int, ...]
    n_shards: int
    boundaries: Tuple[BoundaryWire, ...] = ()
    lookahead: Optional[float] = None
    window: Optional[float] = None
    degraded: bool = False

    @classmethod
    def build(
        cls,
        domains: Sequence[str],
        boundaries: Sequence[BoundaryWire] = (),
        shards: int = 1,
        window: Optional[float] = None,
    ) -> "ShardPlan":
        """Plan a run: partition *domains* over *shards* workers.

        The zero-lookahead guard lives here: a boundary wire with
        ``propagation_delay == 0`` admits no conservative window (the
        barrier protocol would deadlock at Δ=0), so the plan falls back
        to a single in-process shard with a :class:`UserWarning`
        instead.
        """
        names = tuple(domains)
        if not names:
            raise SimulationError("cannot plan a run with no domains")
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate domain names in {names}")
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        wires = tuple(boundaries)
        known = set(names)
        for wire in wires:
            if wire.src not in known or wire.dst not in known:
                raise SimulationError(
                    f"boundary wire {wire.src}->{wire.dst} references an unknown domain"
                )
        lookahead = min((w.lookahead for w in wires), default=None)
        if wires and lookahead is not None and lookahead <= 0.0:
            # Zero/negative lookahead: no window length is safe. Fall
            # back to one in-process shard with end-of-run folding.
            culprit = min(wires, key=lambda w: w.lookahead)
            warnings.warn(
                "cross-domain wire "
                f"{culprit.src}->{culprit.dst} has zero propagation delay: "
                "lookahead is 0, so the windowed barrier protocol cannot "
                "run; falling back to a single shard (sequential domains, "
                "end-of-run exchange)",
                UserWarning,
                stacklevel=2,
            )
            return cls(
                domains=names,
                assignment=(0,) * len(names),
                n_shards=1,
                boundaries=wires,
                lookahead=None,
                window=None,
                degraded=True,
            )
        if window is not None:
            if window <= 0:
                raise SimulationError(f"window must be positive, got {window}")
            if lookahead is not None and window > lookahead:
                raise SimulationError(
                    f"window {window} exceeds the lookahead {lookahead} — "
                    "remote arrivals could land inside the window that "
                    "sent them"
                )
        effective_window = window if window is not None else lookahead
        if not wires:
            # Independent domains need no synchronization at all.
            effective_window = None
        n_shards = max(1, min(shards, len(names)))
        base, extra = divmod(len(names), n_shards)
        assignment: List[int] = []
        for shard in range(n_shards):
            count = base + (1 if shard < extra else 0)
            assignment.extend([shard] * count)
        return cls(
            domains=names,
            assignment=tuple(assignment),
            n_shards=n_shards,
            boundaries=wires,
            lookahead=lookahead,
            window=effective_window,
        )

    # ------------------------------------------------------------------
    def shard_of(self, domain: str) -> int:
        return self.assignment[self.domains.index(domain)]

    def domains_of(self, shard: int) -> Tuple[int, ...]:
        """Domain *indices* assigned to *shard* (ascending)."""
        return tuple(i for i, s in enumerate(self.assignment) if s == shard)

    def barriers(self, duration: float) -> Tuple[float, ...]:
        """Barrier times tiling ``(0, duration]``; always ends exactly
        at *duration*. A plan with no window is one open window."""
        if self.window is None or duration <= 0:
            return (duration,)
        out: List[float] = []
        k = 1
        while True:
            t = k * self.window
            if t >= duration - 1e-12:
                break
            out.append(t)
            k += 1
        out.append(duration)
        return tuple(out)


# ----------------------------------------------------------------------
# record routing (shared by inline and multi-process execution)
# ----------------------------------------------------------------------
#: One domain's drained outbox: (source domain index, destination
#: domain name, wire records in send order).
Shipment = Tuple[int, str, List[WireRecord]]

_arrival = itemgetter(0)
_source = itemgetter(0)


def route_records(shipments: Sequence[Shipment]) -> Dict[str, List[WireRecord]]:
    """Merge shipments into per-destination, globally ordered trains.

    Order is ``(arrival time, source domain index, wire position)`` —
    a total order every execution mode computes identically, so
    equal-timestamp arrivals from different sources never flip between
    shard counts (the property test pins this, including that a window
    barrier splitting a stream cannot reorder it). Each domain has one
    outbox, so a destination gets at most one shipment per source:
    joining them in source order and stable-sorting by arrival yields
    that order. The result depends only on the set of shipments, not on
    their order, which is what lets each shard route its own trains.
    """
    by_dst: Dict[str, List[Tuple[int, List[WireRecord]]]] = {}
    for src_index, dst, records in shipments:
        if records:
            by_dst.setdefault(dst, []).append((src_index, records))
    out: Dict[str, List[WireRecord]] = {}
    for dst, parts in by_dst.items():
        parts.sort(key=_source)
        train: List[WireRecord] = []
        for _src, records in parts:
            train += records
        train.sort(key=_arrival)
        out[dst] = train
    return out


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute(spec):
    """Run a :class:`~repro.topology.SimulationSpec` to completion.

    Entry point used by ``SimulationSpec.run()``. Picks the inline
    single-process engine or the multi-process barrier protocol from
    the spec's plan.
    """
    plan = spec.plan()
    barriers = plan.barriers(spec.duration)
    start = _time.perf_counter()
    if plan.n_shards <= 1 or not can_spawn_workers():
        summaries, extra_notes = _run_inline(spec, plan, barriers)
    else:
        summaries = _run_multiprocess(spec, plan, barriers)
        extra_notes = ""
    wall = _time.perf_counter() - start
    from ..topology.result import assemble_result

    return assemble_result(spec, plan, barriers, summaries, wall, extra_notes)


def _drain_shipments(domains) -> List[Shipment]:
    """Drain every outbox, dropping empty drains on the spot.

    On sparse fabrics most (domain, window) cells ship nothing;
    filtering here keeps empty lists out of the barrier pickles (and
    out of the inline routing loop). Harmless to correctness:
    ``route_records`` ignores empty shipments anyway.
    """
    return [
        (domain.index, outbox.dst, records)
        for domain in domains
        for outbox in domain.outboxes
        for records in (outbox.drain(),)
        if records
    ]


def _run_inline(spec, plan: ShardPlan, barriers: Sequence[float]):
    """All domains in this process — the bit-identical reference mode.

    With one domain and no boundaries this is exactly one
    ``run(until=duration)`` on one simulator: today's engine.
    """
    from ..topology.build import build_domains, observability_notes, summarize_domain

    domains = build_domains(spec, range(len(plan.domains)))
    by_name = {domain.name: domain for domain in domains}
    if plan.degraded:
        # Zero lookahead: run each domain over the full horizon, then
        # fold cross-domain records directly (see RemoteIngress).
        for domain in domains:
            domain.sim.run(until=spec.duration)
        routed = route_records(_drain_shipments(domains))
        for dst, records in routed.items():
            by_name[dst].ingress.fold_direct(records, spec.duration)
    else:
        for barrier in barriers:
            for domain in domains:
                domain.sim.run(until=barrier)
            routed = route_records(_drain_shipments(domains))
            for dst, records in routed.items():
                by_name[dst].ingress.inject(barrier, records)
    extra_notes = observability_notes(spec, domains)
    return [summarize_domain(domain, spec) for domain in domains], extra_notes


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _recv(conn, deadline: Optional[float], shard: int, process):
    """Receive one message with an optional wall-clock deadline."""
    while True:
        remaining = None if deadline is None else deadline - _time.monotonic()
        if remaining is not None and remaining <= 0:
            raise ShardError(f"shard {shard} missed the barrier deadline")
        if conn.poll(0.05 if remaining is None else min(remaining, 0.05)):
            try:
                return conn.recv()
            except EOFError:
                raise ShardError(f"shard {shard} closed its pipe mid-protocol") from None
        if process is not None and not process.is_alive():
            # One last poll: the worker may have sent its message and
            # exited before we looked.
            if conn.poll(0):
                return conn.recv()
            raise ShardError(
                f"shard {shard} worker died (exitcode {process.exitcode})"
            )


def _exchange(
    shipments: Sequence[Shipment],
    owned: Container[str],
    swap: Callable[[List[Shipment]], List[Shipment]],
) -> Dict[str, List[WireRecord]]:
    """One shard's side of a barrier: the trains for its own domains.

    Shipments bound for a domain in *owned* stay here; *swap* sends the
    rest to the coordinator and returns the ones other shards sent to
    this shard's domains. ``route_records`` does not depend on shipment
    order, so routing both sets here gives each destination the train
    that routing every shipment in one place would.
    """
    local: List[Shipment] = []
    remote: List[Shipment] = []
    for shipment in shipments:
        (local if shipment[1] in owned else remote).append(shipment)
    return route_records(local + swap(remote))


def _shard_worker(spec, shard_index: int, cmd, out) -> None:
    """One shard: build assigned domains, run the barrier protocol."""
    try:
        from ..topology.build import build_domains, summarize_domain

        plan = spec.plan()
        barriers = plan.barriers(spec.duration)
        domains = build_domains(spec, plan.domains_of(shard_index))
        by_name = {domain.name: domain for domain in domains}
        for barrier in barriers:
            for domain in domains:
                domain.sim.run(until=barrier)

            def swap(remote: List[Shipment]) -> List[Shipment]:
                out.send(("out", barrier, remote))
                message = cmd.recv()
                if message[0] != "in" or message[1] != barrier:
                    raise SimulationError(
                        f"shard {shard_index}: barrier protocol violation: "
                        f"expected ('in', {barrier}), got {message[:2]}"
                    )
                return message[2]

            routed = _exchange(_drain_shipments(domains), by_name, swap)
            for dst, records in routed.items():
                by_name[dst].ingress.inject(barrier, records)
        out.send(
            ("done", shard_index, [summarize_domain(d, spec) for d in domains])
        )
    except BaseException as exc:  # ship the failure to the coordinator
        import traceback

        try:
            out.send(("error", shard_index, f"{type(exc).__name__}: {exc}",
                      traceback.format_exc()))
        except Exception:
            pass
        raise


def _run_multiprocess(spec, plan: ShardPlan, barriers: Sequence[float]):
    """Coordinator: star-topology barrier protocol over pipes.

    At each barrier it forwards every shipment a shard sends to the
    shard that owns the shipment's destination; it routes nothing.
    """
    # Compile ``repro.topology.build`` here, once: every forked worker
    # then inherits it instead of compiling it inside its own set-up.
    # The workers still look ``build_domains`` up at call time.
    from ..topology import build  # noqa: F401

    ctx = _mp_context()
    deadline = (
        None if spec.timeout is None else _time.monotonic() + spec.timeout
    )
    workers = []
    try:
        for shard in range(plan.n_shards):
            cmd_recv, cmd_send = ctx.Pipe(duplex=False)
            out_recv, out_send = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_shard_worker,
                args=(spec, shard, cmd_recv, out_send),
                daemon=True,
                name=f"fv-shard-{shard}",
            )
            process.start()
            cmd_recv.close()
            out_send.close()
            workers.append((process, cmd_send, out_recv))

        owners: Dict[str, int] = {
            name: plan.assignment[i] for i, name in enumerate(plan.domains)
        }
        for barrier in barriers:
            inbound: List[List[Shipment]] = [[] for _ in range(plan.n_shards)]
            for shard, (process, _cmd, out) in enumerate(workers):
                message = _recv(out, deadline, shard, process)
                if message[0] == "error":
                    raise ShardError(
                        f"shard {message[1]} failed: {message[2]}\n{message[3]}"
                    )
                if message[0] != "out" or message[1] != barrier:
                    raise ShardError(
                        f"shard {shard}: expected ('out', {barrier}), "
                        f"got {message[:2]}"
                    )
                for shipment in message[2]:
                    inbound[owners[shipment[1]]].append(shipment)
            for shard, (_process, cmd, _out) in enumerate(workers):
                cmd.send(("in", barrier, inbound[shard]))

        summaries = []
        for shard, (process, _cmd, out) in enumerate(workers):
            message = _recv(out, deadline, shard, process)
            if message[0] == "error":
                raise ShardError(
                    f"shard {message[1]} failed: {message[2]}\n{message[3]}"
                )
            if message[0] != "done":
                raise ShardError(f"shard {shard}: expected 'done', got {message[0]}")
            summaries.extend(message[2])
        summaries.sort(key=lambda summary: summary.index)
        return summaries
    finally:
        for process, cmd, out in workers:
            cmd.close()
            out.close()
        for process, _cmd, _out in workers:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
