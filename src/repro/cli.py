"""The ``fv`` command-line tool.

FlowValve's shell interface (paper §III-E) inherits ``tc`` option
syntax. The CLI works on script files so a policy can be versioned and
replayed:

.. code-block:: console

   $ fv check policy.fv --link 10gbit       # parse + validate
   $ fv show policy.fv --link 10gbit        # print the scheduling tree
   $ fv simulate policy.fv --link 10gbit \\
        --app NC=2gbit --app WS=8gbit --duration 10
                                             # software-mode what-if run
   $ fv campaign run fig13 --workers 4      # parallel experiment grid
   $ fv campaign status --manifest campaign.manifest.jsonl

``simulate`` runs the policy in software mode against constant-rate
app demands and prints the achieved rate per app — a quick what-if
evaluator for policy authors. ``campaign`` fans registered experiment
specs (``fv campaign list``) over a worker-process pool with caching,
timeouts, and a JSONL manifest (DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
from typing import Any, Dict, List

from .core import FlowValve
from .core.scheduling import Verdict
from .core.sched_tree import SchedulingParams
from .errors import ParseError, ReproError
from .net import FiveTuple, PacketFactory
from .tc.parser import parse_script
from .tc.validate import validate_policy
from .units import format_rate, parse_rate

__all__ = ["main", "build_parser"]

DEFAULT_MANIFEST = "campaign.manifest.jsonl"
DEFAULT_CACHE_DIR = ".fv-cache"


def _link_parent(explicit: bool = False) -> argparse.ArgumentParser:
    """Shared ``--link`` flag. With ``explicit=True`` the flag has no
    default, so only user-supplied values appear in the namespace."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--link",
        default=argparse.SUPPRESS if explicit else "10gbit",
        help="link rate" + ("" if explicit else " (default 10gbit)"),
    )
    return parent


def _sim_parent(explicit: bool = False) -> argparse.ArgumentParser:
    """Shared simulation knobs (``--seed/--scale/--duration``) used by
    ``fv simulate`` and ``fv campaign run``. With ``explicit=True``
    defaults are suppressed so the campaign only overrides grid axes
    the user actually named."""
    parent = argparse.ArgumentParser(add_help=False)

    def _default(value: Any) -> Any:
        return argparse.SUPPRESS if explicit else value

    parent.add_argument(
        "--seed", type=int, default=_default(7),
        help="simulation seed" + ("" if explicit else " (default 7)"),
    )
    parent.add_argument(
        "--scale", type=float, default=_default(100.0),
        help="rate-scale divisor (see DESIGN.md §1)"
        + ("" if explicit else " (default 100)"),
    )
    parent.add_argument(
        "--duration", type=float, default=_default(10.0),
        help="simulated seconds" + ("" if explicit else " (default 10)"),
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="fv",
        description="FlowValve policy tool: validate, inspect and simulate fv scripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", parents=[_link_parent()],
        help="parse and validate a policy script",
    )
    check.add_argument("script", help="path to the fv script")

    show = sub.add_parser(
        "show", parents=[_link_parent()],
        help="print the scheduling tree of a policy",
    )
    show.add_argument("script", help="path to the fv script")

    simulate = sub.add_parser(
        "simulate", parents=[_link_parent(), _sim_parent()],
        help="software-mode what-if run",
    )
    simulate.add_argument("script", help="path to the fv script")
    simulate.add_argument(
        "--app", action="append", default=[], metavar="NAME=RATE",
        help="offered load per app, e.g. --app KVS=9gbit (repeatable)",
    )
    simulate.add_argument("--packet-size", type=int, default=1500,
                          help="frame size in bytes (default 1500)")
    simulate.add_argument(
        "--nic", action="store_true",
        help="run the full DES NIC pipeline (workers, reorder, Tx ring, "
             "wire) instead of the software-mode what-if loop",
    )
    simulate.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the structured event trace as JSONL (implies --nic)",
    )
    simulate.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write periodic metrics snapshots as JSONL (implies --nic)",
    )
    simulate.add_argument(
        "--trace-limit", type=int, default=0,
        help="cap on stored trace records, oldest evicted (0 = unlimited)",
    )
    simulate.add_argument(
        "--scheduler", default="flowvalve", metavar="NAME",
        help="crossbar scheduler to run the policy on (default flowvalve; "
             "see repro.sched.registry — htb, prio, dpdk_qos, fifo, "
             "pfabric, srpt, wfq). Non-default schedulers run on the "
             "ScheduledPort DES runtime",
    )
    simulate.add_argument(
        "--backend", default="pifo", choices=("pifo", "eiffel"),
        help="queue backend for rank-program schedulers (default pifo)",
    )
    simulate.add_argument(
        "--hosts", type=int, default=1, metavar="N",
        help="simulate a ring fabric of N identical hosts, each running "
             "the policy against the --app demands, every NIC's wire "
             "terminating at the next host's sink (default 1: the "
             "classic single-NIC testbed)",
    )
    simulate.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the fabric over N worker processes with the "
             "conservative-window barrier protocol; results are "
             "byte-identical for every N (default 1: inline)",
    )
    simulate.add_argument(
        "--wire-delay", type=float, default=5e-5, metavar="SECONDS",
        help="nominal inter-host propagation delay; its scaled value is "
             "the shard planner's lookahead (default 5e-5)",
    )
    simulate.add_argument(
        "--workload", default=None, choices=("kvs", "ml", "web"),
        help="drive each --app with the batched heavy-tailed trace "
             "workload of this preset (Poisson flow arrivals, bounded-"
             "Pareto sizes; DESIGN.md §12) through the full DES NIC "
             "pipeline, instead of a constant-rate sender; the --app "
             "RATE becomes the app's offered load. Single-host, "
             "flowvalve-scheduler only",
    )
    simulate.add_argument(
        "--no-fluid", action="store_true",
        help="disable the fluid fast-forward lane (NicConfig.fluid=False). "
             "Every reported tally is bit-identical either way — the lane "
             "only cuts kernel events — so diffing the two stdouts is a "
             "determinism check (the CI fabric fluid-smoke step)",
    )

    campaign = sub.add_parser(
        "campaign", help="run experiment grids on a worker pool",
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    clist = csub.add_parser("list", help="list registered experiment specs")
    clist.add_argument("--verbose", action="store_true",
                       help="also show defaults and result schema")

    crun = csub.add_parser(
        "run", parents=[_link_parent(explicit=True), _sim_parent(explicit=True)],
        help="expand spec grids into tasks and run them in parallel",
    )
    crun.add_argument("specs", nargs="+", metavar="SPEC",
                      help="registered spec name(s); see `fv campaign list`")
    crun.add_argument("--workers", type=int, default=1,
                      help="worker processes (0 = run inline; default 1)")
    crun.add_argument("--timeout", type=float, default=None,
                      help="per-task wall-clock budget in seconds "
                           "(needs --workers 1 or more)")
    crun.add_argument(
        "--set", action="append", default=[], metavar="KEY=V1,V2",
        help="override a grid axis, e.g. --set seed=11,12 or "
             "--set sizes=[1518,512] (repeatable)",
    )
    crun.add_argument("--manifest", default=DEFAULT_MANIFEST,
                      help=f"JSONL manifest path (default {DEFAULT_MANIFEST})")
    crun.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                      help=f"result cache directory (default {DEFAULT_CACHE_DIR})")
    crun.add_argument("--no-cache", action="store_true",
                      help="disable the content-addressed result cache")
    crun.add_argument("--tables", action="store_true",
                      help="render each task's result table after the summary")

    cstatus = csub.add_parser(
        "status", help="summarise a campaign manifest (works on live files)",
    )
    cstatus.add_argument("--manifest", default=DEFAULT_MANIFEST,
                         help=f"JSONL manifest path (default {DEFAULT_MANIFEST})")
    return parser


def _load_policy(path: str):
    with open(path) as handle:
        text = handle.read()
    policy = parse_script(text)
    validate_policy(policy)
    return policy


def _cmd_check(args: argparse.Namespace) -> int:
    policy = _load_policy(args.script)
    link = parse_rate(args.link)
    FlowValve(policy, link_rate_bps=link)  # builds the tree too
    print(
        f"OK: {len(policy.classes)} classes, {len(policy.filters)} filters, "
        f"link {format_rate(link)}"
    )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    policy = _load_policy(args.script)
    valve = FlowValve(policy, link_rate_bps=parse_rate(args.link))
    print(valve.describe())
    return 0


def _parse_apps(specs: List[str]) -> Dict[str, float]:
    """Parse repeated ``--app NAME=RATE`` flags.

    Raises :class:`SystemExit` (usage errors, exit code 2) on duplicate
    app names, malformed specs, and unparseable rate suffixes so the
    shell sees the conventional bad-arguments status.
    """
    demands: Dict[str, float] = {}
    for spec in specs:
        name, sep, rate_text = spec.partition("=")
        if not sep or not name:
            raise SystemExit(
                f"fv simulate: error: --app expects NAME=RATE, got {spec!r}"
            )
        if name in demands:
            raise SystemExit(
                f"fv simulate: error: duplicate app name {name!r} in --app "
                f"flags; each app may be given once"
            )
        try:
            demands[name] = parse_rate(rate_text)
        except ParseError as exc:
            raise SystemExit(
                f"fv simulate: error: bad rate for app {name!r}: {exc}"
            ) from None
    if not demands:
        raise SystemExit(
            "fv simulate: error: simulate needs at least one --app NAME=RATE"
        )
    return demands


def _cmd_simulate(args: argparse.Namespace) -> int:
    # argparse's float() accepts "nan" and "inf", which would hang the
    # simulation loops or report a meaningless run.
    for flag, value in (("--scale", args.scale), ("--duration", args.duration),
                        ("--wire-delay", args.wire_delay)):
        if not math.isfinite(value):
            raise ReproError(f"{flag} must be finite, got {value}")
    if args.scale <= 0:
        raise ReproError(f"--scale must be positive, got {args.scale}")
    for flag, value in (("--packet-size", args.packet_size),
                        ("--hosts", args.hosts), ("--shards", args.shards)):
        if value < 1:
            raise ReproError(f"{flag} must be at least 1, got {value}")
    link = parse_rate(args.link)
    if link <= 0:
        raise ReproError(f"--link must be positive, got {args.link}")
    policy = _load_policy(args.script)
    demands = _parse_apps(args.app)
    if getattr(args, "workload", None):
        if args.hosts > 1 or args.shards > 1:
            raise ReproError(
                "--workload is single-host, single-shard only (one "
                "trace engine drives one NIC pipeline)"
            )
        if getattr(args, "scheduler", "flowvalve") != "flowvalve":
            raise ReproError(
                "--workload requires the flowvalve scheduler (the trace "
                "engine feeds the full DES NIC pipeline); "
                f"--scheduler {args.scheduler} runs the crossbar runtime"
            )
        if args.trace or args.metrics:
            raise ReproError(
                "--trace/--metrics are not supported with --workload "
                "(the trace engine's lazy trains bypass per-event "
                "observability by design)"
            )
        return _cmd_simulate_workload(args, policy, link, demands)
    if args.hosts > 1 or args.shards > 1:
        if args.trace or args.metrics:
            raise ReproError(
                "--trace/--metrics are single-host, single-shard only "
                "(one tracer per simulator; workers cannot share a file)"
            )
        return _cmd_simulate_fabric(args, policy, link, demands)
    crossbar = args.scheduler != "flowvalve"
    if crossbar and (args.trace or args.metrics or args.nic):
        # Crossbar schedulers run on the ScheduledPort DES runtime;
        # trace/metrics plumbing currently lives in the FlowValve NIC
        # pipeline only.
        raise ReproError(
            "--trace/--metrics/--nic require the flowvalve scheduler; "
            f"--scheduler {args.scheduler} runs the crossbar DES runtime"
        )
    if crossbar or args.nic or args.trace or args.metrics:
        # Observability lives in the DES pipeline (queues, workers,
        # traffic manager), so --trace/--metrics imply --nic.
        return _cmd_simulate_nic(args, policy, link, demands)
    # Scale the update epochs so each holds a healthy packet count at
    # the requested link rate.
    pps = link / ((args.packet_size + 20) * 8)
    interval = max(0.001, 200.0 / pps)
    params = SchedulingParams(update_interval=interval, expire_after=10 * interval)
    valve = FlowValve(policy, link_rate_bps=link, params=params)

    import heapq

    factory = PacketFactory()
    flows = {
        app: FiveTuple(f"10.0.0.{i + 1}", "10.0.1.1", 40000 + i, 5001)
        for i, app in enumerate(sorted(demands))
    }
    forwarded = {app: 0 for app in demands}
    size_bits = (args.packet_size + 20) * 8
    # A zero-rate app offers nothing; it reports achieved 0.
    heap = [(0.0, app) for app in sorted(demands) if demands[app] > 0]
    heapq.heapify(heap)
    # Forwarded frames serialise onto one FIFO wire at the link rate
    # (the policy's root may be faster than --link); a frame counts
    # once its last bit is out by --duration.
    wire_free = 0.0
    while heap:
        t, app = heapq.heappop(heap)
        if t >= args.duration:
            continue
        packet = factory.make(args.packet_size, flows[app], t, app=app)
        if valve.process(packet, t) is Verdict.FORWARD:
            wire_free = max(wire_free, t) + size_bits / link
            if wire_free <= args.duration:
                forwarded[app] += 1
        heapq.heappush(heap, (t + size_bits / demands[app], app))

    # A zero/negative duration simulates nothing; report zeros instead
    # of dividing by it.
    elapsed = args.duration if args.duration > 0 else float("inf")
    _report_rates(
        f"simulated {args.duration:.1f}s at link {format_rate(link)}:",
        demands,
        {app: forwarded[app] * size_bits / elapsed for app in demands},
        sum(forwarded.values()) * size_bits / elapsed,
    )
    return 0


def _report_rates(header: str, demands: Dict[str, float], achieved: Dict[str, float],
                  total: float, per_host: bool = False) -> None:
    """Print the offered-vs-achieved block every ``fv simulate`` mode
    ends with: *header*, one line per app in name order, the total."""
    offered_unit, achieved_unit = ("/host", " aggregate") if per_host else ("", "")
    print(header)
    for app in sorted(demands):
        print(
            f"  {app:>8s}: offered {format_rate(demands[app]):>12s}{offered_unit}"
            f"  achieved {format_rate(achieved[app]):>12s}{achieved_unit}"
        )
    print(f"  {'total':>8s}: {format_rate(total):>12s}")


def _simulate_topology(args: argparse.Namespace, policy, demands: Dict[str, float]):
    """The CLI's world declaration: ``--hosts`` identical domains, each
    running *policy* against constant-rate ``--app`` demands, ring-wired
    when there is more than one.

    Demands are plain callables (no ``next_change`` attribute) — the
    historical CLI behaviour, which keeps senders on the eventful
    per-packet path rather than the precomputed burst path.
    """
    from .topology import Topology

    topo = Topology()
    hosts = args.hosts
    for i in range(hosts):
        topo.nic(
            f"nic{i}", policy=policy,
            scheduler=getattr(args, "scheduler", "flowvalve"),
            backend=getattr(args, "backend", "pifo"),
            fluid=not getattr(args, "no_fluid", False),
        )
        topo.host(f"host{i}", nic=f"nic{i}")
        for app in sorted(demands):
            topo.app(f"host{i}", app, demand=(lambda t, rate=demands[app]: rate))
        if hosts > 1:
            topo.wire(
                f"nic{i}", to=f"nic{(i + 1) % hosts}",
                propagation_delay=args.wire_delay,
            )
    return topo


def _cmd_simulate_nic(args: argparse.Namespace, policy, link: float, demands: Dict[str, float]) -> int:
    """``fv simulate --nic`` / ``--scheduler NAME``: one rate-scaled domain.

    A thin adapter over :mod:`repro.topology` — declares a one-host
    :class:`~repro.topology.Topology` whose NIC runs the full DES
    pipeline (the flowvalve scheduler) or the named crossbar scheduler
    on the :class:`~repro.sched.runtime.ScheduledPort` runtime, builds
    it through the shared domain builder (the same assembly, and event
    stream, the figure reproductions and the crossbar use), and
    optionally dumps the raw observability streams (``--trace``:
    per-event JSONL; ``--metrics``: periodic registry snapshots) that
    the achieved-rate report is computed from.
    """
    from .topology import ScaledSetup, SimulationSpec
    from .topology.build import build_domains

    setup = ScaledSetup.for_link(link, scale=args.scale, seed=args.seed)
    spec = SimulationSpec(
        topology=_simulate_topology(args, policy, demands),
        setup=setup,
        duration=args.duration,
        packet_size=args.packet_size,
        trace_path=args.trace,
        metrics_path=args.metrics,
        trace_limit=args.trace_limit,
        # The CLI samples 100 snapshots per run (not per report bin).
        metrics_interval=(args.duration / 100.0 if args.duration > 0 else None),
    )
    [built] = build_domains(spec, [0])
    sim, sink, port = built.sim, built.sink, built.port
    sim.run(until=args.duration)

    elapsed = args.duration if args.duration > 0 else float("inf")
    mode = (
        "nic mode" if port is None
        else f"scheduler={args.scheduler}, backend={args.backend}"
    )
    _report_rates(
        f"simulated {args.duration:.1f}s at link {format_rate(link)} "
        f"({mode}, scale=1/{setup.scale:g}, seed={setup.seed}):",
        demands,
        {app: sink.bytes[app] * 8 / elapsed * setup.scale for app in demands},
        sink.total_bytes * 8 / elapsed * setup.scale,
    )
    if port is None:
        print(f"  {built.nic.stats_summary()}")
    else:
        print(f"  {port.stats_summary()}")
        print(f"  {port.scheduler.describe()}")
    if built.tracer is not None:
        count = built.tracer.to_jsonl(args.trace)
        print(f"  trace: {count} records -> {args.trace}")
    if built.registry is not None:
        if built.sampler is not None and args.duration > 0:
            built.sampler.sample()  # final snapshot at t=end
            count = built.sampler.to_jsonl(args.metrics)
        else:
            from .stats.metrics import write_jsonl

            count = write_jsonl(args.metrics, [{"time": sim.now, **built.registry.snapshot()}])
        print(f"  metrics: {count} snapshots -> {args.metrics}")
    return 0


def _cmd_simulate_workload(args: argparse.Namespace, policy, link: float, demands: Dict[str, float]) -> int:
    """``fv simulate --workload PRESET``: heavy-tailed trace demand.

    Each ``--app NAME=RATE`` becomes a batched
    :class:`~repro.host.TraceWorkload` (Poisson flow arrivals,
    bounded-Pareto sizes — DESIGN.md §12) offering RATE through the
    full DES NIC pipeline, instead of a backlogged constant-rate
    sender. The sink runs in sketch mode, so the report stays
    constant-memory at any flow count.
    """
    from dataclasses import replace as dc_replace

    from .core import FlowValveFrontend
    from .experiments.base import ScaledSetup
    from .host import TraceWorkload, WORKLOAD_PRESETS
    from .net import PacketSink
    from .nic import NicPipeline
    from .sim import Simulator

    setup = ScaledSetup.for_link(link, scale=args.scale, seed=args.seed)
    sim = Simulator(seed=setup.seed)
    frontend = FlowValveFrontend(
        policy, link_rate_bps=setup.link_bps, params=setup.sched_params()
    )
    sink = PacketSink(
        sim, rate_window=1.0, record_delays=True,
        stats_mode="sketch", fold_interval=1.0,
    )
    nic = NicPipeline.with_flowvalve(
        sim,
        setup.nic_config(fluid=not args.no_fluid),
        frontend,
        receiver=sink.receive,
    )
    factory = PacketFactory()
    preset = WORKLOAD_PRESETS[args.workload]
    profile = dc_replace(
        preset, flow_rate_limit_bps=preset.flow_rate_limit_bps / setup.scale
    )
    workloads = [
        TraceWorkload(
            sim, app, profile, demands[app] / setup.scale, nic.submit,
            factory, vf_index=index, duration=args.duration, mode="batched",
        )
        for index, app in enumerate(sorted(demands))
    ]
    sim.run(until=args.duration)

    elapsed = args.duration if args.duration > 0 else float("inf")
    _report_rates(
        f"simulated {args.duration:.1f}s at link {format_rate(link)} "
        f"(workload={args.workload}, scale=1/{setup.scale:g}, "
        f"seed={setup.seed}):",
        demands,
        {app: sink.bytes[app] * 8 / elapsed * setup.scale for app in demands},
        sink.total_bytes * 8 / elapsed * setup.scale,
    )
    print(
        f"  flows: started={sum(w.flows_started for w in workloads)} "
        f"completed={sum(w.flows_completed for w in workloads)} "
        f"windows={sum(w.windows_generated for w in workloads)}"
    )
    delay = sink.latency_summary().scaled(1.0 / setup.scale)
    print(
        f"  delay: p50={delay.p50 * 1e6:.1f}us p99={delay.p99 * 1e6:.1f}us "
        f"(nominal, sketch)"
    )
    print(f"  {nic.stats_summary()}")
    return 0


def _cmd_simulate_fabric(args: argparse.Namespace, policy, link: float, demands: Dict[str, float]) -> int:
    """``fv simulate --hosts N [--shards K]``: the sharded fabric.

    Everything on stdout is deterministic for a fixed seed and
    *identical for every shard count* (the engine's contract); the
    wall-clock/worker line goes to stderr so shard counts can be
    diff-checked: ``fv simulate ... --shards 2 2>/dev/null``.
    """
    from .topology import ScaledSetup, SimulationSpec

    setup = ScaledSetup.for_link(link, scale=args.scale, seed=args.seed)
    spec = SimulationSpec(
        topology=_simulate_topology(args, policy, demands),
        setup=setup,
        duration=args.duration,
        packet_size=args.packet_size,
        title=f"fv simulate fabric ({args.hosts} hosts)",
        shards=args.shards,
    )
    result = spec.run()

    achieved = {app: result.throughput_bps(app) for app in sorted(demands)}
    _report_rates(
        f"simulated {args.duration:.1f}s at link {format_rate(link)} "
        f"(fabric: {args.hosts} hosts, scale=1/{setup.scale:g}, "
        f"seed={setup.seed}):",
        demands,
        achieved,
        sum(achieved.values()),
        per_host=True,
    )
    print(
        f"  delivered={result.total_packets} "
        f"drops={result.total_dropped}/{result.total_submitted} "
        f"windows={result.windows}"
        + (" [degraded: zero lookahead]" if result.degraded else "")
    )
    print(
        f"shards={result.shards} workers={min(result.shards, args.hosts)} "
        f"wall={result.wall_seconds:.2f}s",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# fv campaign
# ----------------------------------------------------------------------
def _split_grid_values(text: str) -> List[str]:
    """Split a ``--set`` value list on top-level commas only, so
    ``sizes=[1518,512]`` stays one (list-valued) grid point while
    ``seed=11,12`` becomes two."""
    parts: List[str] = []
    current: List[str] = []
    depth = 0
    for ch in text:
        if ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def _coerce_value(text: str) -> Any:
    """Best-effort literal parse (ints, floats, lists, tuples, strings).
    ``nan`` and ``inf`` are no Python literals but read as floats, in a
    bracketed list or parenthesised tuple too, so the finiteness check
    sees them."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        pass
    if text[:1] + text[-1:] in ("[]", "()"):
        items = [_coerce_value(item) for item in _split_grid_values(text[1:-1])]
        return items if text[0] == "[" else tuple(items)
    try:
        return float(text)
    except ValueError:
        return text


def _non_finite(value: Any) -> bool:
    """Whether *value* is, or holds, a NaN or infinite float."""
    if isinstance(value, (list, tuple)):
        return any(_non_finite(item) for item in value)
    return isinstance(value, float) and not math.isfinite(value)


def _parse_set_overrides(flags: List[str]) -> Dict[str, List[Any]]:
    overrides: Dict[str, List[Any]] = {}
    for flag in flags:
        key, sep, value_text = flag.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SystemExit(
                f"fv campaign: error: --set expects KEY=V1[,V2...], got {flag!r}"
            )
        values = [_coerce_value(v) for v in _split_grid_values(value_text)]
        if not values:
            raise SystemExit(
                f"fv campaign: error: --set {key}= names no values"
            )
        for value in values:
            if _non_finite(value):
                raise ReproError(f"--set {key} must be finite, got {value}")
        if key in overrides:
            raise SystemExit(
                f"fv campaign: error: duplicate --set axis {key!r}"
            )
        overrides[key] = values
    return overrides


def _campaign_overrides(args: argparse.Namespace) -> Dict[str, List[Any]]:
    """Merge ``--set`` axes with the shared simulation flags. The
    shared flags use suppressed defaults, so only ones the user typed
    become grid overrides."""
    overrides = _parse_set_overrides(args.set)
    if hasattr(args, "link"):
        link = parse_rate(args.link)
        overrides.setdefault("nominal_link_bps", [link])
        overrides.setdefault("wire_bps", [link])
    for key in ("seed", "scale", "duration"):
        if hasattr(args, key):
            value = getattr(args, key)
            # argparse's float() accepts "nan" and "inf", as for
            # ``fv simulate``.
            if _non_finite(value):
                raise ReproError(f"--{key} must be finite, got {value}")
            overrides.setdefault(key, [value])
    return overrides


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from .experiments.campaign import REGISTRY

    width = max((len(name) for name in REGISTRY.names()), default=0)
    for spec in REGISTRY:
        print(f"{spec.name:<{width}s}  {spec.description}")
        if args.verbose:
            if spec.defaults:
                print(f"{'':<{width}s}  defaults: {dict(spec.defaults)}")
            if spec.schema:
                schema = {
                    attr: (t.__name__ if t is not None else "any")
                    for attr, t in spec.schema.items()
                }
                print(f"{'':<{width}s}  schema:   {schema}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .experiments.campaign import CampaignRunner

    overrides = _campaign_overrides(args)
    runner = CampaignRunner(
        workers=args.workers,
        timeout=args.timeout,
        cache_dir=None if args.no_cache else args.cache_dir,
        manifest_path=args.manifest,
    )
    tasks = runner.tasks_for(args.specs, overrides=overrides)
    print(
        f"campaign: {len(tasks)} task(s) over {len(args.specs)} spec(s), "
        f"workers={args.workers}"
        + ("" if args.no_cache else f", cache={args.cache_dir}")
    )
    report = runner.run(tasks)
    print(report.summary_table().render())
    if not args.no_cache:
        print(f"cache hit rate: {report.cache_hit_rate:.0%}")
    print(f"manifest: {args.manifest}")
    if args.tables:
        for record in report.records:
            result = report.results.get(record.task_id)
            if result is not None:
                print()
                print(result.to_table().render())
    return 0 if report.ok else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from collections import Counter

    from .experiments.campaign import read_manifest
    from .stats.report import Table

    records = read_manifest(args.manifest)
    counts = Counter(record.status for record in records)
    summary = ", ".join(f"{status}={n}" for status, n in sorted(counts.items()))
    print(f"{args.manifest}: {len(records)} task(s): {summary or 'empty'}")
    table = Table("campaign status", ["task", "status", "duration(s)"])
    for record in records:
        table.add_row(record.task_id, record.status, f"{record.duration:.2f}")
    print(table.render())
    return 0 if all(r.status in ("ok", "cached") for r in records) else 1


def main(argv=None) -> int:
    """Entry point for the ``fv`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "show":
            return _cmd_show(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "campaign":
            if args.campaign_command == "list":
                return _cmd_campaign_list(args)
            if args.campaign_command == "run":
                return _cmd_campaign_run(args)
            if args.campaign_command == "status":
                return _cmd_campaign_status(args)
    except ReproError as exc:
        print(f"fv: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fv: error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
