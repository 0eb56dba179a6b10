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
   $ fv bench --baseline BENCH_hotpath.json # hot-path perf + regression gate

``simulate`` runs the policy in software mode against constant-rate
app demands and prints the achieved rate per app — a quick what-if
evaluator for policy authors. ``campaign`` fans registered experiment
specs (``fv campaign list``) over a worker-process pool with caching,
timeouts, and a JSONL manifest (DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import ast
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

    bench = sub.add_parser(
        "bench", parents=[_sim_parent(explicit=True)],
        help="hot-path microbenchmark: kernel events/sec, packets/sec",
    )
    bench.add_argument(
        "--out", default="BENCH_hotpath.json", metavar="JSON",
        help="result artifact path (default BENCH_hotpath.json; "
             "BENCH_megaflow.json with --workload trace)",
    )
    bench.add_argument(
        "--workload", default="hotpath", choices=("hotpath", "trace"),
        help="bench workload: the fig11a hot path (default), or the "
             "E-MEGAFLOW million-flow batched heavy-tailed trace "
             "(--workload trace): deterministic counters on stdout, "
             "wall time on stderr, and the artifact records the "
             "workload so --baseline gates compare like with like",
    )
    bench.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the workload N times (fresh build each time) and "
             "report median/min wall time; events/packet is checked "
             "identical across repeats (default 1)",
    )
    bench.add_argument(
        "--baseline", default=None, metavar="JSON",
        help="committed BENCH json to regress against: exit 1 when "
             "events/packet exceeds the baseline by more than the "
             "tolerance (the ratio is deterministic per seed, so this "
             "works across machines)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.02,
        help="allowed relative events/packet increase vs --baseline "
             "(default 0.02)",
    )
    bench.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="bench the sharded fabric engine on N worker processes "
             "(an 8-host ring) instead of the single-NIC hot path; "
             "the artifact records the shard count so the --baseline "
             "gate only compares like with like (default 1)",
    )
    bench.add_argument(
        "--hosts", type=int, default=8, metavar="N",
        help="fabric size for --shards > 1 (default 8)",
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
                      help="per-task wall-clock budget in seconds")
    crun.add_argument("--retries", type=int, default=2,
                      help="retry budget for transient failures (default 2)")
    crun.add_argument("--backoff", type=float, default=0.5,
                      help="base retry backoff in seconds, doubled per "
                           "attempt (default 0.5)")
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
    policy = _load_policy(args.script)
    link = parse_rate(args.link)
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
    heap = [(0.0, app) for app in sorted(demands)]
    heapq.heapify(heap)
    while heap:
        t, app = heapq.heappop(heap)
        if t >= args.duration:
            continue
        packet = factory.make(args.packet_size, flows[app], t, app=app)
        if valve.process(packet, t) is Verdict.FORWARD:
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

    if args.scale <= 0:
        raise ReproError(f"--scale must be positive, got {args.scale}")
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

    if args.scale <= 0:
        raise ReproError(f"--scale must be positive, got {args.scale}")
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
        setup.nic_config(
            fluid=not args.no_fluid, fluid_classify=not args.no_fluid
        ),
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

    if args.scale <= 0:
        raise ReproError(f"--scale must be positive, got {args.scale}")
    if args.hosts < 1:
        raise ReproError(f"--hosts must be at least 1, got {args.hosts}")
    if args.shards < 1:
        raise ReproError(f"--shards must be at least 1, got {args.shards}")
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
# fv bench
# ----------------------------------------------------------------------
def _cmd_bench(args: argparse.Namespace) -> int:
    """``fv bench``: the E-PERF hot-path microbenchmark from the shell.

    Runs the same seeded Fig. 11(a) workload as
    ``benchmarks/test_bench_hotpath.py`` (builder shared through
    :mod:`repro.experiments.hotpath`), prints the one-line summary and
    persists the JSON artifact. With ``--baseline`` it doubles as the
    CI regression gate on the deterministic events/packet ratio.
    """
    import json
    import os
    import platform
    import statistics
    from dataclasses import replace as dc_replace

    from .experiments import hotpath
    from .stats.perf import measure_run, write_json

    # The shared flags use suppressed defaults; the bench's canonical
    # point is the recorded reference config (seed 7, scale 200, 20 s).
    shards = getattr(args, "shards", 1)
    hosts = getattr(args, "hosts", 8)
    workload = getattr(args, "workload", "hotpath")
    fabric_mode = shards > 1
    trace_mode = workload == "trace"
    if fabric_mode and trace_mode:
        raise ReproError(
            "--workload trace is single-NIC only (the megaflow trace "
            "engine drives one pipeline); drop --shards"
        )
    seed = getattr(args, "seed", hotpath.DEFAULT_SETUP.seed)
    repeat = getattr(args, "repeat", 1)
    if fabric_mode:
        from .experiments import fabric

        scale = getattr(args, "scale", fabric.DEFAULT_SETUP.scale)
        duration = getattr(args, "duration", 2.0)
    elif trace_mode:
        from .experiments import megaflow

        scale = getattr(args, "scale", megaflow.DEFAULT_SETUP.scale)
        duration = getattr(args, "duration", megaflow.DEFAULT_DURATION)
    else:
        scale = getattr(args, "scale", hotpath.DEFAULT_SETUP.scale)
        duration = getattr(args, "duration", hotpath.DEFAULT_DURATION)
    # The artifact name follows the workload unless the user chose one.
    out = args.out
    if trace_mode and out == "BENCH_hotpath.json":
        out = "BENCH_megaflow.json"
    if scale <= 0:
        raise ReproError(f"--scale must be positive, got {scale}")
    if duration <= 0:
        raise ReproError(f"--duration must be positive, got {duration}")
    if repeat < 1:
        raise ReproError(f"--repeat must be at least 1, got {repeat}")
    if shards < 1:
        raise ReproError(f"--shards must be at least 1, got {shards}")
    workers = min(shards, hosts) if fabric_mode else 1

    # Each repeat rebuilds the world from the seed: wall time varies
    # with the machine, but events/packets must not — a fixed seed is
    # the whole point of the events/packet gate.
    results = []
    if fabric_mode:
        label = f"fabric{hosts}-shards{shards}-scale{scale:g}-{duration:g}s"
        fabric_setup = dc_replace(fabric.DEFAULT_SETUP, scale=scale, seed=seed)
        for _ in range(repeat):
            fr = fabric.run(
                fabric_setup, hosts=hosts, shards=shards, duration=duration,
            )
            results.append(fr.perf(label))
    elif trace_mode:
        mf_setup = dc_replace(megaflow.DEFAULT_SETUP, scale=scale, seed=seed)
        for _ in range(repeat):
            mr = megaflow.run(mf_setup, duration=duration)
            results.append(mr.perf)
    else:
        setup = dc_replace(hotpath.DEFAULT_SETUP, scale=scale, seed=seed)
        label = f"fig11a-scale{setup.scale:g}-{duration:g}s"
        for _ in range(repeat):
            sim, nic = hotpath.build(setup)
            results.append(measure_run(
                sim, lambda: sim.run(until=duration), lambda: nic.submitted, label=label,
            ))

    first = results[0]
    for r in results[1:]:
        if (r.events, r.packets) != (first.events, first.packets):
            raise ReproError(
                "nondeterministic bench run: "
                f"{r.events}/{r.packets} events/packets vs "
                f"{first.events}/{first.packets} on an identical seed"
            )
    walls = sorted(r.wall_seconds for r in results)
    wall_median = statistics.median(walls)
    wall_min = walls[0]
    # The reported result uses the median wall (robust against a cold
    # first run); events/packets/ratio are identical in every repeat.
    result = dc_replace(
        first,
        wall_seconds=wall_median,
        events_per_sec=first.events / wall_median if wall_median > 0 else 0.0,
        packets_per_sec=first.packets / wall_median if wall_median > 0 else 0.0,
    )
    if trace_mode:
        # Everything on stdout is deterministic for a fixed seed (the
        # fabric-simulate convention); wall-clock facts go to stderr so
        # two runs can be diff-checked: `fv bench --workload trace
        # 2>/dev/null`.
        print(
            f"megaflow[{result.label}]: events={result.events} "
            f"packets={result.packets} "
            f"events/packet={result.events_per_packet:.3f}"
        )
        print(
            f"  flows={mr.flows} completed={mr.flows_completed} "
            f"delivered={mr.delivered} dropped={mr.dropped} "
            f"windows={mr.windows}"
        )
        print(
            f"  emc: hits={mr.emc_hits} misses={mr.emc_misses} "
            f"evictions={mr.emc_evictions} "
            f"hit_ratio={mr.emc_hit_ratio:.3f}"
        )
        print(
            f"  delay: p50={mr.delay.p50 * 1e6:.1f}us "
            f"p99={mr.delay.p99 * 1e6:.1f}us (nominal) "
            f"sketch_bins={mr.sketch_bins}"
        )
        print(
            f"wall={wall_median:.2f}s peak_rss="
            f"{mr.peak_rss_kib // 1024}MiB repeats={repeat}",
            file=sys.stderr,
        )
    else:
        print(result.summary())
        if repeat > 1:
            print(
                f"repeats: {repeat} (wall median={wall_median:.2f}s "
                f"min={wall_min:.2f}s)"
            )

    extra = {
        "seed": seed,
        "shards": shards,
        "workload": workload,
        "workers": workers,
        "repeat": repeat,
        "wall_seconds_all": [r.wall_seconds for r in results],
    }
    if fabric_mode:
        # Lane and per-domain breakdowns (deterministic, same in every
        # repeat) so the regression gate can localize which domain's
        # lane disengaged, not just see the total ratio move.
        extra.update({
            "hosts": hosts,
            "fluid_absorbed": fr.fluid_absorbed,
            "fluid_spills": fr.fluid_spills,
            "fluid_suspends": fr.fluid_suspends,
            "domain_events": fr.domain_events,
        })
    elif trace_mode:
        # Flow/cache/sketch tallies — deterministic, same in every
        # repeat (peak RSS is process-lifetime, recorded for the bench
        # memory bound rather than the gate).
        extra.update(mr.extra())
    else:
        # Seed-code reference ratios only make sense for the canonical
        # single-NIC hot-path workload.
        extra.update({
            "seed_events": hotpath.SEED_EVENTS,
            "seed_packets": hotpath.SEED_PACKETS,
            "seed_pkt_per_sec_ref": hotpath.SEED_PKT_PER_SEC,
            "speedup_pkt_per_sec_vs_seed": (
                result.packets_per_sec / hotpath.SEED_PKT_PER_SEC
            ),
            "kernel_events_cut_vs_seed": (
                hotpath.SEED_EVENTS / result.events if result.events else 0.0
            ),
        })
    extra.update({
        "wall_seconds_median": wall_median,
        "wall_seconds_min": wall_min,
        # Wall-dependent rates only compare like-for-like on the same
        # host/interpreter; record both next to the numbers.
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python_implementation": platform.python_implementation(),
            "python_version": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
    })
    write_json(out, result, extra=extra)
    print(f"artifact: {out}")

    if args.baseline is not None:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        base_workload = baseline.get("workload", "hotpath")
        if base_workload != workload:
            # Same reasoning as the shards skip below: the hot path and
            # the megaflow trace have different events/packet ratios by
            # design, so a cross-workload comparison means nothing.
            print(
                f"baseline {args.baseline}: recorded for workload="
                f"{base_workload}, this run used --workload {workload}; "
                "skipping the events/packet gate (ratios only compare "
                "like with like)"
            )
            return 0
        base_shards = baseline.get("shards", 1)
        if base_shards != shards:
            # Different workloads (single-NIC hot path vs. sharded
            # fabric) have different events/packet ratios by design.
            print(
                f"baseline {args.baseline}: recorded at shards={base_shards}, "
                f"this run used --shards {shards}; skipping the "
                "events/packet gate (ratios only compare like with like)"
            )
            return 0
        base_epp = baseline["events_per_packet"]
        limit = base_epp * (1.0 + args.tolerance)
        delta = (result.events_per_packet - base_epp) / base_epp if base_epp else 0.0
        verdict = "ok" if result.events_per_packet <= limit else "REGRESSION"
        print(
            f"baseline {args.baseline}: events/packet "
            f"{base_epp:.3f} -> {result.events_per_packet:.3f} "
            f"({delta:+.2%}, tolerance {args.tolerance:.0%}): {verdict}"
        )
        if result.events_per_packet > limit:
            return 1
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
    """Best-effort literal parse (ints, floats, lists, strings)."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


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
            overrides.setdefault(key, [getattr(args, key)])
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
        retries=args.retries,
        backoff=args.backoff,
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
    table = Table("campaign status", ["task", "status", "attempts", "duration(s)"])
    for record in records:
        table.add_row(record.task_id, record.status, record.attempts,
                      f"{record.duration:.2f}")
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
        if args.command == "bench":
            return _cmd_bench(args)
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
