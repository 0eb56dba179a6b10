"""SmartNIC configuration: geometry and per-operation cycle budgets.

Defaults model a Netronome Agilio CX 40GbE (NFP-4000): 50 effective
worker micro-engines at 1.2 GHz (the paper's "many processing cores,
e.g. ≥ 50") and a 40 Gbit wire. Cycle budgets are per-operation
constants *calibrated* so the assembled pipeline's 64 B forwarding
capacity lands near the paper's measured 19.69 Mpps (Fig. 13) — see
EXPERIMENTS.md for the calibration note.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigError

__all__ = ["CycleCosts", "NicConfig"]


@dataclass(frozen=True)
class CycleCosts:
    """Per-operation budgets in micro-engine cycles.

    ``fixed_overhead`` covers the work every packet pays regardless of
    the app: MAC/DMA handoff, buffer metadata, header parse, reorder
    bookkeeping and Tx descriptor writes. The remaining entries are the
    app-specific steps of the labeling and scheduling functions.
    """

    #: Per-packet pipeline overhead (parse, buffer mgmt, reorder, tx).
    #: Calibrated so the assembled FlowValve pipeline's 64 B capacity
    #: lands at the paper's measured 19.69 Mpps (Fig. 13): the full
    #: budget works out to ≈ 3050 cycles/packet on a 2-level tree.
    fixed_overhead: int = 2100
    #: Exact-match flow cache hit (hash + one CLS read).
    emc_hit: int = 180
    #: Rule-walk cost per filter rule on an EMC miss.
    classify_per_rule: int = 220
    #: Per-class work in the scheduling loop (label decode, counter add).
    sched_per_class: int = 260
    #: The update subprocedure body (Γ roll, θ recompute, refills).
    update_body: int = 650
    #: The atomic try-lock probe when the update flag is already held.
    update_trylock: int = 60
    #: The leaf meter instruction (atomic test-and-subtract).
    meter: int = 120
    #: One shadow-bucket borrow query (update probe + atomic meter).
    borrow_query: int = 200
    #: One Tx-ring insert/remove (atomic index bump + descriptor slot),
    #: same scale as the try-lock probe. Used by the crossbar cost
    #: model (DESIGN.md §10); the assembled pipeline folds ring work
    #: into ``fixed_overhead``.
    ring_op: int = 60

    def validate(self) -> None:
        """All budgets must be non-negative."""
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"cycle cost {name} must be >= 0, got {value}")


@dataclass(frozen=True)
class NicConfig:
    """Geometry and capacities of the modelled SmartNIC."""

    #: Micro-engine clock.
    freq_hz: float = 1.2e9
    #: Effective worker micro-engines pulling packets.
    n_workers: int = 50
    #: Wire rate of the egress port.
    line_rate_bps: float = 40e9
    #: PCIe DMA + load-balancer latency from host ring to a worker.
    rx_dma_latency: float = 8e-6
    #: Fixed egress-path latency (Tx DMA, traffic manager, MAC) beyond
    #: serialisation — the "other necessary processing" behind the
    #: paper's 161 µs forwarding floor at 40 Gbit (§V-B).
    tx_fixed_latency: float = 4e-6
    #: Dispatch queue depth in packets (load-balancer backlog).
    dispatch_depth: int = 512
    #: Shared Tx ring depth in packets.
    tx_ring_depth: int = 1024
    #: Packet buffers in the MU buffer lists.
    buffer_count: int = 4096
    #: Delay for the manager core to re-link a freed buffer.
    buffer_recycle_delay: float = 2e-6
    #: Update-lock discipline: "trylock" (FlowValve's design),
    #: "per_class_block" (Fig. 7c), "global_block" (naive offload),
    #: "sequential" (Fig. 7b: one worker does all scheduling).
    lock_mode: str = "trylock"
    #: Allow the batched egress + single-wakeup packet fast path
    #: (DESIGN.md §7). Semantically identical to the multi-yield slow
    #: path — seeded runs are bit-identical either way — and engaged
    #: only while tracing and metrics are off; set False to force the
    #: slow path (equivalence tests, debugging).
    fast_path: bool = True
    #: Max emission instants a burst-capable sender may precompute and
    #: hand to ``NicPipeline.submit_burst`` as one run-lane train
    #: (DESIGN.md §7). Like ``fast_path`` it is auto-disabled while
    #: tracing or metrics are on (and whenever ``fast_path`` is off);
    #: 0 forces per-packet ingress. Observable behaviour is identical
    #: either way.
    ingress_burst: int = 64
    #: Allow the fluid fast-forward lane (DESIGN.md §7): packets of
    #: quiescent flows — no update due on the path, no competing
    #: update in flight — are carried to their scheduling decision
    #: analytically through a deferred micro-queue instead of a worker
    #: wakeup chain, materialising zero kernel events until a boundary
    #: (update epoch, run horizon) trips the detector. An EMC miss is
    #: absorbed by replaying the classifier walk at its virtual time
    #: (DESIGN.md §12). Bit-identical to the per-packet path;
    #: auto-disabled with tracing/metrics, the slow path, drop
    #: callbacks, or an eventful sink. Set False to force per-packet
    #: processing.
    fluid: bool = True
    #: Per-operation cycle budgets.
    costs: CycleCosts = field(default_factory=CycleCosts)

    _LOCK_MODES = ("trylock", "per_class_block", "global_block", "sequential")

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ConfigError("freq_hz must be positive")
        if self.n_workers <= 0:
            raise ConfigError("n_workers must be positive")
        if self.line_rate_bps <= 0:
            raise ConfigError("line_rate_bps must be positive")
        if self.ingress_burst < 0:
            raise ConfigError(f"ingress_burst must be >= 0, got {self.ingress_burst}")
        if self.lock_mode not in self._LOCK_MODES:
            raise ConfigError(
                f"lock_mode must be one of {self._LOCK_MODES}, got {self.lock_mode!r}"
            )
        self.costs.validate()

    # ------------------------------------------------------------------
    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at the ME clock."""
        return cycles / self.freq_hz

    def worker_capacity_pps(self, cycles_per_packet: float) -> float:
        """Aggregate forwarding capacity for a given per-packet budget."""
        if cycles_per_packet <= 0:
            return float("inf")
        return self.n_workers * self.freq_hz / cycles_per_packet

    def scaled(self, rate_scale: float) -> "NicConfig":
        """A config for a rate-scaled experiment: the wire slows by
        *rate_scale* and every latency/compute term stretches by the
        same factor, keeping all dimensionless ratios identical."""
        if rate_scale <= 0:
            raise ConfigError("rate_scale must be positive")
        return replace(
            self,
            freq_hz=self.freq_hz / rate_scale,
            line_rate_bps=self.line_rate_bps / rate_scale,
            rx_dma_latency=self.rx_dma_latency * rate_scale,
            tx_fixed_latency=self.tx_fixed_latency * rate_scale,
            buffer_recycle_delay=self.buffer_recycle_delay * rate_scale,
            # Queue depths scale with the packet rate so the *time* a
            # full queue represents is preserved (a 1024-deep ring at
            # 1/1000 the packet rate would otherwise hold 1000x the
            # buffering delay and bufferbloat every TCP RTT estimate).
            dispatch_depth=max(16, int(self.dispatch_depth / rate_scale)),
            tx_ring_depth=max(16, int(self.tx_ring_depth / rate_scale)),
            buffer_count=max(64, int(self.buffer_count / rate_scale)),
        )
