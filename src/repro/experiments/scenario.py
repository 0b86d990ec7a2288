"""Scenario assembly: wire every substrate into a runnable simulation.

:class:`Scenario` builds, from a :class:`ScenarioConfig`: the DES kernel,
the acoustic channel, a connected water-column deployment, one node +
modem + MAC per sensor, depth routing, mobility, and a traffic source.
It then runs either the Poisson steady-state experiment (Figs. 6/7/9/10/11)
or the batch-drain experiment (Fig. 8), and produces a
:class:`ScenarioResult` with every paper metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..des.rng import derive_seed
from ..des.simulator import Simulator
from ..des.trace import Tracer
from ..energy.model import EnergyReport, PowerModel, network_energy
from ..mac.base import SlottedMac
from ..mac.registry import get_protocol
from ..mac.slots import make_slot_timing
from ..metrics.efficiency import EfficiencyIndex, efficiency_index
from ..metrics.execution import (
    ExecutionResult,
    drain_toward_deadline,
    mean_delivery_delay_s,
)
from ..metrics.overhead import OverheadReport, network_overhead
from ..metrics.throughput import ThroughputReport, network_throughput
from ..metrics.utilization import UtilizationReport, network_utilization
from ..faults.audit import FaultAuditError, audit_macs
from ..faults.injector import FaultInjector, FaultReport
from ..net.clock import NodeClock
from ..net.node import Node
from ..perf import GLOBAL_PERF, PerfReport
from ..phy.channel import AcousticChannel
from ..topology.deployment import (
    DeploymentConfig,
    connected_column_deployment,
    tiled_column_deployment,
)
from ..topology.mobility import MobilityManager
from ..topology.routing import DepthRouting
from ..traffic.generators import BatchWorkload, PoissonTraffic
from .config import ScenarioConfig


@dataclass
class ScenarioResult:
    """Every metric the paper's figures consume, for one run."""

    protocol: str
    config: ScenarioConfig
    throughput: ThroughputReport
    energy: EnergyReport
    overhead: OverheadReport
    efficiency: EfficiencyIndex
    utilization: UtilizationReport
    collisions: int
    mean_delay_s: float
    execution: Optional[ExecutionResult] = None
    extra_completed: int = 0
    offered_bits: int = 0
    #: Degradation report, present iff the scenario ran with a non-empty
    #: fault plan (fault event log, recovery metrics, audit outcome).
    faults: Optional[FaultReport] = None
    #: Counter snapshot for the perf layer.  Deliberately excluded from
    #: :meth:`to_dict`: wall time is machine-dependent, and figure metrics
    #: must stay bit-identical with the link cache on or off.
    perf: Optional[PerfReport] = None

    @property
    def throughput_kbps(self) -> float:
        return self.throughput.kbps

    @property
    def power_mw(self) -> float:
        return self.energy.average_power_mw

    @property
    def overhead_units(self) -> float:
        return self.overhead.total_units

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of the offered traffic (degradation metric)."""
        if self.offered_bits <= 0:
            return 0.0
        return self.throughput.total_bits / self.offered_bits

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly summary (for EXPERIMENTS.md tooling / CI)."""
        summary: Dict[str, object] = {
            "protocol": self.protocol,
            "offered_load_kbps": self.config.offered_load_kbps,
            "n_sensors": self.config.n_sensors,
            "seed": self.config.seed,
            "throughput_kbps": self.throughput_kbps,
            "power_mw": self.power_mw,
            "efficiency": self.efficiency.value,
            "overhead_units": self.overhead_units,
            "data_utilization": self.utilization.data_utilization,
            "airtime_utilization": self.utilization.airtime_utilization,
            "collisions": self.collisions,
            "mean_delay_s": self.mean_delay_s,
            "extra_completed": self.extra_completed,
            "offered_bits": self.offered_bits,
        }
        if self.execution is not None:
            summary["drain_time_s"] = self.execution.drain_time_s
            summary["timed_out"] = self.execution.timed_out
        if self.faults is not None:
            # Fault-free runs add no keys at all: downstream exports stay
            # byte-for-byte identical when no plan was configured.
            summary["delivery_ratio"] = self.delivery_ratio
            summary.update(self.faults.to_dict())
        return summary


@dataclass
class _RunPlan:
    """Where an in-flight run is headed (pickled inside every checkpoint).

    Both experiment kinds reduce to "advance the clock toward an absolute
    simulation time, then collect": storing that target (rather than the
    relative durations the public API takes) is what lets a restored
    scenario finish the run without re-deriving anything.
    """

    mode: str  # "steady" | "batch"
    #: Steady: absolute end of the measurement window.
    end_s: float = 0.0
    #: Steady: measurement duration passed to ``_collect``.
    duration_s: float = 0.0
    #: Batch: absolute drain deadline (sim time).
    deadline_s: float = 0.0
    #: Batch: the relative budget (reported as the drain time on timeout).
    max_time_s: float = 0.0
    #: Batch: drain-loop chunk size.
    check_interval_s: float = 1.0


class Scenario:
    """A fully wired simulation instance."""

    def __init__(self, config: ScenarioConfig, power: Optional[PowerModel] = None):
        self.config = config
        self.power = power if power is not None else PowerModel()
        tracer = Tracer() if config.trace else None
        self.sim = Simulator(seed=config.seed, tracer=tracer)
        deploy = (
            tiled_column_deployment
            if config.deployment == "tiled"
            else connected_column_deployment
        )
        self.deployment = deploy(
            DeploymentConfig(
                n_sensors=config.n_sensors,
                n_sinks=config.n_sinks,
                side_x_m=config.side_m,
                side_y_m=config.side_m,
                depth_m=config.side_m,
                comm_range_m=config.comm_range_m,
                seed=derive_seed(config.seed, "deployment"),
            )
        )
        self.channel = AcousticChannel(
            self.sim,
            bitrate_bps=config.bitrate_bps,
            max_range_m=config.comm_range_m,
            interference_range_factor=config.interference_range_factor,
            use_link_cache=config.link_cache,
            use_spatial_grid=config.spatial_grid,
            use_delta_epochs=config.delta_epochs,
            pool_arrivals=config.arrival_pool,
            arrival_pool_cap=config.arrival_pool_cap,
        )
        self.timing = make_slot_timing(
            bitrate_bps=config.bitrate_bps,
            control_bits=config.control_bits,
            max_range_m=config.comm_range_m,
            speed_mps=config.sound_speed_mps,
        )
        sink_set = set(self.deployment.sink_ids)
        clock_rng = self.sim.streams.get("clocks")

        def _make_clock() -> NodeClock:
            # Draw order (offset, then drift, per node) is part of the
            # reproducibility contract; each draw happens only when its
            # std is nonzero so legacy configs consume identical RNG.
            offset = (
                float(clock_rng.normal(0.0, config.clock_offset_std_s))
                if config.clock_offset_std_s > 0
                else 0.0
            )
            drift = (
                float(clock_rng.normal(0.0, config.clock_drift_ppm_std))
                if config.clock_drift_ppm_std > 0
                else 0.0
            )
            return NodeClock(self.sim, offset_s=offset, drift_ppm=drift)

        self.nodes: List[Node] = [
            Node(
                self.sim,
                node_id,
                position,
                self.channel,
                is_sink=node_id in sink_set,
                queue_limit=config.queue_limit,
                clock=_make_clock(),
            )
            for node_id, position in enumerate(self.deployment.positions)
        ]
        protocol_cls = get_protocol(config.protocol)
        self.macs: List[SlottedMac] = [
            protocol_cls(self.sim, node, self.channel, self.timing)
            for node in self.nodes
        ]
        if config.max_retries is not None:
            for mac in self.macs:
                mac.config.max_retries = config.max_retries
        self.routing = DepthRouting(self.channel, self.deployment.sink_ids)
        if config.forwarding:
            for mac in self.macs:
                mac.on_data_delivered = self._forward
        self.mobility: Optional[MobilityManager] = None
        if config.mobility:
            self.mobility = MobilityManager(
                self.sim,
                self.nodes,
                self.deployment.config,
                rng=self.sim.streams.get("mobility"),
            )
        self.traffic: Optional[PoissonTraffic] = None
        self.batch: Optional[BatchWorkload] = None
        # The injector exists only for a non-empty plan: an empty plan
        # must leave the event heap and RNG stream set untouched so the
        # figure pipeline stays bit-identical to a fault-free build.
        self.injector: Optional[FaultInjector] = None
        if config.faults:
            self.injector = FaultInjector(
                self.sim, self.nodes, self.channel, config.faults
            )
        self._started = False
        self._plan: Optional[_RunPlan] = None
        #: Fault-tolerance counters, surfaced through ``ScenarioResult.perf``.
        self.checkpoints_taken = 0
        self.resumes = 0

    # ------------------------------------------------------------------
    def _count_mac_drops(self) -> int:
        """Batch-workload drop counter (a named method so it pickles)."""
        return sum(m.stats.drops for m in self.macs)

    def _forward(self, node: Node, src: int, size_bits: int) -> None:
        """Multi-hop relay: received data continues toward the surface."""
        if node.is_sink:
            return
        next_hop = self.routing.next_hop(node.node_id)
        if next_hop is not None and next_hop != src:
            node.enqueue_data(next_hop, size_bits)

    def _start_common(self) -> None:
        if self._started:
            raise RuntimeError("scenario already started")
        self._started = True
        for mac in self.macs:
            mac.start()
        if self.mobility is not None:
            self.mobility.start()
        if self.injector is not None:
            self.injector.arm()

    # ------------------------------------------------------------------
    def run_steady_state(
        self,
        checkpoint_every_s: Optional[float] = None,
        on_checkpoint: Optional[Callable[["Scenario"], None]] = None,
    ) -> ScenarioResult:
        """Poisson offered load over the Table 2 window (Figs. 6/7/9/10/11).

        With ``checkpoint_every_s`` set, the run advances in windows of
        that many simulated seconds and invokes ``on_checkpoint(self)``
        between windows (typically to :meth:`snapshot` to disk).  Window
        boundaries are bit-neutral — the kernel pops the same events in
        the same order either way — so checkpointing never changes
        results.  Left at None (the default) the run is a single
        ``sim.run`` call: zero hot-path cost.
        """
        config = self.config
        self._start_common()
        self.traffic = PoissonTraffic(
            self.sim,
            self.nodes,
            self.routing,
            offered_load_kbps=config.offered_load_kbps,
            packet_bits=config.data_packet_bits,
            rng=self.sim.streams.get("traffic"),
        )
        self.sim.schedule_at(config.warmup_s, self.traffic.start)
        self._plan = _RunPlan(
            mode="steady",
            end_s=config.warmup_s + config.sim_time_s,
            duration_s=config.sim_time_s,
        )
        return self.resume(checkpoint_every_s, on_checkpoint)

    def run_batch(
        self,
        n_packets: int,
        max_time_s: float,
        checkpoint_every_s: Optional[float] = None,
        on_checkpoint: Optional[Callable[["Scenario"], None]] = None,
    ) -> ScenarioResult:
        """Fixed batch drained to completion (Fig. 8 execution time).

        Checkpoints (when enabled) are only ever taken on the drain
        loop's chunk boundaries, so a resumed run walks the exact same
        chunk sequence — and therefore reports the exact same
        chunk-resolution drain time — as the uninterrupted run.
        """
        if max_time_s <= 0:
            raise ValueError("max_time_s must be positive")
        config = self.config
        self._start_common()
        self.batch = BatchWorkload(
            self.sim,
            self.nodes,
            self.routing,
            n_packets=n_packets,
            packet_bits=config.data_packet_bits,
            rng=self.sim.streams.get("traffic"),
        )
        self.batch.attach_drop_counter(self._count_mac_drops)
        self.sim.schedule_at(config.warmup_s, self.batch.start)
        self.sim.run(until=config.warmup_s + 1e-6)
        self._plan = _RunPlan(
            mode="batch",
            deadline_s=self.sim.now + max_time_s,
            max_time_s=max_time_s,
        )
        return self.resume(checkpoint_every_s, on_checkpoint)

    def resume(
        self,
        checkpoint_every_s: Optional[float] = None,
        on_checkpoint: Optional[Callable[["Scenario"], None]] = None,
    ) -> ScenarioResult:
        """Finish an in-flight run (fresh or restored from a checkpoint).

        ``run_steady_state`` / ``run_batch`` record where the run is
        headed in an absolute-time :class:`_RunPlan` before the first
        measurement window, then delegate here; a scenario restored via
        :meth:`restore` calls this directly to complete the run and
        collect the result.
        """
        plan = self._plan
        if plan is None:
            raise RuntimeError("no in-flight run to resume (scenario never started)")
        if plan.mode == "steady":
            self._run_windows(plan.end_s, checkpoint_every_s, on_checkpoint)
            return self._collect(duration_s=plan.duration_s)
        on_chunk = None
        if checkpoint_every_s is not None and checkpoint_every_s > 0:
            last_at = [self.sim.now]

            def on_chunk() -> None:
                if self.sim.now - last_at[0] >= checkpoint_every_s:
                    last_at[0] = self.sim.now
                    self._take_checkpoint(on_checkpoint)

        execution = drain_toward_deadline(
            self.sim,
            self.batch,
            deadline_s=plan.deadline_s,
            max_time_s=plan.max_time_s,
            check_interval_s=plan.check_interval_s,
            on_chunk=on_chunk,
        )
        duration = max(execution.drain_time_s - self.config.warmup_s, 1e-6)
        result = self._collect(duration_s=duration)
        result.execution = execution
        return result

    def _run_windows(
        self,
        end_s: float,
        every_s: Optional[float],
        on_checkpoint: Optional[Callable[["Scenario"], None]],
    ) -> None:
        """Advance to ``end_s``, checkpointing between windows if enabled."""
        sim = self.sim
        if every_s is None or every_s <= 0:
            sim.run(until=end_s)
            return
        while sim.now < end_s:
            sim.run(until=min(sim.now + every_s, end_s))
            if sim.now < end_s:
                self._take_checkpoint(on_checkpoint)

    def _take_checkpoint(
        self, on_checkpoint: Optional[Callable[["Scenario"], None]]
    ) -> None:
        self.checkpoints_taken += 1
        if on_checkpoint is not None:
            on_checkpoint(self)

    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialize this mid-run scenario to a versioned checkpoint blob.

        See :mod:`repro.experiments.checkpoint` for the format and the
        bit-identity guarantees.  (Lazy import: the checkpoint module
        reaches back into this package via the source-digest check.)
        """
        from .checkpoint import snapshot_scenario

        return snapshot_scenario(self)

    @staticmethod
    def restore(data: bytes, check_code: bool = True) -> "Scenario":
        """Rebuild a mid-run scenario from :meth:`snapshot` output.

        The returned scenario finishes its run via :meth:`resume`;
        the final result is bit-identical to the uninterrupted run.
        """
        from .checkpoint import restore_scenario

        return restore_scenario(data, check_code=check_code)

    # ------------------------------------------------------------------
    def _collect(self, duration_s: float) -> ScenarioResult:
        throughput = network_throughput(self.macs, duration_s)
        energy = network_energy(self.macs, duration_s, self.power)
        overhead = network_overhead(self.macs)
        collisions = sum(m.node.modem.stats.rx_collision for m in self.macs)
        extra = sum(
            getattr(getattr(m, "extra_stats", None), "completed", 0) for m in self.macs
        )
        offered = 0
        if self.traffic is not None:
            offered = self.traffic.stats.bits
        elif self.batch is not None:
            offered = self.batch.stats.bits
        faults_report: Optional[FaultReport] = None
        if self.injector is not None:
            violations = audit_macs(self.macs)
            faults_report = self.injector.build_report(violations)
            if self.config.faults.strict_audit and violations:
                raise FaultAuditError(violations)
        perf = PerfReport.capture(
            self.sim,
            self.channel.stats,
            duration_s,
            checkpoints_taken=self.checkpoints_taken,
            resumes=self.resumes,
        )
        GLOBAL_PERF.add(perf)
        return ScenarioResult(
            protocol=self.config.protocol,
            config=self.config,
            throughput=throughput,
            energy=energy,
            overhead=overhead,
            efficiency=efficiency_index(throughput, energy),
            utilization=network_utilization(
                self.macs, duration_s, self.config.bitrate_bps
            ),
            collisions=collisions,
            mean_delay_s=mean_delivery_delay_s(self.nodes),
            extra_completed=extra,
            offered_bits=offered,
            faults=faults_report,
            perf=perf,
        )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build and run one steady-state scenario."""
    return Scenario(config).run_steady_state()


def run_batch_scenario(
    config: ScenarioConfig, n_packets: int, max_time_s: float
) -> ScenarioResult:
    """Build and run one batch-drain scenario."""
    return Scenario(config).run_batch(n_packets, max_time_s)
