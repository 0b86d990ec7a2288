"""Experiment configuration (paper Table 2).

:data:`TABLE2` holds the paper's published simulation parameters; a
:class:`ScenarioConfig` starts from those defaults and lets each figure
sweep override its own axis (offered load, node count, packet size, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..faults.plan import FaultPlan

#: Paper Table 2, verbatim.
TABLE2: Dict[str, object] = {
    "number_of_sensors": 60,
    "deployment_area_km3": 1000.0,
    "bandwidth_kbps": 12.0,
    "communication_range_km": 1.5,
    "acoustic_speed_km_s": 1.5,
    "simulation_time_s": 300.0,
    "control_packet_bits": 64,
    "data_packet_bits_range": (1024, 4096),
    "data_packet_bits_default": 2048,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one simulation.

    Defaults reproduce Table 2.  ``warmup_s`` precedes the measurement
    window: hellos go out and slot schedules settle; traffic starts at the
    end of warmup and metrics cover exactly ``sim_time_s`` after it.
    """

    protocol: str = "EW-MAC"
    n_sensors: int = 60
    n_sinks: int = 1
    offered_load_kbps: float = 0.5
    data_packet_bits: int = 2048
    sim_time_s: float = 300.0
    warmup_s: float = 10.0
    seed: int = 1
    bitrate_bps: float = 12_000.0
    comm_range_m: float = 1500.0
    sound_speed_mps: float = 1500.0
    control_bits: int = 64
    side_m: float = 10_000.0
    #: Deployment generator: ``"column"`` (paper Fig. 1 — one connected
    #: water column, densifying as n grows) or ``"tiled"`` (one column per
    #: sink tiled over the horizontal plane — constant density as n and
    #: the region grow together; the scale sweep's shape).
    deployment: str = "column"
    mobility: bool = True
    #: Route channel geometry through the epoch-invalidated link-state
    #: cache.  Results are bit-identical either way (enforced by the
    #: equivalence tests); disable only for A/B profiling.
    link_cache: bool = True
    #: Cull broadcast rows to the transmitter's 3x3x3 spatial-hash cell
    #: neighborhood (cell side = reach), so per-broadcast cost tracks
    #: plausible receivers instead of n.  Bit-identical either way
    #: (enforced by the grid equivalence matrix); disable only for A/B
    #: profiling.  No effect when ``link_cache`` is off.
    spatial_grid: bool = True
    #: Movement-bounded delta-epochs: skip recomputing a stale cached pair
    #: when the endpoints' accumulated displacement provably cannot have
    #: brought it back inside delivery reach.  Bit-identical either way;
    #: disable only for A/B profiling.  No effect when ``link_cache`` is off.
    delta_epochs: bool = True
    #: Recycle Arrival objects through a channel-owned free-list instead of
    #: allocating one per delivery (the top allocation site after events).
    #: Safe here because the MAC layer never retains arrivals past the
    #: receive callback; raw-channel users who do retain them get fresh
    #: allocations by default (the channel-level default is off).
    arrival_pool: bool = True
    #: Upper bound on free-listed Arrival objects (memory guard for
    #: pathological delivery bursts; irrelevant when ``arrival_pool`` is off).
    arrival_pool_cap: int = 4096
    forwarding: bool = True
    queue_limit: int = 1000
    interference_range_factor: float = 2.0
    max_retries: Optional[int] = None  # None = protocol default
    clock_offset_std_s: float = 0.0  # paper assumes perfect sync (= 0)
    #: Std-dev of the per-node clock drift rate (ppm).  0 keeps every
    #: clock drift-free; nonzero draws one rate per node from the same
    #: seeded "clocks" stream the offsets use, so runs stay reproducible.
    clock_drift_ppm_std: float = 0.0
    #: Declarative fault-injection plan.  The default (empty) plan arms
    #: nothing at all: no events, no RNG streams, bit-identical results.
    faults: FaultPlan = field(default_factory=FaultPlan)
    trace: bool = False

    def __post_init__(self) -> None:
        if self.n_sensors <= 0:
            raise ValueError("need at least one sensor")
        if self.deployment not in ("column", "tiled"):
            raise ValueError(f"unknown deployment {self.deployment!r}")
        if self.data_packet_bits <= 0:
            raise ValueError("data packet size must be positive")
        if self.sim_time_s <= 0:
            raise ValueError("simulation time must be positive")
        if self.arrival_pool_cap < 0:
            raise ValueError("arrival_pool_cap must be >= 0")

    def with_(self, **overrides: object) -> "ScenarioConfig":
        """Copy with field overrides (sweep helper)."""
        return replace(self, **overrides)

    @property
    def tau_max_s(self) -> float:
        return self.comm_range_m / self.sound_speed_mps

    @property
    def omega_s(self) -> float:
        return self.control_bits / self.bitrate_bps

    @property
    def slot_s(self) -> float:
        return self.tau_max_s + self.omega_s


def table2_config(**overrides: object) -> ScenarioConfig:
    """A :class:`ScenarioConfig` at exactly the Table 2 defaults."""
    return ScenarioConfig().with_(**overrides) if overrides else ScenarioConfig()
