"""Deterministic simulator of secured tracking in a mobile ad hoc cluster.

Friendly/malicious node screening runs on a chained 256-bit integrated-key
cipher; detected targets are tracked by pairs of friendly reference nodes
using sectored adaptive beams, tracking zones, round-trip ranging and
two-circle triangulation.  Everything is seeded and reproducible.
"""

from sectrack.channel import ChannelConfig, propagate, received_energy
from sectrack.cipher import (
    CipherPacket,
    EnsemblePacket,
    IntegratedKey,
    SeedPair,
    decrypt_packet,
    derive_initial_key,
    encrypt_packet,
    evolve_key,
    key_chain,
    pad,
    reconstruct_initial_key,
    rng1,
    rng2,
    unpad,
)
from sectrack.config import ScenarioConfig, parse_config
from sectrack.engine import run_scenario
from sectrack.geometry import (
    Position,
    RangeMeasurement,
    TrackingZone,
    ZoneConfig,
    beamwidth_for_zone,
    form_zone,
    range_from_timestamps,
    sector_of,
    triangulate,
)
from sectrack.metrics import (
    MetricsLog,
    mean_tracking_error,
    plt_efficiency,
    switching_overhead,
    write_csv,
)
from sectrack.mobility import MobilityState, step
from sectrack.protocol import (
    AdversaryModel,
    Verdict,
    complete_verification,
    detection_rate,
    detection_single,
    monte_carlo_detection,
)

__version__ = "0.1.0"
