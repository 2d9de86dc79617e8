"""Self-synchronizing delayed-integrator consensus: simulation and analysis."""

from .digraph import (
    Connectivity,
    GraphValidationError,
    SccDecomposition,
    SensorDigraph,
    degrees,
    from_document,
    is_balanced,
    laplacian,
    new_digraph,
    scc_decompose,
    to_document,
)
from .spectral import (
    SpectralError,
    characteristic_function,
    empirical_rate,
    gamma_left_eigenvector,
    gamma_per_cluster,
    rate_kappa_bound,
    rate_no_delay,
)
from .netgen import (
    DelayMatrix,
    NodeGeometry,
    channel_pathloss,
    channel_rayleigh,
    delays_from_geometry,
    place_nodes,
    speed_for_max_delay,
    threshold_prune,
)
from .dde_sim import (
    InitialCondition,
    NodeMean,
    SimConfig,
    SimRun,
    SimulationError,
    SyncCluster,
    SyncResult,
    Trajectory,
    detect_sync,
    detect_sync_auto,
    simulate,
    simulate_batch,
    trajectory_to_npz,
)
from .protocols import (
    ClusterPrediction,
    ConsensusPrediction,
    ProtocolError,
    UnbiasReport,
    gamma_estimation_protocol,
    predict_consensus,
    predict_intercepts,
    two_step_unbias,
)
from .stats import (
    GlrtModel,
    LinearObsModel,
    ModelError,
    blue_local,
    centralized_blue,
    consensus_function,
    consensus_function_vector,
    glrt_local,
    glrt_network,
)
from . import topologies

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
