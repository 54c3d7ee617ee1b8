"""Sparsified single-peer gossip SGD with bandwidth-adaptive peer selection."""

from .analysis import (
    RoundRecord,
    SpectralEstimate,
    consensus_error,
    estimate_rho,
    export_csv,
    measure_contraction,
    second_eigenvalue,
)
from .cli import ExperimentConfig, ExperimentResult, run_experiment
from .coordinator import (
    ALGORITHMS,
    Coordinator,
    CostModelInput,
    comm_cost,
    default_b_thres,
    get_new_connected_graph,
    make_selector,
)
from .core import (
    AdjacencyMatrix,
    BandwidthMatrix,
    CompressionConfig,
    GossipMatrix,
    Matching,
    SplitMix64,
    TimestampMatrix,
    splitmix64_array,
    symmetrize_bandwidth,
)
from .matching import (
    AdaptiveSelector,
    RandomSelector,
    RingSelector,
    get_over_time_matrix,
    get_unmatch,
    if_connected,
    max_matching,
    randomly_max_match,
)
from .objectives import (
    DataShard,
    ObjectiveSet,
    make_logistic,
    make_mlp,
    make_quadratic,
)
from .sparsify import (
    MaskStream,
    SparsePayload,
    decode_payload,
    encode_payload,
    extract_payload,
    generate_mask,
    merge_masked,
)
from .transport import SimFabric, TcpFabric, round_time
from .worker import Worker

__version__ = "0.1.0"
