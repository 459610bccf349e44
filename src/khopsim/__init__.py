"""khopsim: multi-hop distributed observers and communication-aware control.

Agents coupled over an undirected graph estimate the states and inputs of
agents two or more hops away using only 1-hop messages, feed the estimates
into a consensus-style controller, and the toolkit certifies the finite-time
convergence bounds and the closed-loop stability envelope numerically.
"""

from .errors import (
    CertificateInfeasible,
    CouplingNotPD,
    DivergenceDetected,
    EmptyNeighborhood,
    GainConditionViolated,
    GraphNotConnected,
    IndexOutOfRange,
    KhopsimError,
    MissingNeighborData,
    NumericalError,
    ProtocolError,
    StateBoxViolation,
)
from .graph_khop import (
    Graph,
    KHopNeighborhood,
    ObserverCoupling,
    all_khop_sets,
    check_neighbor_overlap,
    coupling_matrices,
    khop_set,
)
from .gain_tuning import (
    BoundSet,
    ConvergenceCertificate,
    GainSet,
    PlantModel,
    certificate,
    design_G,
    g_spectrum,
    tune_gains,
    tune_omega,
    tune_pi,
    tune_theta,
    verify_gain_inequality,
)
from .khop_observer import (
    NeighborMessage,
    ObserverDerivative,
    ObserverState,
    compute_rho,
    compute_xi,
    input_observer_derivative,
    state_observer_derivative,
)
from .plant_sim import (
    Controller,
    SimConfig,
    Telemetry,
    consensus_control,
    consensus_distance,
    detect_convergence,
    init_world,
    lambda2,
    run,
    step,
    write_csv,
)

__version__ = "0.1.0"
