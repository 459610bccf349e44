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
    GainConditionViolated,
    GraphNotConnected,
    IndexOutOfRange,
    KhopsimError,
    NumericalError,
    ProtocolError,
    StateBoxViolation,
    TelemetryError,
)
from .graph_khop import (
    Graph,
    KHopNeighborhood,
    all_khop_sets,
    coupling_matrices,
    khop_set,
)
from .gain_tuning import (
    BoundSet,
    ConvergenceCertificate,
    GainSet,
    PlantModel,
    certificate,
    coupling_spectra,
    design_g,
    tune_gains,
    tune_omega,
    tune_pi,
    tune_theta,
)
from .plant_sim import (
    SimConfig,
    Telemetry,
    consensus_distance,
    detect_convergence,
    init_world,
    lambda2,
    run,
    write_csv,
)

__version__ = "0.1.0"
