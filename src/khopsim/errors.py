"""Exception types shared across the toolkit.

Every error raised on purpose by khopsim derives from :class:`KhopsimError`,
so callers (and the CLI) can distinguish domain failures from plain bugs.
"""


class KhopsimError(Exception):
    """Base class for all khopsim errors."""


class GraphNotConnected(KhopsimError):
    """The communication graph is not connected; observer theory requires it."""


class IndexOutOfRange(KhopsimError):
    """An agent index is outside 1..n."""


class EmptyNeighborhood(KhopsimError):
    """Operation needs a non-empty multi-hop neighborhood (eta >= 1)."""


class NumericalError(KhopsimError):
    """Non-finite values or a numerical kernel failed to converge."""


class GainConditionViolated(KhopsimError):
    """A user-supplied design matrix or gain fails its required inequality."""


class CouplingNotPD(KhopsimError):
    """Coupling matrix is not positive definite within tolerance."""


class CertificateInfeasible(KhopsimError):
    """Gains do not certify finite-time convergence (phi or psi <= 0, omega < bound)."""

    def __init__(self, agent: int, quantity: str, value: float, bound: float = 0.0):
        self.agent = agent
        self.quantity = quantity
        self.value = value
        self.bound = bound
        rule = f"< {bound:.6g}" if quantity == "omega" else "<= 0"
        super().__init__(
            f"agent {agent}: {quantity} = {value:.6g} {rule}, gains do not certify convergence"
        )


class ProtocolError(KhopsimError):
    """Message content or controller wiring violates the communication protocol."""


class TelemetryError(KhopsimError):
    """A telemetry record that cannot be judged: no samples, or sample times
    that are not finite and strictly increasing."""


class DivergenceDetected(KhopsimError):
    """Simulation produced a non-finite state."""

    def __init__(self, time: float, agent: int, detail: str = "non-finite state"):
        self.time = time
        self.agent = agent
        super().__init__(f"t={time:.6g}s, agent {agent}: {detail}")


class StateBoxViolation(DivergenceDetected):
    """A true state left the configured state box; dynamics no longer trusted."""

    def __init__(self, time: float, agent: int, value: float, box: tuple):
        super().__init__(time, agent, f"state component {value:.6g} outside box {box}")
        self.value = value
        self.box = box
