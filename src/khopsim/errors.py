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
    """Gains do not certify finite-time convergence (phi or psi <= 0)."""

    def __init__(self, agent: int, quantity: str, value: float):
        self.agent = agent
        self.quantity = quantity
        self.value = value
        super().__init__(
            f"agent {agent}: {quantity} = {value:.6g} <= 0, gains do not certify convergence"
        )


class ProtocolError(KhopsimError):
    """Message content or controller wiring violates the communication protocol."""


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
