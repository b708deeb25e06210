"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all simulator-specific failures."""


class WrongRegime(SimulatorError):
    """Parameters outside the supported (N, L) operating regimes."""


class DegenerateChannel(SimulatorError):
    """Channel rows do not admit the requested zero-forcing vector."""


class FieldError(SimulatorError, ValueError):
    """A modulus, mode, value or output buffer that a field context refuses."""


class IndivisibleFile(SimulatorError):
    """File length not divisible by the requested part count."""


class DimensionMismatch(SimulatorError):
    """Matrix or vector shapes inconsistent with the operation."""


class InconsistentInputs(SimulatorError):
    """Inputs come from different runs or contradict each other."""


class ResamplingExhausted(SimulatorError):
    """Channel rejection sampling hit its retry budget."""


class PlanVerificationError(SimulatorError):
    """A generated row code plan failed the exact verification oracle."""
