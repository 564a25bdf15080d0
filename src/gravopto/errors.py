"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A request exceeds a hard size limit (dense matrices, a topology's qubits)."""


class RoutingError(RuntimeError):
    """A two-qubit gate cannot be routed on the given topology."""


class ConfigError(ValueError):
    """An experiment configuration value is invalid. Message names the field."""
