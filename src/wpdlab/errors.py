"""Exception types raised by wpdlab.

All inherit from ValueError so that generic callers may catch them broadly;
each carries a stable ``category`` string used by the CLI for machine-readable
error reporting.
"""


class WpdError(ValueError):
    category = "error"


class DimensionError(WpdError):
    """Matrix or vector dimensions do not match the operation."""

    category = "dimension"


class InvalidState(WpdError):
    """A state violates its physicality constraints (norm, trace, PSD...)."""

    category = "invalid-state"


class NonUnitary(WpdError):
    category = "non-unitary"


class NonOrthonormalBasis(WpdError):
    category = "non-orthonormal-basis"


class ZeroProbability(WpdError):
    """Conditioning on an event of (numerically) zero probability."""

    category = "zero-probability"


class EmptyInput(WpdError):
    category = "empty-input"


class EmptyCounts(WpdError):
    category = "empty-counts"


class NonConvergence(WpdError):
    """An iterative fit failed to converge within its iteration budget."""

    category = "non-convergence"


class DegenerateSpan(WpdError):
    """The two joint states coincide; the discriminating eigenspace is undefined."""

    category = "degenerate-span"


class ConfigError(WpdError):
    """Malformed run configuration (file or flags)."""

    category = "config"


class GateFailure(WpdError):
    """An internal assertion gate of a CLI run did not pass."""

    category = "gate"
