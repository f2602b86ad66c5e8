"""Exception types shared across the package."""


class ChebsumError(Exception):
    """Base class for all package-specific errors."""


class MissingAssignment(ChebsumError):
    """A polynomial was evaluated without a value for a variable it uses."""


class ArityError(ChebsumError):
    """Parallel argument lists have inconsistent lengths."""


class ExponentError(ChebsumError):
    """A monomial exponent is negative or not an integer."""


class DomainError(ChebsumError):
    """A numeric argument lies outside the region where the formula converges."""


class ScaleError(ChebsumError):
    """The requested size exceeds the supported desk-scale limits."""


class SingularAngle(ChebsumError):
    """An angle with vanishing sine was passed where division by sin is required."""


class UnknownId(ChebsumError):
    """A registry lookup used an id that is not present."""


class ConvergenceError(ChebsumError):
    """A truncated infinite sum or product cannot meet its error budget."""


class DegeneratePivot(ChebsumError):
    """A linear condition that should determine a constant has a zero pivot."""


class MarkerError(ChebsumError):
    """A sine marker sk would stand without its partner variable xk."""


def require_below(name: str, values, strict: bool) -> None:
    """Raise DomainError unless |v| < 1 (``strict``) or |v| <= 1 for every value.

    The package's one convergence-region gate.  ``values`` is a number, a
    numpy array, or a list or tuple of either; an array is checked with one
    reduction, and an empty one passes.  NaN fails.
    """
    for v in values if isinstance(values, (list, tuple)) else (values,):
        if hasattr(v, "ndim"):
            if not v.size:
                continue
            v = abs(v).max()  # NaN propagates through max
        if not (abs(v) < 1 if strict else abs(v) <= 1):
            bound = "must be < 1" if strict else "must be <= 1"
            raise DomainError(f"|{name}| {bound}, got {v}")
