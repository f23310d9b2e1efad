"""Exception hierarchy shared across the package."""


class TripMapError(Exception):
    """Base class for all package-specific errors."""


class ParseError(TripMapError):
    """Malformed permutation-triple text."""


class UnsupportedTriple(TripMapError):
    """Triple is not one of the 108 polynomial-behavior triples."""


class OutsideTriangle(TripMapError):
    """Point violates 0 < y < x < 1."""


class EvaluationSingularity(TripMapError):
    """A tabulated denominator vanished at the requested (k, point)."""


class DigitNotFound(TripMapError):
    """No branch index k <= K_max maps the point into the closed triangle."""


class AmbiguousDigit(TripMapError):
    """Two non-adjacent branch indices both claim the point."""


class BoundaryHit(TripMapError):
    """Orbit landed on the boundary of the triangle; expansion terminates."""


class TruncationFailure(TripMapError):
    """Branch-sum tail bound not met within the configured index cap."""


class StencilOutOfDomain(TripMapError):
    """Finite-difference stencil leaves the open triangle."""


class NoEigenfunction(TripMapError):
    """Triple has no tabulated eigenvalue-1 eigenfunction."""


class NoBanachRow(TripMapError):
    """Triple has no tabulated Banach weight / summand row."""


class NoDensity(TripMapError):
    """Triple has no tabulated invariant density."""


class NonConvergent(TripMapError):
    """Quadrature failed to stabilize to the requested tolerance."""


class DomainError(TripMapError):
    """Scalar argument outside a special function's domain."""


class NotArrayNative(TripMapError):
    """A profile or integrand cannot be evaluated on a numpy array."""


class EnvelopeExceeded(TripMapError):
    """A density exceeds the rejection envelope of its exact sampler."""


class NoClosedLaw(TripMapError):
    """A density row breaks the preconditions of the closed Gauss-Kuzmin law."""
