"""Exception types shared across the package.

Every error a caller is expected to handle is a subclass of CarnotError,
so the CLI can map them onto stable exit codes.
"""


class CarnotError(Exception):
    """Base class for all library errors."""


class UnsupportedGroup(CarnotError):
    """Group spec is outside the supported family (Goursat n >= 3, Cartan)."""


class RealizationMismatch(CarnotError):
    """Polynomial frame could not be repaired to match the structure table."""


class SingularFrame(CarnotError):
    """Frame matrix is singular at a base point (signals a realization bug)."""


class DimensionMismatch(CarnotError):
    """Vectors or fields of incompatible dimension were combined."""


class StepTooLarge(CarnotError):
    """Integrator drift exceeded the configured conservation bound."""


class ModulusOutOfRange(CarnotError):
    """Elliptic modulus outside the admissible range."""


class NotUnitSpeed(CarnotError):
    """Covector is not on the unit cotangent cylinder h1^2 + h2^2 = 1."""


class WrongStratum(CarnotError):
    """Operation requires a covector from a different pendulum stratum."""


class NotAmple(CarnotError):
    """Geodesic is not ample (abnormal); the requested quantity is undefined."""


class RankUnstable(CarnotError):
    """Singular-value gap too small to decide a flag dimension reliably."""


class NotAmpleEquiregular(CarnotError):
    """Covector is not ample and equiregular at t = 0."""


class SingularCovector(CarnotError):
    """Pole coordinate (h1 for Goursat, h3 for Cartan) vanishes."""


class LemmaConditionFailed(CarnotError):
    """A property that is a theorem failed to verify; implementation bug."""


class IndexOutOfRange(CarnotError):
    """Requested coefficient index outside the defined range."""


class LossTimeMismatch(CarnotError):
    """The loss-time scan and the elliptic closed form disagree."""


class IllConditioned(CarnotError):
    """Too many graph-map solves were dropped for bad conditioning."""


class ShootingDiverged(CarnotError):
    """Newton shooting failed to meet the boundary residual tolerance."""


class StepUnbalanced(CarnotError):
    """Finite-difference probe steps gave mutually inconsistent estimates."""


class DegreeOverflow(CarnotError):
    """A polynomial's total degree exceeds what a packed monomial holds (255)."""
