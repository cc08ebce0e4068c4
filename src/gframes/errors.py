"""Exception hierarchy for the gframes package."""


class GFrameError(Exception):
    """Base class for all gframes errors."""


# -- linear algebra substrate -------------------------------------------------

class NonFinite(GFrameError):
    """Input contains NaN or Inf entries."""


class NotPositiveDefinite(GFrameError):
    """Matrix fails the positive-definiteness threshold."""


class NotUnitary(GFrameError):
    """Matrix fails the unitarity check."""


class Singular(GFrameError):
    """Matrix is numerically singular (condition number too large)."""


# -- frame construction / classification -------------------------------------

class ShapeMismatch(GFrameError):
    """Two operator families have incompatible block shapes."""


class DimensionMismatch(GFrameError):
    """Block dimensions do not add up to the ambient dimension."""


class NotAFrame(GFrameError):
    """Operation requires a frame but the lower bound is degenerate."""


class NotOnBasis(GFrameError):
    """Operation requires an orthonormal operator basis."""


class NotRieszBasis(GFrameError):
    """Operation requires a Riesz operator basis."""


class IsRieszBasis(GFrameError):
    """Alternate duals do not exist: the dual of a Riesz basis is unique."""


class NonUniformBlocks(GFrameError):
    """Operation requires all blocks to share one dimension."""


# -- duality ------------------------------------------------------------------

class ZeroProbe(GFrameError):
    """Probe vector is zero; the dual perturbation would vanish."""


class NotADual(GFrameError):
    """Claimed dual family fails the reconstruction identity."""


# -- perturbation -------------------------------------------------------------

class DegenerateTheta(GFrameError):
    """Denominator family is singular; no finite ratio bound exists."""


class PremiseNotVerifiable(GFrameError):
    """Sampling produced a witness refuting the stated premise."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# -- coherent states ----------------------------------------------------------

class TruncationTooSevere(GFrameError):
    """Labels are incompatible with the Fock truncation."""

    def __init__(self, message, required_k=None, required_l=None):
        super().__init__(message)
        self.required_k = required_k
        self.required_l = required_l


class InsufficientNodes(GFrameError):
    """Quadrature node counts below the exactness threshold."""

    def __init__(self, message, required_radial=None, required_angular=None):
        super().__init__(message)
        self.required_radial = required_radial
        self.required_angular = required_angular


# -- file format --------------------------------------------------------------

class ParseError(GFrameError):
    """Input document is not well formed."""


class SchemaError(GFrameError):
    """Input document is well formed but violates the frame-spec schema."""


# -- command line -------------------------------------------------------------

class UsageError(GFrameError):
    """Command-line arguments are malformed or out of range."""
