"""Exception types shared across the package."""


class FermatprodError(Exception):
    """Base class for every package-specific error."""


class NotSplittingError(FermatprodError):
    """x^(2^n) = -1 has no solution modulo p (p is not 1 mod 2^(n+1))."""


class InfeasibleSizeError(FermatprodError):
    """The requested computation exceeds the supported desk-scale cap."""


class InternalRefusalError(FermatprodError, ValueError):
    """A kernel refuses a value past the range it answers exactly.

    The value comes from the package's own computation, not from the user,
    so this is not a usage error.  It stays a ValueError for callers that
    catch one.
    """


class TooFewRootsError(FermatprodError):
    """Fewer residues than the pigeonhole argument requires."""


class HypothesisUnmetError(FermatprodError):
    """The congruence system's exponents do not sum to the forcing total."""


class InvalidSystemError(FermatprodError):
    """A congruence system violates its structural or divisibility invariants."""


class CertificateError(FermatprodError):
    """A bound certificate failed to verify; signals an implementation bug."""


class BeyondSieveError(FermatprodError):
    """The query point lies beyond the sieved range."""
