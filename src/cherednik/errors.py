"""Exception types shared across the package."""


class CherednikError(Exception):
    """Base class for all package errors."""


class CapExceeded(CherednikError):
    """A requested construction is larger than the configured cap."""


class DegreeCapExceeded(CherednikError):
    """A normal-form multiplication was attempted beyond the degree cap."""


class NotCommutative(CherednikError):
    """Structure constants fed to a commutative-algebra routine do not commute."""


class FieldExtensionNeeded(CherednikError):
    """Splitting an algebra requires a larger cyclotomic field.

    ``required_conductor`` is the conductor of the smallest cyclotomic field
    that would suffice, when it can be determined (quadratic factors over Q),
    otherwise None.
    """

    def __init__(self, message, required_conductor=None, factor=None):
        super().__init__(message)
        self.required_conductor = required_conductor
        self.factor = factor


class NotFactorizable(CherednikError):
    """A Molien series did not factor as a product of 1/(1-q^d)."""


class ZeroPolynomial(CherednikError):
    """The lowest-exponent of the zero polynomial was requested."""


class NotSimpleHead(CherednikError):
    """The head of a standard module failed to be simple."""


class CompositionMismatch(CherednikError):
    """The graded character of a standard module does not peel into shifted
    characters of simple heads: a multiplicity that is not a non-negative
    integer, or a remainder left in a degree or past the top degree."""


class TieDetected(CherednikError):
    """Two members of a block share the minimal b-invariant."""

    def __init__(self, message, labels=()):
        super().__init__(message)
        self.labels = tuple(labels)


class InvalidInput(CherednikError, ValueError):
    """Input that names nothing or does not parse: a group spec or group
    file, a parameter, a point, a representation label."""


class InvalidElement(InvalidInput):
    """Element text that does not parse or names no generator, or an
    undefined operation on an element such as a negative power."""


class DimensionMismatch(CherednikError):
    """An element was applied to a module of incompatible dimension."""


class SideMismatch(CherednikError):
    """Mixed conormal and normal exterior elements in one operation."""


class MissingEis(CherednikError):
    """A bigraded character was requested without a generator-degree solution."""


class NegativeExponentPresent(CherednikError):
    """A graded character that must be N-graded has negative exponents."""


class NotRegularDetected(CherednikError):
    """A claimed-regular sequence has higher Koszul homology."""


class UnsupportedGroup(CherednikError):
    """No exact construction of the irreducibles is available for this group."""
