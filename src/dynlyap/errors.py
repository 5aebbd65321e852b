"""Exception hierarchy shared by the whole package."""


class DynlyapError(Exception):
    """Base class for all package errors."""


class NonExactDivision(DynlyapError):
    """Polynomial division left a nonzero remainder where exactness was required."""


class NotAPerfectPower(DynlyapError):
    """A monic polynomial admitted no exact n-th root."""


class DegenerateMap(DynlyapError):
    """The homogeneous lift has vanishing resultant, so the map drops degree."""


class ResourceLimit(DynlyapError):
    """A configured budget (period cap or coefficient bit size) or a numerical
    limit of the library (precision, float range, root finding) was exceeded."""


class ArchimedeanPlace(DynlyapError):
    """Operation defined only at non-archimedean places was called at arch."""


class FFPlaceOnRationalBase(DynlyapError):
    """A function-field place was applied to a value over the wrong base field."""


class IrrationalCriticalPoint(DynlyapError):
    """Critical divisor does not split into linear factors over the base field."""


class PoleOutsideCenter(DynlyapError):
    """Family coefficients have a pole away from the declared degeneration center."""


class RootFindingFailure(ResourceLimit):
    """Numerical root finder failed to converge to the requested accuracy:
    a limit of the root layer, not of the input."""


class ParseError(DynlyapError):
    """Malformed map/config input."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
