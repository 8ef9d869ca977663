"""Exception types shared across the package."""

__all__ = ["PreserverLabError", "NotPositiveDefinite", "ZeroInput", "WitnessNotFound",
           "DimensionMismatch", "DegenerateUnit", "NotUnital", "NotLinear", "NotCanonical",
           "NotStarForm", "SingularUnit", "NotRankOne", "RECOVERY_ERRORS"]


class PreserverLabError(Exception):
    """Base class for every library-specific failure."""


class NotPositiveDefinite(PreserverLabError):
    pass


class ZeroInput(PreserverLabError):
    pass


class WitnessNotFound(PreserverLabError):
    pass


class DimensionMismatch(PreserverLabError):
    pass


class DegenerateUnit(PreserverLabError):
    pass


class NotUnital(PreserverLabError):
    pass


class NotLinear(PreserverLabError):
    pass


class NotCanonical(PreserverLabError):
    pass


class NotStarForm(PreserverLabError):
    pass


class SingularUnit(PreserverLabError):
    pass


class NotRankOne(PreserverLabError):
    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member  # flat index of the first stack member that is not rank one


# Failures that mean "the black box is not a map of the canonical family",
# as opposed to malformed input.  The CLI maps these to exit code 3.
RECOVERY_ERRORS = (NotLinear, NotCanonical, NotStarForm, SingularUnit, NotRankOne)
