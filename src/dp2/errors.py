"""Exception taxonomy shared by all modules."""


class DP2Error(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(DP2Error):
    pass


class WrongDegree(DP2Error):
    pass


class WrongDegrees(DP2Error):
    pass


class SingularBranchCurve(DP2Error):
    pass


class NotOnSurface(DP2Error):
    pass


class SameImage(DP2Error):
    pass


class BitangentLine(DP2Error):
    pass


class SingularHit(DP2Error):
    """Chord-tangent arithmetic ran into the singular point of the fiber."""


class SingularOrigin(DP2Error):
    pass


class ReducibleModel(DP2Error):
    pass


class NotVeryGeneral(DP2Error):
    pass


class BadParameter(DP2Error):
    pass


class BadPrime(DP2Error):
    pass


class UnexpectedDimension(DP2Error):
    pass


class EliminationDegenerate(DP2Error):
    pass
