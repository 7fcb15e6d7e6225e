"""Exception types shared across the package.

Every validation failure carries a human-readable message and, where it
makes sense, a machine-checkable witness on the ``witness`` attribute
(a tuple of indices/values that reproduces the failure when replayed).
"""


class GlatticeError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message="", witness=None):
        super().__init__(message)
        self.witness = witness


# scalar / ring level
class RingMismatch(GlatticeError):
    pass


class DivisionByZero(GlatticeError):
    pass


class InfiniteAutomorphismGroup(GlatticeError):
    pass


class InfiniteCarrier(GlatticeError):
    """Operation needs to enumerate a carrier that is not finite."""


class NonCommutativeCarrier(GlatticeError):
    pass


class TooLarge(GlatticeError):
    pass


# group level
class MalformedTable(GlatticeError):
    pass


class NotAssociative(GlatticeError):
    pass


class NoIdentity(GlatticeError):
    pass


class NoInverse(GlatticeError):
    pass


# lattice level
class NotPartialOrder(GlatticeError):
    pass


class NoMeet(GlatticeError):
    pass


class NoJoin(GlatticeError):
    pass


class TableMismatch(GlatticeError):
    pass


class ShapeMismatch(GlatticeError):
    pass


class NotHomomorphism(GlatticeError):
    pass


class NotGSet(GlatticeError):
    pass


class NotLatticeAutomorphism(GlatticeError):
    pass


# linear algebra level
class DimensionMismatch(GlatticeError):
    pass


class SpaceMismatch(GlatticeError):
    pass


class NotInvertible(GlatticeError):
    pass


# representation level
class NotProjective(GlatticeError):
    pass


class ScalarInconsistent(GlatticeError):
    """rho(g)rho(h) and rho(gh) share a twist, but no scalar links their matrices."""


class NotCoordinatizable(GlatticeError):
    pass


class NotNormalized(GlatticeError):
    """A representation with rho(e) != identity where the identity is required."""


# extension level
class ZeroBracket(GlatticeError):
    pass


class CarrierMismatch(GlatticeError):
    pass


class NotEquivalent(GlatticeError):
    pass


class NotAssociated(GlatticeError):
    pass


# twisted group ring level
class ParentMismatch(GlatticeError):
    pass


# input handling
class ParseError(GlatticeError):
    pass
