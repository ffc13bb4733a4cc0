"""Exception types shared across the package."""


class StereographError(Exception):
    """Base class for all package-specific errors."""

    # KeyError's str() is the repr of its argument; every error here
    # carries a message, so the KeyError-based ones print it plainly too.
    __str__ = Exception.__str__


class LengthMismatch(StereographError, ValueError):
    """A pattern bit sequence has the wrong length for its pair count."""


class DomainError(StereographError, ValueError):
    """An input value lies outside its permitted domain."""


class NotAStereotypeGraph(StereographError, ValueError):
    """An edge set violates the stereotype-graph definition.

    Carries the first violated clause plus a concrete witness (a pair
    index, a pair of pair indices, or an offending edge list).
    """

    def __init__(self, clause: str, witness: object, message: str):
        super().__init__(message)
        self.clause = clause
        self.witness = witness


class PairAbsent(StereographError, KeyError):
    """A merge referenced a pair index not present in the graph."""


class InvalidOrder(StereographError, ValueError):
    """An explicit merge order has a step that is not two alive labels."""


class SizeExceeded(StereographError, ValueError):
    """A computation was asked to exceed its size bound: a polynomial's
    vertex bound or an exhaustive walk's limit."""


class InvalidColoring(StereographError, ValueError):
    """A supplied coloring is improper, non-optimal, or non-canonical."""


class RangeError(StereographError, ValueError):
    """A requested target value lies outside its legal range."""


class EdgeAbsent(StereographError, KeyError):
    """An edge deletion referenced an edge not present in the graph."""


class ParseError(StereographError, ValueError):
    """Serialized graph input could not be parsed."""


class InternalInvariant(StereographError, RuntimeError):
    """An internal consistency check failed; this always signals a bug."""
