"""Exception types shared across the toolkit.

Validation errors carry a ``witness`` attribute pinpointing the smallest
offending element/pair/triple in canonical order, so failures are
reproducible and reportable.
"""


class SharplatError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BadSchema(SharplatError):
    """Input document does not match the lattice JSON schema."""


class NotAPartialOrder(SharplatError):
    """leq fails reflexivity, antisymmetry or transitivity."""


class NotALattice(SharplatError):
    """Some pair has no least upper bound / greatest lower bound,
    or bottom/top is missing."""


class NotCommutative(SharplatError):
    """mult(x, y) != mult(y, x) for the witness pair."""


class NotAssociative(SharplatError):
    """mult((xy)z) != mult(x(yz)) for the witness triple."""


class NoIdentity(SharplatError):
    """mult(top, x) != x for the witness element."""


class NotDistributive(SharplatError):
    """mult(a, join(b,c)) != join(ab, ac), or mult(a, bottom) != bottom."""


class NotPrime(SharplatError):
    """Localization requested at a non-prime element."""


class DegenerateQuotient(SharplatError):
    """Quotient by the top element would collapse to one point."""


class UnknownElement(SharplatError, ValueError):
    """An element name or id that is not in the carrier."""


class SizeTooSmall(SharplatError):
    """Requested poset is too small to carry bottom and top."""


class ZeroDivisor(SharplatError):
    """Residual by the zero ideal is undefined."""


class NotInModel(SharplatError, ValueError):
    """A value that an exemplar model does not admit."""


class InternalEquivalenceViolation(SharplatError):
    """The four sharpness checks disagreed: an implementation bug,
    never a property of a valid lattice."""


class InternalValidationFailure(SharplatError):
    """A derived structure failed axioms it provably satisfies."""


class ClaimFalsified(SharplatError):
    """A verified-in-print claim failed on a valid lattice (treated as
    an implementation bug by the test suite)."""

    def __init__(self, claim, witness=None):
        super().__init__(f"claim {claim!r} falsified, witness {witness!r}", witness)
        self.claim = claim
        self.lattice_document = None  # filled in by census drivers
