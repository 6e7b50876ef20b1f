"""Localization at a prime element and factor (quotient) lattices.

Both share one builder.  Each is a closure operator c on the input
lattice L (x -> x_p, or x -> x v a), whose image is a lattice in L's
order with L's meets and the joins c(x v y).  So the builder inherits
the order, restricting L's ``leq`` and projecting its tables, and
validates the multiplication (x, y) -> c(xy) from scratch.  A failure
of either would mean a bug in the construction, so it surfaces as
InternalValidationFailure instead of an ordinary input error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ElementId, FiniteMultLattice, _restrict, _trusted_lattice
from .errors import DegenerateQuotient, InternalValidationFailure, NotPrime, SharplatError
from .predicates import prime_witness


@dataclass(frozen=True)
class LocalizationResult:
    """The localized lattice, the projection x -> x_p (as new ids), and
    the image carrier (new id -> original id)."""

    lattice: FiniteMultLattice
    projection: tuple[ElementId, ...]
    image: tuple[ElementId, ...]


@dataclass(frozen=True)
class QuotientResult:
    """The factor lattice on [a, top], the projection x -> x v a (as
    new ids), and the carrier (new id -> original id)."""

    lattice: FiniteMultLattice
    projection: tuple[ElementId, ...]
    image: tuple[ElementId, ...]


def _require_prime(L: FiniteMultLattice, p: ElementId) -> None:
    w = prime_witness(L, p)
    if w is not None:
        raise NotPrime(f"element {L.names[p]!r} (id {p}) is not prime", witness=w)


def _localize_element(L: FiniteMultLattice, p: ElementId, x: ElementId) -> ElementId:
    # a*s <= x iff a <= (x:s), so x_p is the join of (x:s) over s not
    # below p; the top is such an s, since p is proper
    rx, leq = L.residuals[x], L.leq
    return L.join_of(rx[s] for s in L.elements() if not leq[s][p])


def localize_element(
    L: FiniteMultLattice, p: ElementId, x: ElementId
) -> ElementId:
    """x_p, the join of all a with a*s <= x for some s not below p.

    Every element of a finite lattice is compact, so the join may range
    over the whole carrier.  Only localization at primes is defined.
    """
    _require_prime(L, p)
    return _localize_element(L, p, x)


def _sublattice(L, image, project, provenance, what):
    """The lattice on the image (original ids, ascending) of the closure
    ``project``, multiplying by (x, y) -> project(xy), and the projection
    of L as new ids; ``what`` names it in an InternalValidationFailure."""
    index = {old: new for new, old in enumerate(image)}
    projection = tuple(index[project(x)] for x in L.elements())
    try:
        poset = L.poset._closure_image(image, projection)
        lattice = _trusted_lattice(poset, _restrict(L.mult, image, projection), provenance)
    except SharplatError as exc:
        raise InternalValidationFailure(
            f"{what} structure failed validation: {exc}", witness=exc.witness
        ) from exc
    return lattice, projection


def localize(L: FiniteMultLattice, p: ElementId) -> LocalizationResult:
    """The image lattice L_p = {x_p} with multiplication (x, y) -> (xy)_p.

    The carrier keeps the original element names and canonical order;
    the order is inherited, the multiplication validated from scratch.
    """
    _require_prime(L, p)
    return _localized(L, p)


def _localized(L: FiniteMultLattice, p: ElementId) -> LocalizationResult:
    """:func:`localize` at a p the caller knows to be prime."""
    loc = [_localize_element(L, p, x) for x in L.elements()]
    image = tuple(sorted(set(loc)))
    lattice, projection = _sublattice(
        L, image, loc.__getitem__, {"localized_at": L.names[p]}, "localized"
    )
    return LocalizationResult(lattice, projection, image)


def quotient(L: FiniteMultLattice, a: ElementId) -> QuotientResult:
    """The factor lattice on the interval [a, top] with multiplication
    x*y = (xy) v a; bottom is a, identity stays top.

    Rejects a = top: that quotient would collapse to one point.
    """
    if a == L.top:
        raise DegenerateQuotient("quotient by top is a one-point lattice")
    image = tuple(x for x in L.elements() if L.le(a, x))
    lattice, projection = _sublattice(
        L, image, lambda x: L.join(x, a), {"quotient_by": L.names[a]}, "factor"
    )
    return QuotientResult(lattice, projection, image)
