"""Localization at a prime element and factor (quotient) lattices.

Both share one builder.  Each is a nucleus c on the input lattice L
(x -> x_p, or x -> x v a): a closure operator with c(x)c(y) <= c(xy).
Its image is a lattice with L's order, meets and residuals, the joins
c(x v y) and the product c(xy).  So the builder restricts L's tables to
the image and checks only that c is a closure and x -> c(x) multiplies,
which is the nucleus law; nothing is re-validated.  A failure would
mean a bug in the construction, so it surfaces as
InternalValidationFailure instead of an ordinary input error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .core import ElementId, FiniteMultLattice, _bits, _check_element
from .errors import DegenerateQuotient, InternalValidationFailure, NotPrime, SharplatError
from .predicates import prime_witness


@dataclass(frozen=True)
class _SubLattice:
    lattice: FiniteMultLattice
    projection: tuple[ElementId, ...]
    image: tuple[ElementId, ...]


@dataclass(frozen=True)
class LocalizationResult(_SubLattice):
    """The localized lattice, the projection x -> x_p (as new ids), and
    the image carrier (new id -> original id)."""


@dataclass(frozen=True)
class QuotientResult(_SubLattice):
    """The factor lattice on [a, top], the projection x -> x v a (as
    new ids), and the carrier (new id -> original id)."""


def _require_prime(L: FiniteMultLattice, p: ElementId) -> None:
    """Raise NotPrime unless p is prime; :func:`prime_witness` checks the id."""
    w = prime_witness(L, p)
    if w is not None:
        raise NotPrime(f"element {L.names[p]!r} (id {p}) is not prime", witness=w)


def _localizer(L: FiniteMultLattice, p: ElementId):
    """x_p as a function of x's residual row: a*s <= x iff a <= (x:s),
    so x_p is the join of (x:s) over s not below p (the top is one,
    since p is proper, and may be the only one)."""
    outside, join_of = [not row[p] for row in L.leq], L.join_of
    return lambda row: join_of(compress(row, outside))


def localize_element(
    L: FiniteMultLattice, p: ElementId, x: ElementId
) -> ElementId:
    """x_p, the join of all a with a*s <= x for some s not below p.

    Every element of a finite lattice is compact, so the join may range
    over the whole carrier.  Only localization at primes is defined.
    """
    _require_prime(L, p)
    _check_element(L, x)
    return _localizer(L, p)(L.residuals[x])


def _sublattice(L, image, close, provenance, what):
    """The lattice on the image (original ids, ascending) of the closure
    x -> close[x], multiplying by (x, y) -> close[xy], and the projection
    of L as new ids; ``what`` names it in an InternalValidationFailure.

    The closure must be a nucleus, c(x)c(y) <= c(xy): (x v a)(y v a) <=
    xy v a, and as <= x, bt <= y with s, t not below the prime p give
    (ab)(st) <= xy with st not below p.  Then for y in the image,
    c((y:x))x <= c((y:x)x) <= y and c(zx) <= y iff zx <= y, so L's
    (y:x) is the image's residual.  The closure is checked, and the
    nucleus law as c(c(x)c(y)) = c(xy); the rest is inherited from L."""
    index = {old: new for new, old in enumerate(image)}
    projection = tuple(map(index.__getitem__, close))
    try:
        lattice = L._closure_image(image, projection, provenance)
    except SharplatError as exc:
        raise InternalValidationFailure(
            f"{what} structure failed validation: {exc}", witness=exc.witness
        ) from exc
    return lattice, projection


def localize(L: FiniteMultLattice, p: ElementId) -> LocalizationResult:
    """The image lattice L_p = {x_p} with multiplication (x, y) -> (xy)_p.

    The carrier keeps the original element names and canonical order;
    the order, product and residuals are L's, pushed through x -> x_p.
    """
    _require_prime(L, p)
    return _localized(L, p)


def _localized(L: FiniteMultLattice, p: ElementId) -> LocalizationResult:
    """:func:`localize` at a p the caller knows to be prime."""
    loc = tuple(map(_localizer(L, p), L.residuals))
    image = tuple(sorted(set(loc)))
    lattice, projection = _sublattice(
        L, image, loc, {"localized_at": L.names[p]}, "localized"
    )
    return LocalizationResult(lattice, projection, image)


def quotient(L: FiniteMultLattice, a: ElementId) -> QuotientResult:
    """The factor lattice on the interval [a, top] with multiplication
    x*y = (xy) v a; bottom is a, identity stays top.

    Rejects a = top: that quotient would collapse to one point.
    """
    _check_element(L, a)
    if a == L.top:
        raise DegenerateQuotient("quotient by top is a one-point lattice")
    image = tuple(_bits(L.poset.up[a]))
    lattice, projection = _sublattice(
        L, image, L.joins[a], {"quotient_by": L.names[a]}, "factor"
    )
    return QuotientResult(lattice, projection, image)
