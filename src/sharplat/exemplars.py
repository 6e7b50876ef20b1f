"""Exact models of the canonical totally ordered sharp lattices and of
finitely generated ideals of the multiplicative monoid of nonnegative
integers.

Three symbolic families, all immutable and exact:

* ``ZMinusElement``: the ideal chain of a discrete valuation domain,
  written multiplicatively as exponents (0 is the top/identity,
  ``INFINITE`` marks the bottom).
* ``R1Element``: the interval family [r, inf] / (r, inf] / {inf} with
  exact rational endpoints r >= 0, ordered by inclusion.  Endpoints
  are stored as int pairs in lowest terms, so the operations run on
  exact ints; the family is closed under every implemented operation.
* ``FGIdeal``: a finitely generated ideal of the multiplicative monoid
  of nonnegative integers, stored as its divisibility-minimal generator
  set (which is unique); the empty set encodes the zero ideal.

The self-test entry points at the bottom back the CLI's exemplar
reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd
from operator import and_
from threading import Lock

from .errors import NotInModel, ZeroDivisor

# -- the discrete valuation chain --------------------------------------

# the exponent of the bottom: exact and not a number, so it prints as
# JSON null and is never mistaken for a finite exponent
INFINITE = None


def _check_int(value, least: int, message: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise NotInModel(message)


class _Element:
    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")
    __delattr__ = __setattr__


class ZMinusElement(_Element):
    """The element with the given exponent: 0 is the top and identity,
    larger exponents sit lower, ``INFINITE`` is the bottom."""

    __slots__ = ("exponent",)

    def __new__(cls, exponent: int | None):
        if exponent is not INFINITE:
            _check_int(exponent, 0, "exponent must be a nonnegative integer or INFINITE")
        return _z(exponent)

    def __reduce__(self):
        return (ZMinusElement, (self.exponent,))

    def is_bottom(self) -> bool:
        return self.exponent is INFINITE

    def __eq__(self, other):
        return self.exponent == other.exponent if type(other) is ZMinusElement else NotImplemented

    def __hash__(self):
        return hash(self.exponent)

    def __repr__(self) -> str:
        return f"ZMinusElement(exponent={self.exponent!r})"


def _new_z(exponent: int | None) -> ZMinusElement:
    z = object.__new__(ZMinusElement)
    object.__setattr__(z, "exponent", exponent)
    return z


# entry k is the shared element of exponent k; the table grows on first
# use, under a lock so that entry k always has exponent k, and stops at
# _ZS_BOUND, past which elements are built unshared
_ZS_BOUND = 4096
_ZS: list[ZMinusElement] = []
_ZS_GROWING = Lock()


def _z(exponent: int | None) -> ZMinusElement:
    """The element with this exponent, unchecked: the shared one below
    ``_ZS_BOUND`` and for the bottom, an equal new one past it."""
    if exponent is INFINITE:
        return Z_BOTTOM
    if exponent >= _ZS_BOUND:
        return _new_z(exponent)
    with _ZS_GROWING:
        for k in range(len(_ZS), exponent + 1):
            _ZS.append(_new_z(k))
    return _ZS[exponent]


Z_BOTTOM = _new_z(INFINITE)
Z_TOP = _z(0)


def z_le(a: ZMinusElement, b: ZMinusElement) -> bool:
    """Order reverses exponents: m^j <= m^k iff j >= k."""
    x, y = a.exponent, b.exponent
    return x is INFINITE or (y is not INFINITE and x >= y)


def z_mult(a: ZMinusElement, b: ZMinusElement) -> ZMinusElement:
    x, y = a.exponent, b.exponent
    if x is INFINITE or y is INFINITE:
        return Z_BOTTOM
    try:
        return _ZS[x + y]
    except IndexError:
        return _z(x + y)


def z_join(a: ZMinusElement, b: ZMinusElement) -> ZMinusElement:
    return a if z_le(b, a) else b


def z_meet(a: ZMinusElement, b: ZMinusElement) -> ZMinusElement:
    return a if z_le(a, b) else b


def z_residual(a: ZMinusElement, b: ZMinusElement) -> ZMinusElement:
    """Largest x with x*b <= a: exponent max(exp(a) - exp(b), 0);
    dividing by the bottom gives the top, and (bottom : finite) is
    the bottom."""
    x, y = a.exponent, b.exponent
    if y is INFINITE:
        return Z_TOP
    if x is INFINITE:
        return Z_BOTTOM
    if x <= y:
        return Z_TOP
    try:
        return _ZS[x - y]
    except IndexError:
        return _z(x - y)


# -- the real-valued interval chain ------------------------------------

_CLOSED = "closed"
_OPEN = "open"
_ZERO = "zero"


class R1Element(_Element):
    """One of [r, inf] (closed), (r, inf] (open) or {inf} (zero), with
    an exact rational endpoint r >= 0.  closed(0) is the top and the
    multiplicative identity; zero is the bottom.  ``endpoint`` builds
    its Fraction when read."""

    # the endpoint as _num/_den in lowest terms, _den > 0; zero keeps 0/1
    __slots__ = ("kind", "_num", "_den")

    def __new__(cls, kind: str, endpoint: Fraction | None):
        if kind == _ZERO:
            if endpoint is not None:
                raise NotInModel("the bottom has no endpoint")
            return _r1(_ZERO, 0, 1)
        if kind not in (_CLOSED, _OPEN):
            raise NotInModel(f"unknown kind {kind!r}")
        if not isinstance(endpoint, Fraction):
            raise NotInModel("endpoint must be a nonnegative Fraction")
        return _r1(kind, endpoint.numerator, endpoint.denominator)

    def __reduce__(self):
        return (R1Element, (self.kind, self.endpoint))

    @property
    def endpoint(self) -> Fraction | None:
        return None if self.kind == _ZERO else Fraction(self._num, self._den)

    @classmethod
    def closed(cls, r) -> "R1Element":
        return cls(_CLOSED, _fraction(r))

    @classmethod
    def open(cls, r) -> "R1Element":
        return cls(_OPEN, _fraction(r))

    @classmethod
    def zero(cls) -> "R1Element":
        return cls(_ZERO, None)

    def is_zero(self) -> bool:
        return self.kind == _ZERO

    def __eq__(self, other):
        if other.__class__ is not R1Element:
            return NotImplemented
        return self.kind == other.kind and self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self.kind, self._num, self._den))

    def __repr__(self) -> str:
        if self.kind == _ZERO:
            return "R1{inf}"
        left = "[" if self.kind == _CLOSED else "("
        return f"R1{left}{self.endpoint},inf]"


def _fraction(r) -> Fraction:
    """``Fraction(r)``, or NotInModel for a bool or what does not parse
    as a finite rational (None, "abc", nan, inf)."""
    if not isinstance(r, bool):
        try:
            return Fraction(r)
        except (TypeError, ValueError, OverflowError):
            pass
    raise NotInModel("endpoint must be a nonnegative Fraction")


# the slots' own setters, which get past the immutable __setattr__
_set_kind, _set_num, _set_den = (getattr(R1Element, n).__set__ for n in R1Element.__slots__)
_new = object.__new__


def _r1(kind: str, num: int, den: int) -> R1Element:
    """The element of this kind with endpoint num/den (den > 0), reduced
    by gcd; every constructor ends here, so each element is checked."""
    if num < 0:
        raise NotInModel("endpoint must be a nonnegative Fraction")
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    x = _new(R1Element)
    _set_kind(x, kind)
    _set_num(x, num)
    _set_den(x, den)
    return x


R1_TOP = R1Element.closed(0)
R1_ZERO = R1Element.zero()


def r1_le(a: R1Element, b: R1Element) -> bool:
    """Set inclusion; the family is totally ordered."""
    ka, kb = a.kind, b.kind
    if ka == _ZERO:
        return True
    if kb == _ZERO:
        return False
    # the sign of endpoint(a) - endpoint(b), by cross-multiplication
    d = a._num * b._den - b._num * a._den
    if kb == _CLOSED or ka == _OPEN:
        return d >= 0
    return d > 0  # closed inside open needs a strict step


def r1_mult(a: R1Element, b: R1Element) -> R1Element:
    """Interval addition: endpoints add, the sum is closed only when
    both factors are closed, and the bottom absorbs."""
    ka, kb = a.kind, b.kind
    if ka == _ZERO or kb == _ZERO:
        return R1_ZERO
    kind = _CLOSED if (ka == _CLOSED and kb == _CLOSED) else _OPEN
    ad, bd = a._den, b._den
    return _r1(kind, a._num * bd + b._num * ad, ad * bd)


def r1_join(a: R1Element, b: R1Element) -> R1Element:
    return a if r1_le(b, a) else b


def r1_meet(a: R1Element, b: R1Element) -> R1Element:
    return a if r1_le(a, b) else b


def r1_residual(a: R1Element, b: R1Element) -> R1Element:
    """Largest x with x*b <= a, case-split on the endpoint kinds.

    With d = endpoint(a) - endpoint(b): dividing an open interval by a
    closed one yields (d, inf] (for d >= 0); every other kind pair
    yields [d, inf], because multiplying by an open interval is open
    regardless of x, letting the closed endpoint through.  Whenever the
    divisor is contained in the dividend (d < 0 in the strict case,
    d <= 0 otherwise) the residual is the whole top.
    """
    ka, kb = a.kind, b.kind
    if kb == _ZERO:
        return R1_TOP
    if ka == _ZERO:
        return R1_ZERO
    # endpoint(a) - endpoint(b) == d / (ad * bd)
    ad, bd = a._den, b._den
    d = a._num * bd - b._num * ad
    if ka == _OPEN and kb == _CLOSED:
        return R1_TOP if d < 0 else _r1(_OPEN, d, ad * bd)
    return R1_TOP if d <= 0 else _r1(_CLOSED, d, ad * bd)


# -- finitely generated monoid ideals ----------------------------------


@dataclass(frozen=True)
class FGIdeal:
    """A finitely generated ideal of the nonnegative integers under
    multiplication, by its unique divisibility-minimal generator set.
    A positive integer belongs to the ideal iff some generator divides
    it; the empty generator set is the zero ideal."""

    generators: frozenset[int]

    def __post_init__(self):
        try:
            gens = frozenset(self.generators)
        except TypeError:  # not an iterable of hashables, so no generator set
            raise NotInModel("generators must be positive integers") from None
        for g in gens:
            _check_int(g, 1, "generators must be positive integers")
        object.__setattr__(self, "generators", _ideal(gens).generators)

    @classmethod
    def of(cls, *gens: int) -> "FGIdeal":
        return cls(frozenset(gens))

    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self) -> str:
        return f"FGIdeal<{', '.join(map(str, sorted(self.generators)))}>"


def _ideal(gens) -> FGIdeal:
    """The ideal of positive ints ``gens``, minimised ({2, 4} gives {2}), not type-checked."""
    ideal = object.__new__(FGIdeal)
    object.__setattr__(ideal, "generators", frozenset(
        g for g in gens if not any(h != g and g % h == 0 for h in gens)))
    return ideal


ZERO_IDEAL = FGIdeal.of()
UNIT_IDEAL = FGIdeal.of(1)


def ideal_member(a: FGIdeal, n: int) -> bool:
    _check_int(n, 1, "membership is defined for positive integers")
    return any(n % g == 0 for g in a.generators)


def ideal_le(a: FGIdeal, b: FGIdeal) -> bool:
    """Containment a <= b, decided on generators."""
    return all(ideal_member(b, g) for g in a.generators)


def ideal_equal(a: FGIdeal, b: FGIdeal) -> bool:
    return a.generators == b.generators


def ideal_product(a: FGIdeal, b: FGIdeal) -> FGIdeal:
    return _ideal({g * h for g in a.generators for h in b.generators})


def ideal_join(a: FGIdeal, b: FGIdeal) -> FGIdeal:
    return _ideal(a.generators | b.generators)


def ideal_meet(a: FGIdeal, b: FGIdeal) -> FGIdeal:
    return _ideal({g * h // gcd(g, h) for g in a.generators for h in b.generators})


def ideal_residual(a: FGIdeal, b: FGIdeal) -> FGIdeal:
    """The ideal {x : x*b <= a}, computed exactly.

    x*h lands in a iff some generator g of a divides x*h, i.e.
    g/gcd(g, h) divides x, so (a : <h>) is generated by the g/gcd(g, h),
    and (a : b) is the meet of (a : <h>) over the generators h of b.
    """
    if b.is_zero():
        raise ZeroDivisor("residual by the zero ideal")
    return reduce(ideal_meet, (
        _ideal({g // gcd(g, h) for g in a.generators}) for h in b.generators
    ))


def _sieve(a: FGIdeal, top: int) -> bytearray:
    """Byte n is 1 iff n in [1, top] belongs to a (some generator of a
    divides n), and byte 0 is 0."""
    in_a = bytearray(top + 1)
    for g in a.generators:
        in_a[g::g] = b"\x01" * (top // g)
    return in_a


def residual_members_scan(a: FGIdeal, b: FGIdeal, bound: int) -> list[int]:
    """Brute-force oracle: all x in [1, bound] with x*h in a for every
    generator h of b.  Membership is exact (plain divisibility, read off
    a sieve of a up to max(h) * bound), so the bound only limits which x
    are inspected."""
    if b.is_zero():
        raise ZeroDivisor("residual by the zero ideal")
    if bound < 1:
        return []
    hs = sorted(b.generators)
    in_a = _sieve(a, hs[-1] * bound)
    # row h holds the membership of h, 2h, ..., bound*h; the rows are
    # 0/1 bytes, so ANDing them as integers ANDs them byte by byte
    rows = (int.from_bytes(in_a[h : h * bound + 1 : h], "little") for h in hs)
    every = reduce(and_, rows).to_bytes(bound, "little")
    return list(compress(range(1, bound + 1), every))


# -- the pseudo-Dedekind-but-not-sharp counterexample -------------------

_WITNESS_SCAN = 200  # integers searched for a member of a outside b^3
_ORACLE_BOUND = 300  # integers on which residuals meet the scan oracle


def counterexample_report() -> dict:
    """Reproduce the full not-sharp computation for a = <4, 9> and
    b = <2, 3>: (a:b) = b^2, (a:(a:b)) = b, and their product b^3
    misses a (least witness 4), while residuals of principal ideals
    stay principal on a sampled family."""
    a = FGIdeal.of(4, 9)
    b = FGIdeal.of(2, 3)
    res_ab = ideal_residual(a, b)
    res_a_ab = ideal_residual(a, res_ab)
    b2 = ideal_product(b, b)
    b3 = ideal_product(b2, b)
    recomposed = ideal_product(res_a_ab, res_ab)
    witness = None
    for n in range(1, _WITNESS_SCAN + 1):
        if ideal_member(a, n) != ideal_member(recomposed, n):
            witness = n
            break
    principal_samples = []
    for x in range(2, 16):
        for other in (b, b2, FGIdeal.of(6, 10, 15), FGIdeal.of(x + 1)):
            r = ideal_residual(FGIdeal.of(x), other)
            principal_samples.append(len(r.generators) <= 1)
    return {
        "model": "nideal",
        "a": sorted(a.generators),
        "b": sorted(b.generators),
        "residual_ab": sorted(res_ab.generators),
        "residual_ab_is_b_squared": ideal_equal(res_ab, b2),
        "residual_a_ab": sorted(res_a_ab.generators),
        "residual_a_ab_is_b": ideal_equal(res_a_ab, b),
        "recomposition": sorted(recomposed.generators),
        "recomposition_is_b_cubed": ideal_equal(recomposed, b3),
        "sharp_identity_holds": ideal_equal(recomposed, a),
        "witness": witness,
        "pseudo_dedekind_samples": len(principal_samples),
        "pseudo_dedekind_all_principal": all(principal_samples),
    }


# -- self-tests (consumed by the CLI) -----------------------------------


def zminus_selftest(max_exponent: int = 100) -> dict:
    """Check the sharpness identity a == (a:(a:b)) (a:b) and residual
    soundness for every exponent pair in [0, max_exponent] + bottom."""
    _check_int(max_exponent, 0, "max_exponent must be a nonnegative integer")
    carrier = [_z(k) for k in range(max_exponent + 1)] + [Z_BOTTOM]
    failures = []
    for a in carrier:
        for b in carrier:
            r = z_residual(a, b)
            if not z_le(z_mult(r, b), a):
                failures.append(("residual_bound", a.exponent, b.exponent))
            elif not ((got := z_mult(z_residual(a, r), r)) is a or got == a):
                failures.append(("sharp_identity", a.exponent, b.exponent))
    return {
        "model": "zminus",
        "trials": len(carrier) ** 2,
        "failures": len(failures),
        "witnesses": failures[:10],
    }


def _below(bits, n: int, k: int) -> int:
    """``randrange(n)`` as CPython draws it, given ``bits``, a
    ``Random``'s ``getrandbits``, and k = n.bit_length(): k fresh bits
    until they fall below n, so a seed gives the same stream."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _r1_random_element(bits) -> R1Element:
    if _below(bits, 40, 6) == 0:
        return R1_ZERO
    num, den = _below(bits, 2000, 11), 1 + _below(bits, 59, 6)
    kind = _CLOSED if _below(bits, 2, 2) == 0 else _OPEN
    return _r1(kind, num, den)


def r1_selftest(trials: int = 1000, seed: int = 0) -> dict:
    """Seeded random pairs cycling through all four kind combinations:
    sharpness identity, residual soundness and maximality step, order
    compatibility."""
    _check_int(trials, 0, "trials must be a nonnegative integer")
    bits = random.Random(seed).getrandbits
    kinds = [(_CLOSED, _CLOSED), (_OPEN, _OPEN), (_CLOSED, _OPEN), (_OPEN, _CLOSED)]
    failures = []
    combos = [0] * len(kinds)
    for t in range(trials):
        if t % 29 == 28:
            a = R1_ZERO if t % 2 == 0 else _r1_random_element(bits)
            b = _r1_random_element(bits)
        else:
            ka, kb = kinds[t % 4]
            combos[t % 4] += 1
            a = _r1(ka, _below(bits, 2000, 11), 1 + _below(bits, 59, 6))
            b = _r1(kb, _below(bits, 2000, 11), 1 + _below(bits, 59, 6))
        r = r1_residual(a, b)
        if not r1_le(r1_mult(r, b), a):
            failures.append(("residual_bound", repr(a), repr(b)))
            continue
        if r1_mult(r1_residual(a, r), r) != a:
            failures.append(("sharp_identity", repr(a), repr(b)))
        # just above an open r (never top or zero), x*b <= a must fail
        if r.kind == _OPEN and a.kind != _ZERO:
            bigger = _r1(_CLOSED, r._num, r._den)
            if r1_le(r1_mult(bigger, b), a):
                failures.append(("residual_maximality", repr(a), repr(b)))
    return {
        "model": "r1",
        "trials": trials,
        "seed": seed,
        "kind_pairs": {f"{ka}/{kb}": c for (ka, kb), c in zip(kinds, combos)},
        "failures": len(failures),
        "witnesses": failures[:10],
    }


def nideal_selftest(trials: int = 200, seed: int = 0) -> dict:
    """The counterexample chain plus seeded random residuals checked
    against the membership-scan oracle."""
    _check_int(trials, 0, "trials must be a nonnegative integer")
    report = counterexample_report()
    bits = random.Random(seed).getrandbits
    failures = []
    for _ in range(trials):
        a = FGIdeal(frozenset(1 + _below(bits, 24, 5) for _ in range(1 + _below(bits, 3, 2))))
        b = FGIdeal(frozenset(1 + _below(bits, 24, 5) for _ in range(1 + _below(bits, 2, 2))))
        if b.is_zero():
            continue
        r = ideal_residual(a, b)
        expected = residual_members_scan(a, b, _ORACLE_BOUND)
        got = list(compress(range(_ORACLE_BOUND + 1), _sieve(r, _ORACLE_BOUND)))
        if expected != got:
            failures.append((sorted(a.generators), sorted(b.generators)))
    report.update(
        {
            "trials": trials,
            "seed": seed,
            "scan_bound": _ORACLE_BOUND,
            "oracle_failures": len(failures),
            "oracle_witnesses": failures[:10],
        }
    )
    expected_chain = (
        report["residual_ab_is_b_squared"]
        and report["residual_a_ab_is_b"]
        and report["recomposition_is_b_cubed"]
        and not report["sharp_identity_holds"]
        and report["witness"] == 4
        and report["pseudo_dedekind_all_principal"]
    )
    report["expected_outcome_confirmed"] = expected_chain and not failures
    return report
