"""The exact exemplar models: valuation chains and monoid ideals."""

import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import valuation_document
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    nideal_quotient,
    nideal_selftest_pairs,
    r1_quotient,
    r1_selftest_pairs,
    zminus_quotient,
)

from sharplat import exemplars, is_sharp, parse_lattice, theorem_audit
from sharplat.errors import NotInModel, SharplatError, ZeroDivisor
from sharplat.exemplars import (
    FGIdeal,
    INFINITE,
    R1Element,
    R1_TOP,
    R1_ZERO,
    UNIT_IDEAL,
    ZERO_IDEAL,
    ZMinusElement,
    Z_BOTTOM,
    Z_TOP,
    counterexample_report,
    ideal_equal,
    ideal_join,
    ideal_le,
    ideal_meet,
    ideal_member,
    ideal_product,
    ideal_residual,
    nideal_selftest,
    r1_le,
    r1_meet,
    r1_mult,
    r1_join,
    r1_residual,
    r1_selftest,
    residual_members_scan,
    z_join,
    z_le,
    z_meet,
    z_mult,
    z_residual,
    zminus_selftest,
)


# -- the discrete valuation chain ----------------------------------------


def _z_residual_oracle(a, b, scan_to=10):
    """Brute force: the largest element x (= least exponent) among
    exponents 0..scan_to and the bottom with x*b <= a."""
    candidates = [ZMinusElement(e) for e in range(scan_to + 1)] + [Z_BOTTOM]
    best = Z_BOTTOM
    for x in candidates:
        if z_le(z_mult(x, b), a) and z_le(best, x):
            best = x
    return best


def test_z_residual_example():
    assert z_residual(ZMinusElement(5), ZMinusElement(2)) == ZMinusElement(3)
    assert _z_residual_oracle(ZMinusElement(5), ZMinusElement(2)) == ZMinusElement(3)


def test_z_residual_by_top_and_bottom():
    for k in (0, 1, 7, 40):
        a = ZMinusElement(k)
        assert z_residual(a, Z_TOP) == a
        assert z_residual(a, Z_BOTTOM) == Z_TOP
        assert z_residual(Z_BOTTOM, a) == Z_BOTTOM
    assert z_residual(Z_BOTTOM, Z_BOTTOM) == Z_TOP


def test_z_sharp_identity_spot():
    a, b = ZMinusElement(7), ZMinusElement(3)
    r = z_residual(a, b)
    assert z_mult(z_residual(a, r), r) == a


def test_z_order_and_multiplication():
    assert z_le(Z_BOTTOM, ZMinusElement(5))
    assert z_le(ZMinusElement(5), ZMinusElement(2))
    assert z_mult(ZMinusElement(2), ZMinusElement(3)) == ZMinusElement(5)
    assert z_join(ZMinusElement(2), ZMinusElement(3)) == ZMinusElement(2)
    assert z_meet(ZMinusElement(2), ZMinusElement(3)) == ZMinusElement(3)
    assert z_mult(Z_BOTTOM, ZMinusElement(3)) == Z_BOTTOM


def test_z_selftest_all_pairs():
    report = zminus_selftest(max_exponent=100)
    assert report["failures"] == 0
    assert report["trials"] == 102 * 102


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=2 * exemplars._ZS_BOUND),
    b=st.integers(min_value=0, max_value=2 * exemplars._ZS_BOUND),
    c=st.integers(min_value=0, max_value=2 * exemplars._ZS_BOUND),
)
def test_z_multiplication_order_preserving(a, b, c):
    ea, eb, ec = ZMinusElement(a), ZMinusElement(b), ZMinusElement(c)
    if z_le(ea, eb):
        assert z_le(z_mult(ea, ec), z_mult(eb, ec))
    assert z_le(ea, eb) or z_le(eb, ea)  # total order


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=60),
    b=st.integers(min_value=0, max_value=60),
)
def test_z_residual_matches_oracle(a, b):
    ea, eb = ZMinusElement(a), ZMinusElement(b)
    assert z_residual(ea, eb) == _z_residual_oracle(ea, eb, scan_to=130)


def _rejects(build, *args):
    # a toolkit error that callers catching ValueError still see
    with pytest.raises(ValueError) as err:
        build(*args)
    assert isinstance(err.value, SharplatError)


def test_z_element_validation():
    _rejects(ZMinusElement, -1)
    _rejects(ZMinusElement, 1.5)
    _rejects(ZMinusElement, True)
    _rejects(ZMinusElement, math.inf)  # the bottom is exact, not a float
    assert ZMinusElement(INFINITE) == Z_BOTTOM
    assert not isinstance(Z_BOTTOM.exponent, float)


def test_z_operations_share_elements_from_a_bounded_cache():
    assert z_mult(ZMinusElement(2), ZMinusElement(3)) is z_mult(
        ZMinusElement(1), ZMinusElement(4)
    )
    assert z_residual(ZMinusElement(9), ZMinusElement(4)) is z_mult(
        Z_TOP, ZMinusElement(5)
    )
    # products and residuals across the bound: below it every result is
    # the shared element, and one taken before the run is never evicted;
    # past it results are equal to the element, not shared, not stored
    bound = exemplars._ZS_BOUND
    kept = ZMinusElement(bound - 1)
    far = ZMinusElement(2 * bound)
    for k in range(2 * bound + 1):
        z = ZMinusElement(k)
        for got, exponent in ((z_mult(kept, z), bound - 1 + k), (z_residual(far, z), 2 * bound - k)):
            if exponent < bound:
                assert got is ZMinusElement(exponent)
            else:
                assert got == ZMinusElement(exponent) and hash(got) == hash(ZMinusElement(exponent))
    assert len(exemplars._ZS) <= bound
    assert kept is ZMinusElement(bound - 1) is exemplars._z(bound - 1)


def test_z_table_grows_consistently_under_threads(monkeypatch):
    # an empty table grown by more threads than cores, switching often:
    # entry k must hold exponent k, and every thread gets the same element
    monkeypatch.setattr(exemplars, "_ZS", [])
    bound = exemplars._ZS_BOUND
    seen = [[] for _ in range(8)]

    def grow(out):
        out.extend(z_mult(Z_TOP, ZMinusElement(k)) for k in range(0, bound, 3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [z.exponent for z in exemplars._ZS] == list(range(len(exemplars._ZS)))
    assert all(a is b for out in seen for a, b in zip(out, seen[0], strict=True))


def _unshared(exponent):
    """A ZMinusElement equal to the shared one but not it, as every
    element past the shared table's bound is."""
    z = object.__new__(ZMinusElement)
    object.__setattr__(z, "exponent", exponent)
    return z


@pytest.mark.parametrize("exponent", [0, 1, 5, 300, exemplars._ZS_BOUND - 1, INFINITE])
def test_z_constructors_return_the_shared_element(exponent):
    z = ZMinusElement(exponent)
    assert z is ZMinusElement(exponent) is ZMinusElement(exponent=exponent)
    assert z is exemplars._z(exponent)
    assert z.exponent == exponent
    assert (z is Z_BOTTOM) == (exponent is INFINITE) == z.is_bottom()


@pytest.mark.parametrize("bad", [-1, -4, 1.5, 2.0, True, False, math.inf, "3", (3,)])
def test_z_validation_messages(bad):
    for build in (lambda: ZMinusElement(bad), lambda: ZMinusElement(exponent=bad)):
        with pytest.raises(NotInModel, match=r"^exponent must be a nonnegative integer or INFINITE$"):
            build()


def test_z_element_is_immutable():
    z = ZMinusElement(5)
    for name, value in (("exponent", 3), ("exponent", INFINITE), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(z, name, value)
    for shared in (z, Z_TOP, Z_BOTTOM):
        with pytest.raises(AttributeError):
            del shared.exponent
    assert not hasattr(z, "__dict__")
    assert z.exponent == 5 and z is ZMinusElement(5)
    # the shared constants still work after the attempts
    assert z_mult(Z_TOP, z) is z and z_mult(Z_BOTTOM, z) is Z_BOTTOM
    assert z_residual(z, Z_BOTTOM) is Z_TOP


def test_z_copies_and_pickles_to_the_shared_element():
    for z in (ZMinusElement(7), Z_TOP, Z_BOTTOM, _unshared(7)):
        for y in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            assert y is ZMinusElement(z.exponent)


def test_z_equality_and_hash_go_by_exponent():
    for k in (0, 5, INFINITE):
        twin = _unshared(k)
        assert twin is not ZMinusElement(k)
        assert twin == ZMinusElement(k) and not twin != ZMinusElement(k)
        assert hash(twin) == hash(ZMinusElement(k))
        assert len({twin, ZMinusElement(k)}) == 1
    assert ZMinusElement(5) != ZMinusElement(6) and ZMinusElement(5) != Z_BOTTOM
    for other in (5, 5.0, (5,), "ZMinusElement(exponent=5)", None):
        assert (ZMinusElement(5) == other) is False
        assert ZMinusElement(5) != other
    assert (Z_BOTTOM == None) is False  # noqa: E711


@pytest.mark.parametrize(
    "element,text",
    [
        (Z_TOP, "ZMinusElement(exponent=0)"),
        (ZMinusElement(5), "ZMinusElement(exponent=5)"),
        (ZMinusElement(exponent=123), "ZMinusElement(exponent=123)"),
        (Z_BOTTOM, "ZMinusElement(exponent=None)"),
    ],
)
def test_z_repr_table(element, text):
    assert repr(element) == text


def _zminus_with_mult(monkeypatch, wrong, max_exponent=12):
    """zminus_selftest with z_mult's result passed through
    ``wrong(x, y, exact_product)``, for x and y its arguments."""
    exact = exemplars.z_mult
    monkeypatch.setattr(exemplars, "z_mult", lambda x, y: wrong(x, y, exact(x, y)))
    return zminus_selftest(max_exponent)


def test_zminus_selftest_passes_unshared_equal_products(monkeypatch):
    # the identity test is a shortcut: equal elements that are not the
    # shared ones must still pass by ==
    fresh = []

    def unshared(x, y, p):
        fresh.append(_unshared(p.exponent))
        return fresh[-1]

    report = _zminus_with_mult(monkeypatch, unshared)
    assert fresh and all(p is not ZMinusElement(p.exponent) for p in fresh)
    assert report["failures"] == 0 and report["trials"] == 14 * 14


def test_zminus_selftest_reports_one_wrong_product(monkeypatch):
    # (5 : 3) = 2 and (5 : 2) = 3, so the identity multiplies 3 by 2
    # only for the pair (5, 3); one exponent too many there lands one
    # step below a, which still passes the residual bound of every pair
    def off_by_one(x, y, p):
        return ZMinusElement(p.exponent + 1) if (x.exponent, y.exponent) == (3, 2) else p

    report = _zminus_with_mult(monkeypatch, off_by_one)
    assert report["failures"] == 1
    assert report["witnesses"] == [("sharp_identity", 5, 3)]


def test_zminus_selftest_rejects_an_impostor_with_the_right_exponent(monkeypatch):
    # an object of another class is not an element, whatever its exponent
    report = _zminus_with_mult(monkeypatch, lambda x, y, p: SimpleNamespace(exponent=p.exponent))
    assert report["failures"] == report["trials"] == 14 * 14
    assert {label for label, _, _ in report["witnesses"]} == {"sharp_identity"}


@pytest.mark.parametrize("run,count,name", [
    (zminus_selftest, -4, "max_exponent"),
    (zminus_selftest, True, "max_exponent"),
    (zminus_selftest, 2.0, "max_exponent"),
    (r1_selftest, -5, "trials"),
    (r1_selftest, 2.5, "trials"),
    (r1_selftest, False, "trials"),
    (nideal_selftest, -3, "trials"),
    (nideal_selftest, True, "trials"),
    (nideal_selftest, "10", "trials"),
])
def test_selftests_reject_bad_counts(run, count, name):
    with pytest.raises(NotInModel, match=rf"^{name} must be a nonnegative integer$"):
        run(count)


def _checked_pairs(monkeypatch, name):
    """Record the (a, b) of every call the self-tests make to the
    module global ``name``, passing each call through."""
    exact, calls = getattr(exemplars, name), []

    def recording(a, b):
        calls.append((a, b))
        return exact(a, b)

    monkeypatch.setattr(exemplars, name, recording)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_r1_selftest_checks_the_randrange_pairs(monkeypatch, seed):
    # each trial calls (a : b), then (a : (a : b)) with the same a
    calls = _checked_pairs(monkeypatch, "r1_residual")
    assert r1_selftest(20000, seed)["failures"] == 0
    pairs = r1_selftest_pairs(20000, seed)
    assert calls[::2] == pairs
    assert [a for a, _ in calls[1::2]] == [a for a, _ in pairs]


@pytest.mark.parametrize("seed", range(4))
def test_nideal_selftest_checks_the_randrange_pairs(monkeypatch, seed):
    # the counterexample report's residuals come first, then one per trial
    calls = _checked_pairs(monkeypatch, "ideal_residual")
    nideal_selftest(0, seed)
    fixed = len(calls)
    nideal_selftest(1000, seed)
    assert calls[2 * fixed:] == nideal_selftest_pairs(1000, seed)


@pytest.mark.parametrize("n", [2, 3, 24, 40, 59, 2000])
def test_below_draws_as_randrange(n):
    for seed in range(3):
        bits, rng = random.Random(seed).getrandbits, random.Random(seed)
        drawn = [exemplars._below(bits, n, n.bit_length()) for _ in range(500)]
        assert drawn == [rng.randrange(n) for _ in range(500)]


def test_selftests_accept_a_zero_count():
    assert zminus_selftest(0)["trials"] == 4  # the top and the bottom
    assert r1_selftest(0)["trials"] == 0
    report = nideal_selftest(0)
    assert report["trials"] == 0 and report["expected_outcome_confirmed"]


# -- the real interval chain ---------------------------------------------


def test_r1_spec_examples():
    assert r1_residual(R1Element.closed(5), R1Element.open(2)) == R1Element.closed(3)
    assert r1_residual(R1Element.open(5), R1Element.closed(2)) == R1Element.open(3)


RATIONAL_SAMPLES = [
    (Fraction(5), Fraction(2)),
    (Fraction(7, 3), Fraction(1, 4)),
    (Fraction(22, 7), Fraction(22, 7)),
    (Fraction(100, 9), Fraction(3, 2)),
]


@pytest.mark.parametrize("r,t", RATIONAL_SAMPLES)
def test_r1_table_rows(r, t):
    """The four rows of the residual table for a <= b (so r >= t), as
    symbolic kind patterns with exact endpoints.

    Rows are (a, b) -> (a:b), then (a:(a:b)):
      [r]|[t] -> [r-t], [t];  (r]|(t] -> [r-t], (t];
      [r]|(t] -> [r-t], [t];  (r]|[t] -> (r-t], and the second residual
    is [t]: the printed source table shows (t] there, but [t,inf]
    multiplied by the open interval (r-t,inf] already lands inside
    (r,inf], so the closed interval is the true maximum (see the
    maximality assertions below).
    """
    assert r >= t >= 0
    cl, op = R1Element.closed, R1Element.open
    # row 1
    assert r1_residual(cl(r), cl(t)) == cl(r - t)
    assert r1_residual(cl(r), cl(r - t)) == cl(t)
    # row 2
    assert r1_residual(op(r), op(t)) == cl(r - t)
    assert r1_residual(op(r), cl(r - t)) == op(t)
    # row 3
    assert r1_residual(cl(r), op(t)) == cl(r - t)
    assert r1_residual(cl(r), cl(r - t)) == cl(t)
    # row 4
    assert r1_residual(op(r), cl(t)) == op(r - t)
    second = r1_residual(op(r), op(r - t))
    assert second == cl(t)
    # the closed answer genuinely divides back into a and dominates the
    # open one, so (t] would not be maximal
    assert r1_le(r1_mult(second, op(r - t)), op(r))
    assert r1_le(op(t), second) and second != op(t)
    # every row satisfies the sharpness identity
    for a, b in [
        (cl(r), cl(t)),
        (op(r), op(t)),
        (cl(r), op(t)),
        (op(r), cl(t)),
    ]:
        ab = r1_residual(a, b)
        assert r1_mult(r1_residual(a, ab), ab) == a


def test_r1_clamps_to_top_when_divisor_is_inside():
    assert r1_residual(R1Element.closed(2), R1Element.closed(5)) == R1_TOP
    assert r1_residual(R1Element.closed(2), R1Element.open(2)) == R1_TOP
    assert r1_residual(R1Element.open(2), R1Element.closed(5)) == R1_TOP
    # equal endpoints, closed divisor of an open dividend: one open step
    assert r1_residual(R1Element.open(2), R1Element.closed(2)) == R1Element.open(0)


def test_r1_zero_cases():
    a = R1Element.closed(3)
    assert r1_residual(a, R1_ZERO) == R1_TOP
    assert r1_residual(R1_ZERO, a) == R1_ZERO
    assert r1_mult(R1_ZERO, a) == R1_ZERO
    assert r1_le(R1_ZERO, a) and not r1_le(a, R1_ZERO)


def test_r1_identity_element():
    for x in (R1Element.closed(7), R1Element.open(Fraction(1, 3)), R1_ZERO):
        assert r1_mult(R1_TOP, x) == x


def test_r1_selftest_seeded():
    report = r1_selftest(trials=1000, seed=42)
    assert report["failures"] == 0
    assert all(count > 0 for count in report["kind_pairs"].values())


def test_r1_element_validation():
    _rejects(R1Element.closed, -1)
    _rejects(R1Element, "closed", None)
    _rejects(R1Element, "interval", Fraction(1))
    _rejects(R1Element, "zero", Fraction(0))
    _rejects(R1Element.open, Fraction(-1, 3))
    _rejects(R1Element, "open", 1)  # an endpoint must be a Fraction
    _rejects(exemplars._r1, "closed", -2, 3)  # the int constructor checks too
    # what Fraction() cannot read as a finite rational, and a bool
    for bad in (None, "abc", float("nan"), float("inf"), True, False):
        for build in (R1Element.closed, R1Element.open):
            with pytest.raises(NotInModel, match="^endpoint must be a nonnegative Fraction$"):
                build(bad)
    # what parses today still does
    assert R1Element.closed("1/2") == R1Element.closed(Fraction(2, 4))
    assert R1Element.open(3).endpoint == Fraction(3)


def test_r1_element_is_immutable():
    x = R1Element.open(Fraction(7, 3))
    for name, value in (("kind", "closed"), ("endpoint", Fraction(1)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    for shared in (x, R1_TOP, R1_ZERO):
        for name in ("kind", "_num", "_den"):
            with pytest.raises(AttributeError):
                delattr(shared, name)
    assert x == R1Element.open(Fraction(7, 3))
    # the shared constants still work after the attempts
    one = R1Element.closed(1)
    assert r1_mult(R1_TOP, one) == one and r1_mult(R1_ZERO, one) == R1_ZERO
    assert r1_residual(one, R1_ZERO) == R1_TOP and repr(R1_TOP) == "R1[0,inf]"


def test_r1_endpoint_reads_back_in_lowest_terms():
    x = R1Element.closed(Fraction(2, 4))
    assert x.endpoint == Fraction(1, 2)
    assert isinstance(x.endpoint, Fraction)
    assert x == R1Element.closed(Fraction(1, 2))
    assert R1_ZERO.endpoint is None
    assert R1_TOP.endpoint == 0


@pytest.mark.parametrize(
    "element,text",
    [
        (R1Element.closed(Fraction(7, 3)), "R1[7/3,inf]"),
        (R1Element.open(0), "R1(0,inf]"),
        (R1Element.open(Fraction(10, 4)), "R1(5/2,inf]"),
        (R1Element.closed(12), "R1[12,inf]"),
        (R1_TOP, "R1[0,inf]"),
        (R1_ZERO, "R1{inf}"),
    ],
)
def test_r1_repr_table(element, text):
    assert repr(element) == text


def test_r1_equality_with_other_objects_is_false():
    x = R1Element.closed(1)
    for other in (("closed", 1, 1), ("closed", Fraction(1)), "R1[1,inf]", 1, Fraction(1), None):
        assert (x == other) is False
        assert x != other
    assert (R1_ZERO == None) is False  # noqa: E711


def test_r1_copies_and_pickles_to_equal_elements():
    for x in (R1Element.closed(Fraction(7, 3)), R1Element.open(0), R1_ZERO):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)


_fractions = st.fractions(min_value=0, max_value=50)
_r1_elements = st.one_of(
    st.just(R1_ZERO),
    _fractions.map(R1Element.closed),
    _fractions.map(R1Element.open),
)


@settings(max_examples=300, deadline=None)
@given(a=_r1_elements, b=_r1_elements)
def test_r1_residual_laws(a, b):
    r = r1_residual(a, b)
    assert r1_le(r1_mult(r, b), a)  # r*b <= a
    ab = r1_residual(a, r)
    assert r1_mult(ab, r) == a  # the sharpness identity
    # total order
    assert r1_le(a, b) or r1_le(b, a)
    # multiplication is order-preserving
    assert r1_le(r1_mult(a, r1_meet(a, b)), r1_mult(a, r1_join(a, b)))


def _r1_le_by_fractions(a, b):
    """The reference order, by Fraction comparisons."""
    if a.is_zero():
        return True
    if b.is_zero():
        return False
    if b.kind == "closed" or a.kind == "open":
        return a.endpoint >= b.endpoint
    return a.endpoint > b.endpoint


def _r1_mult_by_fractions(a, b):
    """The reference product, by Fraction addition."""
    if a.is_zero() or b.is_zero():
        return R1_ZERO
    kind = "closed" if a.kind == b.kind == "closed" else "open"
    return R1Element(kind, a.endpoint + b.endpoint)


def _r1_residual_by_fractions(a, b):
    """The reference residual, with a Fraction clamp."""
    if b.is_zero():
        return R1_TOP
    if a.is_zero():
        return R1_ZERO
    d = a.endpoint - b.endpoint
    if a.kind == "open" and b.kind == "closed":
        return R1_TOP if d < 0 else R1Element.open(d)
    return R1Element.closed(max(d, Fraction(0)))


def _assert_canonical(x):
    """x equals, and hashes like, the element rebuilt from its Fraction
    endpoint: so its stored endpoint is in lowest terms."""
    if not x.is_zero():
        assert isinstance(x.endpoint, Fraction)
        assert math.gcd(x.endpoint.numerator, x.endpoint.denominator) == 1
    rebuilt = R1Element(x.kind, x.endpoint)
    assert x == rebuilt and hash(x) == hash(rebuilt)


@settings(max_examples=400, deadline=None)
@given(a=_r1_elements, b=_r1_elements, same_endpoint=st.booleans())
def test_r1_integer_comparisons_match_fraction_comparisons(a, b, same_endpoint):
    # the int kernel against the Fraction references, on every operation
    if same_endpoint and not a.is_zero() and not b.is_zero():
        b = R1Element(b.kind, a.endpoint)
    le = _r1_le_by_fractions
    cases = [
        (r1_mult(a, b), _r1_mult_by_fractions(a, b)),
        (r1_residual(a, b), _r1_residual_by_fractions(a, b)),
        (r1_join(a, b), a if le(b, a) else b),
        (r1_meet(a, b), a if le(a, b) else b),
    ]
    for got, expected in cases:
        assert got == expected and hash(got) == hash(expected)
        _assert_canonical(got)
    assert r1_le(a, b) == le(a, b)
    assert r1_mult(a, b) == r1_mult(b, a)


def test_r1_equal_values_from_different_routes_deduplicate():
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    cl, op = R1Element.closed, R1Element.open
    routes = [
        r1_mult(cl(third), cl(two_thirds)),
        cl(1),
        cl(Fraction(6, 6)),
        r1_residual(cl(Fraction(5, 2)), cl(Fraction(3, 2))),
        r1_residual(op(Fraction(7, 4)), op(Fraction(3, 4))),
        r1_mult(R1_TOP, cl(Fraction(4, 4))),
    ]
    assert len(set(routes)) == 1
    assert len({hash(x) for x in routes}) == 1
    assert all(x == routes[0] for x in routes)
    _assert_canonical(routes[0])
    opens = {r1_mult(op(third), cl(two_thirds)), op(1), r1_mult(cl(third), op(two_thirds))}
    assert len(opens) == 1 and opens != set(routes)


def test_r1_integer_comparisons_on_equal_endpoints_and_zero():
    samples = [R1_ZERO, R1_TOP, R1Element.open(0)]
    for r in (Fraction(1, 3), Fraction(7, 2)):
        samples += [R1Element.closed(r), R1Element.open(r)]
    for a in samples:
        for b in samples:
            assert r1_le(a, b) == _r1_le_by_fractions(a, b), (a, b)
            assert r1_residual(a, b) == _r1_residual_by_fractions(a, b), (a, b)
            assert r1_mult(a, b) == _r1_mult_by_fractions(a, b), (a, b)


def test_r1_selftest_catches_a_closed_residual_where_open_is_due(monkeypatch):
    # (open : closed) must be open.  A closed answer times the closed
    # divisor lands on a's endpoint, outside the open dividend, and the
    # second residual (a : r) of an open a goes wrong the same way
    exact = exemplars.r1_residual
    calls = []

    def closed_for_open(a, b):
        calls.append((a, b))
        r = exact(a, b)
        return R1Element.closed(r.endpoint) if r.kind == "open" else r

    monkeypatch.setattr(exemplars, "r1_residual", closed_for_open)
    report = r1_selftest(trials=400, seed=1)
    assert calls
    assert report["failures"] > 0
    witnesses = report["witnesses"]
    assert {label for label, _, _ in witnesses} == {"residual_bound", "sharp_identity"}
    assert all(a.startswith("R1(") for _, a, _ in witnesses)  # open dividends only
    # the first law to break on an open-by-closed pair is r*b <= a
    assert all(b.startswith("R1[") for label, _, b in witnesses if label == "residual_bound")


def test_r1_selftest_catches_a_closed_product_of_an_open_factor(monkeypatch):
    # a product with an open factor is open; closing it lets r*b reach
    # the endpoint of an open dividend, and (a:(a:b)) (a:b) land on it
    exact = exemplars.r1_mult
    calls = []

    def always_closed(a, b):
        calls.append((a, b))
        p = exact(a, b)
        return R1Element.closed(p.endpoint) if p.kind == "open" else p

    monkeypatch.setattr(exemplars, "r1_mult", always_closed)
    report = r1_selftest(trials=400, seed=1)
    assert calls
    assert report["failures"] > 0
    witnesses = report["witnesses"]
    assert {label for label, _, _ in witnesses} == {"residual_bound", "sharp_identity"}
    assert all(a.startswith("R1(") for _, a, _ in witnesses)  # open dividends only


def test_r1_selftest_catches_an_open_residual_where_closed_is_due(monkeypatch):
    # open(d) sits just below the due closed(d), so r*b <= a still holds
    # and only the maximality step sees that closed(d) qualifies too
    exact = exemplars.r1_residual
    calls = []

    def open_for_closed(a, b):
        calls.append((a, b))
        r = exact(a, b)
        return R1Element.open(r.endpoint) if r.kind == "closed" else r

    monkeypatch.setattr(exemplars, "r1_residual", open_for_closed)
    report = r1_selftest(trials=400, seed=1)
    assert calls
    assert report["failures"] > 0
    labels = {label for label, _, _ in report["witnesses"]}
    assert "residual_maximality" in labels and "residual_bound" not in labels


@settings(max_examples=200, deadline=None)
@given(a=_r1_elements, b=_r1_elements, c=_r1_elements)
def test_r1_residual_maximality(a, b, c):
    # no third element strictly above (a:b) still divides into a
    r = r1_residual(a, b)
    if r1_le(c, r):
        assert r1_le(r1_mult(c, b), a)
    elif not r1_le(r1_mult(c, b), a):
        pass  # consistent: c does not qualify
    else:
        assert r1_le(c, r), f"{c} qualifies but exceeds the residual"


# -- monoid ideals --------------------------------------------------------


def _members_to(a, bound):
    return [n for n in range(1, bound + 1) if ideal_member(a, n)]


def test_minimal_generating_sets():
    assert FGIdeal.of(2, 4, 6).generators == frozenset({2})
    assert FGIdeal.of(4, 6, 9, 36).generators == frozenset({4, 6, 9})
    assert FGIdeal.of().is_zero()
    _rejects(FGIdeal.of, 0)
    _rejects(FGIdeal.of, -3)
    _rejects(ideal_member, UNIT_IDEAL, 0)


def test_ideal_validation_rejects_bools_and_non_integers():
    # True == 1 as an int, so a bool generator would pass for the unit
    # ideal; like ZMinusElement(True), the models reject it
    _rejects(FGIdeal.of, True)
    _rejects(FGIdeal.of, 2, False)
    _rejects(FGIdeal.of, 2.0)
    _rejects(FGIdeal, frozenset({True, 3}))
    _rejects(ideal_member, UNIT_IDEAL, True)
    _rejects(ideal_member, FGIdeal.of(2), 4.0)
    for bad in (None, 5, [[2]]):  # not an iterable of ints
        with pytest.raises(NotInModel, match="^generators must be positive integers$"):
            FGIdeal(bad)
    # a one-shot iterable is read once, not used up by the type check
    assert FGIdeal(g for g in (4, 6, 12)) == FGIdeal.of(4, 6)
    assert FGIdeal.of(1) == UNIT_IDEAL
    assert ideal_member(FGIdeal.of(2), 4) and not ideal_member(FGIdeal.of(2), 3)


def test_ideal_product_example():
    b = FGIdeal.of(2, 3)
    b2 = ideal_product(b, b)
    assert b2.generators == frozenset({4, 6, 9})
    # membership oracle up to 100
    expected = [
        n
        for n in range(1, 101)
        if n % 4 == 0 or n % 6 == 0 or n % 9 == 0
    ]
    assert _members_to(b2, 100) == expected


def test_ideal_join_meet_examples():
    a = FGIdeal.of(4, 9)
    assert ideal_join(a, FGIdeal.of(1)).generators == frozenset({1})
    meet = ideal_meet(FGIdeal.of(2), FGIdeal.of(3))
    assert meet.generators == frozenset({6})
    assert _members_to(meet, 60) == [n for n in range(1, 61) if n % 6 == 0]


def test_ideal_residual_examples():
    a, b = FGIdeal.of(4, 9), FGIdeal.of(2, 3)
    assert ideal_residual(a, b).generators == frozenset({4, 6, 9})
    assert ideal_residual(a, FGIdeal.of(4, 6, 9)).generators == frozenset({2, 3})
    assert ideal_residual(a, FGIdeal.of(1)) == a
    with pytest.raises(ZeroDivisor):
        ideal_residual(a, FGIdeal.of())


def test_internal_constructions_minimise_without_a_type_check(monkeypatch):
    # products, joins and meets of minimal generator sets need not be
    # minimal, so the internal constructions still minimise; they build
    # no FGIdeal through its checked constructor
    cases = [
        (ideal_product, (2, 3), (2, 9), {4, 6, 27}),  # 6 divides 18
        (ideal_join, (2,), (4,), {2}),
        (ideal_meet, (2, 3), (2,), {2}),  # lcm(3, 2) = 6 is a multiple of 2
        (ideal_residual, (4, 9), (2, 3), {4, 6, 9}),
    ]
    operands = [(FGIdeal.of(*a), FGIdeal.of(*b)) for _, a, b, _ in cases]

    def refuse(self):
        raise AssertionError("an internal construction re-checked its generators")

    monkeypatch.setattr(FGIdeal, "__post_init__", refuse)
    for (op, _, _, expected), (a, b) in zip(cases, operands):
        assert op(a, b).generators == frozenset(expected)


def test_zero_ideal_arithmetic():
    zero, b = FGIdeal.of(), FGIdeal.of(2, 3)
    assert ideal_product(zero, b).is_zero()
    assert ideal_join(zero, b) == b
    assert ideal_meet(zero, b).is_zero()
    assert ideal_residual(zero, b).is_zero()
    assert ideal_le(zero, b) and not ideal_le(b, zero)


def test_counterexample_report():
    report = counterexample_report()
    assert report["residual_ab"] == [4, 6, 9]
    assert report["residual_ab_is_b_squared"]
    assert report["residual_a_ab"] == [2, 3]
    assert report["residual_a_ab_is_b"]
    assert report["recomposition"] == [8, 12, 18, 27]
    assert not report["sharp_identity_holds"]
    assert report["witness"] == 4  # 4 is in <4,9> but not in b^3
    assert report["pseudo_dedekind_all_principal"]


def test_nideal_selftest_confirms_expected_outcome():
    report = nideal_selftest(trials=100, seed=7)
    assert report["expected_outcome_confirmed"]
    assert report["oracle_failures"] == 0


_small_ideals = st.sets(
    st.integers(min_value=1, max_value=24), min_size=1, max_size=3
).map(lambda gens: FGIdeal(frozenset(gens)))


@settings(max_examples=150, deadline=None)
@given(a=_small_ideals, b=_small_ideals)
def test_ideal_residual_matches_membership_scan(a, b):
    r = ideal_residual(a, b)
    bound = 400
    assert _members_to(r, bound) == residual_members_scan(a, b, bound)


def _residual_members_by_membership(a, b, bound):
    """The oracle one x at a time: x*h in a for every generator h of b."""
    return [
        x
        for x in range(1, bound + 1)
        if all(ideal_member(a, x * h) for h in b.generators)
    ]


_ideals_around_bound = st.sets(
    st.integers(min_value=1, max_value=60), min_size=0, max_size=4
).map(lambda gens: FGIdeal(frozenset(gens)))


@settings(max_examples=300, deadline=None)
@given(
    a=_ideals_around_bound,
    b=_ideals_around_bound.filter(lambda b: not b.is_zero()),
    bound=st.one_of(st.just(1), st.integers(min_value=1, max_value=40)),
)
def test_residual_members_scan_matches_membership_scan(a, b, bound):
    # generators run past the bound, and bound 1 inspects a single x
    assert residual_members_scan(a, b, bound) == _residual_members_by_membership(
        a, b, bound
    )


def test_residual_members_scan_edges():
    assert residual_members_scan(FGIdeal.of(7), FGIdeal.of(50), 1) == []
    assert residual_members_scan(FGIdeal.of(50), FGIdeal.of(50), 1) == [1]
    assert residual_members_scan(ZERO_IDEAL, FGIdeal.of(2), 10) == []
    assert residual_members_scan(UNIT_IDEAL, FGIdeal.of(3, 5), 4) == [1, 2, 3, 4]
    with pytest.raises(ZeroDivisor):
        residual_members_scan(FGIdeal.of(2), ZERO_IDEAL, 10)


def test_nideal_oracle_catches_a_dropped_generator(monkeypatch):
    # a residual missing its largest generator is too small; the sieve
    # oracle must see it on the random trials
    exact = exemplars.ideal_residual

    def drop_largest(a, b):
        gens = exact(a, b).generators
        if len(gens) >= 2:
            gens = gens - {max(gens)}
        return FGIdeal(gens)

    monkeypatch.setattr(exemplars, "ideal_residual", drop_largest)
    report = nideal_selftest(trials=1000, seed=1)
    assert report["oracle_failures"] > 0
    assert report["expected_outcome_confirmed"] is False


@settings(max_examples=150, deadline=None)
@given(a=_small_ideals, a_extra=_small_ideals, b=_small_ideals)
def test_ideal_residual_monotone(a, a_extra, b):
    bigger = ideal_join(a, a_extra)  # a <= bigger
    assert ideal_le(ideal_residual(a, b), ideal_residual(bigger, b))


@settings(max_examples=150, deadline=None)
@given(a=_small_ideals, b=_small_ideals)
def test_ideal_minimality_invariant(a, b):
    prod = ideal_product(a, b)
    gens = prod.generators
    assert all(
        not any(h != g and g % h == 0 for h in gens) for g in gens
    )
    # equality is mutual divisibility coverage
    assert ideal_equal(prod, FGIdeal(frozenset(g for g in gens)))
    # a product sits inside both factors
    assert ideal_le(prod, a) and ideal_le(prod, b)


# -- finite quotients, checked by the lattice engine ------------------------

_QUOTIENTS = {
    "zminus": (lambda: zminus_quotient(6), z_residual, True),
    "r1": (lambda: r1_quotient(6), r1_residual, True),
    "nideal": (nideal_quotient, ideal_residual, False),
}


@pytest.mark.parametrize("model", _QUOTIENTS)
def test_exemplar_quotients_against_the_engine(model):
    # each quotient's residual lies above its dividend, so it is the
    # model's own residual; the engine must find the same one
    build, residual, sharp = _QUOTIENTS[model]
    document, carrier = build()
    L = parse_lattice(document)
    element = dict(zip(document["elements"], carrier))
    of = [element[name] for name in L.names]
    assert L.size == {"zminus": 8, "r1": 13, "nideal": 20}[model]
    for a in L.elements():
        for b in L.elements():
            assert of[L.residual(a, b)] == residual(of[a], of[b]), (of[a], of[b])
    assert is_sharp(L) is sharp
    assert not theorem_audit(L).falsified


def test_zminus_quotient_is_the_valuation_chain():
    assert parse_lattice(zminus_quotient(6)[0]).mult == parse_lattice(valuation_document(8)).mult


def test_nideal_quotient_breaks_the_identity_at_the_counterexample():
    # a = <4, 9>, b = <2, 3>: (a:b) = <4, 6, 9> and (a:(a:b)) = <2, 3>,
    # whose product <8, 12, 18, 27> is not a
    document, _ = nideal_quotient()
    L = parse_lattice(document)
    a, b = (L.id_of(repr(FGIdeal.of(*gens))) for gens in ((4, 9), (2, 3)))
    ab = L.residual(a, b)
    assert L.names[ab] == repr(FGIdeal.of(4, 6, 9))
    assert L.residual(a, ab) == b
    assert L.names[L.mul(b, ab)] == repr(FGIdeal.of(8, 12, 18, 27))
