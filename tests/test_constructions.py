"""Localization and factor-lattice constructions."""

from dataclasses import FrozenInstanceError, fields
from itertools import product

import oracles
import pytest
from conftest import (
    POSET_P,
    SPLIT5,
    nil_document,
    poset_slots,
    product_document,
    valuation_document,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sharplat import constructions, core, enumeration, gallery, parse_lattice, predicates
from sharplat.core import FiniteMultLattice, FinitePoset
from sharplat.constructions import (
    LocalizationResult,
    QuotientResult,
    localize,
    localize_element,
    quotient,
)
from sharplat.errors import (
    DegenerateQuotient,
    InternalValidationFailure,
    NotAssociative,
    NotPrime,
    UnknownElement,
)


# -- localize_element ---------------------------------------------------


def test_localize_element_examples(diamond):
    p, q = diamond.id_of("p"), diamond.id_of("q")
    assert localize_element(diamond, p, q) == diamond.top  # q not below p
    assert localize_element(diamond, p, 0) == p  # p*q = 0 with q outside p


def test_localize_at_non_prime_rejected(nonsharp5):
    a = nonsharp5.id_of("a")  # b*b = 0 <= a with b not below a
    with pytest.raises(NotPrime):
        localize_element(nonsharp5, a, 0)
    with pytest.raises(NotPrime):
        localize(nonsharp5, a)


@pytest.mark.parametrize("entry", [
    quotient,
    predicates.prime_witness,
    localize,
    predicates.element_profile,
    lambda L, p: localize_element(L, p, 0),
    lambda L, x: localize_element(L, L.id_of("c"), x),  # c is prime
], ids=["quotient", "prime_witness", "localize", "element_profile",
        "localize_element_p", "localize_element_x"])
def test_entry_points_reject_unknown_ids(nonsharp5, entry):
    # unchecked, a negative id would index from the end and True pass as 1
    n = nonsharp5.size
    for x in (-1, -n, n, n + 3, True, 1.0):
        with pytest.raises(UnknownElement):
            entry(nonsharp5, x)


def test_localization_bullets(census_structures):
    for key in ("chain4", "chain5", "diamond2"):
        for L in census_structures[key]:
            for p in predicates.prime_elements(L):
                loc = [localize_element(L, p, x) for x in L.elements()]
                for x in L.elements():
                    assert L.le(x, loc[x])
                    assert loc[loc[x]] == loc[x]  # idempotence
                    assert (loc[x] == L.top) == (not L.le(x, p))
                    for y in L.elements():
                        assert loc[L.meet(x, y)] == L.meet(loc[x], loc[y])


def test_elements_separated_by_maximal_localizations(census_structures):
    for L in census_structures["chain5"] + census_structures["diamond2"]:
        maximals = predicates.maximal_elements(L)
        for x in L.elements():
            for y in L.elements():
                same = all(
                    localize_element(L, m, x) == localize_element(L, m, y)
                    for m in maximals
                )
                assert same == (x == y)


def _localize_element_by_pairs(L, p, x):
    # the definition, by scanning every pair (a, s)
    out = 0
    for a in L.elements():
        if any(not L.le(s, p) and L.le(L.mul(a, s), x) for s in L.elements()):
            out = L.join(out, a)
    return out


def test_localize_element_matches_pair_scan(census_structures):
    checked = 0
    for structures in census_structures.values():
        for L in structures:
            for p in predicates.prime_elements(L):
                for x in L.elements():
                    expected = _localize_element_by_pairs(L, p, x)
                    assert localize_element(L, p, x) == expected
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("n", [3, 4, 5])
def test_localize_at_the_coatom_of_a_chain_is_the_identity(n):
    # the coatom m of a chain is prime and only the top lies outside
    # it, so x_m = (x : 1) = x: a join over one residual
    for L in enumeration.enumerate_structures(enumeration.chain_poset(n)):
        m = L.top - 1
        assert [localize_element(L, m, x) for x in L.elements()] == list(L.elements())
        loc = localize(L, m)
        assert loc.image == loc.projection == tuple(L.elements())
        assert loc.lattice == L


# -- localize -----------------------------------------------------------


def test_localize_diamond_is_two_chain(diamond):
    p = diamond.id_of("p")
    loc = localize(diamond, p)
    assert [diamond.names[i] for i in loc.image] == ["p", "1"]
    assert loc.lattice.size == 2
    assert loc.lattice.mult == ((0, 0), (0, 1))
    assert loc.lattice.provenance == {"localized_at": "p"}
    # projection sends 0 and p to the class of p, q and 1 to the top
    q = diamond.id_of("q")
    assert loc.projection[0] == loc.projection[p] == 0
    assert loc.projection[q] == loc.projection[diamond.top] == 1


def test_localize_local_lattice_is_identity(nonsharp5, chain3_nil, chain3_idem):
    for L in (nonsharp5, chain3_nil, chain3_idem):
        m = predicates.maximal_elements(L)[0]
        loc = localize(L, m)
        assert loc.lattice.poset.names == L.names
        assert loc.lattice.mult == L.mult
        assert loc.image == tuple(L.elements())


def test_localize_multiplication_is_localized_product(census_structures):
    for L in census_structures["chain5"]:
        for p in predicates.prime_elements(L):
            loc = localize(L, p)
            for x in loc.image:
                for y in loc.image:
                    expected = localize_element(L, p, L.mul(x, y))
                    got = loc.image[
                        loc.lattice.mul(loc.projection[x], loc.projection[y])
                    ]
                    assert got == expected


def test_localization_preserves_sharp(census_structures):
    checked = 0
    for structures in census_structures.values():
        for L in structures:
            if not predicates.is_sharp(L):
                continue
            for p in predicates.prime_elements(L):
                assert predicates.is_sharp(localize(L, p).lattice)
                checked += 1
    assert checked > 0


def test_residuals_commute_with_localization(census_structures):
    # finite carriers make every element compact, so equality holds at
    # every prime, not only in the h-local case
    for key in ("chain4", "diamond2"):
        for L in census_structures[key]:
            for p in predicates.prime_elements(L):
                loc = localize(L, p)
                Lp, proj = loc.lattice, loc.projection
                for a in L.elements():
                    for b in L.elements():
                        assert proj[L.residual(a, b)] == Lp.residual(
                            proj[a], proj[b]
                        )


# -- quotient -----------------------------------------------------------


def test_quotient_nonsharp5_by_b(nonsharp5):
    b = nonsharp5.id_of("b")
    quo = quotient(nonsharp5, b)
    assert list(quo.lattice.names) == ["b", "c", "1"]
    c_new = quo.lattice.id_of("c")
    assert quo.lattice.mul(c_new, c_new) == c_new  # c*c = c^2 v b = c
    assert quo.lattice.bottom == quo.lattice.id_of("b")
    assert quo.lattice.provenance == {"quotient_by": "b"}
    # projection is x -> x v b
    for x in nonsharp5.elements():
        assert quo.image[quo.projection[x]] == nonsharp5.join(x, b)


def test_derived_lattices_serialize_with_provenance(nonsharp5, diamond):
    from sharplat import parse_lattice

    loc = localize(diamond, diamond.id_of("p"))
    doc = loc.lattice.serialize()
    assert doc["localized_at"] == "p"
    assert parse_lattice(doc) == loc.lattice
    assert parse_lattice(doc).provenance == {"localized_at": "p"}
    quo = quotient(nonsharp5, nonsharp5.id_of("b"))
    doc = quo.lattice.serialize()
    assert doc["quotient_by"] == "b"
    assert parse_lattice(doc) == quo.lattice


def test_quotient_by_bottom_is_identity(nonsharp5, diamond):
    for L in (nonsharp5, diamond):
        quo = quotient(L, 0)
        assert quo.lattice == L


def test_quotient_by_top_rejected(chain2):
    with pytest.raises(DegenerateQuotient):
        quotient(chain2, chain2.top)


def test_quotient_multiplication_law(census_structures):
    for L in census_structures["chain5"]:
        for a in range(L.size - 1):
            quo = quotient(L, a)
            for x in quo.image:
                for y in quo.image:
                    expected = L.join(L.mul(x, y), a)
                    got = quo.image[
                        quo.lattice.mul(quo.projection[x], quo.projection[y])
                    ]
                    assert got == expected


def test_quotient_preserves_sharp(census_structures):
    checked = 0
    for structures in census_structures.values():
        for L in structures:
            if not predicates.is_sharp(L):
                continue
            for a in range(L.size - 1):
                assert predicates.is_sharp(quotient(L, a).lattice)
                checked += 1
    assert checked > 0


# -- shared builder -----------------------------------------------------


def test_results_share_a_shape_but_not_a_type(diamond):
    loc, quo = localize(diamond, 1), quotient(diamond, 1)
    for result, cls, other in ((loc, LocalizationResult, QuotientResult),
                               (quo, QuotientResult, LocalizationResult)):
        assert [f.name for f in fields(result)] == ["lattice", "projection", "image"]
        twin = cls(result.lattice, result.projection, result.image)
        assert twin == result and hash(twin) == hash(result)
        assert repr(result) == (f"{cls.__name__}(lattice={result.lattice!r}, "
                                f"projection={result.projection!r}, image={result.image!r})")
        assert not isinstance(result, other)
        assert other(result.lattice, result.projection, result.image) != result
        for name in ("image", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(result, name, ())


@pytest.mark.parametrize("build,what", [(localize, "localized"), (quotient, "factor")])
def test_builder_wraps_validation_failure(monkeypatch, diamond, build, what):
    def reject(*args, **kwargs):
        raise NotAssociative("injected", witness=(1, 2, 3))

    monkeypatch.setattr(FiniteMultLattice, "_closure_image", reject)
    with pytest.raises(InternalValidationFailure) as err:
        build(diamond, diamond.id_of("p"))
    assert str(err.value) == f"{what} structure failed validation: injected"
    assert err.value.witness == (1, 2, 3)
    assert isinstance(err.value.__cause__, NotAssociative)


_CARRIERS = {
    **{f"chain{n}": enumeration.chain_poset(n) for n in range(2, 8)},
    "diamond2": enumeration.diamond_poset(2),
    "diamond3": enumeration.diamond_poset(3),
    "split5": SPLIT5,
    "P": POSET_P,
}


def _sub_lattices(L):
    """Every localization of L at a prime and every quotient by a
    non-top element."""
    return [localize(L, p) for p in predicates.prime_elements(L)] + [
        quotient(L, a) for a in range(L.size - 1)
    ]


@pytest.mark.parametrize("carrier", _CARRIERS.values(), ids=_CARRIERS.keys())
def test_inherited_order_is_the_induced_order(carrier):
    # every localization at a prime and every quotient by a non-top
    # element of every structure: the poset the builder restricts from
    # L equals the one built from its names and order from scratch
    structures = list(enumeration.enumerate_structures(carrier))
    built = 0
    for L in structures:
        for result in _sub_lattices(L):
            poset = result.lattice.poset
            assert poset_slots(poset) == poset_slots(FinitePoset(poset.names, poset.leq))
            built += 1
    assert built >= len(structures)  # the quotient by the bottom at least


def _builder_rejects(L, image, close):
    """The InternalValidationFailure of the builder on the map x ->
    close[x] of L onto ``image``, which must fail."""
    with pytest.raises(InternalValidationFailure) as err:
        constructions._sublattice(L, image, close, {}, "factor")
    assert isinstance(err.value.__cause__, InternalValidationFailure)
    return err.value


def test_builder_rejects_a_projection_that_is_not_a_closure(chain3_idem):
    # x -> top maps into {0, top} but does not fix 0; the builder's
    # failure names the construction
    err = _builder_rejects(chain3_idem, (0, 2), (2, 2, 2))
    assert str(err) == "factor structure failed validation: projection not idempotent at 0"
    assert err.witness == (0,)


def test_builder_rejects_a_closure_that_is_not_a_nucleus(chain3_nil):
    # on 0 < m < 1 with m^2 = 0, the closure onto {0, 1} is not a nucleus:
    # c(m)c(m) = 1 is not below c(m^2) = 0, so the projection sends (m, m)
    # to the product 1 of the image but m^2 to 0
    err = _builder_rejects(chain3_nil, (0, 2), (0, 2, 2))
    assert str(err) == (
        "factor structure failed validation: projection not multiplicative at (1, 1)"
    )
    assert err.witness == (1, 1)


@settings(deadline=None)
@given(data=st.data())
def test_builder_accepts_exactly_the_nuclei(census_structures, data):
    # a meet-closed family holding the top is the image of the closure
    # x -> the meet of the family above x; the builder accepts it iff
    # c(x)c(y) <= c(xy) for all x, y, and otherwise names the least (x, y)
    # whose product the projection does not keep, c(c(x)c(y)) != c(xy)
    L = data.draw(st.sampled_from([L for key in sorted(census_structures)
                                   for L in census_structures[key]]))
    n = L.size
    closed = {n - 1} | data.draw(st.sets(st.integers(0, n - 2), min_size=1))
    while more := {L.meet(x, y) for x in closed for y in closed} - closed:
        closed |= more
    image = tuple(sorted(closed))
    close = [L.meet_of(y for y in image if L.le(x, y)) for x in L.elements()]
    pairs = list(product(L.elements(), repeat=2))
    if all(L.le(L.mul(close[x], close[y]), close[L.mul(x, y)]) for x, y in pairs):
        lattice, _ = constructions._sublattice(L, image, close, {}, "factor")
        oracles.triple_scan(lattice.poset, lattice.mult)
        assert lattice.residuals == oracles.residuals(lattice)
    else:
        least = next((x, y) for x, y in pairs
                     if close[L.mul(close[x], close[y])] != close[L.mul(x, y)])
        err = _builder_rejects(L, image, close)
        assert str(err) == ("factor structure failed validation: "
                            f"projection not multiplicative at {least}")
        assert err.witness == least


def test_builder_rejects_a_corrupted_product(monkeypatch, nonsharp5, diamond, chain3_idem):
    # each single entry of a sub-lattice's restricted product, changed,
    # is caught: the first row-major pair the projection sends onto it
    restrict = core._restrict
    for L in (nonsharp5, diamond, chain3_idem):
        for result in _sub_lattices(L):
            image, projection = result.image, result.projection
            close = [image[k] for k in projection]
            m = len(image)
            for u, v in product(range(m), repeat=2):
                def corrupt(table, image_, projection_, u=u, v=v):
                    out = [list(row) for row in restrict(table, image_, projection_)]
                    if table is L.mult:
                        out[u][v] = (out[u][v] + 1) % m
                    return tuple(map(tuple, out))

                monkeypatch.setattr(core, "_restrict", corrupt)
                err = _builder_rejects(L, image, close)
                assert err.witness == (projection.index(u), projection.index(v))
                assert "projection not multiplicative" in str(err)
            monkeypatch.setattr(core, "_restrict", restrict)
            constructions._sublattice(L, image, close, {}, "factor")  # intact, it builds


def _checked_in_full(L):
    """Check every sub-lattice of L against the oracles: the triple scan
    accepts its product, its inherited residuals are the definition's,
    and the full constructor rebuilds it from its names, order and
    product with the same tables; returns how many were checked."""
    results = _sub_lattices(L)
    for result in results:
        sub = result.lattice
        oracles.triple_scan(sub.poset, sub.mult)
        assert sub.residuals == oracles.residuals(sub)
        rebuilt = FiniteMultLattice(FinitePoset(sub.names, sub.leq), sub.mult)
        assert (rebuilt.mult, rebuilt.residuals) == (sub.mult, sub.residuals)
    return len(results)


@pytest.mark.parametrize("carrier", _CARRIERS.values(), ids=_CARRIERS.keys())
def test_inherited_residuals_are_the_definition(carrier):
    # the closures are nuclei, so each image is closed under L's
    # residuals and they are its own; and the image checked only for its
    # projection passes the full validation it skipped
    structures = list(enumeration.enumerate_structures(carrier))
    checked = sum(map(_checked_in_full, structures))
    assert checked >= len(structures)


@pytest.mark.parametrize("document", [
    pytest.param(valuation_document(16), id="valuation16"),
    pytest.param(nil_document(8), id="nil8"),
    pytest.param(product_document(valuation_document(4), valuation_document(3)),
                 id="valuation4xvaluation3"),
    pytest.param(valuation_document(64), id="valuation64", marks=pytest.mark.slow),
    pytest.param(product_document(valuation_document(8), valuation_document(8)),
                 id="valuation8xvaluation8", marks=pytest.mark.slow),
])
def test_inherited_residuals_on_larger_lattices(document):
    L = parse_lattice(document)
    assert _checked_in_full(L) >= L.size


def _sub_lattices_skip(monkeypatch, name, *owners):
    """Patch ``name`` on each of ``owners`` to raise, then build every
    sub-lattice of the gallery lattices and audit the sharp ones, which
    must not call it; parsing a document and the search must."""
    documents = list(gallery.gallery_documents().values())
    lattices = [parse_lattice(doc) for doc in documents]

    def called(*args):
        raise AssertionError(name)

    for owner in owners:
        monkeypatch.setattr(owner, name, called)
    built = audited = 0
    for L in lattices:
        built += len(_sub_lattices(L))
        if predicates.is_sharp(L):
            predicates.theorem_audit(L)
            audited += 1
    assert (len(lattices), audited) == (18, 17)
    assert built > len(lattices)
    with pytest.raises(AssertionError, match=name):
        parse_lattice(documents[0])
    with pytest.raises(AssertionError, match=name):
        next(enumeration.enumerate_structures(enumeration.chain_poset(3)))


def test_sub_lattices_never_scan_residuals(monkeypatch):
    # localizations and quotients, and the audits that build them,
    # read L's residuals; parsed documents and search leaves still scan
    # their columns, the search through its memo of core._columns
    _sub_lattices_skip(monkeypatch, "_residual_column", core)


def test_sub_lattices_never_revalidate(monkeypatch):
    # they check only that their projection multiplies; parsed documents
    # and search leaves are still validated in full
    _sub_lattices_skip(monkeypatch, "_validate", FiniteMultLattice)
