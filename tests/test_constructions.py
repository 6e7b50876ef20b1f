"""Localization and factor-lattice constructions."""

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

from sharplat import constructions, enumeration, gallery, parse_lattice, predicates
from sharplat.core import FiniteMultLattice, FinitePoset
from sharplat.constructions import localize, localize_element, quotient
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


@pytest.mark.parametrize("build,what", [(localize, "localized"), (quotient, "factor")])
def test_builder_wraps_validation_failure(monkeypatch, diamond, build, what):
    def reject(*args, **kwargs):
        raise NotAssociative("injected", witness=(1, 2, 3))

    monkeypatch.setattr(constructions, "_trusted_lattice", reject)
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


def test_builder_rejects_a_projection_that_is_not_a_closure(chain3_idem):
    # x -> top maps into {0, top} but does not fix 0; the builder's
    # failure names the construction
    with pytest.raises(InternalValidationFailure) as err:
        constructions._sublattice(chain3_idem, (0, 2), (2, 2, 2), {}, "factor")
    assert str(err.value) == (
        "factor structure failed validation: projection not idempotent at 0"
    )
    assert err.value.witness == (0,)
    assert isinstance(err.value.__cause__, InternalValidationFailure)


def _residuals_are_the_definition(L):
    """Check the inherited residuals of every sub-lattice of L against
    the definitional table; returns how many were checked."""
    results = _sub_lattices(L)
    for result in results:
        assert result.lattice.residuals == oracles.residuals(result.lattice)
    return len(results)


@pytest.mark.parametrize("carrier", _CARRIERS.values(), ids=_CARRIERS.keys())
def test_inherited_residuals_are_the_definition(carrier):
    # the closures are nuclei, so each image is closed under L's
    # residuals and they are its own
    structures = list(enumeration.enumerate_structures(carrier))
    checked = sum(map(_residuals_are_the_definition, structures))
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
    assert _residuals_are_the_definition(L) >= L.size


def test_sub_lattices_never_scan_residuals(monkeypatch):
    # localizations and quotients, and the audits that build them,
    # read L's residuals; parsed documents and search leaves still scan
    documents = list(gallery.gallery_documents().values())
    lattices = [parse_lattice(doc) for doc in documents]

    def scan(self):
        raise AssertionError("residual scan")

    monkeypatch.setattr(FiniteMultLattice, "_residual_table", scan)
    built = audited = 0
    for L in lattices:
        built += len(_sub_lattices(L))
        if predicates.is_sharp(L):
            predicates.theorem_audit(L)
            audited += 1
    assert (len(lattices), audited) == (18, 17)
    assert built > len(lattices)
    with pytest.raises(AssertionError, match="residual scan"):
        parse_lattice(documents[0])
    with pytest.raises(AssertionError, match="residual scan"):
        next(enumeration.enumerate_structures(enumeration.chain_poset(3)))
