"""Element/lattice predicates, sharpness, and the claim audit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharplat import cli, constructions, enumeration, gallery, parse_lattice, predicates
from sharplat.core import FinitePoset
from sharplat.errors import ClaimFalsified
from sharplat.predicates import (
    element_profile,
    is_pseudo_dedekind,
    lattice_profile,
    maximal_elements,
    principal_monoid,
    prime_elements,
    sharpness_report,
    theorem_audit,
)


# -- element profiles ---------------------------------------------------


def test_nonsharp5_primes(nonsharp5):
    a, b, c = (nonsharp5.id_of(x) for x in "abc")
    assert prime_elements(nonsharp5) == (b, c)
    prof_a = element_profile(nonsharp5, a)
    assert not prof_a.is_prime
    # b*b = 0 <= a with b not below a
    assert prof_a.witnesses["is_prime"] == (b, b)
    assert element_profile(nonsharp5, c).is_prime


def test_nonsharp5_maximal(nonsharp5):
    c = nonsharp5.id_of("c")
    assert maximal_elements(nonsharp5) == (c,)
    assert element_profile(nonsharp5, c).is_maximal


def test_identity_and_bottom_always_principal():
    for build in gallery.BUILTINS.values():
        L = build()
        assert element_profile(L, L.top).is_principal
        assert element_profile(L, 0).is_principal


def test_nonsharp5_b_not_weak_meet_principal(nonsharp5):
    a, b = nonsharp5.id_of("a"), nonsharp5.id_of("b")
    prof = element_profile(nonsharp5, b)
    assert not prof.is_weak_meet_principal
    # (a:b)b = b*b = 0 but a^b = a
    assert prof.witnesses["is_weak_meet_principal"] == (a,)


def test_nonsharp5_principal_set(nonsharp5):
    # c is meet-principal, but no proper idempotent can be
    # join-principal: (c*c : c) = (c:c) = 1 while c v (0:c) = c
    c = nonsharp5.id_of("c")
    prof = element_profile(nonsharp5, c)
    assert prof.is_meet_principal
    assert not prof.is_join_principal
    assert nonsharp5.residual(nonsharp5.mul(c, c), c) == nonsharp5.top
    assert nonsharp5.join(c, nonsharp5.residual(0, c)) == c
    assert predicates.principal_elements(nonsharp5) == (0, nonsharp5.top)


def test_profile_implications_on_census(census_structures):
    for key in ("chain4", "chain5", "diamond2"):
        for L in census_structures[key]:
            for x in L.elements():
                prof = element_profile(L, x)
                if prof.is_meet_principal:
                    assert prof.is_weak_meet_principal
                if prof.is_join_principal:
                    assert prof.is_weak_join_principal
                if prof.is_maximal:
                    assert prof.is_prime
                assert prof.is_principal == (
                    prof.is_meet_principal and prof.is_join_principal
                )


# -- lattice profiles ---------------------------------------------------


def test_nonsharp5_profile(nonsharp5):
    prof = lattice_profile(nonsharp5)
    assert not prof.is_domain  # a*b = 0 with a, b nonzero
    assert prof.is_local and prof.max_elements == (nonsharp5.id_of("c"),)
    assert prof.is_totally_ordered
    assert not prof.is_principally_generated  # b is not a join of principals
    assert not prof.is_pseudo_dedekind  # (0:a) = b is not principal
    assert prof.dimension == 2  # nonzero primes b < c


def test_chain2_profile(chain2):
    prof = lattice_profile(chain2)
    assert prof.is_local
    assert prof.is_domain
    assert prof.is_totally_ordered
    assert prof.is_dedekind and prof.is_prufer
    assert prof.is_principally_generated
    assert prof.is_pseudo_dedekind
    assert prof.is_h_local
    assert prof.dimension == 0


def test_diamond_profile(diamond):
    prof = lattice_profile(diamond)
    assert not prof.is_local
    assert prof.max_elements == (diamond.id_of("p"), diamond.id_of("q"))
    assert not prof.is_domain  # p*q = 0
    assert not prof.is_totally_ordered
    assert prof.is_dedekind  # all four elements principal
    assert prof.is_h_local
    assert prof.dimension == 1


def test_chain3_profiles(chain3_nil, chain3_idem):
    nil = lattice_profile(chain3_nil)
    assert not nil.is_domain  # m*m = 0
    assert nil.is_dedekind and nil.is_principally_generated
    idem = lattice_profile(chain3_idem)
    assert idem.is_domain
    assert not idem.is_principally_generated  # m is not join-principal
    assert idem.dimension == 1


# -- sharpness ----------------------------------------------------------


def test_sharpness_nonsharp5(nonsharp5):
    report = sharpness_report(nonsharp5)
    assert not report.is_sharp
    assert (
        report.by_definition
        == report.by_residual_identity
        == report.by_divides
        == report.by_restricted_divides
        is False
    )
    # least failing pair of the residual identity is (a, b)
    assert report.counterexample == (nonsharp5.id_of("a"), nonsharp5.id_of("b"))
    assert report.factorization_witnesses == {}


def test_sharpness_trivial_and_chain3(chain2, chain3_nil, chain3_idem, diamond):
    for L in (chain2, chain3_nil, chain3_idem, diamond):
        report = sharpness_report(L)
        assert report.is_sharp
        assert report.counterexample is None


def test_factorization_witnesses_are_factorizations(chain3_nil, diamond):
    for L in (chain3_nil, diamond):
        report = sharpness_report(L)
        seen = set()
        for a1 in L.elements():
            for a2 in L.elements():
                for b in L.elements():
                    if L.le(L.mul(a1, a2), b):
                        seen.add((a1, a2, b))
        assert set(report.factorization_witnesses) == seen
        for (a1, a2, b), (b1, b2) in report.factorization_witnesses.items():
            assert L.mul(b1, b2) == b
            assert L.le(a1, b1) and L.le(a2, b2)


def _chain_document(n, mult):
    leq = [[1 if i <= j else 0 for j in range(n)] for i in range(n)]
    names = ["0", *(f"c{i}" for i in range(1, n - 1)), "1"]
    return {"elements": names, "leq": leq, "mult": mult}


def _valuation_chain(n):
    # m^i * m^j = m^(i+j), or 0 past the end: sharp.  Id i is
    # m^(n-1-i), so the product of ids i and j is id i + j - (n - 1).
    mult = [[max(i + j - (n - 1), 0) for j in range(n)] for i in range(n)]
    return parse_lattice(_chain_document(n, mult))


def _nil_chain(n):
    # interior products all 0: not sharp once n >= 4
    top = n - 1
    mult = [[j if i == top else i if j == top else 0 for j in range(n)]
            for i in range(n)]
    return parse_lattice(_chain_document(n, mult))


def _product(A, B):
    pairs = [(a, b) for a in A.elements() for b in B.elements()]
    return parse_lattice({
        "elements": [f"{A.names[a]},{B.names[b]}" for a, b in pairs],
        "leq": [[int(A.le(a, c) and B.le(b, d)) for c, d in pairs]
                for a, b in pairs],
        "mult": [[pairs.index((A.mul(a, c), B.mul(b, d))) for c, d in pairs]
                 for a, b in pairs],
    })


def _split_structures():
    # 0 < p, q < c < 1: p v q = c is neither p, q nor the top
    rank = [0, 1, 1, 2, 3]
    leq = [[i == j or rank[i] < rank[j] for j in range(5)] for i in range(5)]
    poset = FinitePoset(["0", "p", "q", "c", "1"], leq)
    return list(enumeration.enumerate_structures(poset))


def test_table_definition_route_matches_full_scan(census_structures):
    # the bitmask route and the full factorization scan decide the
    # definition independently; they must agree everywhere
    chain7 = list(enumeration.enumerate_structures(enumeration.chain_poset(7)))
    larger = [
        _valuation_chain(8),
        _valuation_chain(16),
        _nil_chain(10),
        _product(_valuation_chain(4), _valuation_chain(3)),
        _product(gallery.nonsharp5(), gallery.chain3_nil()),
    ]
    groups = [*census_structures.values(), chain7, _split_structures(), larger]
    sharp = not_sharp = 0
    for structures in groups:
        for L in structures:
            by_table = predicates._sharp_by_definition(L)
            assert by_table == predicates._definition_check(L)[0]
            sharp += by_table
            not_sharp += not by_table
    assert sharp > 0 and not_sharp > 0
    assert [predicates._sharp_by_definition(L) for L in larger] == [
        True, True, False, True, False
    ]


def test_factorization_witnesses_are_built_on_request(
    monkeypatch, capsys, fixtures_dir
):
    argv = ["report", str(fixtures_dir / "sharp_chain5_01.json")]
    expected_census = enumeration.census(enumeration.chain_poset(6)).to_dict()
    assert cli.main(argv) == 0
    expected_report = capsys.readouterr().out

    def no_scan(L):
        raise AssertionError("factorization witnesses were built")

    full_scan = predicates._definition_check
    monkeypatch.setattr(predicates, "_definition_check", no_scan)
    assert enumeration.census(enumeration.chain_poset(6)).to_dict() == expected_census
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected_report

    calls = []

    def counted_scan(L):
        calls.append(L)
        return full_scan(L)

    monkeypatch.setattr(predicates, "_definition_check", counted_scan)
    L = _valuation_chain(8)
    witnesses = full_scan(L)[1]
    report = sharpness_report(L)
    assert calls == []
    assert report.factorization_witnesses == witnesses
    assert report.to_dict(include_witnesses=True)["factorization_witnesses"] == [
        [list(k), list(v)] for k, v in sorted(witnesses.items())
    ]
    assert calls == [L]  # built once, then kept
    assert report == sharpness_report(L)
    assert hash(report) == hash(sharpness_report(L))


def test_four_way_agreement_on_censuses(census_structures):
    for structures in census_structures.values():
        for L in structures:
            report = sharpness_report(L)  # raises on any disagreement
            assert report.by_definition == report.by_residual_identity


def test_all_weak_meet_principal_implies_sharp(census_structures):
    hit = 0
    for structures in census_structures.values():
        for L in structures:
            if all(
                predicates._weak_meet_principal_witness(L, x) is None
                for x in L.elements()
            ):
                hit += 1
                assert predicates.is_sharp(L)
    assert hit > 0  # mult == meet structures exist (e.g. the diamond)


def test_sharp_trivial_divisor_elements_are_prime(census_structures):
    for structures in census_structures.values():
        for L in structures:
            if not predicates.is_sharp(L):
                continue
            for p in L.elements():
                if p == L.top:
                    continue
                divisors = {
                    d for d in L.elements() if L.divides(d, p) is not None
                }
                if divisors <= {p, L.top}:
                    assert predicates.prime_witness(L, p) is None


# -- principal monoid and pseudo-Dedekind -------------------------------


def test_principal_monoid_chain2(chain2):
    report = principal_monoid(chain2)
    assert report.principals == (0, 1)
    assert report.law_checked and report.law_holds


def test_principal_monoid_nonsharp5(nonsharp5):
    report = principal_monoid(nonsharp5)
    assert nonsharp5.top in report.principals
    assert report.principals == (0, nonsharp5.top)
    assert not report.law_checked  # not a pseudo-Dedekind domain


def test_principal_monoid_chain3_idem(chain3_idem):
    report = principal_monoid(chain3_idem)
    assert report.principals == (0, chain3_idem.top)
    assert report.law_checked  # pseudo-Dedekind domain
    assert report.law_holds


def test_is_pseudo_dedekind(chain2, nonsharp5, chain3_nil):
    assert is_pseudo_dedekind(chain2) == (True, None)
    ok, witness = is_pseudo_dedekind(nonsharp5)
    assert not ok and witness == (0, nonsharp5.id_of("a"))
    # scan result must agree with the brute-force definition
    principals = set(predicates.principal_elements(chain3_nil))
    expected = all(
        chain3_nil.residual(x, a) in principals
        for x in principals
        for a in chain3_nil.elements()
    )
    assert is_pseudo_dedekind(chain3_nil)[0] == expected


def test_sharp_alone_does_not_force_pseudo_dedekind(census_structures):
    # the pseudo-Dedekind consequence of sharpness carries the standing
    # domain + principally-generated hypotheses; without them sharp
    # five-chains can fail it (frozen from the exhaustive scan: 7 of 13)
    sharp = [
        L for L in census_structures["chain5"] if predicates.is_sharp(L)
    ]
    flags = [is_pseudo_dedekind(L)[0] for L in sharp]
    assert flags.count(True) == 7 and len(flags) == 13
    bad = next(L for L, ok in zip(sharp, flags) if not ok)
    prof = lattice_profile(bad)
    assert not (prof.is_domain and prof.is_principally_generated)


def test_nonzero_principal_elements_of_domains_are_cancellative(
    census_structures,
):
    hits = 0
    for structures in census_structures.values():
        for L in structures:
            if predicates.prime_witness(L, 0) is not None:
                continue
            for x in predicates.principal_elements(L):
                if x != 0:
                    hits += 1
                    assert predicates._cancellative_witness(L, x) is None
    assert hits > 0


def test_lcm_law_on_sharp_principally_generated_domains(census_structures):
    # the sharp + principally generated + domain census lattices satisfy
    # the GCD-monoid law on nonzero principal pairs
    for structures in census_structures.values():
        for L in structures:
            prof = lattice_profile(L)
            if not (
                prof.is_domain
                and prof.is_principally_generated
                and predicates.is_sharp(L)
            ):
                continue
            report = principal_monoid(L)
            assert report.law_checked and report.law_holds


# -- the audit ----------------------------------------------------------


def test_audit_nonsharp5(nonsharp5):
    audit = theorem_audit(nonsharp5)
    gap = audit.record("maximal_square_gap")
    assert gap.applicable and gap.status == "verified"
    for claim in (
        "sharp_implies_pseudo_dedekind",
        "sharp_implies_prufer",
        "principal_lcm_law",
        "residual_localization",
        "sharp_dimension_at_most_one",
    ):
        assert audit.record(claim).status == "not_applicable"
    assert audit.record("sharp_iff_all_principal").status == "not_applicable"
    assert not audit.falsified


def test_audit_chain_square_condition(chain3_nil, census_structures):
    # gate requires an interior pair, so 3-chains are not applicable
    audit = theorem_audit(chain3_nil)
    assert audit.record("chain_square_condition_sharp").status == "not_applicable"
    for L in census_structures["chain5"]:
        record = theorem_audit(L).record("chain_square_condition_sharp")
        condition = L.le(1, L.mul(2, 2)) and L.le(2, L.mul(3, 3))
        if condition:
            assert record.status == "verified" and not record.vacuous
        else:
            assert record.vacuous


def test_audit_clean_across_censuses(census_structures):
    for structures in census_structures.values():
        for L in structures:
            assert not theorem_audit(L).falsified


def test_audit_verified_nonvacuously_on_sharp_locals(census_structures):
    hit = 0
    for L in census_structures["chain5"]:
        if not predicates.is_sharp(L):
            continue
        audit = theorem_audit(L)
        assert audit.record("maximal_square_gap").status == "verified"
        assert not audit.record("maximal_square_gap").vacuous
        assert audit.record("local_join_representation").status == "verified"
        hit += 1
    assert hit == 13


def test_local_join_representation_on_sharp_valuation_chain32():
    # a sharp local chain with 32 join-principal elements, far past any
    # subset search
    record = theorem_audit(_valuation_chain(32)).record("local_join_representation")
    assert record.status == "verified" and not record.vacuous


def test_claim_falsified_raised_on_a_lying_sharpness_check(monkeypatch):
    # the all-nilpotent 4-chain has an element strictly between m^2 = 0
    # and m; forcing the sharpness antecedent to true must trip the
    # maximal-square-gap claim
    poset = enumeration.chain_poset(4)
    nil = [L for L in enumeration.enumerate_structures(poset)
           if all(L.mul(x, y) == 0 for x in (1, 2) for y in (1, 2))]
    assert len(nil) == 1
    monkeypatch.setattr(predicates, "is_sharp", lambda L: True)
    with pytest.raises(ClaimFalsified) as err:
        theorem_audit(nil[0])
    assert err.value.claim == "maximal_square_gap"
    assert err.value.witness == (2, 1)


def test_prufer_iff_locally_totally_ordered(census_structures):
    # for principally generated finite domains the Prufer flag matches
    # "every localization at a maximal element is totally ordered"
    for structures in census_structures.values():
        for L in structures:
            prof = lattice_profile(L)
            if not (prof.is_domain and prof.is_principally_generated):
                continue
            localized_chains = all(
                constructions.localize(L, m).lattice.poset.is_chain()
                for m in prof.max_elements
            )
            assert prof.is_prufer == localized_chains


# -- property-based spot checks ----------------------------------------

_CHAIN5 = list(enumeration.enumerate_structures(enumeration.chain_poset(5)))


@settings(max_examples=40, deadline=None)
@given(L=st.sampled_from(_CHAIN5), x=st.integers(min_value=0, max_value=4))
def test_weak_forms_specialize(L, x):
    # weak meet-principality is the z = top case, weak join-principality
    # the z = 0 case; recompute both directly
    if predicates._meet_principal_witness(L, x) is None:
        for y in L.elements():
            assert L.mul(L.residual(y, x), x) == L.meet(x, y)
    if predicates._join_principal_witness(L, x) is None:
        for y in L.elements():
            assert L.residual(L.mul(x, y), x) == L.join(y, L.residual(0, x))
