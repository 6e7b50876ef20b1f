"""Element/lattice predicates, sharpness, and the claim audit."""

import gc
import importlib
import json
import pkgutil
import weakref
from collections import Counter
from dataclasses import fields

import pytest
from conftest import nil_document, product_document, valuation_document
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    factorization_witnesses,
    weak_join_principal_witness,
    weak_meet_principal_witness,
)

import sharplat
from sharplat import cli, constructions, enumeration, gallery, parse_lattice, predicates
from sharplat.core import FiniteMultLattice
from sharplat.errors import ClaimFalsified, InternalEquivalenceViolation
from sharplat.predicates import (
    SharpnessReport,
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


def test_element_profile_witnesses_are_read_only(nonsharp5):
    # the record is frozen, and so is the mapping of its witnesses
    profile = element_profile(nonsharp5, 1)
    before = profile.to_dict()
    assert profile.witnesses["is_prime"] == (2, 2)
    with pytest.raises(AttributeError):
        profile.witnesses.clear()
    with pytest.raises(TypeError):
        profile.witnesses["is_prime"] = None
    with pytest.raises(TypeError):
        del profile.witnesses["is_prime"]
    assert profile.to_dict() == before
    assert before["witnesses"]["is_prime"] == [2, 2]


def test_nonsharp5_maximal(nonsharp5):
    c = nonsharp5.id_of("c")
    assert maximal_elements(nonsharp5) == (c,)
    assert element_profile(nonsharp5, c).is_maximal


def test_maximal_reads_match_a_scan(census_structures, poset_p_structures):
    # the covers of the top and the up-set reads against the definition:
    # x below the top is maximal unless some y has x < y < top, and the
    # least such y is its witness
    lattices = [parse_lattice(doc) for doc in _report_documents().values()]
    lattices.append(
        parse_lattice(product_document(valuation_document(4), valuation_document(3)))
    )
    for structures in (*census_structures.values(), poset_p_structures):
        lattices += structures
    for L in lattices:
        top = L.top
        between = [
            [y for y in L.elements() if L.lt(x, y) and y != top] for x in range(top)
        ]
        assert maximal_elements(L) == tuple(x for x in range(top) if not between[x])
        assert [predicates._maximal_witness(L, x) for x in range(top)] == [
            (ys[0],) if ys else None for ys in between
        ]
        assert predicates._maximal_witness(L, top) == ()


def test_identity_and_bottom_always_principal(census_structures, poset_p_structures):
    # the census's all-principal count relies on this and skips both
    lattices = [build() for build in gallery.BUILTINS.values()]
    for structures in (*census_structures.values(), poset_p_structures):
        lattices += structures
    for L in lattices:
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


def test_weak_forms_match_their_definitions(census_structures, poset_p_structures):
    # the report reads the weak forms off the principal scans' z = top
    # and z = 0 rows; the oracles scan the definitions, witnesses included
    lattices = [L for key, ls in census_structures.items() if key.startswith("chain")
                for L in ls]
    lattices += enumeration.enumerate_structures(enumeration.chain_poset(7))
    lattices += poset_p_structures
    oracles = {
        "is_weak_meet_principal": weak_meet_principal_witness,
        "is_weak_join_principal": weak_join_principal_witness,
    }
    for L in lattices:
        for x in L.elements():
            witnesses = element_profile(L, x).witnesses
            for key, oracle in oracles.items():
                assert witnesses.get(key) == oracle(L, x), (L.mult, x, key)


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
    assert factorization_witnesses(nonsharp5) == {}


def test_sharpness_trivial_and_chain3(chain2, chain3_nil, chain3_idem, diamond):
    for L in (chain2, chain3_nil, chain3_idem, diamond):
        report = sharpness_report(L)
        assert report.is_sharp
        assert report.counterexample is None


def test_factorization_witnesses_are_factorizations(chain3_nil, diamond):
    for L in (chain3_nil, diamond):
        witnesses = factorization_witnesses(L)
        seen = set()
        for a1 in L.elements():
            for a2 in L.elements():
                for b in L.elements():
                    if L.le(L.mul(a1, a2), b):
                        seen.add((a1, a2, b))
        assert set(witnesses) == seen
        for (a1, a2, b), (b1, b2) in witnesses.items():
            assert L.mul(b1, b2) == b
            assert L.le(a1, b1) and L.le(a2, b2)


def _without_residuals(L):
    """A copy of L with no residual table: reading it raises."""
    twin = FiniteMultLattice.__new__(FiniteMultLattice)
    for slot in FiniteMultLattice.__slots__:
        if slot != "residuals":
            setattr(twin, slot, getattr(L, slot))
    return twin


def test_table_definition_route_matches_full_scan(
    census_structures, poset_p_structures
):
    # the bitmask route and the full factorization scan decide the
    # definition independently; they must agree everywhere, and the
    # route never reads the residual table the other three routes read
    chain7 = list(enumeration.enumerate_structures(enumeration.chain_poset(7)))
    larger = [
        parse_lattice(valuation_document(8)),
        parse_lattice(valuation_document(16)),
        parse_lattice(nil_document(10)),
        parse_lattice(product_document(valuation_document(4), valuation_document(3))),
        parse_lattice(product_document(
            gallery.nonsharp5().serialize(), gallery.chain3_nil().serialize()
        )),
    ]
    groups = [*census_structures.values(), chain7, poset_p_structures, larger]
    sharp = not_sharp = 0
    for structures in groups:
        for L in structures:
            by_table = predicates._sharp_by_definition(_without_residuals(L))
            assert by_table == bool(factorization_witnesses(L))
            sharp += by_table
            not_sharp += not by_table
    assert sharp > 0 and not_sharp > 0
    assert sum(map(predicates._sharp_by_definition, poset_p_structures)) == 65
    assert [predicates._sharp_by_definition(L) for L in larger] == [
        True, True, False, True, False
    ]


@pytest.mark.parametrize("route", [
    "_sharp_by_definition", "_sharp_by_divides", "_sharp_by_restricted_divides",
])
def test_a_route_that_disagrees_is_an_equivalence_violation(monkeypatch, nonsharp5, route):
    # each named route is read by the four-way cross-check: one that
    # answers the opposite of the others stops the report
    answer = getattr(predicates, route)(nonsharp5)
    monkeypatch.setattr(predicates, route, lambda L: not answer)
    with pytest.raises(InternalEquivalenceViolation, match="sharpness checks disagree"):
        sharpness_report(nonsharp5)


def test_factorization_witnesses_match_fixture(fixtures_dir):
    # pinned before the scan moved out of the sharpness report: every
    # gallery lattice (nonsharp5 has none) and the valuation 8-chain
    pinned = json.loads(
        (fixtures_dir / "factorization_witnesses.json").read_text(encoding="utf-8")
    )
    lattices = {
        name: parse_lattice(doc) for name, doc in gallery.gallery_documents().items()
    }
    lattices["valuation8"] = parse_lattice(valuation_document(8))
    assert list(pinned) == list(lattices)
    assert sum(len(pinned[name]) for name in gallery.gallery_documents()) == 1383
    for name, L in lattices.items():
        witnesses = factorization_witnesses(L)
        assert [[list(k), list(v)] for k, v in witnesses.items()] == pinned[name], name


def test_factorization_witnesses_are_built_on_request():
    # the full scan lives only among the tests' oracles: no runtime
    # module holds it, so no census or report can build the witnesses
    modules = [sharplat] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(sharplat.__path__, "sharplat.")
    ]
    assert predicates in modules
    assert not any(hasattr(m, "factorization_witnesses") for m in modules)

    L = parse_lattice(valuation_document(8))
    report = sharpness_report(L)
    assert report == sharpness_report(L)
    assert hash(report) == hash(sharpness_report(L))


def test_residual_primality_matches_prime_witness(census_structures):
    # the restricted-divides route decides primality from the residual
    # table, apart from the element scan
    for structures in census_structures.values():
        for L in structures:
            for p in range(L.top):
                prime = predicates.prime_witness(L, p) is None
                assert predicates._prime_by_residuals(L, p) == prime


def test_four_way_agreement_on_censuses(census_structures):
    for structures in census_structures.values():
        for L in structures:
            report = sharpness_report(L)  # raises on any disagreement
            assert report.by_definition == report.by_residual_identity


def test_all_weak_meet_principal_implies_sharp(census_structures):
    hit = 0
    for structures in census_structures.values():
        for L in structures:
            if all(weak_meet_principal_witness(L, x) is None for x in L.elements()):
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
    L = parse_lattice(valuation_document(32))
    record = theorem_audit(L).record("local_join_representation")
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


def test_claim_falsified_without_a_witness_on_a_lying_non_sharp_check(monkeypatch):
    # a lying "not sharp" contradicts two claims whose conclusions name
    # no element; both must still raise, with the witness ()
    sharp = [
        L for n in (4, 5)
        for L in enumeration.enumerate_structures(enumeration.chain_poset(n))
        if predicates.is_sharp(L)
    ]
    assert len(sharp) == 18
    monkeypatch.setattr(predicates, "is_sharp", lambda L: False)
    raised = Counter()
    for L in sharp:
        try:
            theorem_audit(L)
        except ClaimFalsified as err:
            assert err.witness == ()
            raised[err.claim] += 1
    assert raised == {"chain_square_condition_sharp": 16, "sharp_iff_all_principal": 1}


def test_every_record_comes_from_claim(monkeypatch, census_structures):
    # ``_claim`` makes each of the twelve records, once each, in order
    claim, made = predicates._claim, []

    def counting(*args):
        made.append(claim(*args))
        return made[-1]

    monkeypatch.setattr(predicates, "_claim", counting)
    for L in [*census_structures["chain5"], *census_structures["diamond2"]]:
        made.clear()
        records = theorem_audit(L).records
        assert len(made) == 12
        assert all(r is m for r, m in zip(records, made, strict=True))


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


# -- the report document ------------------------------------------------


def _report_documents():
    """Every gallery document and the valuation 16-chain."""
    return {**gallery.gallery_documents(), "valuation16": valuation_document(16)}


def test_report_sections_equal_the_standalone_functions(census_structures):
    # the shared analysis against the functions that scan alone
    lattices = [parse_lattice(doc) for doc in _report_documents().values()]
    lattices += [L for family in census_structures.values() for L in family]
    for L in lattices:
        doc = predicates.report(L)
        assert doc["element_profiles"] == [
            element_profile(L, x).to_dict() for x in L.elements()
        ]
        assert doc["profile"] == lattice_profile(L).to_dict()
        assert doc["principal_monoid"] == principal_monoid(L).to_dict()
        assert doc["audit"] == theorem_audit(L).to_dict()
        assert predicates.report(L, ("audit",)) == {
            "elements": doc["elements"], "audit": doc["audit"]
        }


def _records(L):
    """Every record the standalone functions return on L."""
    return [
        lattice_profile(L),
        *(element_profile(L, x) for x in L.elements()),
        sharpness_report(L),
        principal_monoid(L),
        *theorem_audit(L).records,
    ]


def _check_rendering(record):
    # to_dict is the fields in declaration order (is_sharp just before
    # the counterexample), with every tuple turned into a list, and the
    # document is a copy: changing it leaves the record as it was
    d = record.to_dict()
    assert json.loads(json.dumps(d)) == d
    keys = [f.name for f in fields(record)]
    if isinstance(record, SharpnessReport):
        keys.insert(keys.index("counterexample"), "is_sharp")
    assert list(d) == keys
    before = json.loads(json.dumps(d))
    for key, value in d.items():
        if isinstance(value, dict):  # witnesses: check name -> list
            for inner in value.values():
                inner.append(-1)
        if isinstance(value, (list, dict)):
            value.clear()
        d[key] = None
    assert record.to_dict() == before


def test_records_render_their_fields(census_structures, poset_p_structures):
    lattices = [parse_lattice(doc) for doc in _report_documents().values()]
    lattices += [L for family in census_structures.values() for L in family]
    lattices += poset_p_structures
    for L in lattices:
        doc = predicates.report(L)
        assert json.loads(json.dumps(doc)) == doc
        for record in _records(L):
            _check_rendering(record)
    # the audit raises on a falsified claim and the LCM law holds where
    # it is checked, so no record above carries these witnesses
    _check_rendering(predicates.ClaimRecord("claim", True, "falsified", False, (1, 2)))
    _check_rendering(predicates.PrincipalMonoidReport((0, 2), True, False, (1, 2)))


class _Tracked(FiniteMultLattice):
    """A lattice a weak reference can name; the base class has no
    ``__weakref__`` slot."""

    __slots__ = ("__weakref__",)


_ELEMENT_SCANS = (
    "_meet_principal_witness", "_join_principal_witness",
    "prime_witness", "_maximal_witness",
)


def test_full_report_scans_each_element_once(monkeypatch, tmp_path, capsys):
    # one full ``report`` runs each element scan, and each restriction of
    # the principal scans, once per element of the parsed lattice, and
    # keeps nothing of it after the call
    parsed = None

    def parse(document):
        nonlocal parsed
        L = parse_lattice(document)
        L = _Tracked(L.poset, L.mult, L.provenance)
        parsed = weakref.ref(L)
        return L

    calls = Counter()
    for name in _ELEMENT_SCANS:
        scan = getattr(predicates, name)

        def counting(L, x, *rows, scan=scan, name=name):
            if parsed is not None and L is parsed():
                calls[(name, *rows), x] += 1
            return scan(L, x, *rows)

        # constructions binds prime_witness by name
        for module in (predicates, constructions):
            if getattr(module, name, None) is scan:
                monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(cli, "parse_lattice", parse)
    for key, doc in _report_documents().items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        calls.clear()
        assert cli.main(["report", str(path)]) == 0
        capsys.readouterr()
        ids = range(len(doc["elements"]))
        # the weak forms are the meet scan's z = top row and the join
        # scan's z = 0 row, each counted apart from its full scan
        keys = [(name,) for name in _ELEMENT_SCANS]
        keys += [("_meet_principal_witness", ids[-1]), ("_join_principal_witness", 0)]
        assert calls == {(k, x): 1 for k in keys for x in ids}, key
        gc.collect()
        assert parsed() is None, key


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
