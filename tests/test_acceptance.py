"""Acceptance suite: one test per criterion, exact equalities and the
stated runtime bounds, with a printed pass line each.

Census-based criteria run over the structures of chains of size 2..6
and the diamond-shaped posets of sizes 4 and 5 (two and three
incomparable interior elements).
"""

import json
import time
from fractions import Fraction
from itertools import combinations

from oracles import structures_by_sweep

from sharplat import constructions, enumeration, predicates
from sharplat.cli import main
from sharplat.exemplars import (
    FGIdeal,
    R1Element,
    ideal_member,
    ideal_product,
    ideal_residual,
    r1_mult,
    r1_residual,
    r1_selftest,
    zminus_selftest,
)

CHAIN_SIZES = (2, 3, 4, 5, 6)
DIAMOND_WIDTHS = (2, 3)


def _all_census_lattices(census_structures):
    for n in CHAIN_SIZES:
        yield from census_structures[f"chain{n}"]
    for w in DIAMOND_WIDTHS:
        yield from census_structures[f"diamond{w}"]


def _passed(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_01_census_reproduction(capsys):
    start = time.perf_counter()
    code = main(["enumerate", "--chain", "5", "--census"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["total_structures"] == 22
    assert out["sharp_count"] == 13
    assert elapsed < 1.0, f"census took {elapsed:.3f}s"
    _passed(1, f"five-chain census is 22 total / 13 sharp in {elapsed:.3f}s")


def test_criterion_02_four_way_sharpness_equivalence(census_structures):
    checked = 0
    for L in _all_census_lattices(census_structures):
        report = predicates.sharpness_report(L)  # raises on disagreement
        assert (
            report.by_definition
            == report.by_residual_identity
            == report.by_divides
            == report.by_restricted_divides
        )
        checked += 1
    assert checked == 126  # chains: 1 + 2 + 6 + 22 + 94; diamonds: 1 + 0
    _passed(2, f"four sharpness checks agree on all {checked} structures")


def test_criterion_03_maximal_square_gap(census_structures):
    sharp_count = 0
    for L in _all_census_lattices(census_structures):
        if not predicates.is_sharp(L):
            continue
        sharp_count += 1
        for m in predicates.maximal_elements(L):
            m2 = L.mul(m, m)
            for x in L.elements():
                assert not (L.lt(m2, x) and L.lt(x, m)), (L.mult, m, x)
    _passed(3, f"no element between m^2 and m on {sharp_count} sharp lattices")


def test_criterion_04_localization_and_quotient_stay_sharp(census_structures):
    localizations = quotients = 0
    for L in _all_census_lattices(census_structures):
        if not predicates.is_sharp(L):
            continue
        for p in predicates.prime_elements(L):
            assert predicates.is_sharp(constructions.localize(L, p).lattice)
            localizations += 1
        for a in range(L.size - 1):
            assert predicates.is_sharp(constructions.quotient(L, a).lattice)
            quotients += 1
    assert localizations > 0 and quotients > 0
    _passed(
        4,
        f"sharpness survives {localizations} localizations and "
        f"{quotients} quotients",
    )


def test_criterion_05_sharp_iff_all_principal(census_structures):
    checked = 0
    for L in _all_census_lattices(census_structures):
        profile = predicates.lattice_profile(L)
        if not profile.is_principally_generated:
            continue
        checked += 1
        all_principal = len(predicates.principal_elements(L)) == L.size
        assert predicates.is_sharp(L) == all_principal, L.mult
    assert checked > 0
    _passed(5, f"sharp iff all-principal on {checked} principally generated")


def test_criterion_06_maximal_join_representations(census_structures):
    checked = 0
    for L in _all_census_lattices(census_structures):
        profile = predicates.lattice_profile(L)
        if not (profile.is_local and predicates.is_sharp(L)):
            continue
        checked += 1
        m = profile.max_elements[0]
        jp = predicates.join_principal_elements(L)
        for size in range(1, len(jp) + 1):
            for subset in combinations(jp, size):
                if L.join_of(subset) == m:
                    assert m in subset, (L.mult, subset)
    assert checked > 0
    _passed(6, f"join-principal representations contain m on {checked} lattices")


def test_criterion_07_pseudo_dedekind_and_lcm_law(census_structures):
    checked = 0
    for L in _all_census_lattices(census_structures):
        profile = predicates.lattice_profile(L)
        if not (
            profile.is_domain
            and profile.is_principally_generated
            and predicates.is_sharp(L)
        ):
            continue
        checked += 1
        assert profile.is_pseudo_dedekind, L.mult
        principals = predicates.principal_elements(L)
        for x in principals:
            for y in principals:
                if x != 0 and y != 0:
                    assert L.meet(x, y) == L.mul(y, L.residual(x, y))
    assert checked > 0
    _passed(7, f"sharp principally generated domains pass on {checked} lattices")


def test_criterion_08_residuals_localize(census_structures):
    checked = 0
    for L in _all_census_lattices(census_structures):
        profile = predicates.lattice_profile(L)
        if not (
            profile.is_domain
            and profile.is_principally_generated
            and profile.is_h_local
        ):
            continue
        checked += 1
        for m in profile.max_elements:
            loc = constructions.localize(L, m)
            Lm, proj = loc.lattice, loc.projection
            for a in L.elements():
                if a == 0:
                    continue
                for b in L.elements():
                    if b == 0:
                        continue
                    assert proj[L.residual(a, b)] == Lm.residual(
                        proj[a], proj[b]
                    ), (L.mult, a, b, m)
    assert checked > 0
    _passed(8, f"residuals localize on {checked} h-local domains")


def test_criterion_09_r1_table_and_identity():
    cl, op = R1Element.closed, R1Element.open
    samples = [
        (Fraction(5), Fraction(2)),
        (Fraction(9, 2), Fraction(9, 2)),
        (Fraction(31, 6), Fraction(1, 7)),
        (Fraction(8), Fraction(0)),
    ]
    for r, t in samples:  # a <= b, i.e. r >= t
        rows = [
            (cl(r), cl(t), cl(r - t)),
            (op(r), op(t), cl(r - t)),
            (cl(r), op(t), cl(r - t)),
            (op(r), cl(t), op(r - t)),
        ]
        for a, b, expected in rows:
            first = r1_residual(a, b)
            assert first == expected, (a, b)
            second = r1_residual(a, first)
            assert r1_mult(second, first) == a, (a, b)
            # the second residual is closed(t) in every row except the
            # open/open dividend-divisor pair, where it is open(t)
            if a.kind == "open" and first.kind == "closed":
                assert second == op(t)
            else:
                assert second == cl(t)
    report = r1_selftest(trials=1000, seed=42)
    assert report["failures"] == 0
    assert all(c > 0 for c in report["kind_pairs"].values())
    _passed(9, "interval residual table reproduced; 1000 seeded identities hold")


def test_criterion_10_zminus_identity():
    report = zminus_selftest(max_exponent=100)
    assert report["trials"] == 102 * 102
    assert report["failures"] == 0
    _passed(10, "valuation-chain identity holds on all pairs in [0,100] + bottom")


def _minimal_pairs_family(max_entry):
    family = [FGIdeal.of(g) for g in range(1, max_entry + 1)]
    for g in range(1, max_entry + 1):
        for h in range(g + 1, max_entry + 1):
            if h % g != 0:
                family.append(FGIdeal.of(g, h))
    return family


def test_criterion_11_nideal_counterexample_and_oracle_sweep():
    a, b = FGIdeal.of(4, 9), FGIdeal.of(2, 3)
    b2 = ideal_product(b, b)
    b3 = ideal_product(b2, b)
    assert ideal_residual(a, b) == b2 == FGIdeal.of(4, 6, 9)
    assert ideal_residual(a, b2) == b
    recomposed = ideal_product(ideal_residual(a, b2), ideal_residual(a, b))
    assert recomposed == b3
    assert ideal_member(a, 4) and not ideal_member(b3, 4)

    # membership-scan oracle over every minimal generator set of size
    # <= 2 with entries <= 30, residual bound 1000
    bound = 1000
    max_entry = 30
    family = _minimal_pairs_family(max_entry)
    deep = bound * max_entry

    # 0/1 byte strings indexed by the integer, read as little-endian
    # ints, so int AND/OR act entry by entry
    def multiples(g, length):
        mask = bytearray(length)
        mask[g::g] = b"\x01" * len(range(g, length, g))
        return mask

    def as_int(mask):
        return int.from_bytes(mask, "little")

    principal = {g: as_int(multiples(g, deep + 1)) for g in range(1, max_entry + 1)}
    small = {}  # g -> the multiples of g in 1..bound
    everything = as_int(b"\x01" * bound)

    pairs = 0
    for a_ideal in family:
        members_a = 0
        for g in a_ideal.generators:
            members_a |= principal[g]
        members_a = members_a.to_bytes(deep + 1, "little")
        for b_ideal in family:
            r = ideal_residual(a_ideal, b_ideal)
            got = 0
            for g in r.generators:
                if g not in small:
                    small[g] = as_int(multiples(g, bound + 1)[1:])
                got |= small[g]
            oracle = everything
            for h in sorted(b_ideal.generators):
                oracle &= as_int(members_a[h::h][:bound])
            assert got == oracle, (a_ideal, b_ideal)
            pairs += 1
    _passed(
        11,
        f"counterexample chain exact; oracle agreement on {pairs} ideal pairs",
    )


def test_criterion_12_enumerator_matches_naive_oracle():
    elapsed4 = None
    for n in (2, 3, 4):
        poset = enumeration.chain_poset(n)
        fast = [L.mult for L in enumeration.enumerate_structures(poset)]
        start = time.perf_counter()
        slow = structures_by_sweep(poset)
        took = time.perf_counter() - start
        if n == 4:
            elapsed4 = took
        assert fast == slow, f"chain size {n}"
    assert elapsed4 is not None and elapsed4 < 60.0
    _passed(12, f"oracle equivalence for chains <= 4 (n=4 oracle {elapsed4:.2f}s)")
