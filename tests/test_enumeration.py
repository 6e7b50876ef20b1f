"""The structure enumerator, its oracle, and censuses."""

from itertools import product

import pytest

from sharplat import enumeration, predicates
from sharplat.core import FiniteMultLattice, FinitePoset
from sharplat.enumeration import (
    brute_force_structures,
    census,
    chain_poset,
    diamond_poset,
    enumerate_structures,
)
from sharplat.errors import SharplatError, SizeTooSmall


def test_chain_poset_shapes():
    assert chain_poset(2).names == ("0", "1")
    assert chain_poset(3).names == ("0", "m", "1")
    assert chain_poset(5).names == ("0", "a", "b", "c", "1")
    assert chain_poset(5).is_chain()
    with pytest.raises(SizeTooSmall):
        chain_poset(1)


def test_diamond_poset_shapes():
    d = diamond_poset(2)
    assert d.names == ("0", "p", "q", "1")
    assert not d.is_chain()
    with pytest.raises(SizeTooSmall):
        diamond_poset(0)


# counts pinned from the naive filter-every-table oracle (n <= 4), the
# interior-cell sweep (n = 5), two-run determinism (n = 6) and the
# figures the benchmark's report-small and census workloads check (n = 7, 8)
EXPECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 22, 6: 94, 7: 451, 8: 2386}
EXPECTED_SHARP = {2: 1, 3: 2, 4: 5, 5: 13, 6: 39, 7: 123, 8: 422}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chain_structure_counts(n, census_structures):
    structures = census_structures[f"chain{n}"]
    assert len(structures) == EXPECTED_COUNTS[n]
    assert sum(predicates.is_sharp(L) for L in structures) == EXPECTED_SHARP[n]


@pytest.mark.parametrize("n", [7, 8])
def test_larger_chain_structure_counts(n):
    # beyond the fixture's n <= 6: exercises the incremental check on
    # deeper searches
    structures = list(enumerate_structures(chain_poset(n)))
    assert len(structures) == EXPECTED_COUNTS[n]
    assert sum(predicates.is_sharp(L) for L in structures) == EXPECTED_SHARP[n]


@pytest.mark.slow
def test_chain9_census_counts():
    # pinned from a census whose definitional route was the full
    # factorization scan; too slow for the default run
    result = census(chain_poset(9))
    assert (result.total, result.sharp, result.domains, result.all_principal) == (
        13775, 1531, 2386, 1
    )


def test_chain3_structures_are_the_two_nilpotency_classes(census_structures):
    tables = [L.mult for L in census_structures["chain3"]]
    assert tables == [
        ((0, 0, 0), (0, 0, 1), (0, 1, 2)),  # m*m = 0
        ((0, 0, 0), (0, 1, 1), (0, 1, 2)),  # m*m = m
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerator_matches_naive_oracle_on_chains(n, census_structures):
    fast = [L.mult for L in census_structures[f"chain{n}"]]
    slow = [L.mult for L in brute_force_structures(chain_poset(n))]
    assert fast == slow  # exhaustive, duplicate-free, same order


def test_enumerator_matches_naive_oracle_on_diamond(census_structures):
    fast = [L.mult for L in census_structures["diamond2"]]
    slow = [L.mult for L in brute_force_structures(diamond_poset(2))]
    assert fast == slow
    assert len(fast) == 1  # multiplication is forced to be the meet


def test_diamond3_admits_no_structure(census_structures):
    # distributivity forces p*(q v r) = p = pq v pr = 0 for interior p
    assert census_structures["diamond3"] == []


def test_chain5_count_against_interior_cell_sweep(census_structures):
    """Second oracle for the 22: sweep all value assignments of the six
    interior products (identity and bottom rows are forced by the
    axioms) and filter with the validator."""
    poset = chain_poset(5)
    cells = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    valid = []
    for values in product(range(5), repeat=len(cells)):
        table = [[0] * 5 for _ in range(5)]
        for x in range(5):
            table[4][x] = table[x][4] = x
        for (i, j), v in zip(cells, values):
            table[i][j] = table[j][i] = v
        try:
            valid.append(FiniteMultLattice(poset, table))
        except SharplatError:
            continue
    valid.sort(key=FiniteMultLattice.flat_mult)
    assert [L.mult for L in valid] == [
        L.mult for L in census_structures["chain5"]
    ]


def test_stream_is_duplicate_free_and_lex_sorted(census_structures):
    for structures in census_structures.values():
        flats = [L.flat_mult() for L in structures]
        assert len(set(flats)) == len(flats)
        assert flats == sorted(flats)


def test_enumeration_is_deterministic():
    first = [L.mult for L in enumerate_structures(chain_poset(5))]
    second = [L.mult for L in enumerate_structures(chain_poset(5))]
    assert first == second


def test_pruning_soundness_with_propagation_disabled(monkeypatch, census_structures):
    # with incremental associativity/distributivity checks switched off,
    # leaf validation alone must accept exactly the same tables
    monkeypatch.setattr(enumeration, "_consistent", lambda *args: True)
    for key in ("chain5", "chain6", "diamond3"):
        poset = (
            chain_poset(int(key[-1]))
            if key.startswith("chain")
            else diamond_poset(int(key[-1]))
        )
        unpruned = [L.mult for L in enumeration.enumerate_structures(poset)]
        assert unpruned == [L.mult for L in census_structures[key]]


def _split_poset():
    """0 < p, q < c < 1: p v q = c is neither p, q nor the top."""
    rank = [0, 1, 1, 2, 3]
    leq = [[i == j or rank[i] < rank[j] for j in range(5)] for i in range(5)]
    return FinitePoset(["0", "p", "q", "c", "1"], leq)


@pytest.mark.parametrize("reverse", [False, True], ids=["walk", "reversed"])
@pytest.mark.parametrize(
    "poset",
    [
        chain_poset(5),
        chain_poset(6),
        diamond_poset(2),
        diamond_poset(3),
        _split_poset(),
    ],
    ids=["chain5", "chain6", "diamond2", "diamond3", "split5"],
)
def test_incremental_check_leaves_nothing_to_reject(monkeypatch, poset, reverse):
    # every triple of a complete table was checked when its last cell
    # was set, whatever the cell order, so leaf validation must never
    # reject a table
    expected = [L.flat_mult() for L in enumerate_structures(poset)]
    rejected = []
    validate = enumeration.FiniteMultLattice

    def counting_validate(poset, table):
        try:
            return validate(poset, table)
        except SharplatError:
            rejected.append([row[:] for row in table])
            raise

    monkeypatch.setattr(enumeration, "FiniteMultLattice", counting_validate)
    cells = enumeration._free_cells(poset)
    found = enumeration._search(poset, cells[::-1] if reverse else cells)
    assert rejected == []
    assert sorted(L.flat_mult() for L in found) == expected


def test_every_structure_passes_validator(census_structures):
    for structures in census_structures.values():
        for L in structures:
            FiniteMultLattice(L.poset, L.mult)  # re-validate from scratch


def test_square_condition_chains_are_sharp(census_structures):
    # every chain structure with a_{i+1}^2 >= a_i for all interior i is
    # marked sharp
    hit = 0
    for n in (4, 5, 6):
        for L in census_structures[f"chain{n}"]:
            if all(L.le(i, L.mul(i + 1, i + 1)) for i in range(1, L.size - 2)):
                hit += 1
                assert predicates.is_sharp(L)
    assert hit > 0


def test_chain5_sharpness_criterion(census_structures):
    # ids on the 5-chain: 0=0, a=1, b=2, c=3, 1=4; a structure is sharp
    # iff c^2 >= b and (b^2 >= a or (b^2 = 0 and bc = a)); cross-checked
    # against the definitional factorization search
    for L in census_structures["chain5"]:
        criterion = L.le(2, L.mul(3, 3)) and (
            L.le(1, L.mul(2, 2)) or (L.mul(2, 2) == 0 and L.mul(2, 3) == 1)
        )
        assert criterion == predicates.sharpness_report(L).by_definition


# -- census -------------------------------------------------------------


def test_census_chain5():
    result = census(chain_poset(5))
    assert result.total == 22
    assert result.sharp == 13
    assert result.representatives is None


def test_census_chain2():
    result = census(chain_poset(2))
    assert result.total == 1 and result.sharp == 1


def test_census_extra_counts(census_structures):
    result = census(chain_poset(5))
    structures = census_structures["chain5"]
    assert result.domains == sum(
        predicates.prime_witness(L, 0) is None for L in structures
    )
    assert result.all_principal == sum(
        len(predicates.principal_elements(L)) == L.size for L in structures
    )


def test_census_representatives_round_trip():
    from sharplat import parse_lattice

    result = census(chain_poset(3), keep_representatives=True)
    assert len(result.representatives) == 2
    for doc in result.representatives:
        parse_lattice(doc)


def test_census_audit_each_is_clean():
    census(chain_poset(4), audit_each=True)
    census(diamond_poset(2), audit_each=True)


def test_census_distinct_counts():
    # chains have trivial automorphisms: labeled == distinct
    result = census(chain_poset(5), distinct_up_to_auto=True)
    assert result.distinct_up_to_automorphism == result.total == 22
    # the diamond swap p <-> q fixes its single (symmetric) structure
    result = census(diamond_poset(2), distinct_up_to_auto=True)
    assert result.total == 1
    assert result.distinct_up_to_automorphism == 1


def test_census_to_dict_shape():
    out = census(chain_poset(2)).to_dict()
    assert out["poset"]["elements"] == ["0", "1"]
    assert out["counting"] == "labeled"
    assert out["total_structures"] == 1
    assert out["sharp_count"] == 1
    assert "representatives" not in out
