"""The structure enumerator, its oracle, and censuses."""

import hashlib
import tracemalloc
from itertools import chain, islice

import oracles
import pytest
from conftest import POSET_P, SPLIT5
from oracles import structures_by_sweep

from sharplat import core, enumeration, parse_lattice, predicates
from sharplat.core import FiniteMultLattice, FinitePoset
from sharplat.enumeration import (
    census,
    chain_poset,
    diamond_poset,
    enumerate_structures,
)
from sharplat.errors import BadSchema, SharplatError, SizeTooSmall


def test_chain_poset_shapes():
    assert chain_poset(2).names == ("0", "1")
    assert chain_poset(3).names == ("0", "m", "1")
    assert chain_poset(5).names == ("0", "a", "b", "c", "1")
    assert chain_poset(5).is_chain()


def test_diamond_poset_shapes():
    d = diamond_poset(2)
    assert d.names == ("0", "p", "q", "1")
    assert not d.is_chain()


@pytest.mark.parametrize(
    "build,size,error,message",
    [
        (chain_poset, 1, SizeTooSmall, "a chain needs at least bottom and top"),
        (diamond_poset, 0, SizeTooSmall, "diamond needs at least one interior element"),
        (chain_poset, 2.5, BadSchema, "chain size must be an integer"),
        (chain_poset, 3.0, BadSchema, "chain size must be an integer"),
        (chain_poset, True, BadSchema, "chain size must be an integer"),
        (diamond_poset, "a", BadSchema, "diamond width must be an integer"),
        (diamond_poset, None, BadSchema, "diamond width must be an integer"),
    ],
)
def test_poset_builders_raise_typed_errors(build, size, error, message):
    with pytest.raises(error) as err:
        build(size)
    assert str(err.value) == message


# counts pinned from the interior-cell sweep (n <= 5), two-run
# determinism (n = 6) and the figures the benchmark's report-small and
# census workloads check (n = 7, 8); the t-norm oracle checks all of them
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


def _hashed(stream, digest):
    """Pass ``stream`` through, adding each lattice's (mult, residuals)
    to ``digest``."""
    for L in stream:
        digest.update(repr((L.mult, L.residuals)).encode())
        yield L


@pytest.mark.slow
def test_chain10_census_counts():
    # 86,417 structures, the largest census pinned; the t-norm oracle
    # confirms the 13,775 domains (chain 9) independently.  The same
    # pass hashes (mult, residuals) of every leaf in stream order, as
    # test_chain9_stream_digest does, pinned before the search read each
    # distinct row once
    digest = hashlib.sha256()
    poset = chain_poset(10)
    result = census(poset, structures=_hashed(enumerate_structures(poset), digest))
    assert (result.total, result.sharp, result.domains, result.all_principal) == (
        86417, 5891, 13775, 1
    )
    assert digest.hexdigest() == (
        "9b84b6add2501789151390d079e78888876bac905cbea85d053a9d29bfb4d98a"
    )


@pytest.mark.slow
def test_chain9_stream_digest():
    # same leaves, in the same order, with the same residual tables as
    # when every leaf scanned its whole table: a SHA-256 over (mult,
    # residuals) of each of the 13,775 leaves in stream order, pinned
    # from that scan, holds no table
    digest = hashlib.sha256()
    assert sum(1 for _ in _hashed(enumerate_structures(chain_poset(9)), digest)) == 13775
    assert digest.hexdigest() == (
        "3745338975d892136c12e28aded4e2c36475a0f15fa8f07abcbe92e6420425d1"
    )


def _all_principal_by_scan(structures):
    return sum(len(predicates.principal_elements(L)) == L.size for L in structures)


@pytest.mark.parametrize("poset", [*map(chain_poset, range(5, 9)), POSET_P],
                         ids=["chain5", "chain6", "chain7", "chain8", "P"])
def test_census_all_principal_matches_a_scan_per_structure(poset):
    # the census reads one verdict per distinct row; the principal
    # elements of each structure, scanned with no verdict kept, must
    # give the same count
    assert census(poset).all_principal == _all_principal_by_scan(enumerate_structures(poset))


def test_census_keeps_verdicts_to_its_poset():
    # row (0, 0, 2, 2) is not principal in a 4-chain structure but is in
    # the diamond's meet structure: a stream mixing the two posets, on
    # either census poset, must not read one poset's verdict for the other
    first, second = chain_poset(4), diamond_poset(2)

    def stream():
        return chain(enumerate_structures(first), enumerate_structures(second))

    expected = _all_principal_by_scan(stream())
    for poset in (first, second):
        assert census(poset, structures=stream()).all_principal == expected
    # an equal poset that is not the same object shares the verdicts
    copy = FinitePoset(first.names, first.leq)
    assert (census(copy, structures=enumerate_structures(first)).all_principal
            == _all_principal_by_scan(enumerate_structures(first)))


def test_chain3_structures_are_the_two_nilpotency_classes(census_structures):
    tables = [L.mult for L in census_structures["chain3"]]
    assert tables == [
        ((0, 0, 0), (0, 0, 1), (0, 1, 2)),  # m*m = 0
        ((0, 0, 0), (0, 1, 1), (0, 1, 2)),  # m*m = m
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerator_matches_naive_oracle_on_chains(n, census_structures):
    fast = [L.mult for L in census_structures[f"chain{n}"]]
    assert fast == structures_by_sweep(chain_poset(n))  # same tables, same order


def test_enumerator_matches_naive_oracle_on_diamond(census_structures):
    fast = [L.mult for L in census_structures["diamond2"]]
    assert fast == structures_by_sweep(diamond_poset(2))
    assert len(fast) == 1  # multiplication is forced to be the meet


def test_diamond3_admits_no_structure(census_structures):
    # distributivity forces p*(q v r) = p = pq v pr = 0 for interior p
    assert census_structures["diamond3"] == []


def test_chain5_count_against_interior_cell_sweep(census_structures):
    """Second oracle for the 22."""
    assert structures_by_sweep(chain_poset(5)) == [
        L.mult for L in census_structures["chain5"]
    ]


def test_split5_against_interior_cell_sweep(census_structures):
    # the first poset whose join p v q = c is neither an argument nor
    # the top
    structures = [L.mult for L in census_structures["split5"]]
    assert len(structures) == 4
    assert structures_by_sweep(SPLIT5) == structures


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
    posets = {
        "chain5": chain_poset(5),
        "chain6": chain_poset(6),
        "diamond3": diamond_poset(3),
        "split5": SPLIT5,
    }
    for key, poset in posets.items():
        unpruned = [L.mult for L in enumeration.enumerate_structures(poset)]
        assert unpruned == [L.mult for L in census_structures[key]]


_WALK_POSETS = {
    "chain5": chain_poset(5),
    "chain6": chain_poset(6),
    "diamond2": diamond_poset(2),
    "diamond3": diamond_poset(3),
    "split5": SPLIT5,
    "P": POSET_P,
}


_CARRIED = {**{f"chain{n}": chain_poset(n) for n in range(2, 9)}, **_WALK_POSETS}


@pytest.mark.parametrize("poset", _CARRIED.values(), ids=_CARRIED.keys())
def test_carried_residuals_are_the_definition(poset):
    # each leaf's residual table is made of the columns the search
    # carries per distinct row; the definition, read from the leaf's own
    # order and product, must give the same table
    for L in enumerate_structures(poset):
        assert L.residuals == oracles.residuals(L)


@pytest.mark.parametrize("reverse", [False, True], ids=["walk", "reversed"])
@pytest.mark.parametrize("poset", _WALK_POSETS.values(), ids=_WALK_POSETS.keys())
def test_incremental_check_leaves_nothing_to_reject(monkeypatch, poset, reverse):
    # every triple of a complete table was checked when its last cell
    # was set, and the bounds keep every row monotone along the covers,
    # whatever the cell order, so leaf validation must never reject a
    # table; the reversed walk is the (-i, -j) order, an oracle walk
    # whose leaves arrive out of table order and whose upper covers are
    # set before their lower ones
    expected = [L.flat_mult() for L in enumerate_structures(poset)]
    built, rejected = [], []
    build = enumeration._trusted_lattice

    def counting_build(poset, table, column):
        try:
            built.append(build(poset, table, column))
        except SharplatError:
            rejected.append([row[:] for row in table])
            raise
        return built[-1]

    monkeypatch.setattr(enumeration, "_trusted_lattice", counting_build)
    cells = enumeration._free_cells(poset)
    assert cells[::-1] == sorted(cells, key=lambda c: (-c[0], -c[1]))
    found = list(enumeration._search(poset, cells[::-1] if reverse else cells))
    assert rejected == []
    # every leaf the search yields went through the intercepted builder
    assert [id(L) for L in found] == [id(L) for L in built]
    assert sorted(L.flat_mult() for L in found) == expected


# candidate checks (calls of _consistent) per search, pinned: the cover
# bounds and the incomparable-pair rule took them from 44,473, 377,097
# and 6,546
@pytest.mark.parametrize("poset, checks", [
    (chain_poset(8), 18705),
    pytest.param(chain_poset(9), 147352, marks=pytest.mark.slow),
    (POSET_P, 2741),
], ids=["chain8", "chain9", "P"])
def test_candidate_check_counts(monkeypatch, poset, checks):
    calls = []
    consistent = enumeration._consistent

    def counting_consistent(*args):
        calls.append(None)
        return consistent(*args)

    monkeypatch.setattr(enumeration, "_consistent", counting_consistent)
    assert sum(1 for _ in enumerate_structures(poset)) > 0
    assert len(calls) == checks


_CARRYING = {k: p for k, p in _WALK_POSETS.items() if k != "diamond3"}


@pytest.mark.parametrize("poset", _CARRYING.values(), ids=_CARRYING.keys())
def test_row_major_walk_meets_leaves_in_table_order(poset):
    # the search itself, with no sort after it, yields strictly
    # ascending flat_mult tuples
    cells = enumeration._free_cells(poset)
    assert cells == sorted(cells)
    flats = [L.flat_mult() for L in enumeration._search(poset, cells)]
    assert flats
    assert all(a < b for a, b in zip(flats, flats[1:]))


def test_enumeration_is_lazy(monkeypatch):
    # the first five of the 13,775 chain-9 structures build five lattices
    built = []
    build = enumeration._trusted_lattice

    def counting_build(poset, table, column):
        built.append(None)
        return build(poset, table, column)

    monkeypatch.setattr(enumeration, "_trusted_lattice", counting_build)
    first = list(islice(enumerate_structures(chain_poset(9)), 5))
    assert len(first) == 5
    assert len(built) == 5


def test_row_laws_read_each_distinct_row_once(monkeypatch):
    # the 2,386 chain-8 leaves hold 14,316 interior rows but 856
    # distinct ones: the search's one memo of _residual_column, which
    # checks the row-local laws and makes the row's residual column,
    # reads each distinct row once (the bottom and identity rows too),
    # while associativity reads every leaf
    read, residual_column = [], core._residual_column

    def counting(*args):
        read.append(args[-1])
        return residual_column(*args)

    monkeypatch.setattr(core, "_residual_column", counting)
    leaves = list(enumerate_structures(chain_poset(8)))
    interior = [row for L in leaves for row in L.mult[1:-1]]
    assert (len(leaves), len(interior), len(set(interior))) == (2386, 14316, 856)
    assert len(read) == len(set(read)) == 858
    assert set(read) == {*interior, leaves[0].mult[0], leaves[0].mult[-1]}
    # a parsed document has no memo and reads every row
    read.clear()
    parse_lattice(leaves[-1].serialize())
    assert read == list(leaves[-1].mult)


def test_census_memory_does_not_grow_with_structure_count():
    # the bound must not grow with the 2,386 structures: streamed, the
    # census traced 0.51 MB here and 0.23 MB at chain 7, most of it the
    # search's memo from row to residual column and the principal
    # verdicts, both kept per distinct row (856 interior rows here);
    # holding every lattice in a list traced 6.25 MB
    tracemalloc.start()
    try:
        result = census(chain_poset(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.total == 2386
    assert peak < 1_000_000


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
    # the census classifies the stream it is handed, so a stage before it
    # sees every structure exactly once
    from sharplat import parse_lattice

    poset = chain_poset(3)
    docs = []
    stream = (docs.append(L.serialize()) or L for L in enumerate_structures(poset))
    result = census(poset, structures=stream)
    assert result.total == len(docs) == 2
    for doc in docs:
        parse_lattice(doc)


def test_census_audit_each_is_clean():
    for poset in (chain_poset(4), diamond_poset(2)):
        structures = enumeration.audited(enumerate_structures(poset))
        assert census(poset, structures=structures) == census(poset)


def test_census_distinct_counts():
    # chains have trivial automorphisms: labeled == distinct
    result = census(chain_poset(5), distinct_up_to_auto=True)
    assert result.distinct_up_to_automorphism == result.total == 22
    # the diamond swap p <-> q fixes its single (symmetric) structure
    result = census(diamond_poset(2), distinct_up_to_auto=True)
    assert result.total == 1
    assert result.distinct_up_to_automorphism == 1


def test_poset_p_census_counts():
    # the non-chain census the benchmark's census workload checks
    result = census(POSET_P, distinct_up_to_auto=True)
    assert (result.total, result.sharp, result.domains, result.all_principal) == (
        442, 65, 0, 0
    )
    assert result.distinct_up_to_automorphism == 268


def test_census_to_dict_shape():
    out = census(chain_poset(2)).to_dict()
    assert out["poset"]["elements"] == ["0", "1"]
    assert out["counting"] == "labeled"
    assert out["total_structures"] == 1
    assert out["sharp_count"] == 1
    assert "representatives" not in out
