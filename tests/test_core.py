"""Core lattice validation, residuation and serialization."""

import itertools
import json
import random
from functools import cache
from types import SimpleNamespace

import pytest
from conftest import (
    POSET_P,
    SPLIT5,
    chain_document,
    poset_slots,
    product_document,
    relisted,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import masks, residuals, stable_topological_order, triple_scan

from sharplat import core, enumeration, gallery, parse_lattice, parse_poset
from sharplat.core import (
    FiniteMultLattice,
    FinitePoset,
    _bound_table,
    _check_partial_order,
    _masks,
    _trusted_lattice,
    canonical_permutation,
)
from sharplat.errors import (
    BadSchema,
    InternalValidationFailure,
    NoIdentity,
    NotALattice,
    NotAPartialOrder,
    NotAssociative,
    NotCommutative,
    NotDistributive,
    SharplatError,
    UnknownElement,
)

CHAIN3_LEQ = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


def all_gallery():
    return [build() for build in gallery.BUILTINS.values()]


# -- parsing and validation -------------------------------------------


def test_nonsharp5_document_is_valid(nonsharp5):
    doc = nonsharp5.serialize()
    assert parse_lattice(doc) == nonsharp5


def test_chain2_forced_table(chain2):
    assert chain2.mult == ((0, 0), (0, 1))


def test_parse_canonicalizes_scrambled_order(nonsharp5):
    # same lattice with elements listed top-first
    doc = nonsharp5.serialize()
    perm = [4, 3, 2, 1, 0]
    scrambled = {
        "elements": [doc["elements"][p] for p in perm],
        "leq": [[doc["leq"][p][q] for q in perm] for p in perm],
        "mult": [[perm.index(doc["mult"][p][q]) for q in perm] for p in perm],
    }
    assert parse_lattice(scrambled) == nonsharp5


def test_parse_checks_the_order_once(monkeypatch, nonsharp5):
    # the raw relation is checked; its canonical copy is not checked again
    from sharplat import core

    checks = []

    def counting(up, down):
        checks.append(up)
        return _check_partial_order(up, down)

    monkeypatch.setattr(core, "_check_partial_order", counting)
    doc = nonsharp5.serialize()
    perm = [4, 2, 3, 1, 0]
    scrambled = {
        "elements": [doc["elements"][p] for p in perm],
        "leq": [[doc["leq"][p][q] for q in perm] for p in perm],
        "mult": [[perm.index(doc["mult"][p][q]) for q in perm] for p in perm],
    }
    posets = []
    for parse in (parse_lattice, parse_poset):
        checks.clear()
        parsed = parse(scrambled)
        assert checks == [_masks(scrambled["leq"])]
        posets.append(parsed.poset if parse is parse_lattice else parsed)
    built = FinitePoset(nonsharp5.names, nonsharp5.leq)
    for poset in posets:
        assert poset == built
        assert (poset.joins, poset.meets) == (built.joins, built.meets)


def test_round_trip_all_gallery():
    for L in all_gallery():
        assert parse_lattice(json.loads(json.dumps(L.serialize()))) == L


@pytest.mark.parametrize(
    "doc,message",
    [
        ({}, "elements"),
        ({"elements": ["0", "1"], "leq": [[1, 1], [0, 1]]}, "mult"),
        (
            {"elements": ["0", "0"], "leq": [[1, 1], [0, 1]], "mult": [[0, 0], [0, 1]]},
            "distinct",
        ),
        (
            {"elements": ["0", "1"], "leq": [[1, 1]], "mult": [[0, 0], [0, 1]]},
            "matrix",
        ),
        (
            {"elements": ["0", "1"], "leq": [[1, 1], [0, 1]], "mult": [[0, 9], [0, 1]]},
            "indices",
        ),
    ],
)
def test_bad_schema(doc, message):
    with pytest.raises(BadSchema) as err:
        parse_lattice(doc)
    assert message in str(err.value)


_TWO = {"elements": ["0", "1"], "leq": [[1, 1], [0, 1]], "mult": [[0, 0], [0, 1]]}


def _without(key):
    return {k: v for k, v in _TWO.items() if k != key}


@pytest.mark.parametrize("parse", [parse_poset, parse_lattice])
@pytest.mark.parametrize(
    "doc,message",
    [
        ([1, 2], "document must be a JSON object"),
        ("[1, 2]", "document must be a JSON object"),
        (_without("elements"), 'missing "elements"'),
        (_without("leq"), 'missing "leq"'),
        ({**_TWO, "elements": []}, '"elements" must be a non-empty list'),
        ({**_TWO, "elements": ["0", 1]}, "element names must be strings"),
        ({**_TWO, "leq": [[1, 1]]}, '"leq" must be a 2x2 matrix'),
        ({**_TWO, "leq": [[1, 2], [0, 1]]}, '"leq" entries must be 0/1'),
        ({**_TWO, "leq": [[1.0, 1], [0, 1]]}, '"leq" entries must be 0/1'),
        ({**_TWO, "leq": [[1, 1], [0.0, 1]]}, '"leq" entries must be 0/1'),
    ],
)
def test_schema_diagnostics_are_exact(parse, doc, message):
    with pytest.raises(BadSchema) as err:
        parse(doc)
    assert str(err.value) == message
    assert err.value.witness is None


@pytest.mark.parametrize(
    "doc,message",
    [
        (_without("mult"), 'missing "mult"'),
        ({**_TWO, "mult": [[0, 0]]}, '"mult" must be a 2x2 matrix'),
        ({**_TWO, "mult": [[0, 9], [0, 1]]}, '"mult" entries must be element indices'),
        ({**_TWO, "mult": [[0, 0], [0, True]]}, '"mult" entries must be element indices'),
        ({**_TWO, "mult": [[False, 0], [0, 1]]}, '"mult" entries must be element indices'),
    ],
)
def test_mult_diagnostics_are_exact(doc, message):
    with pytest.raises(BadSchema) as err:
        parse_lattice(doc)
    assert str(err.value) == message
    # the order part alone is a valid poset document
    assert parse_poset(doc).names == ("0", "1")


def _below(n, pairs):
    return [[int(i == j or (i, j) in pairs) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "names,leq,message,witness",
    [
        # 0 < p, q < r, s < 1: p and q have two minimal upper bounds
        (
            ["0", "p", "q", "r", "s", "1"],
            _below(6, {(0, j) for j in range(6)} | {(i, 5) for i in range(6)}
                   | {(i, j) for i in (1, 2) for j in (3, 4)}),
            "(1, 2) has no least upper bound",
            (1, 2),
        ),
        # a, b < c: no bottom
        (["a", "b", "c"], _below(3, {(0, 2), (1, 2)}), "(0, 1) has no lower bound", (0, 1)),
    ],
)
def test_not_a_lattice_diagnostics_are_exact(names, leq, message, witness):
    with pytest.raises(NotALattice) as err:
        parse_poset({"elements": names, "leq": leq})
    assert str(err.value) == message
    assert err.value.witness == witness


def test_not_a_partial_order_non_transitive():
    doc = {
        "elements": ["0", "a", "1"],
        "leq": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],  # 0<=a, a<=1 but not 0<=1
        "mult": [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
    }
    with pytest.raises(NotAPartialOrder) as err:
        parse_lattice(doc)
    assert err.value.witness == (0, 1, 2)


def test_not_a_lattice_no_upper_bound():
    doc = {
        "elements": ["0", "p", "q"],
        "leq": [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
        "mult": [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
    }
    with pytest.raises(NotALattice) as err:
        parse_lattice(doc)
    assert err.value.witness is not None


def test_nonsharp5_with_ac_changed_to_b_is_rejected(nonsharp5):
    doc = nonsharp5.serialize()
    doc["mult"][1][3] = 2
    doc["mult"][3][1] = 2
    with pytest.raises((NotDistributive, NotAssociative)) as err:
        parse_lattice(doc)
    assert err.value.witness is not None  # a witness triple is reported


def test_not_commutative():
    mult = [[0, 0, 0], [0, 1, 0], [0, 1, 2]]  # m*1 != 1*m
    with pytest.raises(NotCommutative) as err:
        FiniteMultLattice(FinitePoset(["0", "m", "1"], CHAIN3_LEQ), mult)
    assert err.value.witness == (1, 2)


def test_no_identity():
    mult = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]  # symmetric but top*m == 0
    with pytest.raises(NoIdentity) as err:
        FiniteMultLattice(FinitePoset(["0", "m", "1"], CHAIN3_LEQ), mult)
    assert err.value.witness == (1,)


def test_not_associative():
    # 4-chain with b*b = a, a*b = a, a*a = 0: (a*b)*b = a*b = a while
    # a*(b*b) = a*a = 0, and the chain shape keeps binary
    # distributivity (= monotonicity) intact so associativity trips.
    leq = [[i <= j for j in range(4)] for i in range(4)]
    mult = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 2], [0, 1, 2, 3]]
    with pytest.raises(NotAssociative) as err:
        FiniteMultLattice(FinitePoset(["0", "a", "b", "1"], leq), mult)
    assert err.value.witness is not None


def test_empty_join_law_checked():
    mult = [[0, 1, 0], [1, 1, 1], [0, 1, 2]]  # 0*m = m
    with pytest.raises(NotDistributive):
        FiniteMultLattice(FinitePoset(["0", "m", "1"], CHAIN3_LEQ), mult)


_ENTRIES = '"mult" entries must be element indices'


@pytest.mark.parametrize(
    "cell, entry, message",
    [
        ((1, 1), 0.9, _ENTRIES),
        ((1, 2), "1", _ENTRIES),
        ((1, 2), True, _ENTRIES),
        ((2, 2), 3, _ENTRIES),
        ((2, 2), -1, _ENTRIES),
        ((2, 2), None, '"mult" must be a 3x3 matrix'),
        (None, None, '"mult" must be a 3x3 matrix'),
        (2, 5, '"mult" must be a 3x3 matrix'),
    ],
    ids=["float", "str", "bool", "out-of-range", "negative", "shape", "no-table", "int-row"],
)
def test_mult_entries_must_be_ints(cell, entry, message):
    # each table but the out-of-range ones coerces by int() to the valid
    # nil 3-chain; none may validate as that structure, and the caller's
    # table fails as the same document does (None drops the cell); a
    # cell of None replaces the whole table, an int cell one row
    mult = [[0, 0, 0], [0, 0, 1], [0, 1, 2]]
    if cell is None:
        mult = entry
    elif isinstance(cell, int):
        mult[cell] = entry
    elif entry is None:
        del mult[cell[0]][cell[1]]
    else:
        mult[cell[0]][cell[1]] = entry
    for build in (
        lambda: FiniteMultLattice(enumeration.chain_poset(3), mult),
        lambda: parse_lattice(chain_document(3, mult)),
    ):
        with pytest.raises(BadSchema) as err:
            build()
        assert str(err.value) == message


def test_one_element_lattice_validates():
    # bottom = top: the row checks must not read a one-entry row as a scalar
    L = FiniteMultLattice(FinitePoset(["0"], [[True]]), [[0]])
    assert L.mult == L.residuals == ((0,),)


# every 11th of the 442 structures on P: 41 of them, 18,368 changed
# tables, about a second
P_STRIDE = 11


def _outcome(build, *args):
    try:
        build(*args)
    except SharplatError as exc:
        return type(exc), str(exc), exc.witness
    return None


def _changed(mult, cells, symmetric=True):
    """``mult`` with each (x, y, v) of ``cells`` written at (x, y), and
    at (y, x) too when ``symmetric``."""
    out = [list(row) for row in mult]
    for x, y, v in cells:
        out[x][y] = v
        if symmetric:
            out[y][x] = v
    return tuple(map(tuple, out))


def _single_cell_changes(mult):
    n = len(mult)
    for x in range(n):
        for y in range(x, n):
            for v in range(n):
                if v != mult[x][y]:
                    for symmetric in (True, False) if x != y else (True,):
                        yield _changed(mult, [(x, y, v)], symmetric)


def _multi_cell_changes(mult, rng, count):
    """``count`` symmetric changes of two or three interior cells each,
    drawn from ``rng``."""
    n = len(mult)
    cells = [(x, y) for x in range(1, n - 1) for y in range(x, n - 1)]
    for _ in range(count):
        picked = rng.sample(cells, rng.choice((2, 3)))
        yield _changed(mult, [
            (x, y, rng.choice([v for v in range(n) if v != mult[x][y]]))
            for x, y in picked
        ])


# seeded changes of two or three cells per multi-cell base
MULTI_CHANGES = 40


def _cell_changes(census_structures, poset_p_structures):
    """Every single-cell change of every small structure, made on both
    sides of the diagonal and on one side only, and seeded symmetric
    changes of two or three interior cells, which can break a law in
    more than one place: (kind, poset, changed table) triples.  split5,
    P and the diamonds, where the covers branch, pin the rows the
    validator skips and its incomparable-pair law off chains too; M3
    (diamond 3) carries no structure, so its meet table stands in."""
    single = [
        *census_structures["chain4"],
        *census_structures["chain5"],
        *census_structures["split5"],
        *poset_p_structures[::P_STRIDE],
        *all_gallery(),
    ]
    m3 = enumeration.diamond_poset(3)
    multi = [
        *((L.poset, L.mult) for key in ("chain5", "chain6", "diamond2", "split5")
          for L in census_structures[key]),
        *((L.poset, L.mult) for L in poset_p_structures[::P_STRIDE]),
        (m3, m3.meets),
    ]
    rng = random.Random(18)
    return [
        *(("single", L.poset, changed)
          for L in single for changed in _single_cell_changes(L.mult)),
        *(("multi", poset, changed) for poset, mult in multi
          for changed in _multi_cell_changes(mult, rng, MULTI_CHANGES)),
    ]


def _assert_fails_as_the_triple_scan_does(build, changes):
    seen = {"single": set(), "multi": set()}
    for kind, poset, mult in changes:
        expected = _outcome(triple_scan, poset, mult)
        assert _outcome(build, poset, mult) == expected
        seen[kind].add(expected and expected[0])
    assert seen == {
        "single": {None, NotCommutative, NoIdentity, NotAssociative, NotDistributive},
        "multi": {None, NotAssociative, NotDistributive},
    }


def test_cell_changes_fail_as_the_triple_scan_does(
    census_structures, poset_p_structures
):
    # the validator raises the class, message and witness the triple
    # scan raises, or accepts when the scan does
    changes = _cell_changes(census_structures, poset_p_structures)
    _assert_fails_as_the_triple_scan_does(FiniteMultLattice, changes)


def test_cell_changes_past_lawful_rows_fail_as_the_triple_scan_does(
    census_structures, poset_p_structures
):
    # the search's path: one memo of the row function per poset, which
    # decides the row-local laws and makes the residual column, warmed by
    # every structure on that poset.  A changed table reads only the rows
    # the memo has not seen, and must still raise what the triple scan
    # raises
    memos = {}

    def build(poset, mult):
        return _trusted_lattice(poset, mult, memos[poset])

    changes = _cell_changes(census_structures, poset_p_structures)
    for _, poset, _ in changes:
        if poset not in memos:
            memos[poset] = cache(core._columns(poset))
            for L in enumeration.enumerate_structures(poset):
                build(poset, L.mult)
    warm = [memo.cache_info() for memo in memos.values()]
    _assert_fails_as_the_triple_scan_does(build, changes)
    # the memos were used: of the rows of the tables that reached the
    # row laws (after commutativity, the identity and the bottom law),
    # more were found in a memo than read
    used = [memo.cache_info() for memo in memos.values()]
    hits = sum(u.hits - w.hits for u, w in zip(used, warm))
    misses = sum(u.misses - w.misses for u, w in zip(used, warm))
    assert hits > misses > 0


# -- order tables from up-set masks ------------------------------------


def _partial_order_scan(leq):
    """The partial-order check as a plain scan over pairs and triples,
    raising on the lexicographically least witness."""
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise NotAPartialOrder(f"leq not reflexive at {i}", witness=(i,))
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(
                    f"leq not antisymmetric at ({i}, {j})", witness=(i, j)
                )
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise NotAPartialOrder(
                            f"leq not transitive at ({i}, {j}, {k})",
                            witness=(i, j, k),
                        )


def _bound_table_scan(rel, side, extreme):
    """All-pairs best bounds by listing every pair's bounds and testing
    each against all the others."""
    n = len(rel)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            bounds = [k for k in range(n) if rel[i][k] and rel[j][k]]
            if not bounds:
                raise NotALattice(f"({i}, {j}) has no {side} bound", witness=(i, j))
            best = [u for u in bounds if all(rel[u][v] for v in bounds)]
            if not best:
                raise NotALattice(
                    f"({i}, {j}) has no {extreme} {side} bound", witness=(i, j)
                )
            row.append(best[0])
        rows.append(tuple(row))
    return tuple(rows)


def _check_with_masks(leq):
    return _check_partial_order(_masks(leq), _masks(zip(*leq)))


def _outcome_of(build, *args):
    """The value ``build`` returns, or the class, message and witness
    of the toolkit error it raises."""
    try:
        return build(*args)
    except SharplatError as exc:
        return type(exc), str(exc), exc.witness


def _assert_tables_match_scan(leq):
    transpose = tuple(zip(*leq))
    for rel, side, extreme in ((leq, "upper", "least"), (transpose, "lower", "greatest")):
        expected = _outcome_of(_bound_table_scan, rel, side, extreme)
        assert _outcome_of(_bound_table, _masks(rel), side, extreme) == expected


def _reflexive_relations(n):
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(off_diagonal)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), bit in zip(off_diagonal, bits):
            leq[i][j] = bit
        yield tuple(map(tuple, leq))


def test_mask_tables_match_scans_on_every_small_relation():
    # every reflexive relation on up to 4 elements (4,165 of them): the
    # partial-order verdicts agree; on the antisymmetric ones, where a
    # best bound is unique when it exists, so do both bound tables
    verdicts = set()
    tables = 0
    for n in range(1, 5):
        for leq in _reflexive_relations(n):
            expected = _outcome_of(_partial_order_scan, leq)
            assert _outcome_of(_check_with_masks, leq) == expected
            verdicts.add(expected and expected[1].split(" at ")[0])
            if not any(leq[i][j] and leq[j][i] for i in range(n) for j in range(i)):
                _assert_tables_match_scan(leq)
                tables += 1
    assert verdicts == {None, "leq not antisymmetric", "leq not transitive"}
    assert tables == 1 + 3 + 27 + 729


@st.composite
def labelled_orders(draw, max_size=9):
    """A random partial order, often with a bottom and a top added, in
    a random labelling: the order x < y of a random acyclic relation on
    0..n-1, closed transitively, then listed in a drawn permutation."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    below = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    if n > 1 and draw(st.booleans()):
        below |= {(0, j) for j in range(1, n)} | {(i, n - 1) for i in range(n - 1)}
    lt = [[(i, j) in below for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if lt[i][k]:
                for j in range(n):
                    lt[i][j] = lt[i][j] or lt[k][j]
    perm = draw(st.permutations(range(n)))
    return tuple(
        tuple(a == b or lt[a][b] for b in perm) for a in perm
    )


@settings(deadline=None)
@given(leq=labelled_orders())
def test_mask_tables_match_scans_on_labelled_orders(leq):
    assert _check_with_masks(leq) is None
    _assert_tables_match_scan(leq)


@settings(deadline=None)
@given(leq=labelled_orders())
def test_canonical_permutation_matches_list_scan(leq):
    assert canonical_permutation(_masks(zip(*leq))) == stable_topological_order(leq)


def test_canonical_permutation_rejects_a_cycle():
    # 0 < 1 < 0, and 2 above both: nothing can be placed first
    down = [0b011, 0b011, 0b111]
    with pytest.raises(NotAPartialOrder) as err:
        canonical_permutation(down)
    assert str(err.value) == "cycle while ordering"
    assert err.value.witness == (0, 1, 2)


@settings(deadline=None)
@given(
    leq=labelled_orders(),
    flips=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3),
)
def test_partial_order_check_matches_scan_after_flips(leq, flips):
    # an order with a few cells flipped: the same verdict and witness
    n = len(leq)
    rel = [list(row) for row in leq]
    for i, j in flips:
        rel[i % n][j % n] = not rel[i % n][j % n]
    rel = tuple(map(tuple, rel))
    assert _outcome_of(_check_with_masks, rel) == _outcome_of(_partial_order_scan, rel)


def _named_tables(poset):
    names = poset.names
    return {
        (names[i], names[j]): (names[poset.joins[i][j]], names[poset.meets[i][j]])
        for i in range(poset.size)
        for j in range(poset.size)
    }


def _scrambled(poset, seed):
    order = list(range(poset.size))
    random.Random(seed).shuffle(order)
    return {
        "elements": [poset.names[o] for o in order],
        "leq": [[int(poset.leq[a][b]) for b in order] for a in order],
    }


def _hasse_scan(leq):
    """Lower and upper covers by brute force: c < b with nothing
    strictly between."""
    n = len(leq)

    def covered(c, b):
        return c != b and leq[c][b] and not any(
            leq[c][m] and leq[m][b] for m in range(n) if m not in (c, b)
        )

    return (
        tuple(tuple(c for c in range(n) if covered(c, b)) for b in range(n)),
        tuple(tuple(c for c in range(n) if covered(b, c)) for b in range(n)),
    )


def _assert_stored_masks(poset):
    leq = poset.leq
    assert poset.up == tuple(masks(leq))
    assert poset.down == tuple(masks(zip(*leq)))
    assert (poset.lower_covers, poset.upper_covers) == _hasse_scan(leq)
    n = poset.size
    assert poset.is_chain() == all(
        leq[i][j] or leq[j][i] for i in range(n) for j in range(i)
    )


_MASK_POSETS = {
    **{name: build().poset for name, build in gallery.BUILTINS.items()},
    "split5": SPLIT5,
    "P": POSET_P,
    "chain64": enumeration.chain_poset(64),
}


@pytest.mark.parametrize("poset", _MASK_POSETS.values(), ids=_MASK_POSETS.keys())
def test_poset_stores_its_masks(poset):
    _assert_stored_masks(FinitePoset(poset.names, poset.leq))
    for seed in range(3):
        doc = _scrambled(poset, seed)
        parsed, _ = FinitePoset.from_raw(doc["elements"], doc["leq"])
        _assert_stored_masks(parsed)


@st.composite
def labelled_lattices(draw, ground=4):
    """A random closure system on ``ground`` points (the whole set and a
    family of subsets closed under intersection) ordered by inclusion,
    in a random labelling: always a lattice, of at most 16 elements."""
    full = (1 << ground) - 1
    family = {full}
    for s in draw(st.lists(st.integers(0, full), min_size=1, max_size=8)):
        family |= {s & t for t in family}
    sets = draw(st.permutations(sorted(family)))
    return [str(s) for s in sets], [[a & b == a for b in sets] for a in sets]


@settings(deadline=None)
@given(lattice=labelled_lattices())
def test_stored_masks_on_labelled_lattices(lattice):
    parsed, _ = FinitePoset.from_raw(*lattice)
    _assert_stored_masks(parsed)
    _assert_stored_masks(FinitePoset(parsed.names, parsed.leq))


@settings(deadline=None)
@given(
    rows=st.integers(0, 70).flatmap(
        lambda n: st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n)
    )
)
def test_masks_match_the_cell_loop(rows):
    # any square relation, not only orders, and past 64 bits
    rel = [[bool(row >> k & 1) for k in range(len(rows))] for row in rows]
    assert _masks(rel) == masks(rel)
    assert _masks(zip(*rel)) == masks(zip(*rel))


def test_non_canonical_order_is_an_internal_failure():
    # the constructor requires canonical order, which the cover peel
    # relies on; each listing fails one of the three checks
    cases = {
        "bottom": (["1", "0"], [[1, 0], [1, 1]]),
        "top": (["0", "1", "a"], [[1, 1, 1], [0, 1, 0], [0, 1, 1]]),
        "not topological": (
            ["0", "a", "b", "1"],
            [[1, 1, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1], [0, 0, 0, 1]],
        ),
    }
    for what, (names, leq) in cases.items():
        with pytest.raises(InternalValidationFailure) as err:
            FinitePoset(names, leq)
        assert str(err.value) == f"carrier not in canonical order: {what}"


@settings(deadline=None)
@given(lattice=labelled_lattices(), data=st.data())
def test_closure_image_is_the_induced_poset(lattice, data):
    # a meet-closed family holding the top is the image of the closure
    # x -> the meet of the family above x; restricting the parent gives
    # the poset that checking the induced order from scratch gives
    poset, _ = FinitePoset.from_raw(*lattice)
    n = poset.size
    assume(n >= 2)
    closed = {n - 1} | data.draw(st.sets(st.integers(0, n - 2), min_size=1))
    while more := {poset.meets[x][y] for x in closed for y in closed} - closed:
        closed |= more
    image = tuple(sorted(closed))
    close = [poset.meet_of(y for y in image if poset.leq[x][y]) for x in range(n)]
    projection = tuple(image.index(c) for c in close)
    expected = FinitePoset(
        [poset.names[i] for i in image], [[poset.leq[i][j] for j in image] for i in image]
    )
    assert poset_slots(poset._closure_image(image, projection)) == poset_slots(expected)


@pytest.mark.parametrize(
    "image, projection, message, witness",
    [
        # on the 4-chain 0 < 1 < 2 < 3
        ((1, 3), (0, 1, 1, 1), "projection not idempotent at 1", (1,)),
        ((0, 3), (0, 0, 1, 1), "projection not extensive at 1", (1,)),
        ((0, 2, 3), (0, 2, 1, 2), "projection not monotone at (1, 2)", (1, 2)),
    ],
    ids=["idempotent", "extensive", "monotone"],
)
def test_closure_image_rejects_a_non_closure(image, projection, message, witness):
    chain = enumeration.chain_poset(4)
    with pytest.raises(InternalValidationFailure) as err:
        chain._closure_image(image, projection)
    assert (str(err.value), err.value.witness) == (message, witness)


def test_large_chain_and_product_tables():
    # the 64-chain joins by max and meets by min; the 6x6 product joins
    # and meets componentwise; scrambled copies parse to the same tables
    chain = enumeration.chain_poset(64)
    assert chain.joins == tuple(tuple(max(i, j) for j in range(64)) for i in range(64))
    assert chain.meets == tuple(tuple(min(i, j) for j in range(64)) for i in range(64))
    pairs = [(a, b) for a in range(6) for b in range(6)]
    product = FinitePoset(
        [f"{a}{b}" for a, b in pairs],
        [[a <= c and b <= d for c, d in pairs] for a, b in pairs],
    )
    for x, (a, b) in enumerate(pairs):
        for y, (c, d) in enumerate(pairs):
            assert pairs[product.joins[x][y]] == (max(a, c), max(b, d))
            assert pairs[product.meets[x][y]] == (min(a, c), min(b, d))
    for poset in (chain, product):
        for seed in range(3):
            parsed = parse_poset(_scrambled(poset, seed))
            assert _named_tables(parsed) == _named_tables(poset)


# -- joins, meets, residuals, divisibility ----------------------------


def test_join_meet_examples(nonsharp5):
    a, b, c = (nonsharp5.id_of(x) for x in "abc")
    assert nonsharp5.join_of({a, b}) == b
    assert nonsharp5.join_of(set()) == 0
    assert nonsharp5.meet_of(set()) == nonsharp5.top
    assert nonsharp5.meet_of({c, b}) == b


def test_residual_examples(nonsharp5, chain3_nil):
    a, b = nonsharp5.id_of("a"), nonsharp5.id_of("b")
    assert nonsharp5.residual(a, b) == b
    for L in all_gallery():
        for y in L.elements():
            assert L.residual(y, L.top) == y
    m = chain3_nil.id_of("m")
    # brute-force: {x : x*m <= 0} = {0, m}, join = m
    assert chain3_nil.residual(0, m) == m


def test_divides_examples(nonsharp5):
    a, b, c = (nonsharp5.id_of(x) for x in "abc")
    assert nonsharp5.divides(b, a) is None
    assert nonsharp5.divides(c, a) == a
    for L in all_gallery():
        for x in L.elements():
            assert L.divides(L.top, x) == x


def test_id_of_unknown_name_is_typed(nonsharp5):
    with pytest.raises(UnknownElement) as err:
        nonsharp5.id_of("z")
    # a toolkit error that callers catching ValueError still see
    assert isinstance(err.value, SharplatError)
    assert isinstance(err.value, ValueError)


def test_divides_returns_least_witness(chain3_idem):
    m = chain3_idem.id_of("m")
    # m*m == m and m*1 == m; the least witness is m itself
    assert chain3_idem.divides(m, m) == m


def test_residual_is_maximum_full_scan():
    for L in all_gallery():
        for y in L.elements():
            for x in L.elements():
                r = L.residual(y, x)
                assert L.le(L.mul(r, x), y)
                for a in L.elements():
                    if L.le(L.mul(a, x), y):
                        assert L.le(a, r)


def test_residual_absorbs_join_with_numerator():
    for L in all_gallery():
        for y in L.elements():
            for x in L.elements():
                assert L.residual(y, x) == L.residual(y, L.join(x, y))


def test_residual_table_matches_join_over_all_elements(census_structures):
    # the table built by scanning down from the top agrees with the
    # join of every a with a*x <= y
    for structures in [*census_structures.values(), all_gallery()]:
        for L in structures:
            expected = tuple(
                tuple(
                    L.join_of(a for a in L.elements() if L.le(L.mul(a, x), y))
                    for x in L.elements()
                )
                for y in L.elements()
            )
            assert L.residuals == expected


_SMALL_DOCUMENTS = [
    L.serialize()
    for poset in (enumeration.chain_poset(4), enumeration.diamond_poset(2), SPLIT5)
    for L in enumeration.enumerate_structures(poset)
] + [doc for doc in gallery.gallery_documents().values() if len(doc["elements"]) <= 6]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_scanned_residual_columns_are_the_definition(data):
    # a lattice from the constructor, or parsed from a relisted
    # document, scans its residual columns itself; the product of two
    # small lattices reaches 36 elements and two maximal elements
    doc = data.draw(st.sampled_from(_SMALL_DOCUMENTS), label="first")
    other = data.draw(st.none() | st.sampled_from(_SMALL_DOCUMENTS), label="second")
    if other is not None:
        doc = product_document(doc, other)
    L = FiniteMultLattice(FinitePoset(doc["elements"], doc["leq"]), doc["mult"])
    assert L.residuals == residuals(L)
    order = data.draw(st.permutations(range(L.size)), label="order")
    parsed = parse_lattice(relisted(doc, order))
    assert parsed.residuals == residuals(parsed)
    ids = [L.id_of(name) for name in parsed.names]  # the same table by name
    assert parsed.residuals == tuple(
        tuple(ids.index(L.residuals[ids[y]][ids[x]]) for x in range(L.size))
        for y in range(L.size)
    )


def _keeps_first_three_laws(mult):
    """Commutativity, the identity row and the bottom law."""
    top = len(mult) - 1
    return (mult == tuple(zip(*mult)) and mult[top] == tuple(range(top + 1))
            and not any(mult[0]))


def _row_distributive(poset, row):
    """a(b v c) = ab v ac for row a, by plain scan over every b < c."""
    joins, n = poset.joins, poset.size
    return all(row[joins[b][c]] == joins[row[b]][row[c]]
               for b in range(n) for c in range(b + 1, n))


def _oracle_column(poset, row):
    """Column x of ``oracles.residuals`` for row x: (y : x) reads only the
    products ax = row[a], so a stand-in whose every column is ``row``."""
    stand_in = SimpleNamespace(le=poset.le, mul=lambda a, _: row[a],
                               elements=lambda: range(poset.size))
    return tuple(r[0] for r in residuals(stand_in))


def test_residual_column_is_none_exactly_where_a_row_breaks_distributivity(
    census_structures, poset_p_structures
):
    # the rows of every structure on the census carriers, and of each of
    # its single-cell changes that keep the first three laws: the row
    # function returns None exactly on a row whose distributivity fails,
    # and otherwise column x of the residual table by definition
    chain7 = list(enumeration.enumerate_structures(enumeration.chain_poset(7)))
    structures = [
        *(L for key in ("chain2", "chain3", "chain4", "chain5", "chain6",
                        "diamond2", "split5") for L in census_structures[key]),
        *chain7, *poset_p_structures,
    ]
    rows = {}
    for L in structures:
        tables = [L.mult, *filter(_keeps_first_three_laws, _single_cell_changes(L.mult))]
        rows.setdefault(L.poset, set()).update(row for t in tables for row in t)
    verdicts = {True: 0, False: 0}
    for poset, found in rows.items():
        column = core._columns(poset)
        for row in found:
            lawful = _row_distributive(poset, row)
            verdicts[lawful] += 1
            assert column(row) == (_oracle_column(poset, row) if lawful else None)
    assert len(rows) == 9
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_product_below_meet_and_monotone():
    for L in all_gallery():
        for x in L.elements():
            for y in L.elements():
                assert L.le(L.mul(x, y), L.meet(x, y))
                for z in L.elements():
                    if L.le(y, z):
                        assert L.le(L.mul(x, y), L.mul(x, z))


def test_canonical_ids():
    for L in all_gallery():
        assert L.bottom == 0
        assert L.top == L.size - 1
        assert all(L.le(0, x) and L.le(x, L.top) for x in L.elements())


# -- property-based checks over enumerated structures ------------------

_CHAIN5 = list(enumeration.enumerate_structures(enumeration.chain_poset(5)))


@settings(max_examples=60, deadline=None)
@given(
    L=st.sampled_from(_CHAIN5),
    y=st.integers(min_value=0, max_value=4),
    x=st.integers(min_value=0, max_value=4),
)
def test_residual_law_on_census_structures(L, y, x):
    r = L.residual(y, x)
    assert L.le(L.mul(r, x), y)
    assert all(L.le(a, r) for a in L.elements() if L.le(L.mul(a, x), y))


@settings(max_examples=60, deadline=None)
@given(
    L=st.sampled_from(_CHAIN5),
    x=st.integers(min_value=0, max_value=4),
    y=st.integers(min_value=0, max_value=4),
    z=st.integers(min_value=0, max_value=4),
)
def test_axioms_hold_on_enumerated_structures(L, x, y, z):
    assert L.mul(x, y) == L.mul(y, x)
    assert L.mul(L.mul(x, y), z) == L.mul(x, L.mul(y, z))
    assert L.mul(x, L.join(y, z)) == L.join(L.mul(x, y), L.mul(x, z))
    assert L.mul(L.top, x) == x
