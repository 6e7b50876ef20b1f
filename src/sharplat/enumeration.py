"""Enumerate every multiplicative-lattice structure on a finite poset.

The search fixes the forced cells (identity row, bottom row), walks the
free cells (unordered pairs of interior elements) row-major, and tries
each cell's candidates in ascending order between bounds that keep each
row monotone along the covers, as distributivity requires: a value for
(i, j) lies above ic and cj for c covered by j and by i, and below i
meet j and the same products over the upper covers, counting only the
cells already set, so the later cell of each cover pair is bounded by
the other in any walk order.  Each assignment is checked incrementally:
only the associativity and binary distributivity triples that read the
new cell are examined, since every other determined triple was checked
when its last cell was set, and distributivity only on incomparable
pairs, since on comparable ones it is monotonicity.  Two indexes find
those triples without scanning the table: the free cells that hold each
value, kept exact on assign and unassign, and the incomparable pairs
with each join, a poset constant.  Every leaf is re-validated by the
core validator, so correctness never depends on the propagation being
complete.  Leaves share most rows, and row x and the order decide both
the laws that read row x alone and column x of the residual table, so a
search keeps one memo from row to column (or None, for a row that breaks
those laws) and reads each distinct row once; a census keeps its
principal verdicts per row too.  The walk is row-major so that leaves
arrive in ``flat_mult`` order: the table is symmetric with fixed forced
cells, so the first free cell where two tables differ is the first
position where their row-major tables differ.

Censuses count labeled structures on the fixed poset.  Chains have no
nontrivial order automorphisms, so labeled and isomorphism counts
coincide there; for other posets an optional canonical-form count
(lexicographically least table over poset automorphisms) is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import predicates
from .core import FiniteMultLattice, FinitePoset, _bits, _columns, _trusted_lattice
from .errors import SharplatError, SizeTooSmall

_MIDDLE_NAMES = "abcdefghijklmnopqrstuvwxyz"


def chain_poset(n: int) -> FinitePoset:
    """The n-element chain: bottom, n-2 interior elements, top.

    Interior names follow the conventional labels: a single interior
    element is called m (the local maximal), longer chains use
    a, b, c, ...
    """
    if n < 2:
        raise SizeTooSmall("a chain needs at least bottom and top")
    if n == 3:
        middles = ["m"]
    elif n - 2 <= len(_MIDDLE_NAMES):
        middles = list(_MIDDLE_NAMES[: n - 2])
    else:
        middles = [f"m{i}" for i in range(1, n - 1)]
    names = ["0", *middles, "1"]
    leq = [[i <= j for j in range(n)] for i in range(n)]
    return FinitePoset(names, leq)


def diamond_poset(width: int) -> FinitePoset:
    """Bottom, ``width`` pairwise-incomparable interior elements, top.

    width = 2 is the four-element diamond with interior p, q.
    """
    if width < 1:
        raise SizeTooSmall("diamond needs at least one interior element")
    letters = "pqrstuvwxyz"
    if width <= len(letters):
        middles = list(letters[:width])
    else:
        middles = [f"p{i}" for i in range(1, width + 1)]
    names = ["0", *middles, "1"]
    n = width + 2
    leq = [
        [i == j or i == 0 or j == n - 1 for j in range(n)] for i in range(n)
    ]
    return FinitePoset(names, leq)


def _free_cells(poset: FinitePoset) -> list[tuple[int, int]]:
    """Unordered interior pairs (i, j), i <= j, in row-major order."""
    top = poset.size - 1
    return [(i, j) for i in range(1, top) for j in range(i, top)]


def _consistent(table, joins, holders, pairs_by_join, incomparable, n, i, j) -> bool:
    """Associativity and binary distributivity on the determined triples
    that read the newly assigned cell (i, j) = (j, i).

    Every other determined triple was checked when its last cell was
    set.  The table is symmetric, so the associativity triple (x, y, z)
    reads the same cells as (z, y, x): the new cell needs checking only
    in the (x, y) and (xy, z) positions.  Distributivity is checked on
    incomparable pairs only (z in ``incomparable[b]``): for b <= c,
    a(b v c) = ab v ac says ab <= ac, which the search's bounds keep.

    ``holders[a]`` holds every free cell (x, y) with xy = a.  That
    reaches every triple that reads the new cell as (xy)b: a is
    interior, so the only forced cells holding it are (1, a) and
    (a, 1), whose triples always hold.  ``pairs_by_join[b]`` holds the
    incomparable pairs x < y with x v y = b: a(x v y) = ax v ay is
    symmetric in x and y, so these are all the pairs whose law reads
    the new cell as a(x v y) and is not implied by monotonicity.
    """
    for a, b in {(i, j), (j, i)}:
        row_a, row_b = table[a], table[b]
        ab = row_a[b]
        row_ab = table[ab]
        # (ab)z = a(bz)
        for z in range(n):
            bz = row_b[z]
            if bz is not None:
                t, u = row_ab[z], row_a[bz]
                if t is not None and u is not None and t != u:
                    return False
        # a(b v z) = ab v az
        for z in incomparable[b]:
            az, abz = row_a[z], row_a[joins[b][z]]
            if az is not None and abz is not None and abz != joins[ab][az]:
                return False
        # (xy)b = x(yb) where xy = a
        for x, y in holders[a]:
            yb = table[y][b]
            if yb is not None:
                u = table[x][yb]
                if u is not None and u != ab:
                    return False
        # a(x v y) = ax v ay where x v y = b
        for x, y in pairs_by_join[b]:
            ax, ay = row_a[x], row_a[y]
            if ax is not None and ay is not None and joins[ax][ay] != ab:
                return False
    return True


def _search(poset: FinitePoset, cells):
    """Yield the validated leaves of a depth-first walk over ``cells``."""
    n = poset.size
    top = n - 1
    meets = poset.meets
    joins = poset.joins
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        table[top][x] = table[x][top] = x
        table[0][x] = table[x][0] = 0
    holders: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    between = [[list(_bits(u & d)) for d in poset.down] for u in poset.up]
    incomparable = [[z for z in range(n) if not (poset.le(b, z) or poset.le(z, b))]
                    for b in range(n)]
    pairs_by_join = [[(x, y) for x, y in poset.incomparable if joins[x][y] == b]
                     for b in range(n)]
    lower, upper = poset.lower_covers, poset.upper_covers
    column = cache(_columns(poset))

    def backtrack(k: int):
        if k == len(cells):
            try:
                lattice = _trusted_lattice(poset, table, column)
            except SharplatError:
                # propagation admitted a bad table; the validator has the
                # final word
                return
            yield lattice
            return
        i, j = cells[k]
        cell = {(i, j), (j, i)}
        lb, ub = 0, meets[i][j]
        for a, b in (i, j), (j, i):
            row = table[a]
            for c in lower[b]:
                if row[c] is not None:
                    lb = joins[lb][row[c]]
            for c in upper[b]:
                if row[c] is not None:
                    ub = meets[ub][row[c]]
        for v in between[lb][ub]:
            table[i][j] = table[j][i] = v
            holders[v] |= cell
            if _consistent(table, joins, holders, pairs_by_join, incomparable, n, i, j):
                yield from backtrack(k + 1)
            holders[v] -= cell
        table[i][j] = table[j][i] = None

    yield from backtrack(0)


def enumerate_structures(poset: FinitePoset):
    """Lazily yield every multiplication table making ``poset`` a
    multiplicative lattice, exactly once, in lexicographic order of the
    row-major table, each as the search reaches it: no list of them is
    held.  Every yielded lattice has passed full validation.

    Each assignment is checked against only the associativity and
    distributivity triples that read the new cell.
    """
    yield from _search(poset, _free_cells(poset))


def poset_header(elements, leq) -> dict:
    """The ``"poset"`` and ``"counting"`` keys that every ``enumerate``
    document starts with."""
    return {
        "poset": {
            "elements": list(elements),
            "leq": [[1 if v else 0 for v in row] for row in leq],
        },
        "counting": "labeled",
    }


@dataclass(frozen=True)
class Census:
    """Aggregate counts over all structures on one poset.

    Counts are of labeled structures; ``distinct_up_to_automorphism``
    (when requested) dedups by the lexicographically least table over
    order automorphisms of the poset.
    """

    elements: tuple[str, ...]
    leq: tuple[tuple[int, ...], ...]
    total: int
    sharp: int
    domains: int
    all_principal: int
    distinct_up_to_automorphism: int | None = None

    def to_dict(self) -> dict:
        out = {
            **poset_header(self.elements, self.leq),
            "total_structures": self.total,
            "sharp_count": self.sharp,
            "domain_count": self.domains,
            "all_principal_count": self.all_principal,
        }
        if self.distinct_up_to_automorphism is not None:
            out["distinct_up_to_automorphism"] = self.distinct_up_to_automorphism
        return out


def census(
    poset: FinitePoset, distinct_up_to_auto: bool = False, structures=None
) -> Census:
    """Classify every structure of ``structures``, a stream of the
    structures on ``poset`` (by default ``enumerate_structures(poset)``),
    consuming it once.  Deterministic for a fixed poset.
    """
    if structures is None:
        structures = enumerate_structures(poset)
    total = sharp = domains = all_principal = 0
    canon: set[tuple[int, ...]] = set()
    verdicts: dict = {}  # row x of a structure on ``poset`` -> x is principal
    autos = None
    if distinct_up_to_auto:
        # each automorphism with its inverse, built once per census
        ids = range(poset.size)
        autos = [(s, sorted(ids, key=s.__getitem__)) for s in poset.automorphisms()]
    for L in structures:
        total += 1
        report = predicates.sharpness_report(L)
        if report.is_sharp:
            sharp += 1
        if predicates.prime_witness(L, 0) is None:
            domains += 1
        # bottom and top are principal in every multiplicative lattice
        shared = verdicts if L.poset is poset or L.poset == poset else {}
        for x in range(1, L.top):
            if (row := L.mult[x]) not in shared:
                shared[row] = predicates._is_principal(L, x)
            if not shared[row]:
                break
        else:
            all_principal += 1
        if autos is not None:
            canon.add(_canonical_key(L, autos))
    return Census(
        elements=poset.names,
        leq=tuple(tuple(1 if v else 0 for v in row) for row in poset.leq),
        total=total,
        sharp=sharp,
        domains=domains,
        all_principal=all_principal,
        distinct_up_to_automorphism=len(canon) if autos is not None else None,
    )


def audit_structure(L: FiniteMultLattice) -> None:
    """Run the claim audit on L; a failure carries L's document as
    ``lattice_document`` for the report."""
    try:
        predicates.theorem_audit(L)
    except SharplatError as exc:
        if getattr(exc, "lattice_document", None) is None:
            exc.lattice_document = L.serialize()
        raise


def audited(structures):
    """Pass ``structures`` through, auditing each one as it arrives: the
    first falsified claim stops the stream."""
    for L in structures:
        audit_structure(L)
        yield L


def _canonical_key(L: FiniteMultLattice, autos) -> tuple[int, ...]:
    ids = range(L.size)
    mult = L.mult
    return min(
        tuple(sigma[mult[inv[i]][inv[j]]] for i in ids for j in ids)
        for sigma, inv in autos
    )
