"""Finite multiplicative lattices: order, joins/meets, multiplication,
residuation and divisibility.

A multiplicative lattice here is a finite complete lattice carrying a
commutative monoid multiplication whose identity is the top element and
which distributes over joins.  Finiteness makes every element compact,
so the completeness/compactness side conditions of the general theory
hold automatically and are not re-checked.

Element ids are plain ints indexing the canonical carrier order: bottom
is always id 0, top is always id ``size - 1``, and the order is a
topological (linear) extension of ``leq``.  Ids are only meaningful
relative to the lattice that issued them.

``FinitePoset`` and ``FiniteMultLattice`` answer order queries (``le``,
``join``, ``meet_of``, ...) through one shared base reading the same
tables, and ``parse_poset`` and ``parse_lattice`` share one document
loader, so both report the same schema diagnostics.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, compress, product
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import (
    BadSchema,
    InternalValidationFailure,
    NoIdentity,
    NotALattice,
    NotAPartialOrder,
    NotAssociative,
    NotCommutative,
    NotDistributive,
    UnknownElement,
)

ElementId = int

# serializer keys carried through for derived structures
_PROVENANCE_KEYS = ("localized_at", "quotient_by")


def _masks(rel) -> list[int]:
    """Each row of a square 0/1 relation as an int: bit k of row i is
    rel[i][k], summed by ``compress`` in C.  Rows of ``leq`` are
    up-sets, rows of its transpose down-sets."""
    rows = list(rel)
    powers = [1 << k for k in range(len(rows))]
    return [sum(compress(powers, row)) for row in rows]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_partial_order(up: list[int], down: list[int]) -> None:
    """Check reflexivity, antisymmetry and transitivity of the relation
    with up-set masks ``up`` and down-set masks ``down``, raising on the
    lexicographically least witness of the first law that fails."""
    n = len(up)
    for i in range(n):
        if not up[i] >> i & 1:
            raise NotAPartialOrder(f"leq not reflexive at {i}", witness=(i,))
    for i in range(n):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            j = next(_bits(both))
            raise NotAPartialOrder(
                f"leq not antisymmetric at ({i}, {j})", witness=(i, j)
            )
    for i, up_i in enumerate(up):
        for j in _bits(up_i):
            escaped = up[j] & ~up_i
            if escaped:
                k = next(_bits(escaped))
                raise NotAPartialOrder(
                    f"leq not transitive at ({i}, {j}, {k})", witness=(i, j, k)
                )


def _checked_order(names, leq) -> tuple:
    """``names`` as a tuple of distinct strings, then ``leq`` as a tuple
    of bool rows checked to be a partial order on them, with its up-set
    and down-set masks (so a bad name is reported before a bad order)."""
    try:
        names = tuple(str(x) for x in names)
    except TypeError:  # names is not iterable
        raise BadSchema("element names must be iterable") from None
    if not names:
        raise NotALattice("empty carrier has no bottom/top")
    if len(set(names)) != len(names):
        raise BadSchema("element names are not distinct")
    n = len(names)
    try:
        leq = tuple(tuple(bool(v) for v in row) for row in leq)
    except TypeError:  # leq or a row is not iterable, so not a matrix
        leq = ()
    if len(leq) != n or any(len(row) != n for row in leq):
        raise BadSchema(f"leq must be {n}x{n}")
    up, down = _masks(leq), _masks(zip(*leq))
    _check_partial_order(up, down)
    return names, leq, up, down


def _bound_table(up: list[int], side: str, extreme: str) -> tuple[tuple[int, ...], ...]:
    """All-pairs best bounds of a partial order given by its up-set
    masks: least upper bounds for ``leq``, greatest lower bounds for
    its transpose.  ``side`` and ``extreme`` ("upper", "least") word
    the NotALattice raised on the first pair, in row-major order,
    without one.

    The bounds of (i, j) are ``up[i] & up[j]``, and u is the best one
    when every bound lies in ``up[u]``.  In a partial order it is
    unique, so the scan order cannot change the table: the id a
    canonical (topological) order gives, the lowest bound for joins and
    the highest for meets, is tried first, and only a miss scans the
    bounds.  The table is symmetric, and the first failing pair of a
    row-major scan has i <= j, so only that half is computed."""
    n = len(up)
    lowest_first = side == "upper"
    table = [[0] * n for _ in range(n)]
    for i, up_i in enumerate(up):
        row = table[i]
        for j in range(i, n):
            bounds = up_i & up[j]
            if not bounds:
                raise NotALattice(f"({i}, {j}) has no {side} bound", witness=(i, j))
            u = (bounds & -bounds if lowest_first else bounds).bit_length() - 1
            if bounds & ~up[u]:
                u = next((v for v in _bits(bounds) if not bounds & ~up[v]), None)
                if u is None:
                    raise NotALattice(
                        f"({i}, {j}) has no {extreme} {side} bound", witness=(i, j)
                    )
            row[j] = table[j][i] = u
    return tuple(map(tuple, table))


def _covers(masks: list[int], lowest: bool) -> tuple[tuple[int, ...], ...]:
    """Covers as ascending ids, peeled from up-set ``masks`` lowest id
    first (upper covers) or from down-set masks highest first (lower):
    in a topological order the lowest c left in up[b] - {b} covers b,
    and removing up[c] drops no other cover, one step per cover.  On a
    non-canonical order each step still removes c; ``_set_order`` rejects it."""
    out = []
    for b, m in enumerate(masks):
        m &= ~(1 << b)
        found = []
        while m:
            c = (m & -m if lowest else m).bit_length() - 1
            found.append(c)
            m &= ~masks[c]
        out.append(tuple(found if lowest else reversed(found)))
    return tuple(out)


def _restrict(table, image, projection) -> tuple[tuple[int, ...], ...]:
    """The rows and columns ``image`` (two or more ids, so each pick is
    a tuple) of ``table``, entries mapped through ``projection``."""
    pick = itemgetter(*image)
    return tuple(itemgetter(*pick(row))(projection) for row in pick(table))


def _residual_column(leq, below, joins, covers, incomparable, row) -> tuple[int, ...] | None:
    """Column x of the residual table, (y : x) for every y, from row x, or None
    when row x breaks a law that reads it alone: monotone along the upper
    ``covers``, the join law on the ``incomparable`` pairs.  Those make a -> ax
    keep joins, so {a : ax <= y} holds 0 (row[0] = 0) and is closed under joins,
    and its join is its largest id, where the scan down from the top stops;
    ``below`` is the transpose of ``leq``."""
    if not (all(leq[row[b]][row[c]] for b, cs in enumerate(covers) for c in cs)
            and all(row[joins[b][c]] == joins[row[b]][row[c]] for b, c in incomparable)):
        return None
    top = len(row) - 1
    column = []
    for below_y in below:
        a = top
        while not below_y[row[a]]:
            a -= 1
        column.append(a)
    return tuple(column)


def _columns(poset) -> partial:
    """``_residual_column`` bound to ``poset``'s tables: row -> column or None."""
    return partial(_residual_column, poset.leq, tuple(zip(*poset.leq)), poset.joins,
                   poset.upper_covers, poset.incomparable)


def canonical_permutation(down: list[int]) -> list[int]:
    """Stable topological order of a validated partial order given by
    its down-set masks: bottom first, top last, ties broken by input
    position.

    Returns ``order`` such that ``order[new_id] = old_id``.
    """
    placed: list[int] = []
    done = 0  # mask of the placed elements
    remaining = list(range(len(down)))
    while remaining:
        i = next((i for i in remaining if not down[i] & ~done & ~(1 << i)), None)
        if i is None:
            raise NotAPartialOrder("cycle while ordering", witness=tuple(remaining))
        placed.append(i)
        done |= 1 << i
        remaining.remove(i)
    return placed


class _Order:
    """Order queries on a canonical carrier, shared by posets and
    multiplicative lattices; reads the ``size``, ``leq``, ``joins`` and
    ``meets`` tables of the instance."""

    __slots__ = ()

    @property
    def bottom(self) -> ElementId:
        return 0

    @property
    def top(self) -> ElementId:
        return self.size - 1

    def le(self, x: ElementId, y: ElementId) -> bool:
        return self.leq[x][y]

    def lt(self, x: ElementId, y: ElementId) -> bool:
        return x != y and self.leq[x][y]

    def join(self, x: ElementId, y: ElementId) -> ElementId:
        return self.joins[x][y]

    def meet(self, x: ElementId, y: ElementId) -> ElementId:
        return self.meets[x][y]

    def join_of(self, ids: Iterable[ElementId]) -> ElementId:
        """Join of a set of elements; the empty join is bottom."""
        out = 0
        for x in ids:
            out = self.joins[out][x]
        return out

    def meet_of(self, ids: Iterable[ElementId]) -> ElementId:
        """Meet of a set of elements; the empty meet is top."""
        out = self.size - 1
        for x in ids:
            out = self.meets[out][x]
        return out


class FinitePoset(_Order):
    """A finite lattice-ordered carrier in canonical order.

    ``names`` are distinct labels; ``leq`` is the full order relation;
    ``up`` and ``down`` are each element's up-set and down-set masks,
    ``lower_covers`` and ``upper_covers`` its neighbours in the Hasse
    diagram, as tuples of ids in ascending order; ``incomparable``
    holds the incomparable pairs (b, c), b < c, in row-major order.
    The constructor validates the partial-order and lattice axioms and
    requires canonical element order (bottom id 0, top id size-1,
    topological); the parsing helpers canonicalize raw input first.
    A closure image (:meth:`_closure_image`) inherits its order instead
    of checking it: the parent's ``leq`` restricted, its tables projected.
    """

    __slots__ = (
        "size", "names", "leq", "up", "down", "lower_covers", "upper_covers",
        "incomparable", "joins", "meets",
    )

    def __init__(self, names: Iterable[str], leq) -> None:
        names, leq, up, down = _checked_order(names, leq)
        self._set_order(names, leq, up, down, _bound_table(up, "upper", "least"),
                        _bound_table(down, "lower", "greatest"))

    def _set_order(self, names, leq, up, down, joins, meets) -> None:
        """Store a canonical partial order with its up-set and down-set
        masks and join and meet tables (``_bound_table`` of a checked
        order, or a restriction), build the covers, check it is canonical."""
        n = len(names)
        self.size, self.names, self.leq = n, names, leq
        self.up, self.down = tuple(up), tuple(down)
        self.lower_covers = _covers(down, False)
        self.upper_covers = _covers(up, True)
        everything = (1 << n) - 1
        self.incomparable = tuple(
            (b, c) for b in range(n)
            for c in _bits((everything ^ (up[b] | down[b])) >> b << b)
        )
        self.joins, self.meets = joins, meets
        if up[0] != everything:
            raise InternalValidationFailure("carrier not in canonical order: bottom")
        if down[n - 1] != everything:
            raise InternalValidationFailure("carrier not in canonical order: top")
        if any(up_i & ((1 << i) - 1) for i, up_i in enumerate(up)):
            raise InternalValidationFailure("carrier not in canonical order: not topological")

    def _closure_image(self, image, projection) -> "FinitePoset":
        """The sub-poset on ``image`` (ascending ids) of the closure
        x -> image[projection[x]]: this order restricted, its tables
        ``_restrict``-ed.  In O(n + covers), the closure must fix ``image``
        (so be idempotent), be extensive and be monotone along covers."""
        leq, close = self.leq, [image[k] for k in projection]
        for failure, witness in chain(
            ((f"idempotent at {x}", (x,)) for k, x in enumerate(image) if projection[x] != k),
            ((f"extensive at {x}", (x,)) for x, cx in enumerate(close) if not leq[x][cx]),
            ((f"monotone at ({x}, {y})", (x, y)) for x, ys in enumerate(self.upper_covers)
             for y in ys if not leq[close[x]][close[y]]),
        ):
            raise InternalValidationFailure(f"projection not {failure}", witness)
        pick = itemgetter(*image)
        leq = tuple(map(pick, pick(leq)))
        sub = FinitePoset.__new__(FinitePoset)
        sub._set_order(pick(self.names), leq, _masks(leq), _masks(zip(*leq)),
                       *(_restrict(t, image, projection) for t in (self.joins, self.meets)))
        return sub

    @classmethod
    def from_raw(cls, names, leq) -> tuple["FinitePoset", list[int]]:
        """Canonicalize arbitrary element order, then build.

        Returns the poset and the permutation ``order[new_id] = old_id``
        so companion tables can be reordered the same way.
        """
        names, leq, up, down = _checked_order(names, leq)
        order = canonical_permutation(down)
        # masks of the relisted rows cost less than relisting the masks
        leq = tuple(tuple(leq[a][b] for b in order) for a in order)
        up, down = _masks(leq), _masks(zip(*leq))
        poset = cls.__new__(cls)
        poset._set_order(tuple(names[o] for o in order), leq, up, down,
                         _bound_table(up, "upper", "least"),
                         _bound_table(down, "lower", "greatest"))
        return poset, order

    def is_chain(self) -> bool:
        # with at most one lower cover each, every down-set is a chain,
        # and the top's is the whole carrier
        return all(len(c) <= 1 for c in self.lower_covers)

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All order automorphisms, found by backtracking on ids."""
        n = self.size
        leq = self.leq
        perm: list[int] = []
        used = [False] * n
        found: list[tuple[int, ...]] = []

        def extend(i: int) -> None:
            if i == n:
                found.append(tuple(perm))
                return
            for img in range(n):
                if used[img]:
                    continue
                ok = all(
                    leq[j][i] == leq[perm[j]][img] and leq[i][j] == leq[img][perm[j]]
                    for j in range(i)
                )
                if ok:
                    perm.append(img)
                    used[img] = True
                    extend(i + 1)
                    perm.pop()
                    used[img] = False

        extend(0)
        return found

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.names == other.names
            and self.leq == other.leq
        )

    def __hash__(self) -> int:
        return hash((self.names, self.leq))

    def __repr__(self) -> str:
        return f"FinitePoset({list(self.names)!r})"


class FiniteMultLattice(_Order):
    """A finite multiplicative lattice with precomputed derived tables.

    The order tables (``size``, ``names``, ``leq``, ``joins``, ``meets``)
    are copied from ``poset``, which is kept, so the order queries are
    the ones a poset answers.  It is not a poset subclass: a poset and a
    lattice on it never compare equal.

    Validation checks, in order: commutativity, identity (top acts as
    1), multiplication by bottom (the empty-join distributivity law
    ``a*0 = 0``), associativity and binary distributivity over joins.
    In a finite lattice binary distributivity plus the bottom law is
    equivalent to distributivity over arbitrary joins.

    Once the first three laws hold, no row (x, y) with x or y in
    {0, top} is the first to fail, so only interior rows are read:
    0 absorbs and top is the identity on either side, so associativity
    holds there, and distributivity when a is 0 or top or b = 0
    (a(0 v c) = ac = 0 v ac); a failure at (a, top, c) is the law at
    (a, c, top), in the earlier row (a, c).  So the witness is the least
    one the full triple scan names.  One function of a row decides
    distributivity there and makes its residual column
    (:func:`_residual_column`), so a search reads each distinct row once.

    Instances are immutable after construction; every operation is a
    pure read, so validated lattices are safe to share freely.
    """

    __slots__ = (
        "poset", "size", "names", "leq", "joins", "meets",
        "mult", "residuals", "provenance",
    )

    def __init__(self, poset: FinitePoset, mult, provenance: dict | None = None):
        try:
            mult = tuple(map(tuple, mult))
        except TypeError:  # mult or a row is not iterable, so not a matrix
            mult = ()
        _check_mult(mult, poset.size)
        self._store(poset, mult, dict(provenance) if provenance else {})

    def _store(self, poset: FinitePoset, mult: tuple, provenance: dict,
               residuals=None, column=None) -> None:
        """Set every slot from an n x n tuple of in-range ints.  A closure image
        passes its ``residuals``; anything else is validated, reading each row
        through ``column`` (a search passes its memo of :func:`_columns`), and
        its residual table is made of the columns ``column`` returns."""
        self.poset = poset
        self.size = poset.size
        self.names = poset.names
        self.leq = poset.leq
        self.joins = poset.joins
        self.meets = poset.meets
        self.mult = mult
        self.provenance = provenance
        if residuals is None:
            residuals = tuple(zip(*self._validate(column or _columns(poset))))
        self.residuals = residuals

    def _closure_image(self, image, projection, provenance) -> "FiniteMultLattice":
        """The lattice on ``image`` of the closure ``projection`` (checked by
        :meth:`FinitePoset._closure_image`), multiplying by (x, y) -> p(xy):
        this lattice's tables ``_restrict``-ed, not re-validated.  Instead p
        must be multiplicative, checked row by row in O(n^2), raising the least
        (x, y) with p(x)p(y) != p(xy); for a closure that is the nucleus law
        c(x)c(y) <= c(xy).  p is onto and keeps joins and products, so laws carry over."""
        poset = self.poset._closure_image(image, projection)
        mult = _restrict(self.mult, image, projection)
        spread = itemgetter(*projection)
        for x, row in enumerate(self.mult):
            got = spread(mult[projection[x]])
            if got != itemgetter(*row)(projection):
                y = next(y for y, xy in enumerate(row) if got[y] != projection[xy])
                raise InternalValidationFailure(f"projection not multiplicative at ({x}, {y})",
                                                (x, y))
        sub = FiniteMultLattice.__new__(FiniteMultLattice)
        sub._store(poset, mult, provenance, _restrict(self.residuals, image, projection))
        return sub

    def _validate(self, column) -> tuple:
        """Check the axioms in order, raising on the least witness, and
        return the residual columns, ``column`` of each row.
        Commutativity is one compare with the transpose.  Two lemmas
        decide the other two laws from fewer reads, and only when one
        fails are the triples scanned for the least witness:

        - given commutativity, the rows (x, y) with x <= y decide
          associativity: for u <= v <= w, rows (u, v) at w and (u, w)
          at v equate the three products of u, v and w.  take[y](row_x)
          is the row z -> x(yz);
        - for b <= c the law a(b v c) = ab v ac says ab <= ac, so
          distributivity is every row monotone along the covers plus
          the law on the incomparable pairs, which ``column`` checks,
          returning None on a row that breaks them.

        ``column`` scans down to row[0], so it runs only once the bottom
        law holds."""
        n, top = self.size, self.size - 1
        mult, joins = self.mult, self.joins
        if mult != tuple(zip(*mult)):
            x, y = next((x, y) for x in range(n) for y in range(x + 1, n)
                        if mult[x][y] != mult[y][x])
            raise NotCommutative(f"{x}*{y} != {y}*{x}", witness=(x, y))
        for x in range(n):
            if mult[top][x] != x:
                raise NoIdentity(f"top*{x} != {x}", witness=(x,))
        if any(mult[0]):  # row 0 is column 0, the products x*bottom
            x = next(x for x, v in enumerate(mult[0]) if v)
            raise NotDistributive(f"{x}*bottom != bottom (empty join law)", witness=(x, 0))
        columns = tuple(map(column, mult))
        inner = range(1, top)  # empty below n = 3
        take = [itemgetter(*row) for row in mult]
        if not (
            all(mult[row_x[y]] == take[y](row_x)
                for x, row_x in enumerate(mult[1:top], 1) for y in range(x, top))
            and None not in columns
        ):
            for x, y, z in product(inner, inner, range(n)):
                if mult[mult[x][y]][z] != mult[x][mult[y][z]]:
                    raise NotAssociative(
                        f"({x}*{y})*{z} != {x}*({y}*{z})", witness=(x, y, z)
                    )
            for a, b, c in product(inner, inner, range(n)):
                if c > b and mult[a][joins[b][c]] != joins[mult[a][b]][mult[a][c]]:
                    raise NotDistributive(
                        f"{a}*({b} v {c}) != {a}*{b} v {a}*{c}",
                        witness=(a, b, c),
                    )
        return columns

    # -- carrier ------------------------------------------------------

    def id_of(self, name: str) -> ElementId:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownElement(f"no element named {name!r}", name) from None

    # -- operations ---------------------------------------------------

    def mul(self, x: ElementId, y: ElementId) -> ElementId:
        return self.mult[x][y]

    def residual(self, y: ElementId, x: ElementId) -> ElementId:
        """The largest element a with ``a*x <= y`` (read "(y : x)")."""
        return self.residuals[y][x]

    def divides(self, a: ElementId, b: ElementId) -> ElementId | None:
        """Least witness c with ``a*c == b``, or None if a never reaches b."""
        row = self.mult[a]
        for c in range(self.size):
            if row[c] == b:
                return c
        return None

    def elements(self) -> Iterator[ElementId]:
        return iter(range(self.size))

    def flat_mult(self) -> tuple[int, ...]:
        """Row-major multiplication table, the canonical sort key for
        structures sharing a poset."""
        return tuple(v for row in self.mult for v in row)

    # -- serialization ------------------------------------------------

    def serialize(self) -> dict:
        """Canonical-order document in the interchange schema."""
        doc: dict = {
            "elements": list(self.names),
            "leq": [[1 if v else 0 for v in row] for row in self.leq],
            "mult": [list(row) for row in self.mult],
        }
        for key in _PROVENANCE_KEYS:
            if key in self.provenance:
                doc[key] = self.provenance[key]
        return doc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteMultLattice)
            and self.poset == other.poset
            and self.mult == other.mult
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.mult))

    def __repr__(self) -> str:
        return f"FiniteMultLattice({list(self.names)!r})"


def _trusted_lattice(poset: FinitePoset, mult, column=None, provenance=None):
    """The fully validated lattice of an n x n table of in-range ints, a search
    leaf's (read through the search's memo ``column``) or a parsed document's."""
    lattice = FiniteMultLattice.__new__(FiniteMultLattice)
    lattice._store(poset, tuple(map(tuple, mult)), provenance or {}, None, column)
    return lattice


def _check_element(L: _Order, x: ElementId) -> None:
    """Raise UnknownElement unless x is an element id of L: an int (not a
    bool) in range(L.size).  Table accessors such as ``mul`` skip this."""
    if not (type(x) is int and 0 <= x < L.size):
        raise UnknownElement(f"no element with id {x!r}", x)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadSchema(message)


def _check_mult(mult, n: int) -> None:
    """Raise BadSchema unless ``mult`` is n x n of ints (not bools) in range(n)."""
    _require(len(mult) == n and all(len(row) == n for row in mult),
             f'"mult" must be a {n}x{n} matrix')
    _require(all(type(v) is int and 0 <= v < n for row in mult for v in row),
             '"mult" entries must be element indices')


def _load(document: dict, keys: tuple[str, ...]) -> dict:
    """Check a decoded lattice document's shape: an object holding
    ``keys`` (``"elements"`` first, then n x n matrices), non-empty
    string names, and a ``leq`` of integer or boolean 0/1 entries."""
    _require(isinstance(document, dict), "document must be a JSON object")
    for key in keys:
        _require(key in document, f'missing "{key}"')
    elements = document["elements"]
    _require(isinstance(elements, list) and elements, '"elements" must be a non-empty list')
    _require(all(isinstance(e, str) for e in elements), "element names must be strings")
    n = len(elements)
    for key in keys[1:]:
        mat = document[key]
        _require(
            isinstance(mat, list) and len(mat) == n and all(
                isinstance(row, list) and len(row) == n for row in mat
            ),
            f'"{key}" must be a {n}x{n} matrix',
        )
    _require(
        all(
            type(v) in (int, bool) and v in (0, 1)
            for row in document["leq"]
            for v in row
        ),
        '"leq" entries must be 0/1',
    )
    return document


def parse_poset(document: dict) -> FinitePoset:
    """Read and canonicalize the order part of a lattice document."""
    document = _load(document, ("elements", "leq"))
    poset, _ = FinitePoset.from_raw(document["elements"], document["leq"])
    return poset


def parse_lattice(document: dict) -> FiniteMultLattice:
    """Parse, canonicalize and fully validate a lattice document.

    The input order may be arbitrary; the result is re-indexed so the
    bottom has id 0 and the top has id size-1 (stable topological
    order otherwise).  Raises BadSchema for shape problems and the
    specific axiom error (with witness) for structural ones.
    """
    document = _load(document, ("elements", "leq", "mult"))
    n = len(document["elements"])
    mult = document["mult"]
    _check_mult(mult, n)
    poset, order = FinitePoset.from_raw(document["elements"], document["leq"])
    inverse = sorted(range(n), key=order.__getitem__)  # inverse[old_id] = new_id
    new_mult = [[inverse[mult[a][b]] for b in order] for a in order]
    provenance = {k: document[k] for k in _PROVENANCE_KEYS if k in document}
    return _trusted_lattice(poset, new_mult, provenance=provenance)
