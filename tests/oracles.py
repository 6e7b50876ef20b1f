"""Reference implementations the tests check the engine against.

Each oracle here is a slow, direct reading of a definition, shared by
every test that needs it.  They import only public ``sharplat`` names
and never call the search, its incremental check or the validator they
are meant to check (``test_oracles`` parses this file to hold that).

- :func:`triple_scan` is the validator as a plain triple scan;
- :func:`structures_by_sweep` tries every interior table and keeps what
  the triple scan accepts;
- :func:`tnorms` enumerates the discrete t-norms on a chain, which are
  exactly its structures (B. De Baets and R. Mesiar, "Discrete
  triangular norms", 2003);
- :func:`lift` adds a new bottom below an order: the domains on the
  lift are the lifts (:func:`lift_table`) of the structures below it;
- :func:`factorization_witnesses` decides the definition of sharpness
  by full scan;
- :func:`stable_topological_order` is the interchange format's
  canonical element order as a list scan;
- :func:`masks` reads a relation's rows as bitmasks, one cell at a
  time;
- :func:`residuals` finds each residual (y : x) as the greatest a with
  ax <= y, reading only the lattice's own order and multiplication;
- :func:`weak_meet_principal_witness` and
  :func:`weak_join_principal_witness` decide the weak principal forms
  by their definitions, one y at a time;
- :func:`zminus_quotient`, :func:`r1_quotient` and
  :func:`nideal_quotient` write finite quotients of the exemplar models
  as lattice documents, each product and order read off the model, and
  return each with its carrier of model elements.
"""

from itertools import combinations, product

from sharplat import FinitePoset
from sharplat.exemplars import (
    FGIdeal,
    R1Element,
    ZMinusElement,
    ideal_join,
    ideal_le,
    ideal_product,
    r1_join,
    r1_le,
    r1_mult,
    z_join,
    z_le,
    z_mult,
)
from sharplat.errors import (
    InternalValidationFailure,
    NoIdentity,
    NotAssociative,
    NotCommutative,
    NotDistributive,
    SharplatError,
)


def triple_scan(poset, mult):
    """The validator as a plain triple scan: every axiom checked triple
    by triple, in the validator's order, raising on the first
    violation."""
    n = poset.size
    joins, meets, leq = poset.joins, poset.meets, poset.leq
    top = n - 1
    for x in range(n):
        for y in range(x + 1, n):
            if mult[x][y] != mult[y][x]:
                raise NotCommutative(f"{x}*{y} != {y}*{x}", witness=(x, y))
    for x in range(n):
        if mult[top][x] != x:
            raise NoIdentity(f"top*{x} != {x}", witness=(x,))
    for x in range(n):
        if mult[x][0] != 0:
            raise NotDistributive(
                f"{x}*bottom != bottom (empty join law)", witness=(x, 0)
            )
    for x in range(n):
        for y in range(n):
            xy = mult[x][y]
            for z in range(n):
                if mult[xy][z] != mult[x][mult[y][z]]:
                    raise NotAssociative(
                        f"({x}*{y})*{z} != {x}*({y}*{z})", witness=(x, y, z)
                    )
    for a in range(n):
        for b in range(n):
            for c in range(b + 1, n):
                if mult[a][joins[b][c]] != joins[mult[a][b]][mult[a][c]]:
                    raise NotDistributive(
                        f"{a}*({b} v {c}) != {a}*{b} v {a}*{c}", witness=(a, b, c)
                    )
    for x in range(n):
        for y in range(n):
            if not leq[mult[x][y]][meets[x][y]]:
                raise InternalValidationFailure(
                    f"derived bound xy <= x^y fails at ({x}, {y})", witness=(x, y)
                )


def structures_by_sweep(poset):
    """Every structure table on ``poset``, in ascending row-major order:
    each value assignment of the interior products (the identity and
    bottom rows are forced) that :func:`triple_scan` accepts.
    Exponential in the interior: meant for carriers of up to 5 elements.
    """
    n = poset.size
    cells = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    accepted = []
    for values in product(range(n), repeat=len(cells)):
        table = [[0] * n for _ in range(n)]
        for x in range(n):
            table[n - 1][x] = table[x][n - 1] = x
        for (i, j), v in zip(cells, values):
            table[i][j] = table[j][i] = v
        try:
            triple_scan(poset, table)
        except SharplatError:
            continue
        accepted.append(tuple(map(tuple, table)))
    return sorted(accepted)


def tnorms(n):
    """Every discrete t-norm on the n-chain 0 < 1 < ... < n-1, in
    ascending row-major order: the commutative, associative, monotone
    tables with the top as identity.

    A backtracking search over the interior cells i <= j, row-major.
    Monotonicity bounds each cell below by its left and upper
    neighbours and above by i = (i, top); each assignment is checked
    against the associativity triples that read it and are determined.
    """
    top = n - 1
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = table[x][0] = 0
        table[top][x] = table[x][top] = x
    cells = [(i, j) for i in range(1, top) for j in range(i, top)]
    found = []

    def associative(a, b):
        # the new cell ab as x*y in (xy)z = x(yz), for every z, and as
        # the outer product (xy)*b with xy = a; commutativity covers the
        # triples that read it as y*z or x*(yz)
        ab = table[a][b]
        for z in range(n):
            bz = table[b][z]
            if bz is not None:
                left, right = table[ab][z], table[a][bz]
                if left is not None and right is not None and left != right:
                    return False
        for x in range(n):
            for y in range(n):
                if table[x][y] == a:
                    yb = table[y][b]
                    if yb is not None and table[x][yb] not in (None, ab):
                        return False
        return True

    def fill(k):
        if k == len(cells):
            found.append(tuple(map(tuple, table)))
            return
        i, j = cells[k]
        for v in range(max(table[i - 1][j], table[i][j - 1]), i + 1):
            table[i][j] = table[j][i] = v
            if associative(i, j) and associative(j, i):
                fill(k + 1)
        table[i][j] = table[j][i] = None

    fill(0)
    return found


def lift(Q):
    """1 (+) Q: the poset ``Q`` with a new bottom "0" added below it,
    Q's own elements primed and shifted up by one id."""
    n = Q.size + 1
    names = ["0", *(f"{name}'" for name in Q.names)]
    leq = [[i == 0 or (j > 0 and Q.leq[i - 1][j - 1]) for j in range(n)] for i in range(n)]
    return FinitePoset(names, leq)


def lift_table(mult):
    """The structure on 1 (+) Q extending the table ``mult`` on Q: the
    new bottom absorbs, and every other product is as in Q."""
    n = len(mult) + 1
    return ((0,) * n, *((0, *(v + 1 for v in row)) for row in mult))


def factorization_witnesses(L) -> dict:
    """Map each (a1, a2, b) with a1 a2 <= b to the least factorization
    (b1, b2) of b with a_i <= b_i, by full scan, or ``{}`` if one has
    none.  It always holds (0, 0, 0), so L is sharp exactly when it is
    non-empty: the oracle for the table route."""
    witnesses = {}
    for a1 in L.elements():
        for a2 in L.elements():
            prod = L.mul(a1, a2)
            for b in L.elements():
                if not L.le(prod, b):
                    continue
                found = None
                for b1 in L.elements():
                    if found is not None:
                        break
                    if not L.le(a1, b1):
                        continue
                    for b2 in L.elements():
                        if L.mul(b1, b2) == b and L.le(a2, b2):
                            found = (b1, b2)
                            break
                if found is None:
                    return {}
                witnesses[(a1, a2, b)] = found
    return witnesses


def stable_topological_order(leq):
    """The interchange format's canonical order: repeatedly take the
    first remaining element, by listed position, whose strict
    predecessors are all placed."""
    n = len(leq)
    placed = []
    remaining = list(range(n))
    while remaining:
        i = next(
            i for i in remaining
            if all(j in placed or not leq[j][i] for j in range(n) if j != i)
        )
        placed.append(i)
        remaining.remove(i)
    return placed


def masks(rel):
    """Each row of a 0/1 relation as an int whose bit k is set when the
    row's cell k holds, one cell at a time: the up-sets of ``leq``, or
    the down-sets when given its transpose."""
    out = []
    for row in rel:
        mask = 0
        for k, v in enumerate(row):
            if v:
                mask += 2**k
        out.append(mask)
    return out


def residuals(L):
    """The table (y : x), row y, by definition: the a with a x <= y that
    lies above every other such a, or None where there is none.  One
    pass keeps the highest candidate seen, then every other candidate is
    checked to lie below it."""

    def greatest(candidates):
        found = candidates[0]  # the bottom: 0 x = 0 <= y
        for a in candidates:
            if L.le(found, a):
                found = a
        return found if all(L.le(a, found) for a in candidates) else None

    return tuple(
        tuple(
            greatest([a for a in L.elements() if L.le(L.mul(a, x), y)])
            for x in L.elements()
        )
        for y in L.elements()
    )


def weak_meet_principal_witness(L, x):
    """The least (y,) with (y:x) x != x ^ y, or None when x is weak
    meet-principal."""
    for y in L.elements():
        if L.mul(L.residual(y, x), x) != L.meet(x, y):
            return (y,)
    return None


def weak_join_principal_witness(L, x):
    """The least (y,) with (xy:x) != y v (0:x), or None when x is weak
    join-principal."""
    zero_res = L.residual(0, x)
    for y in L.elements():
        if L.residual(L.mul(x, y), x) != L.join(y, zero_res):
            return (y,)
    return None


def _quotient_document(carrier, le, mult, join):
    """The lattice document on ``carrier``, a finite list of model
    elements closed under the quotient product x*y = xy v c, where c
    is the least element of ``carrier``; each element is named by its
    ``repr``.  Returns the document and ``carrier``, in the same order."""
    bottom = next(c for c in carrier if all(le(c, x) for x in carrier))
    index = {x: i for i, x in enumerate(carrier)}
    document = {
        "elements": [repr(x) for x in carrier],
        "leq": [[int(le(x, y)) for y in carrier] for x in carrier],
        "mult": [[index[join(mult(x, y), bottom)] for y in carrier] for x in carrier],
    }
    return document, carrier


def zminus_quotient(n):
    """Z- factored by m^(n+1): the chain m^0 > m^1 > ... > m^(n+1), a
    valuation chain of n + 2 elements."""
    return _quotient_document([ZMinusElement(k) for k in range(n + 2)], z_le, z_mult, z_join)


def r1_quotient(n):
    """R1 factored by closed(n), on the integer grid: closed(k) for
    k = 0..n and open(k) for k = 0..n-1, 2n + 1 elements.  Endpoints add
    under the product and subtract under residuals, so the grid is
    closed under both."""
    carrier = [R1Element.closed(k) for k in range(n + 1)]
    carrier += [R1Element.open(k) for k in range(n)]
    return _quotient_document(carrier, r1_le, r1_mult, r1_join)


def nideal_quotient():
    """The monoid ideals generated by products of 2 and 3 that contain
    <8, 27>, factored by <8, 27>: an ideal is fixed by which 2^i 3^j
    with i, j < 3 it holds, an up-set of that 3 x 3 grid, so there are
    C(6, 3) = 20 of them."""
    grid = [2**i * 3**j for i in range(3) for j in range(3)]
    carrier = {
        FGIdeal.of(8, 27, *gens)
        for k in range(len(grid) + 1) for gens in combinations(grid, k)
    }
    ordered = sorted(carrier, key=lambda a: sorted(a.generators))
    return _quotient_document(ordered, ideal_le, ideal_product, ideal_join)
