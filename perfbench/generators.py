"""Input documents for the benchmark, built without importing sharplat.

Every generator returns a plain interchange-format document
(``elements``, ``leq`` and, for lattices, ``mult``) in canonical order:
bottom first, top last, a topological order in between.  The facts the
benchmark checks outputs against come from the construction, not from
the program under test.
"""

from __future__ import annotations

import random


def _chain_leq(n: int) -> list[list[int]]:
    return [[1 if i <= j else 0 for j in range(n)] for i in range(n)]


def valuation_chain(n: int) -> dict:
    """The truncated valuation chain 0 < m^(n-2) < ... < m < 1 with
    m^i * m^j = m^(i+j), or 0 past m^(n-2).  Sharp for every n >= 2;
    its only prime is m."""
    names = ["0"] + [f"m{e}" if e > 1 else "m" for e in range(n - 2, 0, -1)] + ["1"]

    def exponent(i: int) -> int | None:
        return None if i == 0 else n - 1 - i

    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            ei, ej = exponent(i), exponent(j)
            if ei is None or ej is None or ei + ej > n - 2:
                row.append(0)
            else:
                row.append(n - 1 - (ei + ej))
        mult.append(row)
    return {"elements": names, "leq": _chain_leq(n), "mult": mult}


def nil_chain(n: int) -> dict:
    """The n-chain whose interior products are all 0; the top is the
    identity.  Not sharp for n >= 4; its only prime is the coatom."""
    names = ["0"] + [f"c{i}" for i in range(1, n - 1)] + ["1"]
    top = n - 1
    mult = [
        [j if i == top else i if j == top else 0 for j in range(n)]
        for i in range(n)
    ]
    return {"elements": names, "leq": _chain_leq(n), "mult": mult}


def product(left: dict, right: dict) -> dict:
    """Componentwise product of two lattice documents, elements listed
    in lexicographic order of their component ids (a linear extension
    of the product order).  Sharp when both factors are sharp; never
    local or a domain when both factors have more than one element."""
    nl, nr = len(left["elements"]), len(right["elements"])
    pairs = [(a, b) for a in range(nl) for b in range(nr)]
    index = {p: k for k, p in enumerate(pairs)}
    names = [f"({left['elements'][a]},{right['elements'][b]})" for a, b in pairs]
    leq = [
        [1 if left["leq"][a][c] and right["leq"][b][d] else 0 for c, d in pairs]
        for a, b in pairs
    ]
    mult = [
        [index[(left["mult"][a][c], right["mult"][b][d])] for c, d in pairs]
        for a, b in pairs
    ]
    return {"elements": names, "leq": leq, "mult": mult}


def poset_p() -> dict:
    """The 8-element poset 0 < p, q < c1 < c2 < c3 < c4 < 1."""
    names = ["0", "p", "q", "c1", "c2", "c3", "c4", "1"]
    rank = [0, 1, 1, 2, 3, 4, 5, 6]
    leq = [
        [1 if i == j or rank[i] < rank[j] else 0 for j in range(8)]
        for i in range(8)
    ]
    return {"elements": names, "leq": leq}


def primes(doc: dict) -> list[int]:
    """Ids of the prime elements, by brute force: p below the top such
    that xy <= p forces x <= p or y <= p."""
    n = len(doc["elements"])
    leq, mult = doc["leq"], doc["mult"]
    return [
        p
        for p in range(n - 1)
        if all(
            leq[x][p] or leq[y][p] or not leq[mult[x][y]][p]
            for x in range(n)
            for y in range(n)
        )
    ]


def permute(doc: dict, order: list[int]) -> dict:
    """The same document listed in another element order:
    ``order[new_position] = old_id``."""
    position = [0] * len(order)
    for new, old in enumerate(order):
        position[old] = new
    out = {
        "elements": [doc["elements"][o] for o in order],
        "leq": [[doc["leq"][a][b] for b in order] for a in order],
    }
    if "mult" in doc:
        out["mult"] = [[position[doc["mult"][a][b]] for b in order] for a in order]
    return out


def shuffle(doc: dict, rng: random.Random) -> dict:
    """The document with its element order shuffled by ``rng``."""
    order = list(range(len(doc["elements"])))
    rng.shuffle(order)
    return permute(doc, order)


def stable_topological(doc: dict) -> dict:
    """The document re-listed in stable topological order: repeatedly
    take the first remaining element (by listed position) whose strict
    predecessors are all placed.  This is the canonical order the
    interchange format documents, so a report on a shuffled document
    must match the report on this one byte for byte; for a chain it
    is simply the unshuffled order."""
    n = len(doc["elements"])
    leq = doc["leq"]
    placed: list[int] = []
    remaining = list(range(n))
    while remaining:
        for i in remaining:
            if all(j in placed or not leq[j][i] for j in range(n) if j != i):
                placed.append(i)
                remaining.remove(i)
                break
        else:
            raise ValueError("order relation has a cycle")
    return permute(doc, placed)
