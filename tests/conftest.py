from pathlib import Path

import pytest
from hypothesis import settings

from sharplat import enumeration, gallery
from sharplat.core import FinitePoset

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

# Reproducible runs: ``pytest --hypothesis-profile=ci`` draws the same
# examples every time, and more of them for the properties that do not
# pin their own ``max_examples``.  The default profile is unchanged.
settings.register_profile("ci", derandomize=True, database=None, max_examples=300)


def ranked_poset(names, rank) -> FinitePoset:
    """The order x < y iff rank[x] < rank[y] on ``names``."""
    n = len(names)
    leq = [[i == j or rank[i] < rank[j] for j in range(n)] for i in range(n)]
    return FinitePoset(names, leq)


def poset_slots(poset) -> dict:
    """Every stored slot of ``poset``, for slot-by-slot comparison."""
    return {slot: getattr(poset, slot) for slot in FinitePoset.__slots__}


# 0 < p, q < c < 1: p v q = c is neither p, q nor the top
SPLIT5 = ranked_poset(["0", "p", "q", "c", "1"], [0, 1, 1, 2, 3])
# 0 < p, q < c1 < c2 < c3 < c4 < 1, the benchmark's non-chain census poset
POSET_P = ranked_poset(
    ["0", "p", "q", "c1", "c2", "c3", "c4", "1"], [0, 1, 1, 2, 3, 4, 5, 6]
)


def chain_document(n, mult):
    """The n-chain document 0 < c1 < ... < c(n-2) < 1 with table ``mult``."""
    names = ["0", *(f"c{i}" for i in range(1, n - 1)), "1"]
    leq = [[int(i <= j) for j in range(n)] for i in range(n)]
    return {"elements": names, "leq": leq, "mult": mult}


def valuation_document(n):
    """The valuation n-chain, sharp and local: id i is m^(n-1-i), so ids
    i and j multiply to id i + j - (n - 1), or 0 past the end."""
    return chain_document(
        n, [[max(i + j - (n - 1), 0) for j in range(n)] for i in range(n)]
    )


def nil_document(n):
    """The n-chain whose interior products are all 0: not sharp once
    n >= 4."""
    top = n - 1
    return chain_document(n, [
        [j if i == top else i if j == top else 0 for j in range(n)]
        for i in range(n)
    ])


def relisted(doc, order):
    """``doc`` with its elements listed as ``order[new] = old``."""
    position = {old: new for new, old in enumerate(order)}
    return {
        "elements": [doc["elements"][o] for o in order],
        "leq": [[doc["leq"][a][b] for b in order] for a in order],
        "mult": [[position[doc["mult"][a][b]] for b in order] for a in order],
    }


def product_document(A, B):
    """The componentwise product of the lattice documents A and B."""
    pairs = [(a, b) for a in range(len(A["elements"])) for b in range(len(B["elements"]))]
    return {
        "elements": [f"{A['elements'][a]},{B['elements'][b]}" for a, b in pairs],
        "leq": [[int(A["leq"][a][c] and B["leq"][b][d]) for c, d in pairs]
                for a, b in pairs],
        "mult": [[pairs.index((A["mult"][a][c], B["mult"][b][d])) for c, d in pairs]
                 for a, b in pairs],
    }


@pytest.fixture(scope="session")
def nonsharp5():
    return gallery.nonsharp5()


@pytest.fixture(scope="session")
def chain2():
    return gallery.chain2()


@pytest.fixture(scope="session")
def chain3_nil():
    return gallery.chain3_nil()


@pytest.fixture(scope="session")
def chain3_idem():
    return gallery.chain3_idem()


@pytest.fixture(scope="session")
def diamond():
    return gallery.diamond()


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def census_structures():
    """All structures on the small benchmark posets, enumerated once
    per session: chains of size 2..6, the 4- and 5-element diamonds
    (the 5-element one, M3, carries none) and the split 5-element
    poset."""
    out = {}
    for n in (2, 3, 4, 5, 6):
        out[f"chain{n}"] = list(
            enumeration.enumerate_structures(enumeration.chain_poset(n))
        )
    for w in (2, 3):
        out[f"diamond{w}"] = list(
            enumeration.enumerate_structures(enumeration.diamond_poset(w))
        )
    out["split5"] = list(enumeration.enumerate_structures(SPLIT5))
    return out


@pytest.fixture(scope="session")
def poset_p_structures():
    """The 442 structures on poset P, enumerated once per session."""
    return list(enumeration.enumerate_structures(POSET_P))
