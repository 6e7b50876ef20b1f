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


# 0 < p, q < c < 1: p v q = c is neither p, q nor the top
SPLIT5 = ranked_poset(["0", "p", "q", "c", "1"], [0, 1, 1, 2, 3])
# 0 < p, q < c1 < c2 < c3 < c4 < 1, the benchmark's non-chain census poset
POSET_P = ranked_poset(
    ["0", "p", "q", "c1", "c2", "c3", "c4", "1"], [0, 1, 1, 2, 3, 4, 5, 6]
)


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
