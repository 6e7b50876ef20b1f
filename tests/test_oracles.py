"""The engine against the engine-free oracles of ``oracles``, and a
gate that keeps those oracles independent of the engine."""

import ast
from pathlib import Path

import pytest
from conftest import POSET_P, SPLIT5
from oracles import lift, lift_table, tnorms

from sharplat import census, chain_poset, diamond_poset, enumerate_structures

ORACLES = Path(__file__).resolve().parent / "oracles.py"

# the search, its incremental check and the validator the oracles check
_ENGINE = {"_search", "_consistent", "_validate"}


def _tables(poset):
    return [L.mult for L in enumerate_structures(poset)]


@pytest.mark.parametrize("n", range(2, 9))
def test_chain_structures_are_the_discrete_tnorms(n):
    # on a chain, distributivity over joins is monotonicity: the
    # structures are exactly the discrete t-norms, table for table
    assert _tables(chain_poset(n)) == tnorms(n)


@pytest.mark.slow
def test_chain9_structures_are_the_discrete_tnorms():
    tables = tnorms(9)
    assert len(tables) == 13775
    assert _tables(chain_poset(9)) == tables


_BELOW = {
    **{f"chain{n}": chain_poset(n) for n in range(2, 8)},
    "diamond2": diamond_poset(2),
    "diamond3": diamond_poset(3),
    "split5": SPLIT5,
    "P": POSET_P,
}


@pytest.mark.parametrize("Q", _BELOW.values(), ids=_BELOW.keys())
def test_domains_on_a_lift_are_the_lifted_structures(Q):
    # a domain on 1 (+) Q has no two non-bottom elements multiplying to
    # the new bottom, read off its table; the new atom absorbs, so
    # restricting to Q is a structure there, and lifting one back is a
    # domain
    domains = [
        t for t in _tables(lift(Q)) if all(v for row in t[1:] for v in row[1:])
    ]
    assert domains == sorted(lift_table(t) for t in _tables(Q))


@pytest.mark.parametrize(
    "Q", [chain_poset(8), SPLIT5, POSET_P], ids=["chain8", "split5", "P"]
)
def test_census_domains_on_a_lift_count_the_structures_below(Q):
    # the chain-9 census's 2,386 domains are the 2,386 chain-8 structures
    assert census(lift(Q)).domains == census(Q).total


def _violations(tree):
    """Private names imported from sharplat, and references to the
    engine, anywhere in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sharplat":
            parts = node.module.split(".") + [alias.name for alias in node.names]
            found += [name for name in parts if name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [
                part for alias in node.names if alias.name.split(".")[0] == "sharplat"
                for part in alias.name.split(".") if part.startswith("_")
            ]
        elif isinstance(node, ast.Name) and node.id in _ENGINE:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in _ENGINE:
            found.append(node.attr)
    return found


def test_oracles_use_only_public_names_and_no_engine():
    assert _violations(ast.parse(ORACLES.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        "from sharplat.core import _bits",
        "from sharplat._hidden import x",
        "import sharplat._hidden",
        "from sharplat import enumeration\nenumeration._search(p, c)",
        "from sharplat import core\ncore.FiniteMultLattice._validate(L)",
        "_consistent(t)",
    ],
    ids=[
        "private-name", "private-module", "private-import", "search", "validate",
        "consistent",
    ],
)
def test_oracle_gate_catches_private_use(source):
    assert _violations(ast.parse(source))
