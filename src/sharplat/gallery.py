"""Built-in example lattices and the fixture gallery.

The five named lattices below recur throughout the tests; the gallery
also includes every sharp structure on the five-element chain so golden
tests have stable inputs.  ``write_fixtures`` materializes all of them
as interchange-format JSON files through ``write_document``, which also
writes the CLI's ``--emit-representatives`` files.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import enumeration, predicates
from .core import FiniteMultLattice
from .enumeration import chain_poset, diamond_poset


def chain2() -> FiniteMultLattice:
    """The two-element lattice; its table is forced."""
    return FiniteMultLattice(chain_poset(2), [[0, 0], [0, 1]])


def chain3_nil() -> FiniteMultLattice:
    """0 < m < 1 with m*m = 0."""
    return FiniteMultLattice(chain_poset(3), [[0, 0, 0], [0, 0, 1], [0, 1, 2]])


def chain3_idem() -> FiniteMultLattice:
    """0 < m < 1 with m*m = m."""
    return FiniteMultLattice(chain_poset(3), [[0, 0, 0], [0, 1, 1], [0, 1, 2]])


def nonsharp5() -> FiniteMultLattice:
    """The five-chain 0 < a < b < c < 1 with a*a = b*b = a*b = 0,
    a*c = a, b*c = b, c*c = c: every element outside {c, 1} has
    nontrivial factors, yet the lattice is not sharp."""
    return FiniteMultLattice(
        chain_poset(5),
        [
            [0, 0, 0, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 2, 2],
            [0, 1, 2, 3, 3],
            [0, 1, 2, 3, 4],
        ],
    )


def diamond() -> FiniteMultLattice:
    """0 < p, q < 1 with incomparable p, q and multiplication = meet."""
    return FiniteMultLattice(
        diamond_poset(2), [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    )


def sharp_chain5() -> list[FiniteMultLattice]:
    """Every sharp structure on the five-element chain, in enumeration
    order."""
    return [
        L
        for L in enumeration.enumerate_structures(chain_poset(5))
        if predicates.is_sharp(L)
    ]


BUILTINS = {
    "chain2": chain2,
    "chain3_nil": chain3_nil,
    "chain3_idem": chain3_idem,
    "nonsharp5": nonsharp5,
    "diamond": diamond,
}


def gallery_documents() -> dict[str, dict]:
    """All gallery lattices as serialized documents, keyed by fixture
    name in deterministic order."""
    docs = {name: build().serialize() for name, build in BUILTINS.items()}
    for k, L in enumerate(sharp_chain5(), start=1):
        docs[f"sharp_chain5_{k:02d}"] = L.serialize()
    return docs


def write_document(directory: Path, name: str, doc: dict) -> str:
    """Write ``doc`` to ``directory/name.json`` as indented JSON with a
    final newline, the form of every shipped fixture; returns the file
    name.  The caller makes ``directory``."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path.name


def write_fixtures(directory: str | Path) -> list[str]:
    """Write every gallery document to ``directory``; returns the file
    names written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [write_document(directory, name, doc) for name, doc in gallery_documents().items()]
